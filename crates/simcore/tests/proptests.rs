//! Property-based tests for the simulation substrate, on the in-tree
//! `check` harness.

use realtor_simcore::prelude::*;
use realtor_simcore::{prop_assert, prop_assert_eq};

/// Popping the event queue yields a non-decreasing time sequence, and at
/// equal times preserves insertion (FIFO) order.
#[test]
fn event_queue_pops_sorted_and_stable() {
    forall(
        "event_queue_pops_sorted_and_stable",
        0x51AC01,
        256,
        |r| gen::vec(r, 1, 200, |r| gen::u64_in(r, 0, 1000)),
        |times| {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.schedule(SimTime::from_ticks(t), i);
            }
            let mut last_time = SimTime::ZERO;
            let mut last_seq_at_time: Option<usize> = None;
            while let Some((t, seq)) = q.pop() {
                prop_assert!(t >= last_time);
                if t == last_time {
                    if let Some(prev) = last_seq_at_time {
                        // same timestamp: insertion order must be preserved
                        if times[prev] == times[seq] {
                            prop_assert!(seq > prev);
                        }
                    }
                }
                last_time = t;
                last_seq_at_time = Some(seq);
            }
            Ok(())
        },
    );
}

/// Time arithmetic: (a + d) - d == a and subtraction inverts addition.
#[test]
fn time_add_sub_inverse() {
    forall(
        "time_add_sub_inverse",
        0x51AC02,
        256,
        |r| {
            (
                gen::u64_in(r, 0, u64::MAX / 4),
                gen::u64_in(r, 0, u64::MAX / 4),
            )
        },
        |&(a, d)| {
            let t = SimTime::from_ticks(a);
            let dur = SimDuration::from_ticks(d);
            prop_assert_eq!((t + dur) - dur, t);
            prop_assert_eq!((t + dur) - t, dur);
            Ok(())
        },
    );
}

/// Welford mean always lies within [min, max] and matches a naive mean.
#[test]
fn welford_mean_in_bounds() {
    forall(
        "welford_mean_in_bounds",
        0x51AC03,
        256,
        |r| gen::vec(r, 1, 300, |r| gen::f64_in(r, -1e6, 1e6)),
        |xs| {
            let mut w = Welford::new();
            for &x in xs {
                w.record(x);
            }
            let naive: f64 = xs.iter().sum::<f64>() / xs.len() as f64;
            prop_assert!((w.mean() - naive).abs() < 1e-6 * (1.0 + naive.abs()));
            prop_assert!(w.mean() >= w.min() - 1e-9);
            prop_assert!(w.mean() <= w.max() + 1e-9);
            prop_assert!(w.variance() >= 0.0);
            Ok(())
        },
    );
}

/// Merging two Welford accumulators equals one sequential pass.
#[test]
fn welford_merge_associative() {
    forall(
        "welford_merge_associative",
        0x51AC04,
        256,
        |r| {
            (
                gen::vec(r, 0, 100, |r| gen::f64_in(r, -1e3, 1e3)),
                gen::vec(r, 0, 100, |r| gen::f64_in(r, -1e3, 1e3)),
            )
        },
        |(xs, ys)| {
            let mut all = Welford::new();
            for &x in xs.iter().chain(ys.iter()) {
                all.record(x);
            }
            let mut a = Welford::new();
            for &x in xs {
                a.record(x);
            }
            let mut b = Welford::new();
            for &y in ys {
                b.record(y);
            }
            a.merge(&b);
            prop_assert_eq!(a.count(), all.count());
            if all.count() > 0 {
                prop_assert!((a.mean() - all.mean()).abs() < 1e-7);
                prop_assert!((a.variance() - all.variance()).abs() < 1e-5);
            }
            Ok(())
        },
    );
}

/// Exponential samples are positive and finite for any seed and mean.
#[test]
fn exp_sampler_positive() {
    forall(
        "exp_sampler_positive",
        0x51AC06,
        256,
        |r| (gen::any_u64(r), gen::f64_in(r, 0.01, 100.0)),
        |&(seed, mean)| {
            let mut r = SimRng::from_seed(seed);
            for _ in 0..50 {
                let x = r.exp(mean);
                prop_assert!(x > 0.0 && x.is_finite());
            }
            Ok(())
        },
    );
}

/// sample_indices always returns distinct, in-range indices.
#[test]
fn sample_indices_valid() {
    forall(
        "sample_indices_valid",
        0x51AC07,
        256,
        |r| {
            (
                gen::any_u64(r),
                gen::usize_in(r, 1, 100),
                gen::usize_in(r, 0, 120),
            )
        },
        |&(seed, n, k)| {
            let mut r = SimRng::from_seed(seed);
            let s = r.sample_indices(n, k);
            prop_assert_eq!(s.len(), k.min(n));
            let mut sorted = s.clone();
            sorted.sort_unstable();
            sorted.dedup();
            prop_assert_eq!(sorted.len(), s.len());
            prop_assert!(s.iter().all(|&i| i < n));
            Ok(())
        },
    );
}

/// The engine clock never goes backwards regardless of how the model
/// schedules events.
#[test]
fn engine_clock_monotone() {
    struct M {
        delays: Vec<u64>,
        idx: usize,
        times: Vec<SimTime>,
    }
    impl Handler for M {
        type Event = ();
        fn handle(&mut self, _: (), ctx: &mut Context<'_, ()>) {
            self.times.push(ctx.now());
            if self.idx < self.delays.len() {
                let d = self.delays[self.idx];
                self.idx += 1;
                ctx.schedule_in(SimDuration::from_ticks(d), ());
            }
        }
    }
    forall(
        "engine_clock_monotone",
        0x51AC08,
        256,
        |r| gen::vec(r, 1, 100, |r| gen::u64_in(r, 0, 50)),
        |delays| {
            let mut engine = Engine::new();
            engine.schedule_at(SimTime::ZERO, ());
            let mut m = M {
                delays: delays.clone(),
                idx: 0,
                times: vec![],
            };
            engine.run_until(&mut m, SimTime::MAX);
            for w in m.times.windows(2) {
                prop_assert!(w[1] >= w[0]);
            }
            Ok(())
        },
    );
}
