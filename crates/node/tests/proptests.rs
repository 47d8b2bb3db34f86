//! Property-based tests for the host model, on the in-tree `check`
//! harness.

use realtor_node::WorkQueue;
use realtor_simcore::prelude::*;
use realtor_simcore::{prop_assert, prop_assert_eq};

/// Queue invariant: the backlog never exceeds capacity and never goes
/// negative, under any admit/withdraw/observe sequence.
#[test]
fn queue_backlog_stays_in_bounds() {
    forall(
        "queue_backlog_stays_in_bounds",
        0x40DE01,
        256,
        |r| {
            gen::vec(r, 1, 200, |r| {
                (
                    gen::u8_in(r, 0, 3),
                    gen::f64_in(r, 0.1, 50.0),
                    gen::f64_in(r, 0.0, 5.0),
                )
            })
        },
        |ops| {
            let mut q = WorkQueue::new(100.0);
            let mut now = 0.0f64;
            for &(op, size, dt) in ops {
                now += dt;
                let t = SimTime::from_secs_f64(now);
                match op {
                    0 => {
                        let _ = q.admit(t, size);
                    }
                    1 => q.withdraw(t, size),
                    _ => q.sync(t),
                }
                let b = q.backlog_at(t);
                prop_assert!(b >= 0.0, "negative backlog {b}");
                prop_assert!(b <= 100.0 + 1e-6, "backlog over capacity {b}");
                prop_assert!((0.0..=1.0).contains(&q.frac_at(t)));
                prop_assert!((q.backlog_at(t) + q.headroom_at(t) - 100.0).abs() < 1e-6);
            }
            Ok(())
        },
    );
}

/// Admission accounting: total admitted work equals the sum of accepted
/// sizes, and every acceptance respected the capacity at that instant.
#[test]
fn queue_admission_accounting() {
    forall(
        "queue_admission_accounting",
        0x40DE02,
        256,
        |r| {
            (
                gen::vec(r, 1, 100, |r| gen::f64_in(r, 0.1, 40.0)),
                gen::vec(r, 1, 100, |r| gen::f64_in(r, 0.0, 3.0)),
            )
        },
        |(sizes, gaps)| {
            let mut q = WorkQueue::new(100.0);
            let mut now = 0.0;
            let mut accepted_work = 0.0;
            let mut accepted_n = 0u64;
            for (s, g) in sizes.iter().zip(gaps.iter().cycle()) {
                now += g;
                let t = SimTime::from_secs_f64(now);
                let before = q.backlog_at(t);
                if q.admit(t, *s).is_ok() {
                    prop_assert!(before + s <= 100.0 + 1e-6);
                    accepted_work += s;
                    accepted_n += 1;
                } else {
                    prop_assert!(before + s > 100.0 - 1e-6);
                }
            }
            let (n, w) = q.admitted_totals();
            prop_assert_eq!(n, accepted_n);
            prop_assert!((w - accepted_work).abs() < 1e-6);
            Ok(())
        },
    );
}

/// drain-to time is exact: at the reported instant the backlog equals
/// the requested level.
#[test]
fn queue_drain_time_exact() {
    forall(
        "queue_drain_time_exact",
        0x40DE03,
        256,
        |r| (gen::f64_in(r, 1.0, 100.0), gen::f64_in(r, 0.0, 100.0)),
        |&(fill, level)| {
            let mut q = WorkQueue::new(100.0);
            q.admit(SimTime::ZERO, fill).unwrap();
            match q.time_to_drain_to(SimTime::ZERO, level) {
                Some(t) => {
                    prop_assert!(fill > level);
                    prop_assert!((q.backlog_at(t) - level).abs() < 1e-6);
                }
                None => prop_assert!(fill <= level),
            }
            Ok(())
        },
    );
}
