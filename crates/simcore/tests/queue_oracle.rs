//! Differential property test: the ladder `EventQueue` against the
//! retained `HeapQueue` (binary-heap) reference oracle.
//!
//! The A17 determinism contract is that the ladder queue is *bit-exact*
//! observationally equivalent to the heap it replaced: identical pop
//! streams (same `(time, event)` pairs, FIFO at equal instants), identical
//! `peek_time`, and identical `len`/`high_water`/`scheduled_total`
//! accounting — over any interleaving of schedule/pop/peek/clear,
//! including same-instant bursts (which exercise the wheel's batch-fired
//! bands), below-frontier bursts and replies (which exercise the late run)
//! and far-future outliers (which exercise the overflow rung and the
//! window rebase).
//!
//! The same scripts check the ladder's footprint: after every operation
//! the capacity it keeps allocated stays within [`retained_bound`], so
//! its memory follows pending events, not the largest band it has seen.

use realtor_simcore::event::HeapQueue;
use realtor_simcore::prelude::*;
use realtor_simcore::wheel::{BUCKETS, RETAIN_CAP};
use realtor_simcore::{prop_assert, prop_assert_eq};

/// One scripted operation against both queues.
#[derive(Debug, Clone)]
enum Op {
    /// Schedule at `cursor + offset` (cursor = last popped time, so the
    /// script stays causal like a real simulation).
    Schedule { offset: u64 },
    /// Schedule `count` events all at `cursor + offset` (FIFO burst).
    Burst { offset: u64, count: usize },
    /// Schedule a far-future outlier at `cursor + 10^12 + offset`.
    Outlier { offset: u64 },
    /// Schedule `count` events over 80 instants `spacing` ticks apart from
    /// the cursor, like the deliveries of one flood across a mesh: a band
    /// large enough to spawn an inner rung.
    Flood { count: usize, spacing: u64 },
    /// Pop once, then schedule `count` events at one instant `offset`
    /// ticks (a few ms) past the cursor and `count / 2` replies spread
    /// over 1–40 ms past it, like a lossy flood's per-recipient copies and
    /// their PLEDGEs: when the band being drained is wide they land below
    /// its frontier, in the late run, in an order that is not time order.
    LateBurst { offset: u64, count: usize },
    /// Pop one event from both queues and compare.
    Pop,
    /// Pop both queues empty, comparing every event.
    Drain,
    /// Compare `peek_time` (read-only on both).
    Peek,
    /// Clear both queues.
    Clear,
}

// List shrinking (dropping ops) is what matters for minimal counterexamples;
// individual ops shrink no further.
impl realtor_simcore::check::Shrink for Op {}

fn gen_op(r: &mut SimRng) -> Op {
    match gen::u64_in(r, 0, 99) {
        0..=31 => Op::Schedule {
            offset: gen::u64_in(r, 0, 5_000),
        },
        32..=40 => Op::Burst {
            offset: gen::u64_in(r, 0, 1_000),
            count: gen::usize_in(r, 2, 40),
        },
        41..=49 => Op::Outlier {
            offset: gen::u64_in(r, 0, 1_000_000_000),
        },
        50..=54 => Op::Flood {
            count: gen::usize_in(r, 520, 1_600),
            spacing: gen::u64_in(r, 1, 1_000),
        },
        55..=57 => Op::Drain,
        58..=84 => Op::Pop,
        85..=93 => Op::Peek,
        94..=97 => Op::LateBurst {
            offset: gen::u64_in(r, 1_000_000, 5_000_000),
            count: gen::usize_in(r, 200, 600),
        },
        _ => Op::Clear,
    }
}

/// The most capacity, in entries, the ladder may keep allocated. The
/// scratch buffer and every empty band hold at most `RETAIN_CAP`. The head
/// and late runs, the overflow and each non-empty band hold at most
/// `RETAIN_CAP` or twice the most entries their vector has held since it
/// was last empty, whichever is larger. The overflow and the bands only
/// grow until they drain, so those entries are still pending: at most
/// `len` in all. The head's and the late run's are at most `high_water`
/// each.
fn retained_bound<E>(q: &EventQueue<E>) -> usize {
    2 * (2 * q.high_water() + q.len()) + (BUCKETS * q.rungs_allocated() + 4) * RETAIN_CAP
}

#[test]
fn ladder_queue_matches_heap_oracle() {
    forall(
        "ladder_queue_matches_heap_oracle",
        0x0A17,
        192,
        |r| gen::vec(r, 1, 400, gen_op),
        |ops| {
            let mut ladder = EventQueue::new();
            let mut oracle = HeapQueue::new();
            let mut cursor: u64 = 0;
            let mut payload: u64 = 0;
            for op in ops {
                match *op {
                    Op::Schedule { offset } => {
                        let t = SimTime::from_ticks(cursor.saturating_add(offset));
                        ladder.schedule(t, payload);
                        oracle.schedule(t, payload);
                        payload += 1;
                    }
                    Op::Burst { offset, count } => {
                        let t = SimTime::from_ticks(cursor.saturating_add(offset));
                        for _ in 0..count {
                            ladder.schedule(t, payload);
                            oracle.schedule(t, payload);
                            payload += 1;
                        }
                    }
                    Op::Outlier { offset } => {
                        let t = SimTime::from_ticks(
                            cursor
                                .saturating_add(1_000_000_000_000)
                                .saturating_add(offset),
                        );
                        ladder.schedule(t, payload);
                        oracle.schedule(t, payload);
                        payload += 1;
                    }
                    Op::Flood { count, spacing } => {
                        for i in 0..count as u64 {
                            let t =
                                SimTime::from_ticks(cursor.saturating_add(spacing * (i * 37 % 80)));
                            ladder.schedule(t, payload);
                            oracle.schedule(t, payload);
                            payload += 1;
                        }
                    }
                    Op::LateBurst { offset, count } => {
                        let a = ladder.pop();
                        let b = oracle.pop();
                        prop_assert_eq!(a, b, "pop streams diverged");
                        if let Some((t, _)) = a {
                            cursor = t.ticks();
                        }
                        let t = SimTime::from_ticks(cursor.saturating_add(offset));
                        for _ in 0..count {
                            ladder.schedule(t, payload);
                            oracle.schedule(t, payload);
                            payload += 1;
                        }
                        for i in 0..count as u64 / 2 {
                            let ms = 1 + i * 37 % 40;
                            let t = SimTime::from_ticks(cursor.saturating_add(ms * 1_000_000));
                            ladder.schedule(t, payload);
                            oracle.schedule(t, payload);
                            payload += 1;
                        }
                    }
                    Op::Pop => {
                        let a = ladder.pop();
                        let b = oracle.pop();
                        prop_assert_eq!(a, b, "pop streams diverged");
                        if let Some((t, _)) = a {
                            cursor = t.ticks();
                        }
                    }
                    Op::Drain => loop {
                        let a = ladder.pop();
                        let b = oracle.pop();
                        prop_assert_eq!(a, b, "drain streams diverged");
                        match a {
                            Some((t, _)) => cursor = t.ticks(),
                            None => break,
                        }
                    },
                    Op::Peek => {
                        prop_assert_eq!(ladder.peek_time(), oracle.peek_time());
                    }
                    Op::Clear => {
                        ladder.clear();
                        oracle.clear();
                    }
                }
                prop_assert_eq!(ladder.len(), oracle.len());
                prop_assert_eq!(ladder.is_empty(), oracle.is_empty());
                prop_assert_eq!(ladder.high_water(), oracle.high_water());
                prop_assert_eq!(ladder.scheduled_total(), oracle.scheduled_total());
                prop_assert!(
                    ladder.retained_capacity() <= retained_bound(&ladder),
                    "retained capacity {} above the bound {}",
                    ladder.retained_capacity(),
                    retained_bound(&ladder)
                );
            }
            // Drain both to the end: the full residual streams must agree.
            loop {
                let a = ladder.pop();
                let b = oracle.pop();
                prop_assert_eq!(a, b, "drain streams diverged");
                if a.is_none() {
                    break;
                }
            }
            prop_assert!(ladder.is_empty());
            prop_assert_eq!(ladder.high_water(), oracle.high_water());
            Ok(())
        },
    );
}

/// The engine's `next_time` accessor (which distills bands) must report
/// the same instants the read-only `peek_time` does.
#[test]
fn next_time_agrees_with_peek_time() {
    forall(
        "next_time_agrees_with_peek_time",
        0x0A18,
        128,
        |r| gen::vec(r, 1, 200, |r| gen::u64_in(r, 0, 1_000_000)),
        |times| {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.schedule(SimTime::from_ticks(t), i);
            }
            while !q.is_empty() {
                let peeked = q.peek_time();
                let ensured = q.next_time();
                prop_assert_eq!(peeked, ensured);
                let (t, _) = q.pop().expect("non-empty");
                prop_assert_eq!(Some(t), ensured);
            }
            Ok(())
        },
    );
}

/// Flood after flood through a queue that also holds a far-future timer,
/// each flood drained before the next: 400 rounds of 1,600 events over 80
/// instants, the HELP/PLEDGE pattern of a 40x40 mesh. Every flood band
/// spawns an inner rung, and the footprint must stay within the bound
/// however many floods have passed, instead of parking one flood's
/// allocation in each band the ladder drains.
#[test]
fn drained_floods_do_not_accumulate_capacity() {
    let mut q = EventQueue::new();
    let mut r = SimRng::from_seed(0xB0057);
    q.schedule(SimTime::from_ticks(1 << 50), u64::MAX);
    let mut now = 0u64;
    for round in 0..400u64 {
        for i in 0..1_600 {
            let t = now + 1 + (r.u64() % 80) * 1_000_000;
            q.schedule(SimTime::from_ticks(t), round * 1_600 + i);
        }
        for _ in 0..1_600 {
            let (t, _) = q.pop().expect("the flood is pending");
            now = t.ticks();
        }
        assert_eq!(q.len(), 1, "only the far-future timer is left");
        assert!(
            q.retained_capacity() <= retained_bound(&q),
            "round {round}: retained capacity {} above the bound {}",
            q.retained_capacity(),
            retained_bound(&q)
        );
    }
}
