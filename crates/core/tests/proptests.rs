//! Property-based tests for the protocol building blocks, on the in-tree
//! `check` harness.

use realtor_core::community::MembershipTable;
use realtor_core::config::{CandidatePolicy, ProtocolConfig};
use realtor_core::help::{HelpController, HelpDecision, HelpMode};
use realtor_core::pledge::{AvailabilityStore, Crossing, PledgePolicy};
use realtor_core::{Action, Actions, Help, LocalView, Message, ProtocolKind};
use realtor_simcore::prelude::*;
use realtor_simcore::{prop_assert, prop_assert_eq, prop_assert_ne};
use std::collections::{BTreeMap, BTreeSet};

fn cfg() -> ProtocolConfig {
    ProtocolConfig::paper()
}

/// Algorithm H invariant: the HELP interval always stays within
/// `(0, Upper_limit]` no matter what sequence of arrivals, timeouts and
/// pledges occurs.
#[test]
fn help_interval_always_bounded() {
    forall(
        "help_interval_always_bounded",
        0xC04E01,
        256,
        |r| gen::vec(r, 1, 300, |r| gen::u8_in(r, 0, 4)),
        |ops| {
            let c = cfg();
            let mut h = HelpController::new(&c, HelpMode::Adaptive);
            let mut now = 0.0f64;
            let mut pending: Option<u64> = None;
            for &op in ops {
                now += 0.37;
                match op {
                    0 => {
                        if let HelpDecision::SendHelp { timer_gen, .. } =
                            h.on_task_arrival(SimTime::from_secs_f64(now), 0.95)
                        {
                            pending = Some(timer_gen);
                        }
                    }
                    1 => {
                        if let Some(g) = pending.take() {
                            h.on_timeout(g);
                        }
                    }
                    2 => h.on_pledge(true),
                    _ => h.on_pledge(false),
                }
                prop_assert!(!h.interval().is_zero(), "interval hit zero");
                prop_assert!(
                    h.interval() <= c.upper_limit,
                    "interval exceeded Upper_limit: {:?}",
                    h.interval()
                );
            }
            Ok(())
        },
    );
}

/// Algorithm H never sends two HELPs within one interval (adaptive mode),
/// regardless of arrival pattern.
#[test]
fn help_sends_respect_interval() {
    forall(
        "help_sends_respect_interval",
        0xC04E02,
        256,
        |r| gen::vec(r, 1, 200, |r| gen::f64_in(r, 0.0, 3.0)),
        |gaps| {
            let mut h = HelpController::new(&cfg(), HelpMode::Adaptive);
            let mut now = 0.0;
            let mut last_sent: Option<(f64, f64)> = None; // (time, interval_at_send)
            for &gap in gaps {
                now += gap;
                let interval_before = h.interval().as_secs_f64();
                if let HelpDecision::SendHelp { .. } =
                    h.on_task_arrival(SimTime::from_secs_f64(now), 0.99)
                {
                    if let Some((prev, int_at_prev)) = last_sent {
                        prop_assert!(
                            now - prev > int_at_prev - 1e-9,
                            "HELP at {now} too soon after {prev} (interval {int_at_prev})"
                        );
                    }
                    last_sent = Some((now, interval_before));
                }
            }
            Ok(())
        },
    );
}

/// Algorithm P: crossings strictly alternate busy/free.
#[test]
fn crossings_alternate() {
    forall(
        "crossings_alternate",
        0xC04E03,
        256,
        |r| gen::vec(r, 1, 500, |r| gen::f64_in(r, 0.0, 1.0)),
        |fracs| {
            let mut p = PledgePolicy::new(&cfg(), 0.0);
            let mut last: Option<Crossing> = None;
            for &f in fracs {
                if let Some(c) = p.observe(f) {
                    if let Some(prev) = last {
                        prop_assert_ne!(prev, c, "two consecutive identical crossings");
                    }
                    last = Some(c);
                }
            }
            Ok(())
        },
    );
}

/// The number of crossings equals the number of true sign changes of
/// (frac >= threshold) in the input sequence.
#[test]
fn crossing_count_matches_sign_changes() {
    forall(
        "crossing_count_matches_sign_changes",
        0xC04E04,
        256,
        |r| gen::vec(r, 1, 300, |r| gen::f64_in(r, 0.0, 1.0)),
        |fracs| {
            let c = cfg();
            let mut p = PledgePolicy::new(&c, 0.0);
            let mut crossings = 0usize;
            let mut side = false; // starts below
            let mut expected = 0usize;
            for &f in fracs {
                if p.observe(f).is_some() {
                    crossings += 1;
                }
                let s = f >= c.pledge_threshold;
                if s != side {
                    expected += 1;
                    side = s;
                }
            }
            prop_assert_eq!(crossings, expected);
            Ok(())
        },
    );
}

/// AvailabilityStore::pick never returns the excluded node, a node with
/// insufficient reported headroom, or a stale report.
#[test]
fn store_pick_is_sound() {
    forall(
        "store_pick_is_sound",
        0xC04E05,
        256,
        |r| {
            (
                gen::vec(r, 0, 60, |r| {
                    (
                        gen::usize_in(r, 0, 20),
                        gen::f64_in(r, 0.0, 100.0),
                        gen::u64_in(r, 0, 100),
                    )
                }),
                gen::f64_in(r, 0.0, 100.0),
                gen::usize_in(r, 0, 20),
                gen::u64_in(r, 1, 200),
            )
        },
        |(reports, need, exclude, ttl_secs)| {
            let (need, exclude, ttl_secs) = (*need, *exclude, *ttl_secs);
            let mut s = AvailabilityStore::new();
            for &(n, h, t) in reports {
                s.record(n, h, SimTime::from_secs(t));
            }
            let now = SimTime::from_secs(100);
            let ttl = Some(SimDuration::from_secs(ttl_secs));
            for policy in [
                CandidatePolicy::MostHeadroom,
                CandidatePolicy::Freshest,
                CandidatePolicy::FirstFit,
            ] {
                if let Some(n) = s.pick(now, need, ttl, exclude, policy) {
                    prop_assert_ne!(n, exclude);
                    let r = s.get(n).unwrap();
                    prop_assert!(r.headroom_secs >= need);
                    prop_assert!(now.since(r.at) <= SimDuration::from_secs(ttl_secs));
                }
            }
            Ok(())
        },
    );
}

/// MostHeadroom pick dominates all other eligible candidates.
#[test]
fn most_headroom_is_maximal() {
    forall(
        "most_headroom_is_maximal",
        0xC04E06,
        256,
        |r| {
            (
                gen::vec(r, 1, 40, |r| {
                    (gen::usize_in(r, 0, 20), gen::f64_in(r, 0.0, 100.0))
                }),
                gen::f64_in(r, 0.0, 50.0),
            )
        },
        |(reports, need)| {
            let mut s = AvailabilityStore::new();
            let t = SimTime::from_secs(1);
            for &(n, h) in reports {
                s.record(n, h, t);
            }
            if let Some(best) = s.pick(t, *need, None, usize::MAX, CandidatePolicy::MostHeadroom) {
                let best_h = s.get(best).unwrap().headroom_secs;
                for &(n, _) in reports {
                    if let Some(r) = s.get(n) {
                        prop_assert!(r.headroom_secs <= best_h);
                    }
                }
            }
            Ok(())
        },
    );
}

const MEMBERSHIP_TTL: SimDuration = SimDuration::from_secs(10);

/// One step of a membership-table script: `(kind, organizer, amount)`.
/// Organizer ids are used as they are, so scripts may name organizers far
/// beyond any world size; the table must not care.
///
/// Kinds (mod 8): 0–2 refresh `organizer`; 3 refresh the previously
/// refreshed organizer again at the same instant (a duplicated HELP);
/// 4 leave `organizer`; 5 purge; 6 advance the clock by `amount` tenths
/// of a second; 7 advance the clock to exactly `ttl` after `organizer`'s
/// last refresh (`since == ttl`, still live), if that is not in the past.
type MembershipOp = (u8, u32, u8);

/// Run `ops` against a [`MembershipTable`] and a scan-based oracle, and
/// compare every observable after every step.
fn check_membership_script(ops: &[MembershipOp]) -> PropResult {
    let ttl = MEMBERSHIP_TTL;
    let mut table = MembershipTable::new(ttl);
    let mut oracle: BTreeMap<usize, SimTime> = BTreeMap::new();
    let mut joins = 0u64;
    let mut now = SimTime::ZERO;
    let mut last_org = 0usize;
    let mut seen = BTreeSet::new();
    let live_at = |oracle: &BTreeMap<usize, SimTime>, at: SimTime| -> Vec<usize> {
        oracle
            .iter()
            .filter(|&(_, &t)| at.since(t) <= ttl)
            .map(|(&org, _)| org)
            .collect()
    };
    for (step, &(kind, org, amount)) in ops.iter().enumerate() {
        let org = org as usize;
        seen.insert(org);
        match kind % 8 {
            0..=3 => {
                let org = if kind % 8 == 3 { last_org } else { org };
                let expect_new = oracle.insert(org, now).is_none();
                joins += u64::from(expect_new);
                let got = table.refresh(org, now);
                prop_assert_eq!(got, expect_new, "refresh({org}) at step {step}");
                last_org = org;
            }
            4 => {
                oracle.remove(&org);
                table.leave(org);
            }
            5 => {
                let before = oracle.len();
                oracle.retain(|_, &mut t| now.since(t) <= ttl);
                let got = table.purge_expired(now);
                prop_assert_eq!(got, before - oracle.len(), "purge at step {step}");
            }
            6 => now += SimDuration::from_millis(100 * u64::from(amount)),
            _ => {
                let edge = oracle.get(&org).map_or(now + ttl, |&t| t + ttl);
                now = now.max(edge);
            }
        }
        // Observables are read at or after the last update: before it they
        // are out of the table's time contract.
        for at in [now, now + ttl, now + ttl + SimDuration::from_ticks(1)] {
            let live = live_at(&oracle, at);
            prop_assert_eq!(table.count(at) as usize, live.len(), "count at step {step}");
            prop_assert_eq!(table.current(at).collect::<Vec<_>>(), live);
        }
        for &o in &seen {
            let member = oracle.get(&o).is_some_and(|&t| now.since(t) <= ttl);
            prop_assert_eq!(
                table.is_member(o, now),
                member,
                "is_member({o}) at step {step}"
            );
        }
        prop_assert_eq!(
            table.lifetime_joins(),
            joins,
            "lifetime_joins at step {step}"
        );
    }
    Ok(())
}

/// An organizer id for a membership script: a few small ids that repeat,
/// a block of neighbouring ids, or any id up to 2^20, so that a script
/// meets both repeated organizers and many distinct ones.
fn membership_organizer(r: &mut SimRng) -> u32 {
    match r.index(3) {
        0 => gen::u32_in(r, 0, 6),
        1 => gen::u32_in(r, 1000, 1064),
        _ => gen::u32_in(r, 0, (1 << 20) + 1),
    }
}

/// The incrementally maintained membership count equals a scan over the
/// table for every sequence of refreshes, leaves, purges and clock moves,
/// with organizer ids small and large, few and many.
#[test]
fn membership_count_matches_scan() {
    forall(
        "membership_count_matches_scan",
        0xC04E07,
        512,
        |r| {
            // Up to 300 steps, so that a script's records fill several
            // 64-record log blocks and expire across their boundaries.
            gen::vec(r, 1, 300, |r| {
                (
                    gen::u8_in(r, 0, 7),
                    membership_organizer(r),
                    gen::u8_in(r, 0, 150),
                )
            })
        },
        |ops| check_membership_script(ops),
    );
}

/// The edge cases the random scripts may miss, pinned one by one.
#[test]
fn membership_count_edge_cases() {
    let churn = [(0, 1, 0), (0, 2, 0), (6, 0, 1)].repeat(40);
    let wave = |base: u32| (0..40).map(move |i| (0, base + i * 4099, 1));
    // A refresh every 0.1 s from ten organizers: 400 records, 300 of them
    // expired one by one across five log blocks.
    let long: Vec<MembershipOp> = (0..400).flat_map(|i| [(0, i % 10, 0), (6, 0, 1)]).collect();
    let many: Vec<MembershipOp> = wave(1 << 20)
        .chain([(4, (1 << 20) + 4099, 0), (6, 0, 101), (5, 0, 0)])
        .chain(wave((1 << 20) - 40 * 4099))
        .chain(wave(1 << 20))
        .collect();
    let scripts: &[(&str, &[MembershipOp])] = &[
        (
            "repeated refresh at one instant",
            &[(0, 1, 0), (3, 0, 0), (3, 0, 0), (6, 0, 101)],
        ),
        (
            "duplicated HELPs, the copy a little later",
            &[
                (0, 1, 0),
                (0, 2, 0),
                (6, 0, 3),
                (0, 1, 0),
                (3, 0, 0),
                (6, 0, 98),
                (6, 0, 5),
            ],
        ),
        (
            "refresh exactly at the TTL boundary",
            &[(0, 1, 0), (7, 1, 0), (0, 1, 0), (7, 1, 0)],
        ),
        (
            "leave a live entry",
            &[(0, 1, 0), (0, 2, 0), (4, 1, 0), (6, 0, 150)],
        ),
        (
            "leave an expired entry",
            &[(0, 1, 0), (6, 0, 101), (4, 1, 0), (0, 2, 0), (6, 0, 150)],
        ),
        (
            "leave and re-join at one instant",
            &[(0, 1, 0), (4, 1, 0), (0, 1, 0), (6, 0, 101)],
        ),
        (
            "purge, then re-join",
            &[
                (0, 1, 0),
                (0, 2, 0),
                (6, 0, 101),
                (5, 0, 0),
                (0, 1, 0),
                (6, 0, 101),
                (5, 0, 0),
            ],
        ),
        (
            "refreshing an expired, unpurged entry is not a join",
            &[(0, 1, 0), (6, 0, 120), (0, 1, 0), (5, 0, 0), (0, 1, 0)],
        ),
        ("many refreshes of few organizers (stale records)", &churn),
        (
            "many distinct large organizers, purged and joined again",
            &many,
        ),
        ("a long run across many log blocks", &long),
    ];
    for (name, ops) in scripts {
        if let Err(e) = check_membership_script(ops) {
            panic!("{name}: {e}");
        }
    }
}

/// A REALTOR member that hears duplicated and delayed copies of HELP
/// floods, as on a lossy channel, reports in each PLEDGE the number of
/// distinct organizers it heard from within the membership TTL.
#[test]
fn pledge_community_count_survives_duplicate_helps() {
    let cfg = cfg();
    let ttl = cfg.membership_ttl;
    let mut member = ProtocolKind::Realtor.build(9, cfg, &Vec::new(), 0.0);
    let mut heard: BTreeMap<usize, SimTime> = BTreeMap::new();
    let help = |organizer| {
        Message::Help(Help {
            organizer,
            member_count: 0,
            urgency: 0.5,
            relay_ttl: 0,
        })
    };
    let copies = [
        (0.0, 1),
        (0.0, 1),
        (0.2, 2),
        (0.2, 1),
        (0.7, 2),
        (ttl.as_secs_f64(), 3),
        (ttl.as_secs_f64() + 0.1, 3),
        (ttl.as_secs_f64() + 0.2, 1),
        (ttl.as_secs_f64() + 0.2, 1),
        (2.0 * ttl.as_secs_f64() + 0.3, 4),
    ];
    for (at, organizer) in copies {
        let now = SimTime::from_secs_f64(at);
        heard.insert(organizer, now);
        let mut out = Actions::new();
        member.on_message(
            now,
            organizer,
            &help(organizer),
            LocalView::new(80.0, 100.0),
            &mut out,
        );
        let expected = heard.values().filter(|&&t| now.since(t) <= ttl).count() as u32;
        let counts: Vec<u32> = out
            .as_slice()
            .iter()
            .filter_map(|a| match a {
                Action::Unicast(_, Message::Pledge(p)) => Some(p.community_count),
                _ => None,
            })
            .collect();
        assert_eq!(counts, vec![expected], "HELP from {organizer} at {at} s");
    }
}
