//! Protocol conformance battery: behavioural contracts every discovery
//! protocol must satisfy, run table-driven against all five implementations
//! (plus the inter-community wrapper). These are the assumptions the
//! simulation harness and the Agile Objects runtime rely on.

use realtor_core::inter_community::InterCommunityRealtor;
use realtor_core::protocol::{Action, Actions, DiscoveryProtocol, LocalView, TimerToken};
use realtor_core::{Help, Message, Pledge, ProtocolConfig, ProtocolKind};
use realtor_simcore::trace::{TraceKind, Tracer};
use realtor_simcore::SimTime;

const ME: usize = 3;
const PEERS: usize = 10;

fn all_protocols() -> Vec<Box<dyn DiscoveryProtocol>> {
    let peers: Vec<usize> = (0..PEERS).collect();
    let mut v: Vec<Box<dyn DiscoveryProtocol>> = ProtocolKind::ALL
        .iter()
        .map(|k| k.build(ME, ProtocolConfig::paper(), &peers, 100.0))
        .collect();
    v.push(Box::new(InterCommunityRealtor::new(
        ME,
        ProtocolConfig::paper(),
        true,
        1,
        0.0,
    )));
    v
}

fn at(secs: f64) -> SimTime {
    SimTime::from_secs_f64(secs)
}

fn view(headroom: f64) -> LocalView {
    LocalView::new(headroom, 100.0)
}

fn pledge_from(node: usize, headroom: f64) -> Message {
    Message::Pledge(Pledge {
        pledger: node,
        headroom_secs: headroom,
        community_count: 1,
        grant_probability: headroom / 100.0,
        sent_at: SimTime::ZERO,
    })
}

fn advert_from(node: usize, headroom: f64) -> Message {
    Message::Advert(realtor_core::Advert {
        advertiser: node,
        headroom_secs: headroom,
        sent_at: SimTime::ZERO,
    })
}

/// Feed one availability report in both wire forms; each protocol records
/// whichever it understands (pledges for the pull family, adverts for the
/// push family).
fn feed_report(
    p: &mut dyn DiscoveryProtocol,
    now: SimTime,
    node: usize,
    headroom: f64,
    out: &mut Actions,
) {
    p.on_message(now, node, &pledge_from(node, headroom), view(50.0), out);
    p.on_message(now, node, &advert_from(node, headroom), view(50.0), out);
    out.drain().for_each(drop);
}

fn help_from(node: usize) -> Message {
    Message::Help(Help {
        organizer: node,
        member_count: 0,
        urgency: 0.9,
        relay_ttl: 1,
    })
}

/// Drive a protocol through a generic life cycle, collecting every action.
fn exercise(p: &mut dyn DiscoveryProtocol) -> Vec<Action> {
    let mut collected = Vec::new();
    let mut out = Actions::new();
    let grab = |out: &mut Actions, collected: &mut Vec<Action>| {
        collected.extend(out.drain());
    };
    p.on_start(at(0.0), view(100.0), &mut out);
    grab(&mut out, &mut collected);
    for i in 1..=20 {
        let headroom = if i % 3 == 0 { 2.0 } else { 60.0 };
        p.on_task_arrival(at(i as f64), view(headroom), &mut out);
        grab(&mut out, &mut collected);
        p.on_usage_change(at(i as f64 + 0.1), view(headroom), &mut out);
        grab(&mut out, &mut collected);
        p.on_message(
            at(i as f64 + 0.2),
            (i % PEERS + 1) % PEERS,
            &help_from((i + 1) % PEERS),
            view(headroom),
            &mut out,
        );
        grab(&mut out, &mut collected);
        p.on_message(
            at(i as f64 + 0.3),
            (i + 2) % PEERS,
            &pledge_from((i + 2) % PEERS, 50.0),
            view(headroom),
            &mut out,
        );
        grab(&mut out, &mut collected);
        p.on_timer(
            at(i as f64 + 0.5),
            TimerToken(i as u64),
            view(headroom),
            &mut out,
        );
        grab(&mut out, &mut collected);
    }
    collected
}

#[test]
fn protocols_never_unicast_to_themselves() {
    for mut p in all_protocols() {
        let actions = exercise(p.as_mut());
        for a in &actions {
            if let Action::Unicast(to, _) = a {
                assert_ne!(*to, ME, "{} unicast to itself", p.name());
            }
        }
    }
}

#[test]
fn floods_carry_the_senders_identity() {
    for mut p in all_protocols() {
        let actions = exercise(p.as_mut());
        for a in &actions {
            if let Action::Flood(msg) = a {
                // A relayed HELP legitimately carries the original
                // organizer; everything else must identify the sender.
                if p.name() != "REALTOR-IC" {
                    assert_eq!(
                        msg.origin(),
                        ME,
                        "{} flooded a message claiming origin {}",
                        p.name(),
                        msg.origin()
                    );
                }
            }
        }
    }
}

#[test]
fn pick_candidate_never_returns_self() {
    for mut p in all_protocols() {
        // Feed availability from every peer, including a spoofed self-report.
        let mut out = Actions::new();
        for node in 0..PEERS {
            feed_report(p.as_mut(), at(1.0), node, 90.0, &mut out);
        }
        for _ in 0..5 {
            if let Some(c) = p.pick_candidate(at(2.0), 5.0) {
                assert_ne!(c, ME, "{} picked itself", p.name());
                p.on_migration_result(at(2.0), c, false);
            }
        }
    }
}

#[test]
fn candidates_with_insufficient_headroom_are_never_picked() {
    for mut p in all_protocols() {
        let mut out = Actions::new();
        for node in 0..PEERS {
            if node != ME {
                feed_report(p.as_mut(), at(1.0), node, 3.0, &mut out);
            }
        }
        if p.name() == "Push-.9" {
            // Adaptive push seeds an optimistic prior for peers it has not
            // heard from; on_start has not run here so no prior exists, but
            // keep the exemption documented and explicit.
            p.on_start(at(0.0), view(100.0), &mut out);
            continue;
        }
        assert_eq!(
            p.pick_candidate(at(2.0), 10.0),
            None,
            "{} picked a 3s-headroom node for a 10s task",
            p.name()
        );
    }
}

#[test]
fn reset_drops_all_candidates_except_documented_priors() {
    for mut p in all_protocols() {
        let mut out = Actions::new();
        for node in 0..PEERS {
            feed_report(p.as_mut(), at(1.0), node, 90.0, &mut out);
        }
        p.on_reset(at(2.0));
        let candidate = p.pick_candidate(at(2.0), 5.0);
        if p.name() == "Push-.9" {
            // Adaptive push re-seeds its optimistic prior by design.
            assert!(candidate.is_some());
        } else {
            assert_eq!(candidate, None, "{} kept candidates across reset", p.name());
        }
    }
}

#[test]
fn repeated_resets_and_restarts_are_idempotent() {
    for mut p in all_protocols() {
        for round in 0..3 {
            let mut out = Actions::new();
            p.on_reset(at(round as f64 * 10.0));
            p.on_start(at(round as f64 * 10.0 + 0.1), view(100.0), &mut out);
            // No panic, and the action stream stays bounded per round.
            assert!(
                out.len() <= 4,
                "{} burst {} actions on restart",
                p.name(),
                out.len()
            );
        }
    }
}

#[test]
fn stale_timers_do_not_generate_traffic_storms() {
    for mut p in all_protocols() {
        let mut out = Actions::new();
        for g in 0..1000u64 {
            p.on_timer(at(5.0), TimerToken(g), view(50.0), &mut out);
        }
        // Pure push re-arms its tick; everything else should be quiet on
        // unknown tokens. Either way: bounded, not 1000 floods.
        assert!(
            out.len() <= 4,
            "{} produced {} actions from stale timers",
            p.name(),
            out.len()
        );
    }
}

#[test]
fn introspection_reports_candidates() {
    for mut p in all_protocols() {
        let mut out = Actions::new();
        for node in 0..PEERS {
            if node != ME {
                feed_report(p.as_mut(), at(1.0), node, 40.0, &mut out);
            }
        }
        let intro = p.introspect(at(1.5));
        assert!(
            intro.known_candidates >= PEERS - 1,
            "{} reports {} candidates after {} pledges",
            p.name(),
            intro.known_candidates,
            PEERS - 1
        );
    }
}

#[test]
fn migration_refusal_suppresses_reselection() {
    for mut p in all_protocols() {
        let mut out = Actions::new();
        // exactly one candidate
        feed_report(p.as_mut(), at(1.0), 5, 90.0, &mut out);
        if p.name() == "Push-.9" {
            continue; // optimistic prior offers more candidates by design
        }
        assert_eq!(p.pick_candidate(at(2.0), 5.0), Some(5), "{}", p.name());
        p.on_migration_result(at(2.0), 5, false);
        assert_eq!(
            p.pick_candidate(at(2.0), 5.0),
            None,
            "{} re-picked a node that just refused",
            p.name()
        );
    }
}

/// FNV-1a over 64-bit words: a stable, dependency-free action-stream hash.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn f64(&mut self, v: f64) {
        self.word(v.to_bits());
    }

    fn time(&mut self, t: SimTime) {
        self.word(t.ticks());
    }
}

/// Hash one message. `help_extras` covers `Help.member_count` and
/// `Help.urgency`, which no receiver reads except the inter-community
/// relay of REALTOR HELPs; they are hashed for REALTOR only.
fn hash_message(h: &mut Fnv, msg: &Message, help_extras: bool) {
    match *msg {
        Message::Help(m) => {
            h.word(1);
            h.word(m.organizer as u64);
            h.word(u64::from(m.relay_ttl));
            if help_extras {
                h.word(u64::from(m.member_count));
                h.f64(m.urgency);
            }
        }
        Message::Pledge(p) => {
            h.word(2);
            h.word(p.pledger as u64);
            h.f64(p.headroom_secs);
            h.word(u64::from(p.community_count));
            h.f64(p.grant_probability);
            h.time(p.sent_at);
        }
        Message::Advert(a) => {
            h.word(3);
            h.word(a.advertiser as u64);
            h.f64(a.headroom_secs);
            h.time(a.sent_at);
        }
    }
}

/// What one scripted run emitted, beyond its hash.
#[derive(Default)]
struct ScriptTally {
    help_floods: usize,
    pledge_unicasts: usize,
}

/// Drive `kind` through a seeded 10k-step script of every input a host
/// environment can deliver, and hash every action, pick and introspection.
/// Armed timers are replayed when due (tokens are handed back, never
/// hashed: they are opaque); a reset strands the timers armed before it,
/// which are still replayed, as a host's engine would. `tracer` is
/// attached to the instance; it observes and must not move the hash.
fn scripted_run(kind: ProtocolKind, detector: bool, tracer: Tracer) -> (u64, ScriptTally) {
    use realtor_core::FailureDetectorConfig;
    use realtor_simcore::{SimDuration, SimRng};

    let peers: Vec<usize> = (0..PEERS).collect();
    let mut cfg = ProtocolConfig::paper();
    if detector {
        cfg = cfg.with_failure_detector(FailureDetectorConfig {
            suspect_after: SimDuration::from_secs(3),
            confirm_after: SimDuration::from_secs(2),
            sweep_interval: SimDuration::from_secs(1),
        });
    }
    let mut p = kind.build(ME, cfg, &peers, 100.0);
    p.set_tracer(tracer);
    let help_extras = kind == ProtocolKind::Realtor;
    let mut rng = SimRng::from_seed(0x5eed_0000 + kind as u64);
    let mut h = Fnv::new();
    let mut tally = ScriptTally::default();
    // (due, arm order, token): replayed in due order, ties by arm order.
    let mut timers: Vec<(SimTime, u64, TimerToken)> = Vec::new();
    let mut armed = 0u64;
    let mut out = Actions::new();
    let mut now = SimTime::ZERO;

    let mut drain = |out: &mut Actions,
                     now: SimTime,
                     h: &mut Fnv,
                     timers: &mut Vec<(SimTime, u64, TimerToken)>,
                     tally: &mut ScriptTally| {
        h.word(0xac);
        for a in out.drain() {
            match a {
                Action::Flood(m) => {
                    h.word(10);
                    hash_message(h, &m, help_extras);
                    tally.help_floods += usize::from(matches!(m, Message::Help(_)));
                }
                Action::Unicast(to, m) => {
                    h.word(11);
                    h.word(to as u64);
                    hash_message(h, &m, help_extras);
                    tally.pledge_unicasts += usize::from(matches!(m, Message::Pledge(_)));
                }
                Action::SetTimer(token, delay) => {
                    h.word(12);
                    h.word(delay.ticks());
                    timers.push((now + delay, armed, token));
                    armed += 1;
                }
                Action::DeclareDead(peer) => {
                    h.word(13);
                    h.word(peer as u64);
                }
            }
        }
    };

    p.on_start(now, view(100.0), &mut out);
    drain(&mut out, now, &mut h, &mut timers, &mut tally);
    for step in 0..10_000u64 {
        now += SimDuration::from_secs_f64(rng.range_f64(0.0, 0.3));
        // Fire every timer now due, including ones armed while firing.
        loop {
            let due = timers
                .iter()
                .enumerate()
                .filter(|(_, t)| t.0 <= now)
                .min_by_key(|(_, t)| (t.0, t.1))
                .map(|(i, _)| i);
            let Some(i) = due else { break };
            let (at, _, token) = timers.swap_remove(i);
            let local = view(rng.range_f64(0.0, 100.0));
            p.on_timer(at, token, local, &mut out);
            drain(&mut out, at, &mut h, &mut timers, &mut tally);
        }
        // One peer at a time goes silent for 500 steps, long enough for
        // the failure detector to confirm it dead.
        let silent = (step / 500) as usize % PEERS;
        let peer = loop {
            let n = rng.index(PEERS);
            if n != silent {
                break n;
            }
        };
        let local = view(rng.range_f64(0.0, 100.0));
        // Reports are sometimes stale: sent well before an earlier one.
        let sent_at = if rng.bernoulli(0.2) {
            SimTime::ZERO + SimDuration::from_secs_f64(rng.range_f64(0.0, 1.0))
        } else {
            now
        };
        h.word(0xe0 + step);
        match rng.index(100) {
            0..=19 => p.on_task_arrival(now, local, &mut out),
            20..=34 => p.on_usage_change(now, local, &mut out),
            35..=49 => {
                let organizer = if rng.bernoulli(0.1) { ME } else { peer };
                let help = Message::Help(Help {
                    organizer,
                    member_count: rng.index(5) as u32,
                    urgency: rng.f64(),
                    relay_ttl: rng.index(3) as u8,
                });
                p.on_message(now, organizer, &help, local, &mut out);
            }
            50..=64 => {
                let pledger = if rng.bernoulli(0.05) { ME } else { peer };
                let pledge = Message::Pledge(Pledge {
                    pledger,
                    headroom_secs: rng.range_f64(0.0, 100.0),
                    community_count: rng.index(4) as u32,
                    grant_probability: rng.f64(),
                    sent_at,
                });
                p.on_message(now, pledger, &pledge, local, &mut out);
            }
            65..=76 => {
                let advertiser = if rng.bernoulli(0.05) { ME } else { peer };
                let advert = Message::Advert(realtor_core::Advert {
                    advertiser,
                    headroom_secs: rng.range_f64(0.0, 100.0),
                    sent_at,
                });
                p.on_message(now, advertiser, &advert, local, &mut out);
            }
            77..=86 => {
                let pick = p.pick_candidate(now, rng.range_f64(0.0, 60.0));
                h.word(pick.map_or(u64::MAX, |n| n as u64));
                if let Some(dest) = pick {
                    p.on_migration_result(now, dest, rng.bernoulli(0.7));
                }
            }
            87..=94 => {
                let dest = rng.index(PEERS);
                p.on_migration_result(now, dest, rng.bernoulli(0.5));
            }
            95..=98 => {
                let pick = p.pick_candidate(now, rng.range_f64(0.0, 100.0));
                h.word(pick.map_or(u64::MAX, |n| n as u64));
            }
            _ => {
                if rng.bernoulli(0.2) {
                    p.on_reset(now);
                    p.on_start(now, local, &mut out);
                }
            }
        }
        drain(&mut out, now, &mut h, &mut timers, &mut tally);
        let intro = p.introspect(now);
        h.word(intro.help_interval_secs.map_or(u64::MAX, f64::to_bits));
        h.word(intro.known_candidates as u64);
        h.word(intro.memberships as u64);
        h.word(intro.lifetime_joins);
    }
    (h.0, tally)
}

/// Pinned action-stream hashes per protocol: (detector off, detector on).
/// Any change to what a protocol emits, picks or reports moves these.
const ACTION_STREAM_PINS: [(ProtocolKind, u64, u64); 5] = [
    (
        ProtocolKind::PurePull,
        0x312e_2e88_9155_ad32,
        0x312e_2e88_9155_ad32,
    ),
    (
        ProtocolKind::PurePush,
        0x8b6b_5598_f71e_38ea,
        0x8b6b_5598_f71e_38ea,
    ),
    (
        ProtocolKind::AdaptivePush,
        0xd322_d079_f34f_edef,
        0xd322_d079_f34f_edef,
    ),
    (
        ProtocolKind::AdaptivePull,
        0x5418_c4fa_4fb8_3ba0,
        0x5418_c4fa_4fb8_3ba0,
    ),
    (
        ProtocolKind::Realtor,
        0xab58_432f_f65a_d5c6,
        0x0357_aa1f_eea8_6f4f,
    ),
];

#[test]
fn action_streams_match_their_pins() {
    for (kind, off, on) in ACTION_STREAM_PINS {
        for (detector, want) in [(false, off), (true, on)] {
            let tracer =
                Tracer::bounded(1 << 14).with_kinds(&[TraceKind::HelpFlood, TraceKind::PledgeSend]);
            let (got, tally) = scripted_run(kind, detector, tracer.clone());
            assert_eq!(
                got, want,
                "{kind:?} (detector {detector}) action stream hash {got:#018x}, pinned {want:#018x}"
            );
            // Every pull preset traces each HELP flood and PLEDGE unicast.
            let snap = tracer.snapshot();
            assert_eq!(snap.dropped, 0);
            let traced = |k| snap.events.iter().filter(|e| e.kind == k).count();
            assert_eq!(traced(TraceKind::HelpFlood), tally.help_floods, "{kind:?}");
            assert_eq!(
                traced(TraceKind::PledgeSend),
                tally.pledge_unicasts,
                "{kind:?}"
            );
        }
    }
}
