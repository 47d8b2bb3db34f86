//! Conformance battery for the timeout-based failure detector wired into
//! REALTOR: protocol traffic doubles as heartbeats, silence escalates
//! through suspicion to a confirmed death, and a confirmed-dead organizer's
//! community membership is torn down *before* its soft-state TTL would have
//! expired on its own — the detector must beat the TTL, otherwise it adds
//! nothing over plain soft state.

use realtor_core::discovery::DETECTOR_TIMER_TOKEN;
use realtor_core::protocol::{Action, Actions, DiscoveryProtocol, LocalView};
use realtor_core::{FailureDetectorConfig, Help, Message, Pledge, ProtocolConfig, ProtocolKind};
use realtor_simcore::{SimDuration, SimTime};

const ME: usize = 0;
const ORGANIZER: usize = 5;
const PEERS: usize = 10;

fn at(secs: f64) -> SimTime {
    SimTime::from_secs_f64(secs)
}

fn view() -> LocalView {
    LocalView::new(50.0, 100.0)
}

fn detector_config() -> FailureDetectorConfig {
    FailureDetectorConfig {
        suspect_after: SimDuration::from_secs(3),
        confirm_after: SimDuration::from_secs(2),
        sweep_interval: SimDuration::from_secs(1),
    }
}

/// A REALTOR instance with the detector on; membership TTL stays at the
/// paper's 10 s, so confirmation (~5.5 s of silence here) races the TTL.
fn detecting_realtor() -> Box<dyn DiscoveryProtocol> {
    let peers: Vec<usize> = (0..PEERS).collect();
    let cfg = ProtocolConfig::paper().with_failure_detector(detector_config());
    ProtocolKind::Realtor.build(ME, cfg, &peers, 100.0)
}

fn help_from(node: usize) -> Message {
    Message::Help(Help {
        organizer: node,
        member_count: 0,
        urgency: 0.9,
        relay_ttl: 1,
    })
}

fn pledge_from(node: usize, sent_at: SimTime) -> Message {
    Message::Pledge(Pledge {
        pledger: node,
        headroom_secs: 40.0,
        community_count: 1,
        grant_probability: 0.4,
        sent_at,
    })
}

/// Drive every whole-second detector sweep in `(from, to]`, returning the
/// declared-dead peers with their declaration times.
fn sweep_range(p: &mut dyn DiscoveryProtocol, from: u64, to: u64) -> Vec<(usize, SimTime)> {
    let mut declared = Vec::new();
    let mut out = Actions::new();
    for s in (from + 1)..=to {
        let now = SimTime::from_secs(s);
        p.on_timer(now, DETECTOR_TIMER_TOKEN, view(), &mut out);
        let mut rearmed = false;
        for a in out.drain() {
            match a {
                Action::DeclareDead(peer) => declared.push((peer, now)),
                Action::SetTimer(token, delay) => {
                    assert_eq!(token, DETECTOR_TIMER_TOKEN);
                    assert_eq!(delay, detector_config().sweep_interval);
                    rearmed = true;
                }
                other => panic!("unexpected action from a sweep: {other:?}"),
            }
        }
        assert!(rearmed, "sweep at t={s} failed to re-arm itself");
    }
    declared
}

#[test]
fn start_arms_the_sweep_timer() {
    let mut p = detecting_realtor();
    let mut out = Actions::new();
    p.on_start(at(0.0), view(), &mut out);
    let armed = out
        .drain()
        .any(|a| matches!(a, Action::SetTimer(token, _) if token == DETECTOR_TIMER_TOKEN));
    assert!(armed, "on_start must arm the detector sweep");
}

#[test]
fn confirmed_dead_organizer_leaves_before_ttl_expiry() {
    let mut p = detecting_realtor();
    let mut out = Actions::new();
    p.on_start(at(0.0), view(), &mut out);
    out.drain().for_each(drop);

    // t=0.5: a HELP from the organizer joins its community (TTL 10 s, so
    // soft state alone would hold the membership until t=10.5).
    p.on_message(at(0.5), ORGANIZER, &help_from(ORGANIZER), view(), &mut out);
    out.drain().for_each(drop);
    assert_eq!(p.introspect(at(1.0)).memberships, 1);

    // Silence. Sweeps at t=1..=3 see at most 2.5 s without traffic: below
    // the 3 s suspicion bound, so nothing happens.
    assert_eq!(sweep_range(p.as_mut(), 0, 3), vec![]);
    assert_eq!(p.introspect(at(3.0)).memberships, 1);

    // t=4 marks the organizer suspect (3.5 s of silence); confirmation
    // needs 2 more seconds of suspicion, landing at the t=6 sweep.
    let declared = sweep_range(p.as_mut(), 3, 8);
    assert_eq!(declared, vec![(ORGANIZER, SimTime::from_secs(6))]);

    // The membership died with the declaration — 4.5 s before the TTL
    // would have expired it — and the detector reported exactly once.
    assert_eq!(p.introspect(at(6.0)).memberships, 0);
    assert!(
        at(6.0) < at(0.5) + SimDuration::from_secs(10),
        "sanity: TTL not expired"
    );
}

#[test]
fn any_protocol_traffic_is_a_heartbeat() {
    let mut p = detecting_realtor();
    let mut out = Actions::new();
    p.on_start(at(0.0), view(), &mut out);
    out.drain().for_each(drop);
    p.on_message(at(0.5), ORGANIZER, &help_from(ORGANIZER), view(), &mut out);
    out.drain().for_each(drop);

    // The organizer never sends another HELP, but its pledges keep flowing
    // every 2 s — well inside the 3 s suspicion bound. No sweep through
    // t=20 may declare it dead: the detector reuses protocol traffic as
    // heartbeats rather than requiring dedicated ping messages.
    for s in 1..=20u64 {
        let now = SimTime::from_secs(s);
        if s % 2 == 0 {
            p.on_message(
                now,
                ORGANIZER,
                &pledge_from(ORGANIZER, now),
                view(),
                &mut out,
            );
            out.drain().for_each(drop);
        }
        let declared = sweep_range(p.as_mut(), s - 1, s);
        assert_eq!(declared, vec![], "false confirmation at t={s}");
    }
}

#[test]
fn revived_organizer_rejoins_as_a_fresh_member() {
    let mut p = detecting_realtor();
    let mut out = Actions::new();
    p.on_start(at(0.0), view(), &mut out);
    out.drain().for_each(drop);
    p.on_message(at(0.5), ORGANIZER, &help_from(ORGANIZER), view(), &mut out);
    out.drain().for_each(drop);

    // Confirm it dead (t=6 as above), then hear from it again: the revival
    // must count as a brand-new join, not a refresh of the old membership.
    let declared = sweep_range(p.as_mut(), 0, 7);
    assert_eq!(declared.len(), 1);
    assert_eq!(p.introspect(at(7.0)).memberships, 0);
    assert_eq!(p.introspect(at(7.0)).lifetime_joins, 1);

    p.on_message(at(7.5), ORGANIZER, &help_from(ORGANIZER), view(), &mut out);
    out.drain().for_each(drop);
    assert_eq!(p.introspect(at(8.0)).memberships, 1);
    assert_eq!(p.introspect(at(8.0)).lifetime_joins, 2);

    // And the detector forgave it: no immediate re-declaration.
    assert_eq!(sweep_range(p.as_mut(), 7, 10), vec![]);
}

#[test]
fn detector_off_means_no_declarations_and_no_sweeps() {
    let peers: Vec<usize> = (0..PEERS).collect();
    let mut p = ProtocolKind::Realtor.build(ME, ProtocolConfig::paper(), &peers, 100.0);
    let mut out = Actions::new();
    p.on_start(at(0.0), view(), &mut out);
    assert!(
        !out.drain()
            .any(|a| matches!(a, Action::SetTimer(t, _) if t == DETECTOR_TIMER_TOKEN)),
        "paper configuration must not arm detector sweeps"
    );
    p.on_message(at(0.5), ORGANIZER, &help_from(ORGANIZER), view(), &mut out);
    out.drain().for_each(drop);
    // A stray detector token is treated as an ordinary (stale) help timer.
    p.on_timer(at(30.0), DETECTOR_TIMER_TOKEN, view(), &mut out);
    assert!(
        !out.drain().any(|a| matches!(a, Action::DeclareDead(_))),
        "no detector, no declarations"
    );
}
