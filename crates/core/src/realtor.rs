//! REALTOR — the paper's protocol: adaptive PULL (Algorithm H) combined with
//! adaptive PUSH (the unsolicited half of Algorithm P).
//!
//! Behaviour, straight from Section 4:
//!
//! * When a task arrival would push queue occupancy above the HELP
//!   threshold and `HELP_interval` has elapsed, flood a `HELP` (community
//!   invitation/refresh) and arm the pledge-wait timer. On timeout the
//!   interval grows by `alpha` (bounded by `Upper_limit`); when a pledge
//!   reveals a viable destination it shrinks by `beta`.
//! * On receiving `HELP`, join/refresh the sender's community and answer
//!   with `PLEDGE` if local occupancy is below the pledge threshold.
//! * While a member of any community, send an unsolicited `PLEDGE` to every
//!   live organizer whenever local occupancy crosses the pledge threshold in
//!   either direction — this is the push half that keeps organizers current.
//!
//! All community state is soft: memberships expire `membership_ttl` after
//! the organizer's last HELP, so dead organizers stop receiving updates and
//! dead members age out of pledge lists.

use crate::community::{MembershipTable, OwnCommunity};
use crate::config::ProtocolConfig;
use crate::failure::FailureDetector;
use crate::help::{HelpController, HelpDecision, HelpMode};
use crate::message::{Help, Message, Pledge};
use crate::pledge::{AvailabilityStore, PledgePolicy};
use crate::protocol::{Actions, DiscoveryProtocol, Introspection, LocalView, TimerToken};
use realtor_net::NodeId;
use realtor_simcore::trace::{TraceKind, TraceValue, Tracer};
use realtor_simcore::SimTime;

/// Timer token reserved for the failure-detector sweep. Algorithm H mints
/// its pledge-wait tokens from a generation counter starting at 0, so the
/// top bit can never collide with it within any realistic run.
pub const DETECTOR_TIMER_TOKEN: TimerToken = TimerToken(1 << 63);

/// The REALTOR protocol instance for one node.
#[derive(Debug)]
pub struct Realtor {
    me: NodeId,
    cfg: ProtocolConfig,
    help: HelpController,
    policy: PledgePolicy,
    memberships: MembershipTable,
    own_community: OwnCommunity,
    store: AvailabilityStore,
    /// Queue demand (seconds) of the most recent task that needed help;
    /// used for the "a node is found for migration" reward test.
    last_need_secs: f64,
    /// Optional liveness tracking over received traffic (off in the paper's
    /// configuration; see [`crate::failure`]).
    detector: Option<FailureDetector>,
    /// Structured-trace sink (disabled by default: a pure no-op observer).
    tracer: Tracer,
    /// The world's node count: the per-node tables are sized to it.
    nodes: usize,
}

impl Realtor {
    /// Create a REALTOR instance for `me`.
    pub fn new(me: NodeId, cfg: ProtocolConfig) -> Self {
        Self::with_id_capacity(me, cfg, 0)
    }

    /// Like [`new`](Self::new), for a world of `nodes` nodes: the per-node
    /// tables are sized to the node ids once, on their first entry.
    pub(crate) fn with_id_capacity(me: NodeId, cfg: ProtocolConfig, nodes: usize) -> Self {
        cfg.validate();
        Realtor {
            me,
            help: HelpController::new(&cfg, HelpMode::Adaptive),
            policy: PledgePolicy::new(&cfg, 0.0),
            memberships: MembershipTable::with_id_capacity(cfg.membership_ttl, nodes),
            own_community: OwnCommunity::with_id_capacity(cfg.membership_ttl, nodes),
            store: AvailabilityStore::with_id_capacity(nodes),
            last_need_secs: 0.0,
            detector: Self::new_detector(&cfg, nodes),
            tracer: Tracer::disabled(),
            nodes,
            cfg,
        }
    }

    fn new_detector(cfg: &ProtocolConfig, nodes: usize) -> Option<FailureDetector> {
        cfg.failure_detector
            .map(|d| FailureDetector::with_id_capacity(d, nodes))
    }

    /// Immutable view of the pledge list (for tests and diagnostics).
    pub fn store(&self) -> &AvailabilityStore {
        &self.store
    }

    /// The Algorithm H controller (for tests and diagnostics).
    pub fn help_controller(&self) -> &HelpController {
        &self.help
    }

    fn make_pledge(&self, now: SimTime, local: LocalView) -> Pledge {
        Pledge {
            pledger: self.me,
            headroom_secs: local.headroom_secs,
            community_count: self.memberships.count(now),
            grant_probability: (local.headroom_secs / local.capacity_secs).clamp(0.0, 1.0),
            sent_at: now,
        }
    }

    fn urgency(&self, queue_frac: f64) -> f64 {
        let th = self.help.threshold();
        if th >= 1.0 {
            1.0
        } else {
            ((queue_frac - th) / (1.0 - th)).clamp(0.0, 1.0)
        }
    }

    /// The failure detector's current verdicts (tests and diagnostics).
    pub fn detector(&self) -> Option<&FailureDetector> {
        self.detector.as_ref()
    }

    /// Run a detector sweep: tear down soft state for every peer confirmed
    /// dead by this sweep and tell the environment so it can recover the
    /// peer's orphaned work.
    fn detector_sweep(&mut self, now: SimTime, out: &mut Actions) {
        let Some(det) = self.detector.as_mut() else {
            return;
        };
        let report = det.sweep_report(now);
        let sweep_interval = det.config().sweep_interval;
        for &peer in &report.newly_suspected {
            self.tracer.emit(
                now,
                Some(self.me),
                TraceKind::PeerSuspect,
                &[("peer", TraceValue::U64(peer as u64))],
            );
        }
        for &peer in &report.confirmed {
            self.memberships.leave(peer);
            self.own_community.remove(peer);
            self.store.forget(peer);
            out.declare_dead(peer);
            self.tracer.emit(
                now,
                Some(self.me),
                TraceKind::PeerConfirmed,
                &[("peer", TraceValue::U64(peer as u64))],
            );
        }
        out.set_timer(DETECTOR_TIMER_TOKEN, sweep_interval);
    }

    /// Emit an `interval_adapt` event when Algorithm H moved its interval.
    fn trace_interval(&self, now: SimTime, before_secs: f64, after_secs: f64) {
        if after_secs != before_secs {
            let cause = if after_secs > before_secs {
                "penalty"
            } else {
                "reward"
            };
            self.tracer.emit(
                now,
                Some(self.me),
                TraceKind::IntervalAdapt,
                &[
                    ("old_secs", TraceValue::F64(before_secs)),
                    ("new_secs", TraceValue::F64(after_secs)),
                    ("cause", TraceValue::Str(cause)),
                ],
            );
        }
    }
}

impl DiscoveryProtocol for Realtor {
    fn name(&self) -> &'static str {
        "REALTOR-100"
    }

    fn node(&self) -> NodeId {
        self.me
    }

    fn on_start(&mut self, _now: SimTime, _local: LocalView, out: &mut Actions) {
        // REALTOR proper is purely reactive: no periodic timers at start.
        // Only the optional failure detector needs a sweep heartbeat.
        if let Some(det) = &self.detector {
            out.set_timer(DETECTOR_TIMER_TOKEN, det.config().sweep_interval);
        }
    }

    fn on_task_arrival(&mut self, now: SimTime, local: LocalView, out: &mut Actions) {
        match self.help.on_task_arrival(now, local.queue_frac) {
            HelpDecision::SendHelp { timer_gen, wait } => {
                let urgency = self.urgency(local.queue_frac);
                let member_count = self.own_community.member_count(now);
                out.flood(Message::Help(Help {
                    organizer: self.me,
                    member_count,
                    urgency,
                    relay_ttl: 0,
                }));
                out.set_timer(TimerToken(timer_gen), wait);
                self.tracer.emit(
                    now,
                    Some(self.me),
                    TraceKind::HelpFlood,
                    &[
                        ("interval_secs", TraceValue::F64(self.help.interval().as_secs_f64())),
                        ("urgency", TraceValue::F64(urgency)),
                        ("members", TraceValue::U64(member_count as u64)),
                    ],
                );
            }
            HelpDecision::Hold => {}
        }
    }

    fn on_usage_change(&mut self, now: SimTime, local: LocalView, out: &mut Actions) {
        if self.policy.observe(local.queue_frac).is_some() {
            // Unsolicited update to every community we currently belong to.
            let pledge = self.make_pledge(now, local);
            for organizer in self.memberships.current(now) {
                out.unicast(organizer, Message::Pledge(pledge));
                if self.tracer.records(TraceKind::PledgeSend) {
                    self.tracer.emit(
                        now,
                        Some(self.me),
                        TraceKind::PledgeSend,
                        &[
                            ("to", TraceValue::U64(organizer as u64)),
                            ("headroom_secs", TraceValue::F64(pledge.headroom_secs)),
                            ("solicited", TraceValue::Bool(false)),
                        ],
                    );
                }
            }
            let expired = self.memberships.purge_expired(now);
            if expired > 0 {
                self.tracer.emit(
                    now,
                    Some(self.me),
                    TraceKind::CommunityExpire,
                    &[("expired", TraceValue::U64(expired as u64))],
                );
            }
        }
    }

    fn on_message(
        &mut self,
        now: SimTime,
        from: NodeId,
        msg: &Message,
        local: LocalView,
        out: &mut Actions,
    ) {
        // Every received message doubles as a liveness heartbeat.
        if from != self.me {
            if let Some(det) = self.detector.as_mut() {
                if det.record_heard(from, now) {
                    self.tracer.emit(
                        now,
                        Some(self.me),
                        TraceKind::PeerRevived,
                        &[("peer", TraceValue::U64(from as u64))],
                    );
                }
            }
        }
        match msg {
            Message::Help(h) => {
                if h.organizer == self.me {
                    return; // our own flood echoed back
                }
                // Joining/refreshing is free; pledging requires headroom.
                let joined = self.memberships.refresh(h.organizer, now);
                let kind = if joined {
                    TraceKind::CommunityJoin
                } else {
                    TraceKind::CommunityRefresh
                };
                if self.tracer.records(kind) {
                    self.tracer.emit(
                        now,
                        Some(self.me),
                        kind,
                        &[("organizer", TraceValue::U64(h.organizer as u64))],
                    );
                }
                if self.policy.should_answer_help(local.queue_frac) {
                    let pledge = self.make_pledge(now, local);
                    out.unicast(h.organizer, Message::Pledge(pledge));
                    if self.tracer.records(TraceKind::PledgeSend) {
                        self.tracer.emit(
                            now,
                            Some(self.me),
                            TraceKind::PledgeSend,
                            &[
                                ("to", TraceValue::U64(h.organizer as u64)),
                                ("headroom_secs", TraceValue::F64(pledge.headroom_secs)),
                                ("solicited", TraceValue::Bool(true)),
                            ],
                        );
                    }
                }
            }
            Message::Pledge(p) => {
                self.own_community.pledge_received(p.pledger, now);
                // Duplicate/out-of-order deliveries (unreliable channel) are
                // rejected by the watermark and never reward Algorithm H.
                let fresh = self
                    .store
                    .record_report(p.pledger, p.headroom_secs, now, p.sent_at);
                let kind = if fresh {
                    TraceKind::PledgeAccept
                } else {
                    TraceKind::PledgeStaleDrop
                };
                if self.tracer.records(kind) {
                    self.tracer.emit(
                        now,
                        Some(self.me),
                        kind,
                        &[
                            ("pledger", TraceValue::U64(p.pledger as u64)),
                            ("headroom_secs", TraceValue::F64(p.headroom_secs)),
                        ],
                    );
                }
                let found =
                    fresh && p.pledger != self.me && p.headroom_secs >= self.last_need_secs;
                let before = self.help.interval().as_secs_f64();
                self.help.on_pledge(found);
                self.trace_interval(now, before, self.help.interval().as_secs_f64());
            }
            Message::Advert(_) => {
                // REALTOR deployments never produce adverts; tolerate and
                // ignore them (idempotence under foreign traffic).
            }
        }
    }

    fn on_timer(&mut self, now: SimTime, token: TimerToken, _local: LocalView, out: &mut Actions) {
        if token == DETECTOR_TIMER_TOKEN && self.detector.is_some() {
            self.detector_sweep(now, out);
        } else {
            let before = self.help.interval().as_secs_f64();
            self.help.on_timeout(token.0);
            self.trace_interval(now, before, self.help.interval().as_secs_f64());
        }
    }

    fn pick_candidate(&mut self, now: SimTime, need_secs: f64) -> Option<NodeId> {
        self.last_need_secs = need_secs;
        self.store.pick(
            now,
            need_secs,
            self.cfg.info_ttl,
            self.me,
            self.cfg.candidate_policy,
        )
    }

    fn on_migration_result(&mut self, now: SimTime, dest: NodeId, admitted: bool) {
        if admitted {
            // Locally account for the capacity we just consumed at `dest` so
            // the same destination is not immediately over-selected.
            if let Some(r) = self.store.get(dest) {
                self.store
                    .record(dest, (r.headroom_secs - self.last_need_secs).max(0.0), now);
            }
        } else {
            // The destination refused: its pledge was stale. Remember it as
            // having no headroom until it tells us otherwise.
            self.store.record(dest, 0.0, now);
        }
    }

    fn introspect(&self, now: SimTime) -> Introspection {
        Introspection {
            help_interval_secs: Some(self.help.interval().as_secs_f64()),
            known_candidates: self.store.len(),
            memberships: self.memberships.count(now) as usize,
            lifetime_joins: self.memberships.lifetime_joins(),
        }
    }

    fn on_reset(&mut self, now: SimTime) {
        self.help.reset();
        self.memberships = MembershipTable::with_id_capacity(self.cfg.membership_ttl, self.nodes);
        self.own_community = OwnCommunity::with_id_capacity(self.cfg.membership_ttl, self.nodes);
        self.store = AvailabilityStore::with_id_capacity(self.nodes);
        self.policy = PledgePolicy::new(&self.cfg, 0.0);
        self.last_need_secs = 0.0;
        // Amnesia extends to liveness verdicts: a restored node must not
        // remember who it had confirmed dead before the crash.
        self.detector = Self::new_detector(&self.cfg, self.nodes);
        let _ = now;
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Action;
    use realtor_simcore::SimDuration;

    fn view(headroom: f64) -> LocalView {
        LocalView::new(headroom, 100.0)
    }

    fn at(secs: f64) -> SimTime {
        SimTime::from_secs_f64(secs)
    }

    fn floods(out: &Actions) -> usize {
        out.as_slice()
            .iter()
            .filter(|a| matches!(a, Action::Flood(_)))
            .count()
    }

    fn unicasts(out: &Actions) -> Vec<(NodeId, Message)> {
        out.as_slice()
            .iter()
            .filter_map(|a| match a {
                Action::Unicast(to, m) => Some((*to, *m)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn overloaded_arrival_floods_help() {
        let mut r = Realtor::new(0, ProtocolConfig::paper());
        let mut out = Actions::new();
        r.on_task_arrival(at(1.0), view(5.0), &mut out); // 95% full
        assert_eq!(floods(&out), 1);
        assert!(out
            .as_slice()
            .iter()
            .any(|a| matches!(a, Action::SetTimer(_, _))));
    }

    #[test]
    fn underloaded_arrival_is_silent() {
        let mut r = Realtor::new(0, ProtocolConfig::paper());
        let mut out = Actions::new();
        r.on_task_arrival(at(1.0), view(50.0), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn help_reply_when_below_threshold() {
        let mut r = Realtor::new(1, ProtocolConfig::paper());
        let mut out = Actions::new();
        let help = Message::Help(Help {
            organizer: 0,
            member_count: 0,
            urgency: 0.5,
            relay_ttl: 0,
        });
        r.on_message(at(1.0), 0, &help, view(80.0), &mut out);
        let u = unicasts(&out);
        assert_eq!(u.len(), 1);
        assert_eq!(u[0].0, 0);
        match u[0].1 {
            Message::Pledge(p) => {
                assert_eq!(p.pledger, 1);
                assert_eq!(p.headroom_secs, 80.0);
                assert_eq!(p.community_count, 1, "we just joined node 0's community");
                assert!((p.grant_probability - 0.8).abs() < 1e-12);
            }
            _ => panic!("expected pledge"),
        }
    }

    #[test]
    fn busy_member_joins_but_does_not_pledge() {
        let mut r = Realtor::new(1, ProtocolConfig::paper());
        let mut out = Actions::new();
        let help = Message::Help(Help {
            organizer: 0,
            member_count: 0,
            urgency: 0.5,
            relay_ttl: 0,
        });
        r.on_message(at(1.0), 0, &help, view(5.0), &mut out); // 95% busy
        assert!(unicasts(&out).is_empty());
        // ...but when its usage crosses the threshold it pushes unsolicited
        // pledges to the community it joined: once when it (re-)confirms the
        // busy side, once when it frees up.
        let mut out = Actions::new();
        r.on_usage_change(at(2.0), view(5.0), &mut out);
        let busy_updates = unicasts(&out);
        assert_eq!(busy_updates.len(), 1, "policy starts below: became-busy crossing");
        let mut out = Actions::new();
        r.on_usage_change(at(3.0), view(60.0), &mut out);
        let u = unicasts(&out);
        assert_eq!(u.len(), 1, "became-free crossing pledges to organizer 0");
        assert_eq!(u[0].0, 0);
    }

    #[test]
    fn crossing_to_busy_also_updates_organizers() {
        let mut r = Realtor::new(1, ProtocolConfig::paper());
        let mut out = Actions::new();
        let help = Message::Help(Help {
            organizer: 0,
            member_count: 0,
            urgency: 0.1,
            relay_ttl: 0,
        });
        r.on_message(at(1.0), 0, &help, view(80.0), &mut out);
        let mut out = Actions::new();
        r.on_usage_change(at(2.0), view(2.0), &mut out); // now 98% busy
        let u = unicasts(&out);
        assert_eq!(u.len(), 1);
        match u[0].1 {
            Message::Pledge(p) => assert_eq!(p.headroom_secs, 2.0),
            _ => panic!("expected pledge"),
        }
    }

    #[test]
    fn expired_membership_receives_no_updates() {
        let cfg = ProtocolConfig::paper();
        let ttl = cfg.membership_ttl;
        let mut r = Realtor::new(1, cfg);
        let mut out = Actions::new();
        let help = Message::Help(Help {
            organizer: 0,
            member_count: 0,
            urgency: 0.1,
            relay_ttl: 0,
        });
        r.on_message(at(0.0), 0, &help, view(80.0), &mut out);
        let mut out = Actions::new();
        let late = SimTime::ZERO + ttl + SimDuration::from_secs(1);
        r.on_usage_change(late, view(2.0), &mut out);
        assert!(unicasts(&out).is_empty(), "membership expired: silent");
    }

    #[test]
    fn pledges_build_candidate_list() {
        let mut r = Realtor::new(0, ProtocolConfig::paper());
        let mut out = Actions::new();
        for (node, headroom) in [(1, 30.0), (2, 70.0), (3, 50.0)] {
            let pledge = Message::Pledge(Pledge {
                pledger: node,
                headroom_secs: headroom,
                community_count: 1,
                grant_probability: headroom / 100.0,
                sent_at: SimTime::ZERO,
            });
            r.on_message(at(1.0), node, &pledge, view(5.0), &mut out);
        }
        assert_eq!(r.pick_candidate(at(2.0), 10.0), Some(2));
        assert_eq!(r.pick_candidate(at(2.0), 60.0), Some(2));
        assert_eq!(r.pick_candidate(at(2.0), 90.0), None);
    }

    #[test]
    fn refusal_marks_destination_busy() {
        let mut r = Realtor::new(0, ProtocolConfig::paper());
        let mut out = Actions::new();
        let pledge = Message::Pledge(Pledge {
            pledger: 2,
            headroom_secs: 70.0,
            community_count: 1,
            grant_probability: 0.7,
            sent_at: SimTime::ZERO,
        });
        r.on_message(at(1.0), 2, &pledge, view(5.0), &mut out);
        assert_eq!(r.pick_candidate(at(2.0), 10.0), Some(2));
        r.on_migration_result(at(2.0), 2, false);
        assert_eq!(r.pick_candidate(at(2.0), 10.0), None);
    }

    #[test]
    fn admission_decrements_remembered_headroom() {
        let mut r = Realtor::new(0, ProtocolConfig::paper());
        let mut out = Actions::new();
        let pledge = Message::Pledge(Pledge {
            pledger: 2,
            headroom_secs: 15.0,
            community_count: 1,
            grant_probability: 0.15,
            sent_at: SimTime::ZERO,
        });
        r.on_message(at(1.0), 2, &pledge, view(5.0), &mut out);
        assert_eq!(r.pick_candidate(at(2.0), 10.0), Some(2));
        r.on_migration_result(at(2.0), 2, true);
        // 15 - 10 = 5 left: not enough for another 10-second task.
        assert_eq!(r.pick_candidate(at(2.0), 10.0), None);
        assert_eq!(r.pick_candidate(at(2.0), 4.0), Some(2));
    }

    #[test]
    fn successful_pledge_shrinks_help_interval() {
        let mut r = Realtor::new(0, ProtocolConfig::paper());
        let mut out = Actions::new();
        // Open an urgent HELP round (queue overflow); a useful pledge
        // answering it shrinks the interval (reward), exactly once.
        r.on_task_arrival(at(0.0), view(0.0), &mut out);
        assert!(out
            .as_slice()
            .iter()
            .any(|a| matches!(a, Action::SetTimer(_, _))));
        let before = r.help_controller().interval();
        let pledge = Message::Pledge(Pledge {
            pledger: 2,
            headroom_secs: 50.0,
            community_count: 1,
            grant_probability: 0.5,
            sent_at: SimTime::ZERO,
        });
        r.on_message(at(0.5), 2, &pledge, view(5.0), &mut Actions::new());
        let after = r.help_controller().interval();
        assert!(after < before);
        assert_eq!(after, SimDuration::from_secs_f64(0.5));
        // Second pledge of the same round: no further shrink.
        r.on_message(at(0.6), 3, &pledge, view(5.0), &mut Actions::new());
        assert_eq!(r.help_controller().interval(), after);
    }

    #[test]
    fn timeout_after_silence_grows_interval() {
        let mut r = Realtor::new(0, ProtocolConfig::paper());
        let mut out = Actions::new();
        r.on_task_arrival(at(0.0), view(5.0), &mut out);
        let token = out
            .as_slice()
            .iter()
            .find_map(|a| match a {
                Action::SetTimer(t, _) => Some(*t),
                _ => None,
            })
            .unwrap();
        r.on_timer(at(1.0), token, view(5.0), &mut Actions::new());
        assert_eq!(
            r.help_controller().interval(),
            SimDuration::from_secs_f64(1.5)
        );
    }

    #[test]
    fn own_help_echo_is_ignored() {
        let mut r = Realtor::new(0, ProtocolConfig::paper());
        let mut out = Actions::new();
        let own = Message::Help(Help {
            organizer: 0,
            member_count: 0,
            urgency: 0.2,
            relay_ttl: 0,
        });
        r.on_message(at(1.0), 0, &own, view(80.0), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn reset_clears_soft_state() {
        let mut r = Realtor::new(0, ProtocolConfig::paper());
        let mut out = Actions::new();
        let pledge = Message::Pledge(Pledge {
            pledger: 2,
            headroom_secs: 70.0,
            community_count: 1,
            grant_probability: 0.7,
            sent_at: SimTime::ZERO,
        });
        r.on_message(at(1.0), 2, &pledge, view(5.0), &mut out);
        r.on_reset(at(2.0));
        assert_eq!(r.pick_candidate(at(2.0), 1.0), None);
        assert!(r.store().is_empty());
    }
}
