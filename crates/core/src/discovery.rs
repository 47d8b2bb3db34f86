//! The one discovery state machine behind all five protocols.
//!
//! The paper's §5 defines its four comparators as pull/push variants of
//! REALTOR's own two algorithms: Algorithm H, the adaptive HELP interval
//! ([`crate::help`]), and Algorithm P, pledging on HELP and on threshold
//! crossings ([`crate::pledge`]). One `Discovery` machine runs all of them.
//! Its behaviour branches only on four settings, never on which protocol it
//! is; [`ProtocolKind`] maps each preset to them:
//!
//! | preset | pull | push | membership |
//! |---|---|---|---|
//! | `Pull-.9` | unlimited | off | off |
//! | `Push-1` | off | periodic | off |
//! | `Push-.9` | off | on crossing | off |
//! | `Pull-100` | adaptive | off | off |
//! | `REALTOR-100` | adaptive | off | on |
//!
//! * **Pull.** When a task arrival would push queue occupancy above the
//!   HELP threshold, flood a `HELP`: on every such arrival when unlimited
//!   (*"without Upper_limit in Algorithm H"*), or once `HELP_interval` has
//!   elapsed when adaptive. Only adaptive pull arms the pledge-wait timer:
//!   on timeout the interval grows by `alpha` (bounded by `Upper_limit`);
//!   when a pledge reveals a viable destination it shrinks by `beta`. A
//!   pull node answers a `HELP` with a `PLEDGE` while its occupancy is
//!   below the pledge threshold, and records the `PLEDGE`s it receives.
//! * **Push.** Flood an `ADVERT` of the local headroom, either at start and
//!   every `push_interval` (*"unconditionally at every preset interval"*)
//!   or whenever occupancy crosses the pledge threshold. On-crossing push
//!   reads silence as "unchanged", and every queue starts empty, so its
//!   store is seeded with every peer at full capacity at start and on
//!   reset; the first crossing corrects the record. A push node records the
//!   `ADVERT`s it receives.
//! * **Membership tracking** (REALTOR's communities). A `HELP` joins or
//!   refreshes the sender's community, whether or not the node pledges.
//!   While a member of any community, the node sends an unsolicited
//!   `PLEDGE` to every live organizer whenever its occupancy crosses the
//!   pledge threshold in either direction, the push half of Algorithm P
//!   that keeps organizers current. All community state is soft:
//!   memberships expire `membership_ttl` after the organizer's last `HELP`.
//! * **Failure detector.** The optional one of
//!   [`ProtocolConfig::failure_detector`], run only with membership
//!   tracking: every received message is a heartbeat, and a confirmed death
//!   tears down the peer's community state and availability report.
//!
//! A node ignores the messages of a half it does not run: pull-off nodes
//! ignore `HELP` and `PLEDGE`, push-off nodes ignore `ADVERT`.

use crate::community::{MembershipTable, OwnCommunity};
use crate::config::ProtocolConfig;
use crate::factory::ProtocolKind;
use crate::failure::FailureDetector;
use crate::help::{HelpController, HelpDecision, HelpMode};
use crate::message::{Advert, Help, Message, Pledge};
use crate::pledge::{AvailabilityStore, PledgePolicy};
use crate::protocol::{Actions, DiscoveryProtocol, Introspection, LocalView, TimerToken};
use realtor_net::NodeId;
use realtor_simcore::trace::{TraceKind, TraceValue, Tracer};
use realtor_simcore::SimTime;
use std::sync::Arc;

/// Timer token reserved for the failure-detector sweep. Algorithm H mints
/// its pledge-wait tokens from a generation counter starting at 0, so the
/// top bit can never collide with it within any realistic run.
pub const DETECTOR_TIMER_TOKEN: TimerToken = TimerToken(1 << 63);

/// Periodic push ticks carry this bit plus the node's reset epoch, so a
/// tick armed before a reset is told apart from the current one.
const PUSH_TICK: u64 = 1 << 62;

/// How a node disseminates its availability unasked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Push {
    /// Flood an `ADVERT` at start and every `push_interval`.
    Periodic,
    /// Flood an `ADVERT` on each pledge-threshold crossing.
    OnCrossing,
}

/// The four settings a preset fixes (the detector comes from the config).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Settings {
    /// HELP solicitation, and the Algorithm H variant that paces it.
    pub(crate) pull: Option<HelpMode>,
    /// Unsolicited `ADVERT` dissemination.
    pub(crate) push: Option<Push>,
    /// REALTOR's soft-state communities and the failure detector.
    pub(crate) membership: bool,
}

/// The discovery protocol instance for one node.
///
/// `repr(C)` keeps the declaration order: the fields every message
/// delivery reads come first, so a delivery touches one or two cache lines
/// of the instance rather than one per field.
#[derive(Debug)]
#[repr(C)]
pub(crate) struct Discovery {
    me: NodeId,
    settings: Settings,
    store: AvailabilityStore,
    /// Queue demand (seconds) of the most recent task that needed help;
    /// used for the "a node is found for migration" reward test.
    last_need_secs: f64,
    /// Optional liveness tracking over received traffic (off in the paper's
    /// configuration; see [`crate::failure`]).
    detector: Option<FailureDetector>,
    /// Structured-trace sink (disabled by default: a pure no-op observer).
    tracer: Tracer,
    policy: PledgePolicy,
    help: HelpController,
    memberships: MembershipTable,
    own_community: OwnCommunity,
    /// The world's nodes and their queue capacity, kept only by
    /// on-crossing push, which seeds its store with them.
    seed: Option<(Arc<[NodeId]>, f64)>,
    /// Bumped on reset; stamps periodic push ticks.
    epoch: u64,
    /// The world's node count: the dense per-node tables (store, own
    /// community, detector) are sized to it.
    nodes: usize,
    name: &'static str,
    cfg: ProtocolConfig,
}

impl Discovery {
    /// Create `kind`'s instance for `me` in a world of `peers`, each with a
    /// queue of `capacity_secs` (see [`ProtocolKind::build`]).
    pub(crate) fn new<P>(
        kind: ProtocolKind,
        me: NodeId,
        cfg: ProtocolConfig,
        peers: &P,
        capacity_secs: f64,
    ) -> Self
    where
        P: AsRef<[NodeId]> + Clone + Into<Arc<[NodeId]>>,
    {
        cfg.validate();
        let (name, settings) = kind.preset();
        let nodes = peers.as_ref().len();
        Discovery {
            me,
            name,
            settings,
            // Pull-off presets never consult the controller; any mode does.
            help: HelpController::new(&cfg, settings.pull.unwrap_or(HelpMode::Adaptive)),
            policy: PledgePolicy::new(&cfg, 0.0),
            store: AvailabilityStore::with_id_capacity(nodes),
            memberships: MembershipTable::new(cfg.membership_ttl),
            own_community: OwnCommunity::with_id_capacity(cfg.membership_ttl, nodes),
            detector: Self::new_detector(settings, &cfg, nodes),
            seed: (settings.push == Some(Push::OnCrossing))
                .then(|| (peers.clone().into(), capacity_secs)),
            epoch: 0,
            last_need_secs: 0.0,
            tracer: Tracer::disabled(),
            nodes,
            cfg,
        }
    }

    fn new_detector(
        settings: Settings,
        cfg: &ProtocolConfig,
        nodes: usize,
    ) -> Option<FailureDetector> {
        cfg.failure_detector
            .filter(|_| settings.membership)
            .map(|d| FailureDetector::with_id_capacity(d, nodes))
    }

    fn make_pledge(&self, now: SimTime, local: LocalView) -> Pledge {
        Pledge {
            pledger: self.me,
            headroom_secs: local.headroom_secs,
            community_count: if self.settings.membership {
                self.memberships.count(now)
            } else {
                0
            },
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

    fn advertise(&self, now: SimTime, local: LocalView, out: &mut Actions) {
        out.flood(Message::Advert(Advert {
            advertiser: self.me,
            headroom_secs: local.headroom_secs,
            sent_at: now,
        }));
    }

    fn push_tick(&self) -> TimerToken {
        TimerToken(PUSH_TICK | self.epoch)
    }

    /// Optimistic prior of on-crossing push: every peer at full capacity.
    fn seed_store(&mut self, now: SimTime) {
        if let Some((peers, capacity_secs)) = &self.seed {
            for &p in peers.iter() {
                if p != self.me {
                    self.store.record(p, *capacity_secs, now);
                }
            }
        }
    }

    #[inline]
    fn send_pledge(
        &self,
        now: SimTime,
        to: NodeId,
        pledge: Pledge,
        solicited: bool,
        out: &mut Actions,
    ) {
        out.unicast(to, Message::Pledge(pledge));
        if self.tracer.records(TraceKind::PledgeSend) {
            self.tracer.emit(
                now,
                Some(self.me),
                TraceKind::PledgeSend,
                &[
                    ("to", TraceValue::U64(to as u64)),
                    ("headroom_secs", TraceValue::F64(pledge.headroom_secs)),
                    ("solicited", TraceValue::Bool(solicited)),
                ],
            );
        }
    }

    fn trace_peer(&self, now: SimTime, kind: TraceKind, peer: NodeId) {
        self.tracer.emit(
            now,
            Some(self.me),
            kind,
            &[("peer", TraceValue::U64(peer as u64))],
        );
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
            self.trace_peer(now, TraceKind::PeerSuspect, peer);
        }
        for &peer in &report.confirmed {
            self.memberships.leave(peer);
            self.own_community.remove(peer);
            self.store.forget(peer);
            out.declare_dead(peer);
            self.trace_peer(now, TraceKind::PeerConfirmed, peer);
        }
        out.set_timer(DETECTOR_TIMER_TOKEN, sweep_interval);
    }

    /// Emit an `interval_adapt` event when Algorithm H moved its interval.
    fn trace_interval(&self, now: SimTime, before_secs: f64) {
        let after_secs = self.help.interval().as_secs_f64();
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

    /// Record `from`'s heartbeat with the detector, then handle the message.
    #[inline(never)]
    fn heard_then_handle(
        &mut self,
        now: SimTime,
        from: NodeId,
        msg: &Message,
        local: LocalView,
        out: &mut Actions,
    ) {
        if let Some(det) = self.detector.as_mut() {
            if det.record_heard(from, now) {
                self.trace_peer(now, TraceKind::PeerRevived, from);
            }
        }
        self.handle(now, msg, local, out);
    }

    /// Handle a message in the halves this node runs; a node ignores its
    /// own echoed HELP and ADVERT floods.
    #[inline]
    fn handle(&mut self, now: SimTime, msg: &Message, local: LocalView, out: &mut Actions) {
        match msg {
            Message::Help(h) if self.settings.pull.is_some() && h.organizer != self.me => {
                self.on_help(now, h, local, out)
            }
            Message::Pledge(p) if self.settings.pull.is_some() => self.on_pledge(now, p),
            Message::Advert(a) if self.settings.push.is_some() && a.advertiser != self.me => {
                self.store
                    .record_report(a.advertiser, a.headroom_secs, now, a.sent_at);
            }
            _ => {}
        }
    }

    #[inline(never)]
    fn on_help(&mut self, now: SimTime, h: &Help, local: LocalView, out: &mut Actions) {
        if self.settings.membership {
            // Joining/refreshing is free; pledging requires headroom.
            let kind = if self.memberships.refresh(h.organizer, now) {
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
        }
        if self.policy.should_answer_help(local.queue_frac) {
            let pledge = self.make_pledge(now, local);
            self.send_pledge(now, h.organizer, pledge, true, out);
        }
    }

    #[inline(never)]
    fn on_pledge(&mut self, now: SimTime, p: &Pledge) {
        if self.settings.membership {
            self.own_community.pledge_received(p.pledger, now);
        }
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
        let found = fresh && p.pledger != self.me && p.headroom_secs >= self.last_need_secs;
        let before = self.help.interval().as_secs_f64();
        self.help.on_pledge(found);
        self.trace_interval(now, before);
    }
}

impl DiscoveryProtocol for Discovery {
    fn name(&self) -> &'static str {
        self.name
    }

    fn node(&self) -> NodeId {
        self.me
    }

    fn on_start(&mut self, now: SimTime, local: LocalView, out: &mut Actions) {
        if let Some(det) = &self.detector {
            out.set_timer(DETECTOR_TIMER_TOKEN, det.config().sweep_interval);
        }
        match self.settings.push {
            Some(Push::Periodic) => {
                self.advertise(now, local, out);
                out.set_timer(self.push_tick(), self.cfg.push_interval);
            }
            Some(Push::OnCrossing) => self.seed_store(now),
            None => {}
        }
    }

    fn on_task_arrival(&mut self, now: SimTime, local: LocalView, out: &mut Actions) {
        let Some(mode) = self.settings.pull else {
            return;
        };
        if let HelpDecision::SendHelp { timer_gen, wait } =
            self.help.on_task_arrival(now, local.queue_frac)
        {
            let urgency = self.urgency(local.queue_frac);
            let member_count = self.own_community.member_count(now);
            out.flood(Message::Help(Help {
                organizer: self.me,
                member_count,
                urgency,
                relay_ttl: 0,
            }));
            // Unlimited mode adapts nothing on timeout, so it arms no timer.
            if mode == HelpMode::Adaptive {
                out.set_timer(TimerToken(timer_gen), wait);
            }
            self.tracer.emit(
                now,
                Some(self.me),
                TraceKind::HelpFlood,
                &[
                    (
                        "interval_secs",
                        TraceValue::F64(self.help.interval().as_secs_f64()),
                    ),
                    ("urgency", TraceValue::F64(urgency)),
                    ("members", TraceValue::U64(member_count as u64)),
                ],
            );
        }
    }

    fn on_usage_change(&mut self, now: SimTime, local: LocalView, out: &mut Actions) {
        if self.policy.observe(local.queue_frac).is_none() {
            return;
        }
        if self.settings.push == Some(Push::OnCrossing) {
            self.advertise(now, local, out);
        }
        if self.settings.membership {
            // Unsolicited update to every community we currently belong to.
            let pledge = self.make_pledge(now, local);
            for organizer in self.memberships.current(now) {
                self.send_pledge(now, organizer, pledge, false, out);
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
        // Every received message doubles as a liveness heartbeat. The
        // detector runs only with membership tracking; without it the
        // handlers are tail calls, so the hot delivery path of the presets
        // that run none pays no register-saving prologue.
        if self.settings.membership && self.detector.is_some() && from != self.me {
            return self.heard_then_handle(now, from, msg, local, out);
        }
        self.handle(now, msg, local, out);
    }

    fn on_timer(&mut self, now: SimTime, token: TimerToken, local: LocalView, out: &mut Actions) {
        if token == DETECTOR_TIMER_TOKEN && self.detector.is_some() {
            self.detector_sweep(now, out);
        } else if self.settings.push == Some(Push::Periodic) && token == self.push_tick() {
            self.advertise(now, local, out);
            out.set_timer(self.push_tick(), self.cfg.push_interval);
        } else if self.settings.pull == Some(HelpMode::Adaptive) {
            let before = self.help.interval().as_secs_f64();
            self.help.on_timeout(token.0);
            self.trace_interval(now, before);
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
            // The destination refused: its report was stale. Remember it as
            // having no headroom until it tells us otherwise.
            self.store.record(dest, 0.0, now);
        }
    }

    fn introspect(&self, now: SimTime) -> Introspection {
        Introspection {
            help_interval_secs: self
                .settings
                .pull
                .map(|_| self.help.interval().as_secs_f64()),
            known_candidates: self.store.len(),
            memberships: self.memberships.count(now) as usize,
            lifetime_joins: self.memberships.lifetime_joins(),
        }
    }

    fn on_reset(&mut self, now: SimTime) {
        self.help.reset();
        self.policy = PledgePolicy::new(&self.cfg, 0.0);
        self.store = AvailabilityStore::with_id_capacity(self.nodes);
        self.memberships = MembershipTable::new(self.cfg.membership_ttl);
        self.own_community = OwnCommunity::with_id_capacity(self.cfg.membership_ttl, self.nodes);
        // Amnesia extends to liveness verdicts: a restored node must not
        // remember who it had confirmed dead before the crash.
        self.detector = Self::new_detector(self.settings, &self.cfg, self.nodes);
        self.epoch += 1;
        self.last_need_secs = 0.0;
        self.seed_store(now);
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

    const PULL: [ProtocolKind; 3] = [
        ProtocolKind::PurePull,
        ProtocolKind::AdaptivePull,
        ProtocolKind::Realtor,
    ];
    const ADAPTIVE: [ProtocolKind; 2] = [ProtocolKind::AdaptivePull, ProtocolKind::Realtor];
    const PUSH: [ProtocolKind; 2] = [ProtocolKind::PurePush, ProtocolKind::AdaptivePush];
    const NO_MEMBERSHIP: [ProtocolKind; 4] = [
        ProtocolKind::PurePull,
        ProtocolKind::PurePush,
        ProtocolKind::AdaptivePush,
        ProtocolKind::AdaptivePull,
    ];

    /// `kind` on node `me` of a five-node world of 100-second queues.
    fn make(kind: ProtocolKind, me: NodeId) -> Discovery {
        let peers: Vec<NodeId> = (0..5).collect();
        Discovery::new(kind, me, ProtocolConfig::paper(), &peers, 100.0)
    }

    fn view(headroom: f64) -> LocalView {
        LocalView::new(headroom, 100.0)
    }

    fn at(secs: f64) -> SimTime {
        SimTime::from_secs_f64(secs)
    }

    fn help_from(organizer: NodeId) -> Message {
        Message::Help(Help {
            organizer,
            member_count: 0,
            urgency: 0.5,
            relay_ttl: 0,
        })
    }

    fn pledge_from(pledger: NodeId, headroom_secs: f64, sent_at: SimTime) -> Message {
        Message::Pledge(Pledge {
            pledger,
            headroom_secs,
            community_count: 1,
            grant_probability: headroom_secs / 100.0,
            sent_at,
        })
    }

    fn advert_from(advertiser: NodeId, headroom_secs: f64, sent_at: SimTime) -> Message {
        Message::Advert(Advert {
            advertiser,
            headroom_secs,
            sent_at,
        })
    }

    /// Deliver an availability report in the wire form `p` understands.
    fn report(p: &mut Discovery, now: SimTime, node: NodeId, headroom_secs: f64) {
        let msg = if p.settings.pull.is_some() {
            pledge_from(node, headroom_secs, SimTime::ZERO)
        } else {
            advert_from(node, headroom_secs, SimTime::ZERO)
        };
        p.on_message(now, node, &msg, view(5.0), &mut Actions::new());
    }

    fn floods(out: &Actions) -> usize {
        out.as_slice()
            .iter()
            .filter(|a| matches!(a, Action::Flood(_)))
            .count()
    }

    fn timers(out: &Actions) -> Vec<TimerToken> {
        out.as_slice()
            .iter()
            .filter_map(|a| match a {
                Action::SetTimer(t, _) => Some(*t),
                _ => None,
            })
            .collect()
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
    fn overloaded_arrival_floods_help_and_only_adaptive_arms_a_timer() {
        for kind in PULL {
            let mut p = make(kind, 0);
            let mut out = Actions::new();
            p.on_task_arrival(at(1.0), view(5.0), &mut out); // 95% full
            assert_eq!(floods(&out), 1, "{kind:?}");
            let armed = timers(&out).len();
            assert_eq!(armed, usize::from(ADAPTIVE.contains(&kind)), "{kind:?}");
        }
        for kind in PUSH {
            let mut out = Actions::new();
            make(kind, 0).on_task_arrival(at(1.0), view(1.0), &mut out);
            assert!(out.is_empty(), "{kind:?} never solicits");
        }
    }

    #[test]
    fn underloaded_arrival_is_silent() {
        for kind in ProtocolKind::ALL {
            let mut out = Actions::new();
            make(kind, 0).on_task_arrival(at(1.0), view(50.0), &mut out);
            assert!(out.is_empty(), "{kind:?}");
        }
    }

    #[test]
    fn unlimited_pull_floods_every_overloaded_arrival() {
        let mut p = make(ProtocolKind::PurePull, 0);
        for i in 0..20 {
            let mut out = Actions::new();
            p.on_task_arrival(at(i as f64 * 0.01), view(5.0), &mut out);
            assert_eq!(out.len(), 1, "arrival {i} must flood, no rate limiting");
            assert!(matches!(out.as_slice()[0], Action::Flood(Message::Help(_))));
        }
    }

    #[test]
    fn adaptive_interval_gates_help_floods() {
        for kind in ADAPTIVE {
            let mut p = make(kind, 0);
            let mut out = Actions::new();
            p.on_task_arrival(at(0.0), view(5.0), &mut out);
            assert_eq!(out.len(), 2, "{kind:?}: flood + timer");
            let mut out = Actions::new();
            p.on_task_arrival(at(0.5), view(5.0), &mut out);
            assert!(out.is_empty(), "{kind:?}: within HELP_interval: gated");
        }
    }

    #[test]
    fn help_reply_when_below_threshold() {
        for kind in PULL {
            let mut p = make(kind, 1);
            let mut out = Actions::new();
            p.on_message(at(1.0), 0, &help_from(0), view(80.0), &mut out);
            let u = unicasts(&out);
            assert_eq!(u.len(), 1, "{kind:?} answers each HELP exactly once");
            assert_eq!(u[0].0, 0);
            let Message::Pledge(pl) = u[0].1 else {
                panic!("{kind:?}: expected pledge")
            };
            assert_eq!(pl.pledger, 1);
            assert_eq!(pl.headroom_secs, 80.0);
            // Only REALTOR tracks communities: it just joined node 0's.
            let communities = u32::from(kind == ProtocolKind::Realtor);
            assert_eq!(pl.community_count, communities, "{kind:?}");
            assert!((pl.grant_probability - 0.8).abs() < 1e-12);
        }
    }

    #[test]
    fn busy_node_stays_silent_on_help() {
        for kind in PULL {
            let mut out = Actions::new();
            make(kind, 1).on_message(at(1.0), 0, &help_from(0), view(5.0), &mut out);
            assert!(out.is_empty(), "{kind:?}");
        }
    }

    #[test]
    fn busy_member_joins_but_does_not_pledge() {
        let mut r = make(ProtocolKind::Realtor, 1);
        let mut out = Actions::new();
        r.on_message(at(1.0), 0, &help_from(0), view(5.0), &mut out); // 95% busy
        assert!(unicasts(&out).is_empty());
        // ...but when its usage crosses the threshold it pushes unsolicited
        // pledges to the community it joined: once when it (re-)confirms the
        // busy side, once when it frees up.
        let mut out = Actions::new();
        r.on_usage_change(at(2.0), view(5.0), &mut out);
        assert_eq!(
            unicasts(&out).len(),
            1,
            "policy starts below: became-busy crossing"
        );
        let mut out = Actions::new();
        r.on_usage_change(at(3.0), view(60.0), &mut out);
        let u = unicasts(&out);
        assert_eq!(u.len(), 1, "became-free crossing pledges to organizer 0");
        assert_eq!(u[0].0, 0);
    }

    #[test]
    fn crossing_to_busy_also_updates_organizers() {
        let mut r = make(ProtocolKind::Realtor, 1);
        r.on_message(at(1.0), 0, &help_from(0), view(80.0), &mut Actions::new());
        let mut out = Actions::new();
        r.on_usage_change(at(2.0), view(2.0), &mut out); // now 98% busy
        let u = unicasts(&out);
        assert_eq!(u.len(), 1);
        assert!(matches!(u[0].1, Message::Pledge(p) if p.headroom_secs == 2.0));
    }

    #[test]
    fn expired_membership_receives_no_updates() {
        let mut r = make(ProtocolKind::Realtor, 1);
        r.on_message(at(0.0), 0, &help_from(0), view(80.0), &mut Actions::new());
        let mut out = Actions::new();
        let late = SimTime::ZERO + r.cfg.membership_ttl + SimDuration::from_secs(1);
        r.on_usage_change(late, view(2.0), &mut out);
        assert!(unicasts(&out).is_empty(), "membership expired: silent");
    }

    #[test]
    fn without_membership_nothing_is_pledged_unasked() {
        for kind in NO_MEMBERSHIP {
            let mut p = make(kind, 1);
            p.on_message(at(1.0), 0, &help_from(0), view(80.0), &mut Actions::new());
            let mut out = Actions::new();
            p.on_usage_change(at(2.0), view(2.0), &mut out);
            p.on_usage_change(at(3.0), view(80.0), &mut out);
            assert!(unicasts(&out).is_empty(), "{kind:?}");
            assert_eq!(p.introspect(at(3.0)).memberships, 0, "{kind:?}");
        }
    }

    #[test]
    fn reports_build_the_candidate_list() {
        for kind in ProtocolKind::ALL {
            let mut p = make(kind, 0);
            for (node, headroom) in [(1, 30.0), (2, 70.0), (3, 50.0)] {
                report(&mut p, at(1.0), node, headroom);
            }
            assert_eq!(p.pick_candidate(at(2.0), 10.0), Some(2), "{kind:?}");
            assert_eq!(p.pick_candidate(at(2.0), 60.0), Some(2), "{kind:?}");
            assert_eq!(p.pick_candidate(at(2.0), 90.0), None, "{kind:?}");
        }
    }

    #[test]
    fn foreign_halves_are_ignored() {
        for kind in ProtocolKind::ALL {
            let mut p = make(kind, 0);
            let mut out = Actions::new();
            p.on_message(at(1.0), 1, &help_from(1), view(80.0), &mut out);
            p.on_message(
                at(1.0),
                2,
                &pledge_from(2, 70.0, SimTime::ZERO),
                view(80.0),
                &mut out,
            );
            p.on_message(
                at(1.0),
                3,
                &advert_from(3, 60.0, SimTime::ZERO),
                view(80.0),
                &mut out,
            );
            let pull = PULL.contains(&kind);
            assert_eq!(unicasts(&out).len(), usize::from(pull), "{kind:?} HELP");
            let want = if pull { Some(2) } else { Some(3) };
            assert_eq!(p.pick_candidate(at(1.0), 55.0), want, "{kind:?}");
            assert_eq!(
                p.pick_candidate(at(1.0), 65.0),
                want.filter(|_| pull),
                "{kind:?}"
            );
        }
    }

    #[test]
    fn refusal_marks_destination_busy() {
        for kind in ProtocolKind::ALL {
            let mut p = make(kind, 0);
            report(&mut p, at(1.0), 2, 70.0);
            assert_eq!(p.pick_candidate(at(2.0), 10.0), Some(2), "{kind:?}");
            p.on_migration_result(at(2.0), 2, false);
            assert_eq!(p.pick_candidate(at(2.0), 10.0), None, "{kind:?}");
        }
    }

    #[test]
    fn admission_decrements_remembered_headroom() {
        for kind in ProtocolKind::ALL {
            let mut p = make(kind, 0);
            report(&mut p, at(1.0), 2, 15.0);
            assert_eq!(p.pick_candidate(at(2.0), 10.0), Some(2), "{kind:?}");
            p.on_migration_result(at(2.0), 2, true);
            // 15 - 10 = 5 left: not enough for another 10-second task.
            assert_eq!(p.pick_candidate(at(2.0), 10.0), None, "{kind:?}");
            assert_eq!(p.pick_candidate(at(2.0), 4.0), Some(2), "{kind:?}");
        }
    }

    #[test]
    fn useful_pledge_shrinks_help_interval_once_per_round() {
        for kind in ADAPTIVE {
            let mut p = make(kind, 0);
            // Open an urgent HELP round (queue overflow); a useful pledge
            // answering it shrinks the interval (reward), exactly once.
            p.on_task_arrival(at(0.0), view(0.0), &mut Actions::new());
            let before = p.help.interval();
            let pledge = pledge_from(2, 50.0, SimTime::ZERO);
            p.on_message(at(0.5), 2, &pledge, view(5.0), &mut Actions::new());
            let after = p.help.interval();
            assert!(after < before, "{kind:?}");
            assert_eq!(after, SimDuration::from_secs_f64(0.5), "{kind:?}");
            // Second pledge of the same round: no further shrink.
            p.on_message(at(0.6), 3, &pledge, view(5.0), &mut Actions::new());
            assert_eq!(p.help.interval(), after, "{kind:?}");
        }
        // Unlimited pull records the pledge but never adapts.
        let mut p = make(ProtocolKind::PurePull, 0);
        p.on_task_arrival(at(0.0), view(0.0), &mut Actions::new());
        let pledge = pledge_from(2, 50.0, SimTime::ZERO);
        p.on_message(at(0.5), 2, &pledge, view(5.0), &mut Actions::new());
        assert_eq!(p.help.interval(), p.cfg.initial_help_interval);
        assert_eq!(p.help.counters(), (1, 0, 1));
    }

    #[test]
    fn timeout_after_silence_grows_interval_up_to_the_limit() {
        for kind in ADAPTIVE {
            let mut p = make(kind, 0);
            let mut out = Actions::new();
            p.on_task_arrival(at(0.0), view(5.0), &mut out);
            p.on_timer(at(1.0), timers(&out)[0], view(5.0), &mut Actions::new());
            assert_eq!(
                p.help.interval(),
                SimDuration::from_secs_f64(1.5),
                "{kind:?}"
            );
            let mut t = 0.0;
            for _ in 0..40 {
                t += 300.0;
                let mut out = Actions::new();
                p.on_task_arrival(at(t), view(5.0), &mut out);
                for token in timers(&out) {
                    p.on_timer(at(t + 1.0), token, view(5.0), &mut Actions::new());
                }
            }
            assert_eq!(
                p.help.interval(),
                SimDuration::from_secs(100),
                "{kind:?}: Upper_limit must clamp the interval"
            );
        }
    }

    #[test]
    fn own_echoes_are_ignored() {
        for kind in ProtocolKind::ALL {
            let mut p = make(kind, 0);
            let mut out = Actions::new();
            p.on_message(at(1.0), 0, &help_from(0), view(80.0), &mut out);
            assert!(out.is_empty(), "{kind:?}");
            p.on_message(
                at(1.0),
                0,
                &advert_from(0, 100.0, SimTime::ZERO),
                view(0.0),
                &mut out,
            );
            assert_eq!(p.introspect(at(1.0)).memberships, 0, "{kind:?}");
            if kind != ProtocolKind::AdaptivePush {
                assert_eq!(p.pick_candidate(at(1.0), 1.0), None, "{kind:?}");
            }
        }
    }

    #[test]
    fn reset_clears_soft_state_and_reseeds_the_optimistic_prior() {
        for kind in ProtocolKind::ALL {
            let mut p = make(kind, 0);
            p.on_start(at(0.0), view(100.0), &mut Actions::new());
            report(&mut p, at(1.0), 2, 0.0);
            p.on_reset(at(2.0));
            let pick = p.pick_candidate(at(2.0), 50.0);
            if kind == ProtocolKind::AdaptivePush {
                assert_eq!(pick, Some(1), "the optimistic prior is re-seeded");
                assert_eq!(p.store.len(), 4);
            } else {
                assert_eq!(pick, None, "{kind:?}");
                assert!(p.store.is_empty(), "{kind:?}");
            }
        }
    }

    #[test]
    fn periodic_push_advertises_at_start_and_every_tick() {
        let mut p = make(ProtocolKind::PurePush, 0);
        let mut out = Actions::new();
        p.on_start(at(0.0), view(100.0), &mut out);
        assert_eq!(out.len(), 2);
        assert!(matches!(
            out.as_slice()[0],
            Action::Flood(Message::Advert(_))
        ));
        let mut token = timers(&out)[0];
        for i in 1..=5 {
            let mut out = Actions::new();
            p.on_timer(at(i as f64), token, view(90.0), &mut out);
            assert_eq!(out.len(), 2, "tick {i} floods and rearms");
            token = timers(&out)[0];
        }
        let mut out = Actions::new();
        p.on_task_arrival(at(6.0), view(1.0), &mut out);
        p.on_usage_change(at(6.0), view(1.0), &mut out);
        assert!(out.is_empty(), "dissemination is strictly periodic");
    }

    #[test]
    fn periodic_push_ignores_ticks_armed_before_a_reset() {
        let mut p = make(ProtocolKind::PurePush, 0);
        let mut out = Actions::new();
        p.on_start(at(0.0), view(100.0), &mut out);
        let stale = timers(&out)[0];
        p.on_reset(at(5.0));
        let mut out = Actions::new();
        p.on_timer(at(6.0), stale, view(100.0), &mut out);
        assert!(out.is_empty(), "stale epoch tick must be ignored");
        // restart re-arms with the new epoch
        let mut out = Actions::new();
        p.on_start(at(7.0), view(100.0), &mut out);
        let fresh = timers(&out)[0];
        let mut out = Actions::new();
        p.on_timer(at(8.0), fresh, view(100.0), &mut out);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn crossing_push_floods_an_advert_once_per_crossing() {
        let mut p = make(ProtocolKind::AdaptivePush, 0);
        let mut out = Actions::new();
        p.on_usage_change(at(1.0), view(50.0), &mut out);
        assert!(out.is_empty(), "no crossing yet");
        p.on_usage_change(at(2.0), view(5.0), &mut out); // 95%: crossed busy
        assert_eq!(out.len(), 1);
        assert!(matches!(
            out.as_slice()[0],
            Action::Flood(Message::Advert(_))
        ));
        let mut out = Actions::new();
        p.on_usage_change(at(3.0), view(2.0), &mut out); // still busy
        assert!(out.is_empty());
        p.on_usage_change(at(4.0), view(60.0), &mut out); // crossed free
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn crossing_push_starts_optimistic_until_adverts_correct_it() {
        let mut p = make(ProtocolKind::AdaptivePush, 0);
        let mut out = Actions::new();
        p.on_start(at(0.0), view(100.0), &mut out);
        p.on_timer(at(1.0), TimerToken(0), view(1.0), &mut out);
        assert!(out.is_empty(), "no timers, no solicitations");
        // never heard from anyone, but assumes peers are empty
        assert_eq!(p.pick_candidate(at(0.0), 50.0), Some(1));
        for n in 1..5 {
            let m = advert_from(n, 3.0, at(1.0));
            p.on_message(at(1.0), n, &m, view(100.0), &mut Actions::new());
        }
        assert_eq!(p.pick_candidate(at(2.0), 50.0), None);
        assert_eq!(p.pick_candidate(at(2.0), 2.0), Some(1));
    }

    #[test]
    fn every_pull_preset_traces_its_floods_pledges_and_adaptations() {
        for kind in PULL {
            let tracer = Tracer::bounded(64);
            let mut p = make(kind, 0);
            p.set_tracer(tracer.clone());
            p.on_task_arrival(at(0.0), view(0.0), &mut Actions::new());
            p.on_message(
                at(0.5),
                2,
                &pledge_from(2, 50.0, SimTime::ZERO),
                view(0.0),
                &mut Actions::new(),
            );
            p.on_message(
                at(0.6),
                2,
                &pledge_from(2, 50.0, SimTime::ZERO),
                view(0.0),
                &mut Actions::new(),
            );
            p.on_message(at(0.7), 1, &help_from(1), view(80.0), &mut Actions::new());
            let kinds: Vec<TraceKind> = tracer.snapshot().events.iter().map(|e| e.kind).collect();
            let count = |k| kinds.iter().filter(|&&e| e == k).count();
            assert_eq!(count(TraceKind::HelpFlood), 1, "{kind:?}");
            assert_eq!(count(TraceKind::PledgeAccept), 2, "{kind:?}");
            assert_eq!(count(TraceKind::PledgeSend), 1, "{kind:?}");
            let adapts = usize::from(ADAPTIVE.contains(&kind));
            assert_eq!(count(TraceKind::IntervalAdapt), adapts, "{kind:?}");
            let joins = usize::from(kind == ProtocolKind::Realtor);
            assert_eq!(count(TraceKind::CommunityJoin), joins, "{kind:?}");
        }
    }
}
