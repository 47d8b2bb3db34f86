//! Adaptive PULL ("Pull-100"): *"each host solicits PLEDGE from its
//! community members whenever 1) a task arrives, 2) the resource usage level
//! is beyond a threshold level, and 3) a time window has passed since the
//! previous HELP. […] it generates HELP messages in the same fashion as
//! REALTOR. It is different from REALTOR, however, in that it generates
//! PLEDGE exactly once in response to each HELP."*
//!
//! In other words: the full Algorithm H (with `alpha`/`beta` adaptation and
//! `Upper_limit` = 100), but only the solicited half of Algorithm P.

use crate::config::ProtocolConfig;
use crate::help::{HelpController, HelpDecision, HelpMode};
use crate::message::{Help, Message, Pledge};
use crate::pledge::{AvailabilityStore, PledgePolicy};
use crate::protocol::{Actions, DiscoveryProtocol, Introspection, LocalView, TimerToken};
use realtor_net::NodeId;
use realtor_simcore::SimTime;

/// The adaptive-pull baseline instance for one node.
#[derive(Debug)]
pub struct AdaptivePull {
    me: NodeId,
    cfg: ProtocolConfig,
    help: HelpController,
    policy: PledgePolicy,
    store: AvailabilityStore,
    last_need_secs: f64,
    nodes: usize,
}

impl AdaptivePull {
    /// Create an adaptive-pull instance for `me`.
    pub fn new(me: NodeId, cfg: ProtocolConfig) -> Self {
        Self::with_id_capacity(me, cfg, 0)
    }

    /// Like [`new`](Self::new), for a world of `nodes` nodes: the per-node
    /// tables are sized to the node ids once, on their first entry.
    pub(crate) fn with_id_capacity(me: NodeId, cfg: ProtocolConfig, nodes: usize) -> Self {
        cfg.validate();
        AdaptivePull {
            me,
            help: HelpController::new(&cfg, HelpMode::Adaptive),
            policy: PledgePolicy::new(&cfg, 0.0),
            store: AvailabilityStore::with_id_capacity(nodes),
            last_need_secs: 0.0,
            nodes,
            cfg,
        }
    }

    /// Immutable view of the pledge list.
    pub fn store(&self) -> &AvailabilityStore {
        &self.store
    }

    /// The Algorithm H controller (diagnostics).
    pub fn help_controller(&self) -> &HelpController {
        &self.help
    }

    fn make_pledge(&self, now: SimTime, local: LocalView) -> Pledge {
        Pledge {
            pledger: self.me,
            headroom_secs: local.headroom_secs,
            community_count: 0,
            grant_probability: (local.headroom_secs / local.capacity_secs).clamp(0.0, 1.0),
            sent_at: now,
        }
    }
}

impl DiscoveryProtocol for AdaptivePull {
    fn name(&self) -> &'static str {
        "Pull-100"
    }

    fn node(&self) -> NodeId {
        self.me
    }

    fn on_start(&mut self, _now: SimTime, _local: LocalView, _out: &mut Actions) {}

    fn on_task_arrival(&mut self, now: SimTime, local: LocalView, out: &mut Actions) {
        if let HelpDecision::SendHelp { timer_gen, wait } =
            self.help.on_task_arrival(now, local.queue_frac)
        {
            out.flood(Message::Help(Help {
                organizer: self.me,
                member_count: 0,
                urgency: local.queue_frac,
                relay_ttl: 0,
            }));
            out.set_timer(TimerToken(timer_gen), wait);
        }
    }

    fn on_usage_change(&mut self, _now: SimTime, local: LocalView, _out: &mut Actions) {
        // Track the threshold side for should_answer_help freshness, but
        // never send unsolicited pledges.
        let _ = self.policy.observe(local.queue_frac);
    }

    fn on_message(
        &mut self,
        now: SimTime,
        _from: NodeId,
        msg: &Message,
        local: LocalView,
        out: &mut Actions,
    ) {
        match msg {
            Message::Help(h) => {
                if h.organizer != self.me && self.policy.should_answer_help(local.queue_frac) {
                    out.unicast(h.organizer, Message::Pledge(self.make_pledge(now, local)));
                }
            }
            Message::Pledge(p) => {
                let fresh = self
                    .store
                    .record_report(p.pledger, p.headroom_secs, now, p.sent_at);
                let found =
                    fresh && p.pledger != self.me && p.headroom_secs >= self.last_need_secs;
                self.help.on_pledge(found);
            }
            Message::Advert(_) => {}
        }
    }

    fn on_timer(&mut self, _now: SimTime, token: TimerToken, _local: LocalView, _out: &mut Actions) {
        self.help.on_timeout(token.0);
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
            if let Some(r) = self.store.get(dest) {
                self.store
                    .record(dest, (r.headroom_secs - self.last_need_secs).max(0.0), now);
            }
        } else {
            self.store.record(dest, 0.0, now);
        }
    }

    fn introspect(&self, _now: SimTime) -> Introspection {
        Introspection {
            help_interval_secs: Some(self.help.interval().as_secs_f64()),
            known_candidates: self.store.len(),
            memberships: 0,
            lifetime_joins: 0,
        }
    }

    fn on_reset(&mut self, _now: SimTime) {
        self.help.reset();
        self.policy = PledgePolicy::new(&self.cfg, 0.0);
        self.store = AvailabilityStore::with_id_capacity(self.nodes);
        self.last_need_secs = 0.0;
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

    #[test]
    fn interval_gates_help_floods() {
        let mut p = AdaptivePull::new(0, ProtocolConfig::paper());
        let mut out = Actions::new();
        p.on_task_arrival(at(0.0), view(5.0), &mut out);
        assert_eq!(out.len(), 2); // flood + timer
        let mut out = Actions::new();
        p.on_task_arrival(at(0.5), view(5.0), &mut out);
        assert!(out.is_empty(), "within HELP_interval: gated");
    }

    #[test]
    fn timeout_grows_interval_up_to_100() {
        let mut p = AdaptivePull::new(0, ProtocolConfig::paper());
        let mut t = 0.0;
        for _ in 0..40 {
            let mut out = Actions::new();
            p.on_task_arrival(at(t), view(5.0), &mut out);
            if let Some(Action::SetTimer(token, _)) = out
                .as_slice()
                .iter()
                .find(|a| matches!(a, Action::SetTimer(_, _)))
            {
                p.on_timer(at(t + 1.0), *token, view(5.0), &mut Actions::new());
            }
            t += 300.0;
        }
        assert_eq!(
            p.help_controller().interval(),
            SimDuration::from_secs(100),
            "Upper_limit must clamp the interval"
        );
    }

    #[test]
    fn no_unsolicited_pledges() {
        let mut p = AdaptivePull::new(1, ProtocolConfig::paper());
        let mut out = Actions::new();
        p.on_usage_change(at(1.0), view(5.0), &mut out);
        p.on_usage_change(at(2.0), view(80.0), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn answers_help_when_free() {
        let mut p = AdaptivePull::new(1, ProtocolConfig::paper());
        let help = Message::Help(Help {
            organizer: 0,
            member_count: 0,
            urgency: 1.0,
            relay_ttl: 0,
        });
        let mut out = Actions::new();
        p.on_message(at(1.0), 0, &help, view(70.0), &mut out);
        assert_eq!(out.len(), 1);
        assert!(matches!(out.as_slice()[0], Action::Unicast(0, Message::Pledge(_))));
    }

    #[test]
    fn useful_pledge_shrinks_interval() {
        let mut p = AdaptivePull::new(0, ProtocolConfig::paper());
        // Open an urgent HELP round (overflow), then answer it.
        let mut out = Actions::new();
        p.on_task_arrival(at(0.0), view(0.0), &mut out);
        let before = p.help_controller().interval();
        let pledge = Message::Pledge(Pledge {
            pledger: 2,
            headroom_secs: 90.0,
            community_count: 0,
            grant_probability: 0.9,
            sent_at: at(0.5),
        });
        p.on_message(at(0.5), 2, &pledge, view(5.0), &mut Actions::new());
        assert!(p.help_controller().interval() < before);
        // A pledge outside any round leaves the interval unchanged.
        let settled = p.help_controller().interval();
        p.on_message(at(0.7), 3, &pledge, view(5.0), &mut Actions::new());
        assert_eq!(p.help_controller().interval(), settled);
    }
}
