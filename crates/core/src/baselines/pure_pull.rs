//! Pure PULL ("Pull-.9"): *"each host solicits PLEDGE from its community
//! members whenever 1) a task arrives and 2) the resource usage level is
//! beyond a threshold level. […] this scheme generates HELP messages
//! unlimitedly (without Upper_limit in Algorithm H) as long as resource
//! usage is above the threshold level."*
//!
//! Members answer each HELP with exactly one PLEDGE (the first clause of
//! Algorithm P); there are no unsolicited updates, which is what makes
//! pull-based information go stale — the effect behind the paper's Figure 8
//! discussion.

use crate::config::ProtocolConfig;
use crate::help::{HelpController, HelpDecision, HelpMode};
use crate::message::{Help, Message, Pledge};
use crate::pledge::{AvailabilityStore, PledgePolicy};
use crate::protocol::{Actions, DiscoveryProtocol, Introspection, LocalView, TimerToken};
use realtor_net::NodeId;
use realtor_simcore::SimTime;

/// The pure-pull baseline instance for one node.
#[derive(Debug)]
pub struct PurePull {
    me: NodeId,
    cfg: ProtocolConfig,
    help: HelpController,
    policy: PledgePolicy,
    store: AvailabilityStore,
    last_need_secs: f64,
    helped_count: u32,
    nodes: usize,
}

impl PurePull {
    /// Create a pure-pull instance for `me`.
    pub fn new(me: NodeId, cfg: ProtocolConfig) -> Self {
        Self::with_id_capacity(me, cfg, 0)
    }

    /// Like [`new`](Self::new), for a world of `nodes` nodes: the per-node
    /// tables are sized to the node ids once, on their first entry.
    pub(crate) fn with_id_capacity(me: NodeId, cfg: ProtocolConfig, nodes: usize) -> Self {
        cfg.validate();
        PurePull {
            me,
            help: HelpController::new(&cfg, HelpMode::Unlimited),
            policy: PledgePolicy::new(&cfg, 0.0),
            store: AvailabilityStore::with_id_capacity(nodes),
            last_need_secs: 0.0,
            helped_count: 0,
            nodes,
            cfg,
        }
    }

    /// Immutable view of the pledge list.
    pub fn store(&self) -> &AvailabilityStore {
        &self.store
    }

    fn make_pledge(&self, now: SimTime, local: LocalView) -> Pledge {
        Pledge {
            pledger: self.me,
            headroom_secs: local.headroom_secs,
            community_count: 0, // pure pull keeps no community state
            grant_probability: (local.headroom_secs / local.capacity_secs).clamp(0.0, 1.0),
            sent_at: now,
        }
    }
}

impl DiscoveryProtocol for PurePull {
    fn name(&self) -> &'static str {
        "Pull-.9"
    }

    fn node(&self) -> NodeId {
        self.me
    }

    fn on_start(&mut self, _now: SimTime, _local: LocalView, _out: &mut Actions) {}

    fn on_task_arrival(&mut self, now: SimTime, local: LocalView, out: &mut Actions) {
        if let HelpDecision::SendHelp { .. } = self.help.on_task_arrival(now, local.queue_frac) {
            self.helped_count += 1;
            out.flood(Message::Help(Help {
                organizer: self.me,
                member_count: self.helped_count,
                urgency: local.queue_frac,
                relay_ttl: 0,
            }));
            // Unlimited mode adapts nothing on timeout, so no timer is armed.
        }
    }

    fn on_usage_change(&mut self, _now: SimTime, _local: LocalView, _out: &mut Actions) {
        // No unsolicited updates in pure pull.
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
                self.store
                    .record_report(p.pledger, p.headroom_secs, now, p.sent_at);
            }
            Message::Advert(_) => {}
        }
    }

    fn on_timer(&mut self, _now: SimTime, _token: TimerToken, _local: LocalView, _out: &mut Actions) {}

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
        self.helped_count = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Action;

    fn view(headroom: f64) -> LocalView {
        LocalView::new(headroom, 100.0)
    }

    fn at(secs: f64) -> SimTime {
        SimTime::from_secs_f64(secs)
    }

    #[test]
    fn every_overloaded_arrival_floods() {
        let mut p = PurePull::new(0, ProtocolConfig::paper());
        for i in 0..20 {
            let mut out = Actions::new();
            p.on_task_arrival(at(i as f64 * 0.01), view(5.0), &mut out);
            assert_eq!(out.len(), 1, "arrival {i} must flood, no rate limiting");
            assert!(matches!(out.as_slice()[0], Action::Flood(Message::Help(_))));
        }
    }

    #[test]
    fn underloaded_arrivals_are_silent() {
        let mut p = PurePull::new(0, ProtocolConfig::paper());
        let mut out = Actions::new();
        p.on_task_arrival(at(0.0), view(50.0), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn answers_help_exactly_once_per_help() {
        let mut p = PurePull::new(1, ProtocolConfig::paper());
        let help = Message::Help(Help {
            organizer: 0,
            member_count: 1,
            urgency: 1.0,
            relay_ttl: 0,
        });
        let mut out = Actions::new();
        p.on_message(at(1.0), 0, &help, view(80.0), &mut out);
        assert_eq!(out.len(), 1);
        // A usage change does NOT generate an unsolicited pledge.
        let mut out = Actions::new();
        p.on_usage_change(at(2.0), view(2.0), &mut out);
        p.on_usage_change(at(3.0), view(80.0), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn busy_node_stays_silent_on_help() {
        let mut p = PurePull::new(1, ProtocolConfig::paper());
        let help = Message::Help(Help {
            organizer: 0,
            member_count: 1,
            urgency: 1.0,
            relay_ttl: 0,
        });
        let mut out = Actions::new();
        p.on_message(at(1.0), 0, &help, view(5.0), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn pledges_feed_candidates() {
        let mut p = PurePull::new(0, ProtocolConfig::paper());
        let pledge = Message::Pledge(Pledge {
            pledger: 3,
            headroom_secs: 40.0,
            community_count: 0,
            grant_probability: 0.4,
            sent_at: SimTime::ZERO,
        });
        p.on_message(at(1.0), 3, &pledge, view(5.0), &mut Actions::new());
        assert_eq!(p.pick_candidate(at(1.0), 10.0), Some(3));
    }
}
