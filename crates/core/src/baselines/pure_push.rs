//! Pure PUSH ("Push-1"): *"each host disseminates its own resource
//! availability information to its neighbors unconditionally at every preset
//! interval"* — a periodic flood regardless of load, the paper's
//! highest-overhead baseline.

use crate::config::ProtocolConfig;
use crate::message::{Advert, Message};
use crate::pledge::AvailabilityStore;
use crate::protocol::{Actions, DiscoveryProtocol, Introspection, LocalView, TimerToken};
use realtor_net::NodeId;
use realtor_simcore::SimTime;

/// The pure-push baseline instance for one node.
#[derive(Debug)]
pub struct PurePush {
    me: NodeId,
    cfg: ProtocolConfig,
    store: AvailabilityStore,
    /// Generation guard so resets invalidate in-flight ticks.
    epoch: u64,
    last_need_secs: f64,
    nodes: usize,
}

impl PurePush {
    /// Create a pure-push instance for `me`.
    pub fn new(me: NodeId, cfg: ProtocolConfig) -> Self {
        Self::with_id_capacity(me, cfg, 0)
    }

    /// Like [`new`](Self::new), for a world of `nodes` nodes: the per-node
    /// tables are sized to the node ids once, on their first entry.
    pub(crate) fn with_id_capacity(me: NodeId, cfg: ProtocolConfig, nodes: usize) -> Self {
        cfg.validate();
        PurePush {
            me,
            cfg,
            store: AvailabilityStore::with_id_capacity(nodes),
            epoch: 0,
            last_need_secs: 0.0,
            nodes,
        }
    }

    /// Immutable view of the advertisement cache.
    pub fn store(&self) -> &AvailabilityStore {
        &self.store
    }

    fn advertise(&self, now: SimTime, local: LocalView, out: &mut Actions) {
        out.flood(Message::Advert(Advert {
            advertiser: self.me,
            headroom_secs: local.headroom_secs,
            sent_at: now,
        }));
    }
}

impl DiscoveryProtocol for PurePush {
    fn name(&self) -> &'static str {
        "Push-1"
    }

    fn node(&self) -> NodeId {
        self.me
    }

    fn on_start(&mut self, now: SimTime, local: LocalView, out: &mut Actions) {
        // Advertise immediately, then every push_interval.
        self.advertise(now, local, out);
        out.set_timer(TimerToken(self.epoch), self.cfg.push_interval);
    }

    fn on_task_arrival(&mut self, _now: SimTime, _local: LocalView, _out: &mut Actions) {
        // Pure push never solicits.
    }

    fn on_usage_change(&mut self, _now: SimTime, _local: LocalView, _out: &mut Actions) {
        // Dissemination is strictly periodic.
    }

    fn on_message(
        &mut self,
        now: SimTime,
        _from: NodeId,
        msg: &Message,
        _local: LocalView,
        _out: &mut Actions,
    ) {
        if let Message::Advert(a) = msg {
            if a.advertiser != self.me {
                self.store
                    .record_report(a.advertiser, a.headroom_secs, now, a.sent_at);
            }
        }
    }

    fn on_timer(&mut self, now: SimTime, token: TimerToken, local: LocalView, out: &mut Actions) {
        if token.0 != self.epoch {
            return; // tick from before a reset
        }
        self.advertise(now, local, out);
        out.set_timer(TimerToken(self.epoch), self.cfg.push_interval);
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
            help_interval_secs: None,
            known_candidates: self.store.len(),
            memberships: 0,
            lifetime_joins: 0,
        }
    }

    fn on_reset(&mut self, _now: SimTime) {
        self.store = AvailabilityStore::with_id_capacity(self.nodes);
        self.epoch += 1;
        self.last_need_secs = 0.0;
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
    fn start_advertises_and_arms_tick() {
        let mut p = PurePush::new(0, ProtocolConfig::paper());
        let mut out = Actions::new();
        p.on_start(at(0.0), view(100.0), &mut out);
        assert_eq!(out.len(), 2);
        assert!(matches!(out.as_slice()[0], Action::Flood(Message::Advert(_))));
        assert!(matches!(out.as_slice()[1], Action::SetTimer(_, _)));
    }

    #[test]
    fn tick_rearms_forever() {
        let mut p = PurePush::new(0, ProtocolConfig::paper());
        let mut out = Actions::new();
        p.on_start(at(0.0), view(100.0), &mut out);
        for i in 1..=5 {
            let mut out = Actions::new();
            p.on_timer(at(i as f64), TimerToken(0), view(90.0), &mut out);
            assert_eq!(out.len(), 2, "tick {i} floods and rearms");
        }
    }

    #[test]
    fn arrivals_and_usage_changes_are_silent() {
        let mut p = PurePush::new(0, ProtocolConfig::paper());
        let mut out = Actions::new();
        p.on_task_arrival(at(1.0), view(1.0), &mut out);
        p.on_usage_change(at(1.0), view(1.0), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn adverts_feed_candidate_choice() {
        let mut p = PurePush::new(0, ProtocolConfig::paper());
        let mut out = Actions::new();
        for (n, h) in [(1, 20.0), (2, 80.0)] {
            let m = Message::Advert(Advert {
                advertiser: n,
                headroom_secs: h,
                sent_at: SimTime::ZERO,
            });
            p.on_message(at(1.0), n, &m, view(0.0), &mut out);
        }
        assert_eq!(p.pick_candidate(at(2.0), 10.0), Some(2));
    }

    #[test]
    fn own_advert_ignored() {
        let mut p = PurePush::new(7, ProtocolConfig::paper());
        let m = Message::Advert(Advert {
            advertiser: 7,
            headroom_secs: 100.0,
            sent_at: SimTime::ZERO,
        });
        p.on_message(at(1.0), 7, &m, view(0.0), &mut Actions::new());
        assert_eq!(p.pick_candidate(at(1.0), 1.0), None);
    }

    #[test]
    fn reset_invalidates_old_tick() {
        let mut p = PurePush::new(0, ProtocolConfig::paper());
        let mut out = Actions::new();
        p.on_start(at(0.0), view(100.0), &mut out);
        p.on_reset(at(5.0));
        let mut out = Actions::new();
        p.on_timer(at(6.0), TimerToken(0), view(100.0), &mut out);
        assert!(out.is_empty(), "stale epoch tick must be ignored");
        // restart re-arms with the new epoch
        let mut out = Actions::new();
        p.on_start(at(7.0), view(100.0), &mut out);
        let mut out2 = Actions::new();
        p.on_timer(at(8.0), TimerToken(1), view(100.0), &mut out2);
        assert_eq!(out2.len(), 2);
    }
}
