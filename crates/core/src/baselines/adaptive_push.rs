//! Adaptive PUSH ("Push-.9"): *"each host disseminates its own resource
//! availability information to its neighbors whenever the resource usage
//! changes across a threshold level"* — event-driven dissemination, no
//! solicitation.
//!
//! Because silence means "nothing changed", a node that has never advertised
//! is still on its initial side of the threshold. The store is therefore
//! seeded optimistically with every peer at full capacity (all queues start
//! empty); the first threshold crossing corrects the record.

use crate::config::ProtocolConfig;
use crate::message::{Advert, Message};
use crate::pledge::{AvailabilityStore, PledgePolicy};
use crate::protocol::{Actions, DiscoveryProtocol, Introspection, LocalView, TimerToken};
use realtor_net::NodeId;
use realtor_simcore::SimTime;
use std::sync::Arc;

/// The adaptive-push baseline instance for one node.
#[derive(Debug)]
pub struct AdaptivePush {
    me: NodeId,
    cfg: ProtocolConfig,
    policy: PledgePolicy,
    store: AvailabilityStore,
    /// Shared by every instance of a world: one list, not one per node.
    peers: Arc<[NodeId]>,
    peer_capacity_secs: f64,
    last_need_secs: f64,
}

impl AdaptivePush {
    /// Create an adaptive-push instance for `me`.
    ///
    /// `peers` is the overlay scope (everyone who would receive a flood);
    /// `peer_capacity_secs` seeds the optimistic initial record for each.
    /// The store holds one record per peer, so it is sized to the peer
    /// count up front rather than grown through the seeding.
    pub fn new(
        me: NodeId,
        cfg: ProtocolConfig,
        peers: Arc<[NodeId]>,
        peer_capacity_secs: f64,
    ) -> Self {
        cfg.validate();
        AdaptivePush {
            me,
            policy: PledgePolicy::new(&cfg, 0.0),
            store: AvailabilityStore::with_id_capacity(peers.len()),
            peers,
            peer_capacity_secs,
            last_need_secs: 0.0,
            cfg,
        }
    }

    /// Immutable view of the advertisement cache.
    pub fn store(&self) -> &AvailabilityStore {
        &self.store
    }

    fn seed_store(&mut self, now: SimTime) {
        for &p in self.peers.iter() {
            if p != self.me {
                self.store.record(p, self.peer_capacity_secs, now);
            }
        }
    }
}

impl DiscoveryProtocol for AdaptivePush {
    fn name(&self) -> &'static str {
        "Push-.9"
    }

    fn node(&self) -> NodeId {
        self.me
    }

    fn on_start(&mut self, now: SimTime, _local: LocalView, _out: &mut Actions) {
        self.seed_store(now);
    }

    fn on_task_arrival(&mut self, _now: SimTime, _local: LocalView, _out: &mut Actions) {
        // Never solicits; dissemination happens on usage change.
    }

    fn on_usage_change(&mut self, now: SimTime, local: LocalView, out: &mut Actions) {
        if self.policy.observe(local.queue_frac).is_some() {
            out.flood(Message::Advert(Advert {
                advertiser: self.me,
                headroom_secs: local.headroom_secs,
                sent_at: now,
            }));
        }
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

    fn on_timer(&mut self, _now: SimTime, _token: TimerToken, _local: LocalView, _out: &mut Actions) {
        // Adaptive push arms no timers.
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

    fn on_reset(&mut self, now: SimTime) {
        self.policy = PledgePolicy::new(&self.cfg, 0.0);
        self.store = AvailabilityStore::with_id_capacity(self.peers.len());
        self.seed_store(now);
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

    fn make(me: NodeId) -> AdaptivePush {
        AdaptivePush::new(me, ProtocolConfig::paper(), (0..5).collect(), 100.0)
    }

    #[test]
    fn crossing_floods_advert_once() {
        let mut p = make(0);
        let mut out = Actions::new();
        p.on_usage_change(at(1.0), view(50.0), &mut out);
        assert!(out.is_empty(), "no crossing yet");
        p.on_usage_change(at(2.0), view(5.0), &mut out); // 95%: crossed busy
        assert_eq!(out.len(), 1);
        assert!(matches!(out.as_slice()[0], Action::Flood(Message::Advert(_))));
        let mut out = Actions::new();
        p.on_usage_change(at(3.0), view(2.0), &mut out); // still busy
        assert!(out.is_empty());
        p.on_usage_change(at(4.0), view(60.0), &mut out); // crossed free
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn store_starts_optimistic() {
        let mut p = make(0);
        p.on_start(at(0.0), view(100.0), &mut Actions::new());
        // never heard from anyone, but assumes peers are empty
        assert_eq!(p.pick_candidate(at(0.0), 50.0), Some(1));
    }

    #[test]
    fn adverts_overwrite_optimism() {
        let mut p = make(0);
        p.on_start(at(0.0), view(100.0), &mut Actions::new());
        for n in 1..5 {
            let m = Message::Advert(Advert {
                advertiser: n,
                headroom_secs: 3.0,
                sent_at: at(1.0),
            });
            p.on_message(at(1.0), n, &m, view(100.0), &mut Actions::new());
        }
        assert_eq!(p.pick_candidate(at(2.0), 50.0), None);
        assert_eq!(p.pick_candidate(at(2.0), 2.0), Some(1));
    }

    #[test]
    fn no_timers_no_solicitations() {
        let mut p = make(0);
        let mut out = Actions::new();
        p.on_start(at(0.0), view(100.0), &mut out);
        p.on_task_arrival(at(0.5), view(1.0), &mut out);
        p.on_timer(at(1.0), TimerToken(0), view(1.0), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn reset_reseeds_optimistically() {
        let mut p = make(0);
        p.on_start(at(0.0), view(100.0), &mut Actions::new());
        let m = Message::Advert(Advert {
            advertiser: 1,
            headroom_secs: 0.0,
            sent_at: at(1.0),
        });
        p.on_message(at(1.0), 1, &m, view(100.0), &mut Actions::new());
        p.on_reset(at(2.0));
        assert_eq!(p.pick_candidate(at(2.0), 50.0), Some(1));
    }
}
