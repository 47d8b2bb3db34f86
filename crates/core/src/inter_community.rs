//! Inter-community discovery — the paper's stated future work (§7): *"we
//! will extend this work to inter-neighbor-group resource discovery and
//! allocation for very large distributed dynamic real-time systems."*
//!
//! Very large systems cannot flood HELP to every node. Here the overlay is
//! partitioned into **groups**; a flood reaches only the originator's
//! group(s). Selected **gateway** nodes belong to two or more groups and
//! bridge them: when a gateway receives a sufficiently urgent HELP it
//! re-floods it into its other groups (decrementing the message's
//! `relay_ttl`), and the remote members pledge directly — unicast — to the
//! original organizer. Everything stays soft-state: a gateway rate-limits
//! relays per organizer, and no relay state survives a reset.

use crate::config::ProtocolConfig;
use crate::discovery::Discovery;
use crate::factory::ProtocolKind;
use crate::message::{Help, Message};
use crate::protocol::{Actions, DiscoveryProtocol, Introspection, LocalView, TimerToken};
use realtor_net::NodeId;
use realtor_simcore::{SimDuration, SimTime, Tracer};

/// Identifier of a node group.
pub type GroupId = usize;

/// Static partition of the overlay into groups plus gateway assignments.
#[derive(Debug, Clone)]
pub struct GroupMap {
    /// Primary group of every node.
    home: Vec<GroupId>,
    /// Extra groups for gateway nodes: `(node, group)` pairs.
    gateways: Vec<(NodeId, GroupId)>,
    group_count: usize,
}

impl GroupMap {
    /// Build from explicit home assignments (`home[node] = group`) and
    /// gateway extras.
    pub fn new(home: Vec<GroupId>, gateways: Vec<(NodeId, GroupId)>) -> Self {
        let group_count = home.iter().copied().max().map_or(0, |g| g + 1);
        for &(n, g) in &gateways {
            assert!(n < home.len(), "gateway node {n} out of range");
            assert!(g < group_count, "gateway group {g} out of range");
            assert_ne!(home[n], g, "gateway extra group equals home group");
        }
        GroupMap {
            home,
            gateways,
            group_count,
        }
    }

    /// Tile a `width × height` mesh into `tile × tile` groups, designating
    /// as gateways the nodes adjacent to each tile boundary (one per
    /// boundary row/column crossing, on the lower-id side).
    pub fn mesh_tiles(width: usize, height: usize, tile: usize) -> Self {
        assert!(tile > 0);
        let tiles_x = width.div_ceil(tile);
        let group_of = |x: usize, y: usize| (y / tile) * tiles_x + (x / tile);
        let mut home = Vec::with_capacity(width * height);
        for y in 0..height {
            for x in 0..width {
                home.push(group_of(x, y));
            }
        }
        let mut gateways = Vec::new();
        for y in 0..height {
            for x in 0..width {
                let node = y * width + x;
                let g = group_of(x, y);
                // Right neighbor in a different tile: this node bridges.
                if x + 1 < width && group_of(x + 1, y) != g {
                    gateways.push((node, group_of(x + 1, y)));
                }
                if y + 1 < height && group_of(x, y + 1) != g {
                    gateways.push((node, group_of(x, y + 1)));
                }
            }
        }
        GroupMap::new(home, gateways)
    }

    /// Number of groups.
    pub fn group_count(&self) -> usize {
        self.group_count
    }

    /// Number of nodes covered.
    pub fn node_count(&self) -> usize {
        self.home.len()
    }

    /// All groups `node` belongs to (home first).
    pub fn groups_of(&self, node: NodeId) -> Vec<GroupId> {
        let mut gs = vec![self.home[node]];
        gs.extend(
            self.gateways
                .iter()
                .filter(|&&(n, _)| n == node)
                .map(|&(_, g)| g),
        );
        gs
    }

    /// Is `node` a gateway (member of more than one group)?
    pub fn is_gateway(&self, node: NodeId) -> bool {
        self.gateways.iter().any(|&(n, _)| n == node)
    }

    /// Every node whose group set intersects `node`'s group set — the flood
    /// scope of `node` (excludes `node` itself).
    pub fn scope_of(&self, node: NodeId) -> Vec<NodeId> {
        let mine = self.groups_of(node);
        (0..self.home.len())
            .filter(|&other| {
                other != node && self.groups_of(other).iter().any(|g| mine.contains(g))
            })
            .collect()
    }

    /// Members of one group (home or gateway membership).
    pub fn members_of(&self, group: GroupId) -> Vec<NodeId> {
        (0..self.home.len())
            .filter(|&n| self.groups_of(n).contains(&group))
            .collect()
    }

    /// Designated relays: exactly one gateway (the lowest node id) per
    /// ordered (home group, foreign group) pair. Letting *every* boundary
    /// node relay amplifies each HELP by the boundary length; a single
    /// designated relay per tile pair keeps the relay fan-out equal to the
    /// number of neighboring groups.
    pub fn designated_relays(&self) -> Vec<NodeId> {
        let mut best: std::collections::BTreeMap<(GroupId, GroupId), NodeId> = Default::default();
        for &(n, g) in &self.gateways {
            let key = (self.home[n], g);
            best.entry(key)
                .and_modify(|cur| {
                    if n < *cur {
                        *cur = n;
                    }
                })
                .or_insert(n);
        }
        let mut v: Vec<NodeId> = best.into_values().collect();
        v.sort_unstable();
        v.dedup();
        v
    }
}

/// REALTOR with inter-community gateway relaying.
///
/// Wraps a flat REALTOR instance; all community behaviour is delegated,
/// and the wrapper adds (a) a nonzero `relay_ttl` on originated HELPs and
/// (b) gateway re-flooding of urgent foreign HELPs.
#[derive(Debug)]
pub struct InterCommunityRealtor {
    inner: Discovery,
    is_gateway: bool,
    relay_ttl: u8,
    /// Relay only HELPs at least this urgent.
    relay_urgency: f64,
    /// Minimum spacing between relays for the same organizer.
    relay_spacing: SimDuration,
    recently_relayed: std::collections::BTreeMap<NodeId, SimTime>,
}

impl InterCommunityRealtor {
    /// Create an instance for `me`.
    ///
    /// `relay_ttl` is the relay budget stamped on originated HELPs (1 lets
    /// direct neighbors' gateways relay once); `relay_urgency` gates which
    /// foreign HELPs a gateway re-floods.
    pub fn new(
        me: NodeId,
        cfg: ProtocolConfig,
        is_gateway: bool,
        relay_ttl: u8,
        relay_urgency: f64,
    ) -> Self {
        InterCommunityRealtor {
            inner: Discovery::new(ProtocolKind::Realtor, me, cfg, &Vec::new(), 0.0),
            is_gateway,
            relay_ttl,
            relay_urgency,
            relay_spacing: SimDuration::from_secs(5),
            recently_relayed: Default::default(),
        }
    }
}

impl DiscoveryProtocol for InterCommunityRealtor {
    fn name(&self) -> &'static str {
        "REALTOR-IC"
    }

    fn node(&self) -> NodeId {
        self.inner.node()
    }

    fn on_start(&mut self, now: SimTime, local: LocalView, out: &mut Actions) {
        self.inner.on_start(now, local, out);
    }

    fn on_task_arrival(&mut self, now: SimTime, local: LocalView, out: &mut Actions) {
        let mut tmp = Actions::new();
        self.inner.on_task_arrival(now, local, &mut tmp);
        // Stamp our relay budget onto originated HELPs.
        for action in tmp.drain() {
            match action {
                crate::protocol::Action::Flood(Message::Help(mut h)) => {
                    h.relay_ttl = self.relay_ttl;
                    out.flood(Message::Help(h));
                }
                crate::protocol::Action::Flood(m) => out.flood(m),
                crate::protocol::Action::Unicast(to, m) => out.unicast(to, m),
                crate::protocol::Action::SetTimer(t, d) => out.set_timer(t, d),
                crate::protocol::Action::DeclareDead(p) => out.declare_dead(p),
            }
        }
    }

    fn on_usage_change(&mut self, now: SimTime, local: LocalView, out: &mut Actions) {
        self.inner.on_usage_change(now, local, out);
    }

    fn on_message(
        &mut self,
        now: SimTime,
        from: NodeId,
        msg: &Message,
        local: LocalView,
        out: &mut Actions,
    ) {
        self.inner.on_message(now, from, msg, local, out);
        // Gateway relaying of urgent foreign HELPs.
        if let Message::Help(h) = msg {
            if self.is_gateway
                && h.organizer != self.node()
                && h.relay_ttl > 0
                && h.urgency >= self.relay_urgency
            {
                let due = self
                    .recently_relayed
                    .get(&h.organizer)
                    .is_none_or(|&t| now.since(t) >= self.relay_spacing);
                if due {
                    self.recently_relayed.insert(h.organizer, now);
                    out.flood(Message::Help(Help {
                        relay_ttl: h.relay_ttl - 1,
                        ..*h
                    }));
                }
            }
        }
    }

    fn on_timer(&mut self, now: SimTime, token: TimerToken, local: LocalView, out: &mut Actions) {
        self.inner.on_timer(now, token, local, out);
    }

    fn pick_candidate(&mut self, now: SimTime, need_secs: f64) -> Option<NodeId> {
        self.inner.pick_candidate(now, need_secs)
    }

    fn on_migration_result(&mut self, now: SimTime, dest: NodeId, admitted: bool) {
        self.inner.on_migration_result(now, dest, admitted);
    }

    fn on_reset(&mut self, now: SimTime) {
        self.inner.on_reset(now);
        self.recently_relayed.clear();
    }

    fn introspect(&self, now: SimTime) -> Introspection {
        self.inner.introspect(now)
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        self.inner.set_tracer(tracer);
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

    fn help(organizer: NodeId, urgency: f64, relay_ttl: u8) -> Message {
        Message::Help(Help {
            organizer,
            member_count: 0,
            urgency,
            relay_ttl,
        })
    }

    #[test]
    fn mesh_tiles_partition_everything() {
        let gm = GroupMap::mesh_tiles(10, 10, 5);
        assert_eq!(gm.group_count(), 4);
        assert_eq!(gm.node_count(), 100);
        let sizes: usize = (0..4).map(|g| gm.members_of(g).len()).sum();
        assert!(sizes >= 100, "gateways belong to multiple groups");
        // corner node: exactly one group, interior boundary node: gateway
        assert_eq!(gm.groups_of(0), vec![0]);
        assert!(gm.is_gateway(4), "node 4 borders tile 1 on its right");
        assert!(gm.groups_of(4).contains(&1));
    }

    #[test]
    fn scope_excludes_self_and_foreign_groups() {
        let gm = GroupMap::mesh_tiles(10, 1, 5);
        // Two groups of 5; node 4 is the single gateway.
        let scope0 = gm.scope_of(0);
        assert!(scope0.contains(&4));
        assert!(!scope0.contains(&7), "node 7 is in the other group");
        let scope4 = gm.scope_of(4);
        assert_eq!(scope4.len(), 9, "gateway sees both groups");
    }

    #[test]
    fn originated_helps_carry_relay_budget() {
        let mut p = InterCommunityRealtor::new(0, ProtocolConfig::paper(), false, 2, 0.0);
        let mut out = Actions::new();
        p.on_task_arrival(at(0.0), view(5.0), &mut out);
        let ttl = out.as_slice().iter().find_map(|a| match a {
            Action::Flood(Message::Help(h)) => Some(h.relay_ttl),
            _ => None,
        });
        assert_eq!(ttl, Some(2));
    }

    #[test]
    fn attached_tracer_reaches_the_inner_machine() {
        use realtor_simcore::trace::TraceKind;
        let tracer = Tracer::bounded(16);
        let mut p = InterCommunityRealtor::new(0, ProtocolConfig::paper(), false, 1, 0.0);
        p.set_tracer(tracer.clone());
        p.on_task_arrival(at(0.0), view(5.0), &mut Actions::new());
        let events = tracer.snapshot().events;
        let floods = events.iter().filter(|e| e.kind == TraceKind::HelpFlood);
        assert_eq!(floods.count(), 1, "the overloaded arrival's HELP flood");
    }

    #[test]
    fn gateway_relays_urgent_help_once() {
        let mut gw = InterCommunityRealtor::new(4, ProtocolConfig::paper(), true, 0, 0.5);
        let mut out = Actions::new();
        gw.on_message(at(0.0), 0, &help(0, 0.9, 1), view(50.0), &mut out);
        let relayed: Vec<_> = out
            .as_slice()
            .iter()
            .filter_map(|a| match a {
                Action::Flood(Message::Help(h)) => Some(*h),
                _ => None,
            })
            .collect();
        assert_eq!(relayed.len(), 1);
        assert_eq!(relayed[0].organizer, 0, "organizer preserved");
        assert_eq!(relayed[0].relay_ttl, 0, "budget decremented");
        // Immediate second HELP from the same organizer: rate-limited.
        let mut out = Actions::new();
        gw.on_message(at(0.5), 0, &help(0, 0.9, 1), view(50.0), &mut out);
        assert!(
            !out.as_slice().iter().any(|a| matches!(a, Action::Flood(_))),
            "relay within spacing window must be suppressed"
        );
    }

    #[test]
    fn non_gateway_never_relays() {
        let mut p = InterCommunityRealtor::new(1, ProtocolConfig::paper(), false, 0, 0.0);
        let mut out = Actions::new();
        p.on_message(at(0.0), 0, &help(0, 1.0, 3), view(50.0), &mut out);
        assert!(!out.as_slice().iter().any(|a| matches!(a, Action::Flood(_))));
    }

    #[test]
    fn zero_ttl_help_is_not_relayed() {
        let mut gw = InterCommunityRealtor::new(4, ProtocolConfig::paper(), true, 0, 0.0);
        let mut out = Actions::new();
        gw.on_message(at(0.0), 0, &help(0, 1.0, 0), view(50.0), &mut out);
        assert!(!out.as_slice().iter().any(|a| matches!(a, Action::Flood(_))));
    }

    #[test]
    fn low_urgency_help_is_not_relayed() {
        let mut gw = InterCommunityRealtor::new(4, ProtocolConfig::paper(), true, 0, 0.8);
        let mut out = Actions::new();
        gw.on_message(at(0.0), 0, &help(0, 0.2, 3), view(50.0), &mut out);
        assert!(!out.as_slice().iter().any(|a| matches!(a, Action::Flood(_))));
    }
}
