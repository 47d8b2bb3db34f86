//! The paper's message-accounting model.
//!
//! Section 5: *"the number of messages for resource information advertisement
//! to the network is counted as the number of links for all approaches. […]
//! HELP message requires the number of links for flooding, while PLEDGE
//! message takes the average number of shortest paths, which is 4 in this
//! particular network topology. So the total number of messages is counted as
//! the sum of 1) message flooding, and 2) communication for migration between
//! admission controls."*
//!
//! [`CostModel`] reproduces that accounting and offers an exact-hops variant
//! (a PLEDGE is charged the true shortest-path length of its sender→organizer
//! pair) so the effect of the paper's rounding can be quantified.

use crate::routing::Routing;
use crate::topology::{NodeId, Topology};

/// How a unicast message (PLEDGE, negotiation, migration) is charged.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum UnicastCharge {
    /// Exact shortest-path hop count of the actual sender/receiver pair.
    ExactHops,
    /// A fixed per-message constant, as in the paper (they use 4.0 on the
    /// 5×5 mesh).
    Constant(f64),
    /// The topology's mean shortest-path length, computed once.
    MeanPath,
}

/// How a network-wide advertisement (HELP flood, PUSH dissemination) is
/// charged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FloodCharge {
    /// One message per link, as in the paper ("counted as the number of
    /// links").
    PerLink,
    /// One message per alive node reached minus one (spanning-tree
    /// multicast), an optimistic lower bound used by the ablations.
    SpanningTree,
}

/// A message-cost model bound to a concrete topology + routing.
#[derive(Debug, Clone)]
pub struct CostModel {
    unicast: UnicastCharge,
    flood: FloodCharge,
    link_count: f64,
    mean_path: f64,
}

impl CostModel {
    /// The accounting used in the paper's Figures 6–7: floods cost
    /// `link_count`, unicasts cost a constant 4.
    pub fn paper(topo: &Topology) -> Self {
        Self::new(
            topo,
            &Routing::new(topo),
            UnicastCharge::Constant(4.0),
            FloodCharge::PerLink,
        )
    }

    /// Exact accounting: floods cost `link_count`, unicasts cost true hops.
    pub fn exact(topo: &Topology, routing: &Routing) -> Self {
        Self::new(
            topo,
            routing,
            UnicastCharge::ExactHops,
            FloodCharge::PerLink,
        )
    }

    /// Fully custom model.
    pub fn new(
        topo: &Topology,
        routing: &Routing,
        unicast: UnicastCharge,
        flood: FloodCharge,
    ) -> Self {
        CostModel {
            unicast,
            flood,
            link_count: topo.link_count() as f64,
            mean_path: routing.mean_path_length(),
        }
    }

    /// Cost of one network-wide advertisement originated anywhere.
    ///
    /// `alive_nodes` is only used by the spanning-tree variant.
    pub fn flood_cost(&self, alive_nodes: usize) -> f64 {
        match self.flood {
            FloodCharge::PerLink => self.link_count,
            FloodCharge::SpanningTree => alive_nodes.saturating_sub(1) as f64,
        }
    }

    /// Cost of one unicast from `src` to `dst`.
    ///
    /// Unreachable pairs cost zero under [`UnicastCharge::ExactHops`] — the
    /// message is simply lost, which is how the simulator treats partitions.
    pub fn unicast_cost(&self, routing: &Routing, src: NodeId, dst: NodeId) -> f64 {
        match self.unicast {
            UnicastCharge::ExactHops => {
                let h = routing.hops(src, dst);
                if h == crate::routing::HOPS_UNREACHABLE {
                    0.0
                } else {
                    f64::from(h)
                }
            }
            UnicastCharge::Constant(c) => c,
            UnicastCharge::MeanPath => self.mean_path,
        }
    }

    /// Cost of a migration negotiation: request plus response between the two
    /// admission controllers (2 × unicast), per DESIGN.md §5.
    pub fn negotiation_cost(&self, routing: &Routing, src: NodeId, dst: NodeId) -> f64 {
        2.0 * self.unicast_cost(routing, src, dst)
    }

    /// The topology's mean shortest-path length over the routing the model
    /// was built with ([`Routing::mean_path_length`], computed once).
    pub fn mean_path(&self) -> f64 {
        self.mean_path
    }

    /// The flood charging mode.
    pub fn flood_mode(&self) -> FloodCharge {
        self.flood
    }
}

/// Per-message-type ledger accumulated during a simulation run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MessageLedger {
    /// Cost charged to HELP floods (adaptive/pure PULL and REALTOR).
    pub help: f64,
    /// Cost charged to PLEDGE unicasts.
    pub pledge: f64,
    /// Cost charged to PUSH advertisements (pure/adaptive PUSH).
    pub push: f64,
    /// Cost charged to admission negotiation and migration signalling.
    pub migration: f64,
    /// Number of HELP floods.
    pub help_count: u64,
    /// Number of PLEDGE messages.
    pub pledge_count: u64,
    /// Number of PUSH advertisements.
    pub push_count: u64,
    /// Number of migration negotiations.
    pub migration_count: u64,
    /// Deliveries dropped by the unreliable channel (not charged — the
    /// send was already paid for; this counts what never arrived).
    pub lost_count: u64,
    /// Extra copies delivered by channel duplication.
    pub duplicated_count: u64,
    /// Messages (flood legs or unicasts) dropped because an active network
    /// partition separated sender and receiver. Like `lost_count`, this is
    /// accounting only — the send was already charged.
    pub partition_dropped_count: u64,
}

impl MessageLedger {
    /// Total charged cost across all message classes — the y-axis of the
    /// paper's Figure 6.
    pub fn total(&self) -> f64 {
        self.help + self.pledge + self.push + self.migration
    }

    /// Total message events (not cost).
    pub fn total_count(&self) -> u64 {
        self.help_count + self.pledge_count + self.push_count + self.migration_count
    }

    /// Record one HELP flood of the given cost.
    pub fn charge_help(&mut self, cost: f64) {
        self.help += cost;
        self.help_count += 1;
    }

    /// Record one PLEDGE unicast of the given cost.
    pub fn charge_pledge(&mut self, cost: f64) {
        self.pledge += cost;
        self.pledge_count += 1;
    }

    /// Record one PUSH advertisement of the given cost.
    pub fn charge_push(&mut self, cost: f64) {
        self.push += cost;
        self.push_count += 1;
    }

    /// Record one migration negotiation of the given cost.
    pub fn charge_migration(&mut self, cost: f64) {
        self.migration += cost;
        self.migration_count += 1;
    }

    /// Record one delivery dropped by the channel.
    pub fn count_lost(&mut self) {
        self.lost_count += 1;
    }

    /// Record one duplicate copy delivered by the channel.
    pub fn count_duplicated(&mut self) {
        self.duplicated_count += 1;
    }

    /// Record one message dropped at a partition boundary.
    pub fn count_partition_dropped(&mut self) {
        self.partition_dropped_count += 1;
    }

    /// Merge another ledger into this one.
    pub fn merge(&mut self, other: &MessageLedger) {
        self.help += other.help;
        self.pledge += other.pledge;
        self.push += other.push;
        self.migration += other.migration;
        self.help_count += other.help_count;
        self.pledge_count += other.pledge_count;
        self.push_count += other.push_count;
        self.migration_count += other.migration_count;
        self.lost_count += other.lost_count;
        self.duplicated_count += other.duplicated_count;
        self.partition_dropped_count += other.partition_dropped_count;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_model_on_paper_mesh() {
        let t = Topology::mesh(5, 5);
        let r = Routing::new(&t);
        let m = CostModel::paper(&t);
        assert_eq!(m.flood_cost(25), 40.0);
        assert_eq!(m.unicast_cost(&r, 0, 24), 4.0);
        assert_eq!(m.negotiation_cost(&r, 0, 24), 8.0);
    }

    #[test]
    fn exact_model_uses_hops() {
        let t = Topology::mesh(5, 5);
        let r = Routing::new(&t);
        let m = CostModel::exact(&t, &r);
        assert_eq!(m.unicast_cost(&r, 0, 24), 8.0);
        assert_eq!(m.unicast_cost(&r, 0, 1), 1.0);
        assert_eq!(m.unicast_cost(&r, 3, 3), 0.0);
    }

    #[test]
    fn mean_path_mode() {
        let t = Topology::mesh(5, 5);
        let r = Routing::new(&t);
        let m = CostModel::new(&t, &r, UnicastCharge::MeanPath, FloodCharge::PerLink);
        let c = m.unicast_cost(&r, 0, 1);
        assert!((c - 10.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn spanning_tree_flood() {
        let t = Topology::mesh(5, 5);
        let r = Routing::new(&t);
        let m = CostModel::new(&t, &r, UnicastCharge::ExactHops, FloodCharge::SpanningTree);
        assert_eq!(m.flood_cost(25), 24.0);
        assert_eq!(m.flood_cost(10), 9.0);
        assert_eq!(m.flood_cost(0), 0.0);
    }

    #[test]
    fn unreachable_unicast_is_free() {
        let t = Topology::mesh(5, 1);
        let mut alive = vec![true; 5];
        alive[2] = false;
        let r = Routing::over_alive(&t, &alive);
        let m = CostModel::exact(&t, &r);
        assert_eq!(m.unicast_cost(&r, 0, 4), 0.0);
    }

    #[test]
    fn ledger_accumulates_and_merges() {
        let mut a = MessageLedger::default();
        a.charge_help(40.0);
        a.charge_pledge(4.0);
        a.charge_pledge(4.0);
        a.charge_migration(8.0);
        assert_eq!(a.total(), 56.0);
        assert_eq!(a.total_count(), 4);

        let mut b = MessageLedger::default();
        b.charge_push(40.0);
        b.count_lost();
        b.count_duplicated();
        b.count_duplicated();
        b.count_partition_dropped();
        b.merge(&a);
        assert_eq!(b.total(), 96.0);
        assert_eq!(b.push_count, 1);
        assert_eq!(b.pledge_count, 2);
        assert_eq!(b.lost_count, 1);
        assert_eq!(b.duplicated_count, 2);
        assert_eq!(b.partition_dropped_count, 1);
        // Channel accounting never alters charged cost.
        assert_eq!(b.total_count(), 5);
    }
}
