//! Node-failure injection — the paper's "external attack" model.
//!
//! The paper motivates REALTOR with survivability: "as nodes in the system
//! come under attack, resources on these systems become unavailable". The
//! attack model is therefore node unavailability: an attacked node stops
//! originating, answering and forwarding messages, and its queued work is
//! lost. [`FaultState`] tracks the alive set and replaces its routing over
//! the surviving subgraph on the first query after a fault batch. The new
//! [`Routing`] costs O(N + E) to build; its distance rows are filled per
//! destination as later queries name them, so a churn wave pays for the
//! destinations messages go to before the next wave, not for all pairs.

use crate::routing::Routing;
use crate::topology::{NodeId, Topology};
use realtor_simcore::SimRng;

/// A targeting strategy for selecting victims.
#[derive(Debug, Clone, PartialEq)]
pub enum TargetingStrategy {
    /// Uniformly random victims.
    Random,
    /// Highest-degree nodes first (hub attack).
    HighestDegree,
    /// A contiguous region grown by BFS from a random epicenter (models a
    /// localized attack, e.g. one rack or subnet).
    Region,
    /// Correlated failure of one whole failure domain: node ids are split
    /// into `racks` contiguous ranges and a single random rack is hit — one
    /// event takes out every alive member of the domain (up to `count`),
    /// modelling a shared power feed or top-of-rack switch.
    Rack {
        /// Number of failure domains the id space is split into.
        racks: usize,
    },
    /// An explicit victim list.
    Explicit(Vec<NodeId>),
}

/// Current alive/dead state plus routing over the survivors.
#[derive(Debug, Clone)]
pub struct FaultState {
    alive: Vec<bool>,
    /// Links severed independently of node state, as `(min, max)` pairs.
    cut_links: std::collections::BTreeSet<(NodeId, NodeId)>,
    /// Links severed by an active network partition, kept separate from
    /// `cut_links` so healing the partition cannot resurrect a link that a
    /// `CutLinks` attack severed independently.
    partition_cuts: std::collections::BTreeSet<(NodeId, NodeId)>,
    routing: Routing,
    dirty: bool,
}

impl FaultState {
    /// All nodes alive.
    pub fn new(topo: &Topology) -> Self {
        FaultState {
            alive: vec![true; topo.node_count()],
            cut_links: Default::default(),
            partition_cuts: Default::default(),
            routing: Routing::new(topo),
            dirty: false,
        }
    }

    /// Whether `node` is currently alive.
    #[inline]
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.alive[node]
    }

    /// The alive flags, indexed by node id.
    pub fn alive_flags(&self) -> &[bool] {
        &self.alive
    }

    /// Number of alive nodes.
    pub fn alive_count(&self) -> usize {
        self.alive.iter().filter(|&&a| a).count()
    }

    /// Ids of alive nodes.
    pub fn alive_nodes(&self) -> Vec<NodeId> {
        (0..self.alive.len()).filter(|&i| self.alive[i]).collect()
    }

    /// Kill one node. Idempotent.
    pub fn kill(&mut self, node: NodeId) {
        if std::mem::replace(&mut self.alive[node], false) {
            self.dirty = true;
        }
    }

    /// Restore one node. Idempotent.
    pub fn restore(&mut self, node: NodeId) {
        if !std::mem::replace(&mut self.alive[node], true) {
            self.dirty = true;
        }
    }

    /// Kill a set of victims chosen by `strategy`.
    ///
    /// Returns the victims actually killed (alive beforehand).
    pub fn attack(
        &mut self,
        topo: &Topology,
        strategy: &TargetingStrategy,
        count: usize,
        rng: &mut SimRng,
    ) -> Vec<NodeId> {
        let victims = self.select_victims(topo, strategy, count, rng);
        let mut killed = Vec::with_capacity(victims.len());
        for v in victims {
            if self.alive[v] {
                self.kill(v);
                killed.push(v);
            }
        }
        killed
    }

    /// Choose victims by `strategy` *without* killing them — an attack
    /// warning. Feeding the same `rng` stream as [`FaultState::attack`]
    /// means a warned kill targets exactly the nodes an unwarned kill with
    /// the same seed would have hit.
    pub fn choose_victims(
        &self,
        topo: &Topology,
        strategy: &TargetingStrategy,
        count: usize,
        rng: &mut SimRng,
    ) -> Vec<NodeId> {
        self.select_victims(topo, strategy, count, rng)
    }

    fn select_victims(
        &self,
        topo: &Topology,
        strategy: &TargetingStrategy,
        count: usize,
        rng: &mut SimRng,
    ) -> Vec<NodeId> {
        let alive: Vec<NodeId> = self.alive_nodes();
        let count = count.min(alive.len());
        match strategy {
            TargetingStrategy::Random => rng
                .sample_indices(alive.len(), count)
                .into_iter()
                .map(|i| alive[i])
                .collect(),
            TargetingStrategy::HighestDegree => {
                let mut sorted = alive.clone();
                // stable ordering: degree descending, id ascending
                sorted.sort_by_key(|&n| (std::cmp::Reverse(topo.degree(n)), n));
                sorted.truncate(count);
                sorted
            }
            TargetingStrategy::Region => {
                if alive.is_empty() || count == 0 {
                    return Vec::new();
                }
                let epicenter = alive[rng.index(alive.len())];
                let mut seen = vec![false; topo.node_count()];
                let mut queue = std::collections::VecDeque::from([epicenter]);
                seen[epicenter] = true;
                let mut region = Vec::new();
                while let Some(u) = queue.pop_front() {
                    if region.len() >= count {
                        break;
                    }
                    region.push(u);
                    for &v in topo.neighbors(u) {
                        if self.alive[v] && !seen[v] {
                            seen[v] = true;
                            queue.push_back(v);
                        }
                    }
                }
                region
            }
            TargetingStrategy::Rack { racks } => {
                let racks = (*racks).clamp(1, topo.node_count());
                let rack_size = topo.node_count().div_ceil(racks);
                let hit = rng.index(racks);
                let lo = hit * rack_size;
                let hi = ((hit + 1) * rack_size).min(topo.node_count());
                (lo..hi).filter(|&n| self.alive[n]).take(count).collect()
            }
            TargetingStrategy::Explicit(nodes) => nodes
                .iter()
                .copied()
                .filter(|&n| self.alive[n])
                .take(count)
                .collect(),
        }
    }

    /// Sever the link between `a` and `b` (no-op if absent or already cut).
    pub fn cut_link(&mut self, topo: &Topology, a: NodeId, b: NodeId) {
        if topo.has_link(a, b) && self.cut_links.insert((a.min(b), a.max(b))) {
            self.dirty = true;
        }
    }

    /// Restore a previously cut link.
    pub fn restore_link(&mut self, a: NodeId, b: NodeId) {
        if self.cut_links.remove(&(a.min(b), a.max(b))) {
            self.dirty = true;
        }
    }

    /// Is the link between `a` and `b` currently cut?
    pub fn is_link_cut(&self, a: NodeId, b: NodeId) -> bool {
        self.cut_links.contains(&(a.min(b), a.max(b)))
    }

    /// Is the link between `a` and `b` unusable, cut either on its own or
    /// by the active partition?
    pub fn is_link_severed(&self, a: NodeId, b: NodeId) -> bool {
        let key = (a.min(b), a.max(b));
        self.cut_links.contains(&key) || self.partition_cuts.contains(&key)
    }

    /// Number of currently cut links.
    pub fn cut_link_count(&self) -> usize {
        self.cut_links.len()
    }

    /// Split the alive subgraph into `parts` components by severing every
    /// edge that crosses a component boundary. Components are grown by
    /// multi-source BFS from `parts` random alive epicenters, so each part
    /// is contiguous; nodes stay alive but no message can cross the cut
    /// until [`FaultState::heal_partition`]. Replaces any active partition.
    /// Returns the number of links severed by the new cut.
    pub fn partition(&mut self, topo: &Topology, parts: usize, rng: &mut SimRng) -> usize {
        self.heal_partition();
        let alive = self.alive_nodes();
        let parts = parts.clamp(1, alive.len().max(1));
        if alive.is_empty() || parts < 2 {
            return 0;
        }
        // Deterministic multi-source BFS: epicenters drawn from the alive
        // set, FIFO expansion, first-assignment-wins tie-break.
        let mut group: Vec<Option<usize>> = vec![None; topo.node_count()];
        let mut queue = std::collections::VecDeque::new();
        for (g, i) in rng
            .sample_indices(alive.len(), parts)
            .into_iter()
            .enumerate()
        {
            group[alive[i]] = Some(g);
            queue.push_back(alive[i]);
        }
        while let Some(u) = queue.pop_front() {
            let gu = group[u].expect("queued nodes are assigned");
            for &v in topo.neighbors(u) {
                if self.alive[v] && group[v].is_none() {
                    group[v] = Some(gu);
                    queue.push_back(v);
                }
            }
        }
        for &(a, b) in &topo.edges() {
            // Edges with a dead endpoint are already unusable; edges inside
            // one component (or inside an unreached disconnected island,
            // where both groups are None) stay intact.
            if self.alive[a] && self.alive[b] && group[a] != group[b] {
                self.partition_cuts.insert((a.min(b), a.max(b)));
            }
        }
        if !self.partition_cuts.is_empty() {
            self.dirty = true;
        }
        self.partition_cuts.len()
    }

    /// Reconnect every link severed by the active partition. Idempotent;
    /// does not touch links cut by [`FaultState::cut_link`].
    pub fn heal_partition(&mut self) {
        if !self.partition_cuts.is_empty() {
            self.partition_cuts.clear();
            self.dirty = true;
        }
    }

    /// Is a partition currently in force?
    pub fn has_partition(&self) -> bool {
        !self.partition_cuts.is_empty()
    }

    /// Number of links severed by the active partition.
    pub fn partition_cut_count(&self) -> usize {
        self.partition_cuts.len()
    }

    /// Routing over the current alive subgraph (dead nodes and cut links
    /// removed), replaced by a fresh one with no rows filled if the fault
    /// set changed since the last call.
    pub fn routing(&mut self, topo: &Topology) -> &Routing {
        if self.dirty {
            self.routing = if self.cut_links.is_empty() && self.partition_cuts.is_empty() {
                Routing::over_alive(topo, &self.alive)
            } else {
                // Route over a filtered topology without the cut links;
                // only link-attack and partition scenarios pay the O(E)
                // filtering.
                let edges: Vec<(NodeId, NodeId)> = topo
                    .edges()
                    .into_iter()
                    .filter(|&(a, b)| !self.is_link_severed(a, b))
                    .collect();
                let filtered = Topology::from_edges("link-filtered", topo.node_count(), &edges);
                Routing::over_alive(&filtered, &self.alive)
            };
            self.dirty = false;
        }
        &self.routing
    }

    /// True when the alive subgraph is connected.
    pub fn survivors_connected(&self, topo: &Topology) -> bool {
        topo.is_connected_over(&self.alive)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::from_seed(11)
    }

    #[test]
    fn kill_and_restore_round_trip() {
        let t = Topology::mesh(3, 3);
        let mut f = FaultState::new(&t);
        assert_eq!(f.alive_count(), 9);
        f.kill(4);
        f.kill(4); // idempotent
        assert_eq!(f.alive_count(), 8);
        assert!(!f.is_alive(4));
        f.restore(4);
        assert_eq!(f.alive_count(), 9);
    }

    #[test]
    fn routing_recomputes_after_kill() {
        let t = Topology::mesh(5, 1); // line 0-1-2-3-4
        let mut f = FaultState::new(&t);
        assert!(f.routing(&t).reachable(0, 4));
        f.kill(2);
        assert!(!f.routing(&t).reachable(0, 4));
        f.restore(2);
        assert!(f.routing(&t).reachable(0, 4));
    }

    #[test]
    fn random_attack_kills_exactly_n() {
        let t = Topology::mesh(5, 5);
        let mut f = FaultState::new(&t);
        let killed = f.attack(&t, &TargetingStrategy::Random, 10, &mut rng());
        assert_eq!(killed.len(), 10);
        assert_eq!(f.alive_count(), 15);
    }

    #[test]
    fn attack_caps_at_alive_count() {
        let t = Topology::mesh(2, 2);
        let mut f = FaultState::new(&t);
        let killed = f.attack(&t, &TargetingStrategy::Random, 100, &mut rng());
        assert_eq!(killed.len(), 4);
        assert_eq!(f.alive_count(), 0);
    }

    #[test]
    fn degree_attack_hits_hub_first() {
        let t = Topology::star(8);
        let mut f = FaultState::new(&t);
        let killed = f.attack(&t, &TargetingStrategy::HighestDegree, 1, &mut rng());
        assert_eq!(killed, vec![0]);
        assert!(!f.survivors_connected(&t));
    }

    #[test]
    fn region_attack_is_contiguous() {
        let t = Topology::mesh(5, 5);
        let mut f = FaultState::new(&t);
        let killed = f.attack(&t, &TargetingStrategy::Region, 6, &mut rng());
        assert_eq!(killed.len(), 6);
        // Every victim after the first must neighbor some earlier victim.
        for (i, &v) in killed.iter().enumerate().skip(1) {
            assert!(
                killed[..i].iter().any(|&u| t.has_link(u, v)),
                "victim {v} not adjacent to earlier victims {:?}",
                &killed[..i]
            );
        }
    }

    #[test]
    fn link_cuts_reroute_and_restore() {
        // 3x1 line 0-1-2 plus nothing else: cutting 0-1 splits it.
        let t = Topology::mesh(3, 1);
        let mut f = FaultState::new(&t);
        assert_eq!(f.routing(&t).hops(0, 2), 2);
        f.cut_link(&t, 1, 0); // order-insensitive
        assert!(f.is_link_cut(0, 1));
        assert_eq!(f.cut_link_count(), 1);
        assert!(!f.routing(&t).reachable(0, 2));
        assert!(f.routing(&t).reachable(1, 2));
        f.restore_link(0, 1);
        assert_eq!(f.routing(&t).hops(0, 2), 2);
    }

    #[test]
    fn link_cut_forces_detour() {
        // 2x2 mesh: cutting one side lengthens the path but keeps connectivity.
        let t = Topology::mesh(2, 2);
        let mut f = FaultState::new(&t);
        assert_eq!(f.routing(&t).hops(0, 1), 1);
        f.cut_link(&t, 0, 1);
        assert_eq!(f.routing(&t).hops(0, 1), 3, "0-2-3-1 detour");
    }

    #[test]
    fn cutting_missing_link_is_noop() {
        let t = Topology::mesh(3, 1);
        let mut f = FaultState::new(&t);
        f.cut_link(&t, 0, 2); // not adjacent
        assert_eq!(f.cut_link_count(), 0);
        assert_eq!(f.routing(&t).hops(0, 2), 2);
    }

    #[test]
    fn node_and_link_faults_compose() {
        let t = Topology::mesh(3, 3);
        let mut f = FaultState::new(&t);
        f.kill(4); // center
        f.cut_link(&t, 0, 1);
        f.cut_link(&t, 0, 3);
        // node 0 is now fully isolated (both its links cut).
        assert!(!f.routing(&t).reachable(0, 8));
        assert!(f.routing(&t).reachable(1, 8));
        f.restore_link(0, 1);
        assert!(f.routing(&t).reachable(0, 8));
    }

    #[test]
    fn partition_splits_and_heals() {
        let t = Topology::mesh(5, 5);
        let mut f = FaultState::new(&t);
        let severed = f.partition(&t, 2, &mut rng());
        assert!(severed > 0);
        assert!(f.has_partition());
        assert_eq!(f.partition_cut_count(), severed);
        // Every node is still alive, but some alive pair is unreachable.
        assert_eq!(f.alive_count(), 25);
        let r = f.routing(&t).clone();
        let unreachable = (0..25)
            .flat_map(|a| (0..25).map(move |b| (a, b)))
            .filter(|&(a, b)| a != b && !r.reachable(a, b))
            .count();
        assert!(
            unreachable > 0,
            "a 2-way partition must disconnect some pair"
        );
        f.heal_partition();
        assert!(!f.has_partition());
        assert!(f.routing(&t).reachable(0, 24));
    }

    #[test]
    fn partition_components_are_internally_connected() {
        let t = Topology::mesh(5, 5);
        let mut f = FaultState::new(&t);
        f.partition(&t, 3, &mut rng());
        let r = f.routing(&t).clone();
        // Reachability must be transitive-closed into disjoint groups: if a
        // can reach b and b can reach c then a can reach c.
        for a in 0..25 {
            for b in 0..25 {
                for c in 0..25 {
                    if r.reachable(a, b) && r.reachable(b, c) {
                        assert!(r.reachable(a, c), "{a}->{b}->{c} but not {a}->{c}");
                    }
                }
            }
        }
    }

    #[test]
    fn heal_preserves_independent_link_cuts() {
        let t = Topology::mesh(5, 5);
        let mut f = FaultState::new(&t);
        f.cut_link(&t, 0, 1);
        f.partition(&t, 2, &mut rng());
        f.heal_partition();
        assert!(
            f.is_link_cut(0, 1),
            "heal must not restore attack-cut links"
        );
        assert_eq!(f.cut_link_count(), 1);
    }

    #[test]
    fn repartition_replaces_previous_cut() {
        let t = Topology::mesh(5, 5);
        let mut f = FaultState::new(&t);
        let mut r = rng();
        f.partition(&t, 5, &mut r);
        let five_way = f.partition_cut_count();
        f.partition(&t, 2, &mut r);
        assert!(f.has_partition());
        assert!(
            f.partition_cut_count() < five_way,
            "2-way cut should sever fewer links than the 5-way it replaced"
        );
    }

    #[test]
    fn single_part_partition_is_noop() {
        let t = Topology::mesh(3, 3);
        let mut f = FaultState::new(&t);
        assert_eq!(f.partition(&t, 1, &mut rng()), 0);
        assert!(!f.has_partition());
    }

    #[test]
    fn rack_attack_kills_whole_domain() {
        let t = Topology::mesh(5, 5);
        let mut f = FaultState::new(&t);
        // 5 racks of 5 contiguous ids each.
        let killed = f.attack(&t, &TargetingStrategy::Rack { racks: 5 }, 25, &mut rng());
        assert_eq!(killed.len(), 5);
        let rack = killed[0] / 5;
        for &v in &killed {
            assert_eq!(v / 5, rack, "victims {killed:?} span racks");
        }
        // The whole domain died together.
        assert_eq!(killed, (rack * 5..rack * 5 + 5).collect::<Vec<_>>());
    }

    #[test]
    fn rack_attack_respects_count_cap() {
        let t = Topology::mesh(5, 5);
        let mut f = FaultState::new(&t);
        let killed = f.attack(&t, &TargetingStrategy::Rack { racks: 5 }, 3, &mut rng());
        assert_eq!(killed.len(), 3);
    }

    #[test]
    fn explicit_attack_skips_dead() {
        let t = Topology::mesh(3, 3);
        let mut f = FaultState::new(&t);
        f.kill(1);
        let killed = f.attack(
            &t,
            &TargetingStrategy::Explicit(vec![1, 2, 3]),
            10,
            &mut rng(),
        );
        assert_eq!(killed, vec![2, 3]);
    }
}
