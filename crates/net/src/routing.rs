//! All-pairs shortest-path routing over a [`Topology`].
//!
//! The paper's message accounting charges a unicast PLEDGE "the average
//! number of shortest paths" (they use the constant 4 on the 5×5 mesh); this
//! module computes exact per-pair hop counts by BFS so the cost model can use
//! either exact or constant charging. Routing tables can be recomputed over a
//! subset of alive nodes to model attacks.
//!
//! Memory: the table stores only hop distances, 2 B per ordered pair (5 MB
//! at N = 1600), plus a copy of the adjacency it was built over. Next hops
//! are derived from the distances on demand (see [`Routing::next_hop`]);
//! only paths over degraded links ask for them.

use crate::topology::{NodeId, Topology};

/// Hop distance; `HOPS_UNREACHABLE` marks disconnected pairs.
pub type Hops = u32;

/// Sentinel for "no path".
pub const HOPS_UNREACHABLE: Hops = Hops::MAX;

/// A stored distance: `NO_PATH` stands for [`HOPS_UNREACHABLE`]. A finite
/// distance is at most `n - 1`, so it fits while `n < NO_PATH`.
type Dist = u16;
const NO_PATH: Dist = Dist::MAX;

/// All-pairs hop counts over one (possibly filtered) topology and alive set.
#[derive(Debug, Clone)]
pub struct Routing {
    n: usize,
    /// `dist[src * n + dst]`
    dist: Vec<Dist>,
    /// The adjacency the table was built over, in compressed rows: the
    /// neighbours of `u` are `adj[adj_start[u]..adj_start[u + 1]]`, in
    /// ascending id order. A copy, because the topology may be a filtered
    /// one (links cut by an attack or partition) that the caller drops.
    adj_start: Vec<usize>,
    adj: Vec<NodeId>,
}

impl Routing {
    /// Compute routing over all nodes of `topo`.
    pub fn new(topo: &Topology) -> Self {
        Self::over_alive(topo, &vec![true; topo.node_count()])
    }

    /// Compute routing over the alive subgraph only; dead nodes neither
    /// originate, receive, nor forward.
    ///
    /// # Panics
    /// If `topo` has `u16::MAX` (65535) nodes or more.
    pub fn over_alive(topo: &Topology, alive: &[bool]) -> Self {
        let n = topo.node_count();
        assert_eq!(alive.len(), n);
        assert!(
            n < usize::from(NO_PATH),
            "routing needs under {NO_PATH} nodes, got {n}"
        );
        let mut dist = vec![NO_PATH; n * n];
        let mut queue = std::collections::VecDeque::new();
        for src in 0..n {
            if !alive[src] {
                continue;
            }
            let row = &mut dist[src * n..(src + 1) * n];
            row[src] = 0;
            queue.clear();
            queue.push_back(src);
            while let Some(u) = queue.pop_front() {
                let du = row[u];
                for &v in topo.neighbors(u) {
                    if alive[v] && row[v] == NO_PATH {
                        row[v] = du + 1;
                        queue.push_back(v);
                    }
                }
            }
        }
        let mut adj_start = Vec::with_capacity(n + 1);
        let mut adj = Vec::with_capacity(2 * topo.link_count());
        adj_start.push(0);
        for u in 0..n {
            adj.extend_from_slice(topo.neighbors(u));
            adj_start.push(adj.len());
        }
        Routing {
            n,
            dist,
            adj_start,
            adj,
        }
    }

    /// Number of nodes the table was built over.
    pub fn node_count(&self) -> usize {
        self.n
    }

    #[inline]
    fn dist(&self, src: NodeId, dst: NodeId) -> Dist {
        self.dist[src * self.n + dst]
    }

    /// Hop distance from `src` to `dst` ([`HOPS_UNREACHABLE`] if none).
    #[inline]
    pub fn hops(&self, src: NodeId, dst: NodeId) -> Hops {
        match self.dist(src, dst) {
            NO_PATH => HOPS_UNREACHABLE,
            d => Hops::from(d),
        }
    }

    /// True when a path exists.
    #[inline]
    pub fn reachable(&self, src: NodeId, dst: NodeId) -> bool {
        self.dist(src, dst) != NO_PATH
    }

    /// First hop on a shortest `src → dst` path (`None` when unreachable or
    /// `src == dst`): the lowest-id neighbour `w` of `src` one hop closer
    /// to `dst`, so routing is deterministic.
    ///
    /// This is the first hop a BFS from `src` records for `dst` when it
    /// hands each reached node the first hop of the node that reached it.
    /// Adjacency lists are sorted ascending, so level 1 is enqueued in id
    /// order, each node being its own first hop. Each later level is
    /// enqueued while the previous level is dequeued, so by induction
    /// every level is enqueued in non-decreasing first-hop order, and a
    /// node is reached first by the predecessor with the smallest first
    /// hop. That is the smallest `w` adjacent to `src` with
    /// `hops(w, dst) == hops(src, dst) - 1`, which is what this scans for.
    /// Dead neighbours have no finite distance, so they never qualify.
    pub fn next_hop(&self, src: NodeId, dst: NodeId) -> Option<NodeId> {
        let d = self.dist(src, dst);
        if d == NO_PATH || d == 0 {
            return None;
        }
        // Distances are symmetric, so `dst`'s row holds every `hops(w, dst)`.
        let row = &self.dist[dst * self.n..(dst + 1) * self.n];
        self.adj[self.adj_start[src]..self.adj_start[src + 1]]
            .iter()
            .copied()
            .find(|&w| row[w] == d - 1)
    }

    /// Full shortest path, including both endpoints; `None` when unreachable.
    pub fn path(&self, src: NodeId, dst: NodeId) -> Option<Vec<NodeId>> {
        if !self.reachable(src, dst) {
            return None;
        }
        let mut path = vec![src];
        let mut cur = src;
        while cur != dst {
            cur = self.next_hop(cur, dst)?;
            path.push(cur);
            debug_assert!(path.len() <= self.n, "routing loop detected");
        }
        Some(path)
    }

    /// Mean hop distance over all ordered reachable pairs with `src != dst`.
    ///
    /// For the paper's 5×5 mesh this is 10/3 ≈ 3.33 (the paper rounds to 4).
    pub fn mean_path_length(&self) -> f64 {
        let mut sum = 0u64;
        let mut pairs = 0u64;
        for s in 0..self.n {
            for d in 0..self.n {
                if s != d && self.reachable(s, d) {
                    sum += u64::from(self.hops(s, d));
                    pairs += 1;
                }
            }
        }
        if pairs == 0 {
            0.0
        } else {
            sum as f64 / pairs as f64
        }
    }

    /// Largest finite hop distance (graph diameter over reachable pairs).
    pub fn diameter(&self) -> Hops {
        self.dist
            .iter()
            .copied()
            .filter(|&d| d != NO_PATH)
            .max()
            .map_or(0, Hops::from)
    }

    /// Nodes within `radius` hops of `center` (excluding `center`).
    pub fn within(&self, center: NodeId, radius: Hops) -> Vec<NodeId> {
        (0..self.n)
            .filter(|&v| v != center && self.hops(center, v) <= radius)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mesh_distances() {
        let t = Topology::mesh(5, 5);
        let r = Routing::new(&t);
        // Manhattan distance on a grid mesh.
        assert_eq!(r.hops(0, 24), 8);
        assert_eq!(r.hops(0, 4), 4);
        assert_eq!(r.hops(12, 12), 0);
        assert_eq!(r.diameter(), 8);
    }

    #[test]
    fn mesh_mean_path_is_ten_thirds() {
        let r = Routing::new(&Topology::mesh(5, 5));
        let m = r.mean_path_length();
        assert!((m - 10.0 / 3.0).abs() < 1e-9, "mean {m}");
    }

    #[test]
    fn paths_are_shortest_and_valid() {
        let t = Topology::mesh(4, 4);
        let r = Routing::new(&t);
        for s in t.nodes() {
            for d in t.nodes() {
                let p = r.path(s, d).unwrap();
                assert_eq!(p.len() as Hops - 1, r.hops(s, d));
                assert_eq!(*p.first().unwrap(), s);
                assert_eq!(*p.last().unwrap(), d);
                for w in p.windows(2) {
                    assert!(t.has_link(w[0], w[1]), "invalid hop {w:?}");
                }
            }
        }
    }

    #[test]
    fn symmetric_distances() {
        let t = Topology::random_connected(15, 0.25, 3);
        let r = Routing::new(&t);
        for s in t.nodes() {
            for d in t.nodes() {
                assert_eq!(r.hops(s, d), r.hops(d, s));
            }
        }
    }

    #[test]
    fn dead_nodes_do_not_forward() {
        // 1x5 line: 0-1-2-3-4. Killing 2 splits the line.
        let t = Topology::mesh(5, 1);
        let mut alive = vec![true; 5];
        alive[2] = false;
        let r = Routing::over_alive(&t, &alive);
        assert!(!r.reachable(0, 4));
        assert!(r.reachable(0, 1));
        assert!(r.reachable(3, 4));
        assert_eq!(r.hops(0, 2), HOPS_UNREACHABLE);
        assert!(r.path(0, 4).is_none());
    }

    #[test]
    fn within_radius() {
        let t = Topology::mesh(5, 5);
        let r = Routing::new(&t);
        let near = r.within(12, 1);
        assert_eq!(near, vec![7, 11, 13, 17]);
        assert_eq!(r.within(12, 8).len(), 24);
    }

    #[test]
    fn star_routes_via_hub() {
        let t = Topology::star(6);
        let r = Routing::new(&t);
        assert_eq!(r.hops(1, 5), 2);
        assert_eq!(r.next_hop(1, 5), Some(0));
        assert_eq!(r.path(1, 5).unwrap(), vec![1, 0, 5]);
    }
}
