//! Shortest-path routing over a [`Topology`], one destination row at a
//! time.
//!
//! The paper's message accounting charges a unicast PLEDGE "the average
//! number of shortest paths" (they use the constant 4 on the 5×5 mesh); this
//! module computes exact per-pair hop counts by BFS so the cost model can use
//! either exact or constant charging. Routing can be built over a subset of
//! alive nodes and with links removed, to model attacks.
//!
//! Memory and time: building a [`Routing`] copies the adjacency and the
//! alive set, O(N + E), and computes no distance. The hop distances to a
//! destination are one row of 2 B per node, filled by a single BFS from
//! that destination the first time any query names it; distances are
//! symmetric, so that row answers `hops`, `reachable` and `next_hop` from
//! every source. A run pays one BFS per destination it actually sends to,
//! and a fault batch that replaces the routing throws away only the rows
//! filled since the last one. Whole-graph figures ([`Routing::mean_path_length`],
//! [`Routing::diameter`]) stream BFS through one scratch row and fill none.

use crate::topology::{NodeId, Topology};
use std::cell::OnceCell;

/// Hop distance; `HOPS_UNREACHABLE` marks disconnected pairs.
pub type Hops = u32;

/// Sentinel for "no path".
pub const HOPS_UNREACHABLE: Hops = Hops::MAX;

/// A stored distance: `NO_PATH` stands for [`HOPS_UNREACHABLE`]. A finite
/// distance is at most `n - 1`, so it fits while `n < NO_PATH`.
type Dist = u16;
const NO_PATH: Dist = Dist::MAX;

/// Hop counts over one (possibly filtered) topology and alive set, filled
/// per destination on demand.
#[derive(Debug, Clone)]
pub struct Routing {
    n: usize,
    /// The alive set the distances are over; dead nodes neither originate,
    /// receive, nor forward.
    alive: Vec<bool>,
    /// The adjacency the distances are over, in compressed rows: the
    /// neighbours of `u` are `adj[adj_start[u]..adj_start[u + 1]]`, in
    /// ascending id order. A copy, because the topology may be a filtered
    /// one (links cut by an attack or partition) that the caller drops.
    adj_start: Vec<usize>,
    adj: Vec<NodeId>,
    /// `rows[dst][src]`: hops from `src` to `dst`, filled by one BFS from
    /// `dst` on the first query that names `dst`.
    rows: Vec<OnceCell<Box<[Dist]>>>,
}

impl Routing {
    /// Routing over all nodes of `topo`.
    pub fn new(topo: &Topology) -> Self {
        Self::over_alive(topo, &vec![true; topo.node_count()])
    }

    /// Routing over the alive subgraph only; dead nodes neither
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
        let mut adj_start = Vec::with_capacity(n + 1);
        let mut adj = Vec::with_capacity(2 * topo.link_count());
        adj_start.push(0);
        for u in 0..n {
            adj.extend_from_slice(topo.neighbors(u));
            adj_start.push(adj.len());
        }
        Routing {
            n,
            alive: alive.to_vec(),
            adj_start,
            adj,
            rows: (0..n).map(|_| OnceCell::new()).collect(),
        }
    }

    /// Number of nodes the routing is over.
    pub fn node_count(&self) -> usize {
        self.n
    }

    #[inline]
    fn neighbors(&self, u: NodeId) -> &[NodeId] {
        &self.adj[self.adj_start[u]..self.adj_start[u + 1]]
    }

    /// BFS from `src` over the alive subgraph into `row` (every entry
    /// `NO_PATH` on entry), using `queue` as scratch. A dead `src` reaches
    /// nothing, itself included.
    fn bfs(&self, src: NodeId, row: &mut [Dist], queue: &mut Vec<NodeId>) {
        if !self.alive[src] {
            return;
        }
        row[src] = 0;
        queue.clear();
        queue.push(src);
        let mut head = 0;
        while let Some(&u) = queue.get(head) {
            head += 1;
            let du = row[u];
            for &v in self.neighbors(u) {
                if self.alive[v] && row[v] == NO_PATH {
                    row[v] = du + 1;
                    queue.push(v);
                }
            }
        }
    }

    /// Hop distances from every node to `dst`, filled on first use.
    #[inline]
    fn row(&self, dst: NodeId) -> &[Dist] {
        self.rows[dst].get_or_init(|| self.fill_row(dst))
    }

    #[cold]
    #[inline(never)]
    fn fill_row(&self, dst: NodeId) -> Box<[Dist]> {
        let mut row = vec![NO_PATH; self.n].into_boxed_slice();
        self.bfs(dst, &mut row, &mut Vec::new());
        row
    }

    /// Hop distance from `src` to `dst` ([`HOPS_UNREACHABLE`] if none).
    #[inline]
    pub fn hops(&self, src: NodeId, dst: NodeId) -> Hops {
        match self.row(dst)[src] {
            NO_PATH => HOPS_UNREACHABLE,
            d => Hops::from(d),
        }
    }

    /// True when a path exists.
    #[inline]
    pub fn reachable(&self, src: NodeId, dst: NodeId) -> bool {
        self.row(dst)[src] != NO_PATH
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
        // `dst`'s row holds every `hops(w, dst)`.
        let row = self.row(dst);
        let d = row[src];
        if d == NO_PATH || d == 0 {
            return None;
        }
        self.neighbors(src)
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

    /// Run `visit` on the BFS distances from each node in turn, through
    /// one scratch row; no row is stored.
    fn each_source(&self, mut visit: impl FnMut(NodeId, &[Dist])) {
        let mut row = vec![NO_PATH; self.n];
        let mut queue = Vec::with_capacity(self.n);
        for src in 0..self.n {
            row.fill(NO_PATH);
            self.bfs(src, &mut row, &mut queue);
            visit(src, &row);
        }
    }

    /// Mean hop distance over all ordered reachable pairs with `src != dst`.
    /// One BFS per node; fills no rows.
    ///
    /// For the paper's 5×5 mesh this is 10/3 ≈ 3.33 (the paper rounds to 4).
    pub fn mean_path_length(&self) -> f64 {
        let mut sum = 0u64;
        let mut pairs = 0u64;
        self.each_source(|src, row| {
            for (dst, &d) in row.iter().enumerate() {
                if dst != src && d != NO_PATH {
                    sum += u64::from(d);
                    pairs += 1;
                }
            }
        });
        if pairs == 0 {
            0.0
        } else {
            sum as f64 / pairs as f64
        }
    }

    /// Largest finite hop distance (graph diameter over reachable pairs).
    /// One BFS per node; fills no rows.
    pub fn diameter(&self) -> Hops {
        let mut max: Option<Dist> = None;
        self.each_source(|_, row| {
            let far = row.iter().copied().filter(|&d| d != NO_PATH).max();
            max = max.max(far);
        });
        max.map_or(0, Hops::from)
    }

    /// Nodes within `radius` hops of `center` (excluding `center`).
    pub fn within(&self, center: NodeId, radius: Hops) -> Vec<NodeId> {
        // Distances are symmetric: `hops(v, center)` reads only `center`'s row.
        (0..self.n)
            .filter(|&v| v != center && self.hops(v, center) <= radius)
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
