//! Property-based tests for topologies and routing, on the in-tree
//! `check` harness.

use realtor_net::{
    ChannelModel, FaultState, LinkQuality, NodeId, Routing, TargetingStrategy, Topology,
    HOPS_UNREACHABLE,
};
use realtor_simcore::prelude::*;
use realtor_simcore::{prop_assert, prop_assert_eq};

/// The mesh link formula `2wh - w - h` holds for all sizes.
#[test]
fn mesh_link_count() {
    forall(
        "mesh_link_count",
        0x4E7001,
        128,
        |r| (gen::usize_in(r, 1, 12), gen::usize_in(r, 1, 12)),
        |&(w, h)| {
            let t = Topology::mesh(w, h);
            prop_assert_eq!(t.node_count(), w * h);
            prop_assert_eq!(t.link_count(), 2 * w * h - w - h);
            prop_assert!(t.is_connected());
            Ok(())
        },
    );
}

/// Distances are symmetric and satisfy the triangle inequality on random
/// connected graphs.
#[test]
fn routing_metric_axioms() {
    forall(
        "routing_metric_axioms",
        0x4E7002,
        64,
        |r| (gen::usize_in(r, 4, 16), gen::u64_in(r, 0, 1000)),
        |&(n, seed)| {
            let t = Topology::random_connected(n, 0.4, seed);
            let r = Routing::new(&t);
            for a in 0..n {
                prop_assert_eq!(r.hops(a, a), 0);
                for b in 0..n {
                    prop_assert_eq!(r.hops(a, b), r.hops(b, a));
                    for c in 0..n {
                        prop_assert!(r.hops(a, c) <= r.hops(a, b) + r.hops(b, c));
                    }
                }
            }
            Ok(())
        },
    );
}

/// Mesh hop distance equals Manhattan distance.
#[test]
fn mesh_distance_is_manhattan() {
    forall(
        "mesh_distance_is_manhattan",
        0x4E7003,
        64,
        |r| (gen::usize_in(r, 2, 8), gen::usize_in(r, 2, 8)),
        |&(w, h)| {
            let t = Topology::mesh(w, h);
            let r = Routing::new(&t);
            for a in 0..w * h {
                for b in 0..w * h {
                    let (ax, ay) = (a % w, a / w);
                    let (bx, by) = (b % w, b / w);
                    let manhattan = ax.abs_diff(bx) + ay.abs_diff(by);
                    prop_assert_eq!(r.hops(a, b) as usize, manhattan);
                }
            }
            Ok(())
        },
    );
}

/// Every reconstructed path is a valid walk of the stated length.
#[test]
fn paths_valid_on_random_graphs() {
    forall(
        "paths_valid_on_random_graphs",
        0x4E7004,
        64,
        |r| (gen::usize_in(r, 4, 14), gen::u64_in(r, 0, 500)),
        |&(n, seed)| {
            let t = Topology::random_connected(n, 0.35, seed);
            let r = Routing::new(&t);
            for a in 0..n {
                for b in 0..n {
                    let p = r.path(a, b).unwrap();
                    prop_assert_eq!(p.len() as u32, r.hops(a, b) + 1);
                    for win in p.windows(2) {
                        prop_assert!(t.has_link(win[0], win[1]));
                    }
                }
            }
            Ok(())
        },
    );
}

/// Killing nodes never creates new reachability, and restoring all
/// victims restores full reachability.
#[test]
fn failures_only_remove_reachability() {
    forall(
        "failures_only_remove_reachability",
        0x4E7005,
        128,
        |r| (gen::u64_in(r, 0, 500), gen::usize_in(r, 1, 10)),
        |&(seed, kills)| {
            let t = Topology::mesh(4, 4);
            let full = Routing::new(&t);
            let mut f = FaultState::new(&t);
            let mut rng = SimRng::from_seed(seed);
            let killed = f.attack(&t, &TargetingStrategy::Random, kills, &mut rng);
            let damaged = f.routing(&t).clone();
            for a in 0..16 {
                for b in 0..16 {
                    if damaged.reachable(a, b) {
                        prop_assert!(full.reachable(a, b));
                        prop_assert!(damaged.hops(a, b) >= full.hops(a, b));
                    }
                    if a != b && (killed.contains(&a) || killed.contains(&b)) {
                        prop_assert_eq!(damaged.hops(a, b), HOPS_UNREACHABLE);
                    }
                }
            }
            for v in killed {
                f.restore(v);
            }
            let restored = f.routing(&t);
            for a in 0..16 {
                for b in 0..16 {
                    prop_assert_eq!(restored.hops(a, b), full.hops(a, b));
                }
            }
            Ok(())
        },
    );
}

/// The all-pairs first-hop table `Routing` used to store, kept as the
/// reference for the on-demand next hops: a BFS from every alive source in
/// which each reached node inherits the first hop of the node that reached
/// it (lowest-id tie-break, since adjacency lists are sorted).
struct BfsOracle {
    n: usize,
    dist: Vec<u32>,
    next: Vec<Option<NodeId>>,
}

impl BfsOracle {
    fn build(topo: &Topology, alive: &[bool]) -> Self {
        let n = topo.node_count();
        let mut dist = vec![HOPS_UNREACHABLE; n * n];
        let mut next = vec![None; n * n];
        for src in (0..n).filter(|&s| alive[s]) {
            let base = src * n;
            dist[base + src] = 0;
            let mut queue = std::collections::VecDeque::from([src]);
            while let Some(u) = queue.pop_front() {
                for &v in topo.neighbors(u) {
                    if !alive[v] || dist[base + v] != HOPS_UNREACHABLE {
                        continue;
                    }
                    dist[base + v] = dist[base + u] + 1;
                    next[base + v] = if u == src { Some(v) } else { next[base + u] };
                    queue.push_back(v);
                }
            }
        }
        BfsOracle { n, dist, next }
    }

    fn hops(&self, src: NodeId, dst: NodeId) -> u32 {
        self.dist[src * self.n + dst]
    }

    fn next_hop(&self, src: NodeId, dst: NodeId) -> Option<NodeId> {
        self.next[src * self.n + dst]
    }

    fn path(&self, src: NodeId, dst: NodeId) -> Option<Vec<NodeId>> {
        if self.hops(src, dst) == HOPS_UNREACHABLE {
            return None;
        }
        let mut path = vec![src];
        while *path.last().unwrap() != dst {
            path.push(self.next_hop(*path.last().unwrap(), dst)?);
        }
        Some(path)
    }

    /// `ChannelModel::effective_quality` walked over the oracle's paths.
    fn quality(&self, ch: &ChannelModel, src: NodeId, dst: NodeId) -> LinkQuality {
        let mut q = ch.base();
        if ch.degraded_link_count() == 0 || src == dst {
            return q;
        }
        if let Some(path) = self.path(src, dst) {
            for hop in path.windows(2) {
                if ch.is_link_degraded(hop[0], hop[1]) {
                    q = q.compose(&ch.degraded_quality());
                }
            }
        }
        q
    }
}

/// Next hops derived from distances equal the stored BFS first-hop table,
/// over mesh, torus and random graphs with random dead nodes, cut links
/// and partitions applied through `FaultState`; so do hop counts, paths
/// and the effective quality of paths crossing random degraded links.
#[test]
fn routing_matches_bfs_first_hop_oracle() {
    forall(
        "routing_matches_bfs_first_hop_oracle",
        0x4E7006,
        192,
        |r| {
            (
                gen::u8_in(r, 0, 2),
                gen::usize_in(r, 0, 48),
                gen::u64_in(r, 0, 1000),
                gen::usize_in(r, 0, 8),
                gen::usize_in(r, 0, 6),
                gen::usize_in(r, 0, 4),
                gen::usize_in(r, 0, 8),
            )
        },
        |&(family, size, seed, kills, cuts, parts, degraded)| {
            let t = match family {
                0 => Topology::mesh(1 + size % 7, 1 + size / 7 % 7),
                1 => Topology::torus(3 + size % 5, 3 + size / 5 % 4),
                _ => {
                    let n = 2 + size % 30;
                    Topology::random_connected(n, (3.0 / n as f64).clamp(0.15, 1.0), seed)
                }
            };
            let n = t.node_count();
            let edges = t.edges();
            let mut rng = SimRng::from_seed(seed);
            let mut f = FaultState::new(&t);
            f.attack(&t, &TargetingStrategy::Random, kills.min(n / 3), &mut rng);
            for _ in 0..cuts.min(edges.len()) {
                let (a, b) = edges[rng.index(edges.len())];
                f.cut_link(&t, a, b);
            }
            if parts >= 2 {
                f.partition(&t, parts, &mut rng);
            }
            let mut ch = ChannelModel::uniform(LinkQuality::lossy(0.05));
            for _ in 0..degraded.min(edges.len()) {
                let (a, b) = edges[rng.index(edges.len())];
                ch.degrade_link(a, b);
            }

            let kept: Vec<(NodeId, NodeId)> = edges
                .iter()
                .copied()
                .filter(|&(a, b)| !f.is_link_severed(a, b))
                .collect();
            let filtered = Topology::from_edges("oracle", n, &kept);
            let oracle = BfsOracle::build(&filtered, f.alive_flags());
            let r = f.routing(&t);
            for a in 0..n {
                for b in 0..n {
                    prop_assert_eq!(r.hops(a, b), oracle.hops(a, b), "hops {a}->{b}");
                    prop_assert_eq!(r.next_hop(a, b), oracle.next_hop(a, b), "next {a}->{b}");
                    prop_assert_eq!(r.path(a, b), oracle.path(a, b), "path {a}->{b}");
                    prop_assert_eq!(
                        ch.effective_quality(r, a, b),
                        oracle.quality(&ch, a, b),
                        "quality {a}->{b}"
                    );
                }
            }
            Ok(())
        },
    );
}

/// Lazily filled destination rows agree with an eager all-pairs BFS
/// through several fault epochs of one `FaultState`: kills, restores, cut
/// and restored links, and partitions that are drawn, redrawn and healed,
/// on mesh, torus and random graphs. Each epoch queries a random sample of
/// pairs in random order, so rows are filled partially and in any order,
/// and checks the whole-graph figures, which fill no rows, against the
/// oracle's.
#[test]
fn lazy_rows_match_eager_bfs_across_fault_epochs() {
    forall(
        "lazy_rows_match_eager_bfs_across_fault_epochs",
        0x4E7007,
        96,
        |r| {
            (
                gen::u8_in(r, 0, 3),
                gen::usize_in(r, 0, 64),
                gen::u64_in(r, 0, 1000),
                gen::vec(r, 1, 6, |r| (gen::u8_in(r, 0, 6), gen::usize_in(r, 1, 4))),
            )
        },
        |(family, size, seed, epochs)| {
            let t = match family {
                0 => Topology::mesh(1 + size % 8, 1 + size / 8 % 8),
                1 => Topology::torus(3 + size % 5, 3 + size / 5 % 5),
                _ => {
                    let n = 2 + size % 40;
                    Topology::random_connected(n, (3.0 / n as f64).clamp(0.1, 1.0), *seed)
                }
            };
            let n = t.node_count();
            let edges = t.edges();
            let mut rng = SimRng::from_seed(*seed);
            let mut f = FaultState::new(&t);
            for (epoch, &(op, count)) in epochs.iter().enumerate() {
                for _ in 0..count {
                    let node = rng.index(n);
                    let (a, b) = edges
                        .get(rng.index(edges.len().max(1)))
                        .copied()
                        .unwrap_or((0, 0));
                    match op {
                        0 => f.kill(node),
                        1 => f.restore(node),
                        2 => f.cut_link(&t, a, b),
                        3 => f.restore_link(a, b),
                        4 => {
                            f.partition(&t, 1 + count, &mut rng);
                        }
                        _ => f.heal_partition(),
                    }
                }
                let kept: Vec<(NodeId, NodeId)> = edges
                    .iter()
                    .copied()
                    .filter(|&(a, b)| !f.is_link_severed(a, b))
                    .collect();
                let filtered = Topology::from_edges("oracle", n, &kept);
                let oracle = BfsOracle::build(&filtered, f.alive_flags());
                let r = f.routing(&t);
                for _ in 0..2 * n {
                    let (a, b) = (rng.index(n), rng.index(n));
                    prop_assert_eq!(
                        r.hops(a, b),
                        oracle.hops(a, b),
                        "epoch {epoch}: hops {a}->{b}"
                    );
                    prop_assert_eq!(
                        r.reachable(a, b),
                        oracle.hops(a, b) != HOPS_UNREACHABLE,
                        "epoch {epoch}: reachable {a}->{b}"
                    );
                    prop_assert_eq!(
                        r.next_hop(a, b),
                        oracle.next_hop(a, b),
                        "epoch {epoch}: next {a}->{b}"
                    );
                }
                let finite = (0..n)
                    .flat_map(|a| (0..n).map(move |b| (a, b)))
                    .filter(|&(a, b)| a != b && oracle.hops(a, b) != HOPS_UNREACHABLE)
                    .map(|(a, b)| u64::from(oracle.hops(a, b)));
                let (sum, pairs) = finite.fold((0u64, 0u64), |(s, p), h| (s + h, p + 1));
                let mean = if pairs == 0 {
                    0.0
                } else {
                    sum as f64 / pairs as f64
                };
                prop_assert_eq!(
                    r.mean_path_length().to_bits(),
                    mean.to_bits(),
                    "epoch {epoch}"
                );
                let diameter = oracle
                    .dist
                    .iter()
                    .copied()
                    .filter(|&d| d != HOPS_UNREACHABLE)
                    .max()
                    .unwrap_or(0);
                prop_assert_eq!(r.diameter(), diameter, "epoch {epoch}");
            }
            Ok(())
        },
    );
}
