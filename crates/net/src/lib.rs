//! # realtor-net — network substrate
//!
//! The overlay network the discovery protocols run on:
//!
//! * [`topology`] — undirected graphs and the generators used by the paper
//!   (the 5×5 mesh of Figure 4) and the ablations (torus, ring, star,
//!   complete, seeded random),
//! * [`routing`] — BFS hop distances, one 2 B-per-node row per
//!   destination filled on first query, with next hops derived from the
//!   rows, built in O(N + E) over the surviving subgraph,
//! * [`cost`] — the paper's Section-5 message accounting (flood = #links,
//!   unicast = constant 4) plus an exact-hops variant,
//! * [`fault`] — node-failure injection modelling external attacks,
//! * [`idmap`] — a dense `NodeId`-keyed map (O(1) lookups, id-ordered
//!   iteration, one in-place value per slot) backing the protocol
//!   hot-path tables,
//! * [`channel`] — the unreliable-delivery model (loss, latency, jitter,
//!   duplication, degraded links) layered on top of routing.

#![warn(missing_docs)]

pub mod channel;
pub mod cost;
pub mod fault;
pub mod idmap;
pub mod routing;
pub mod topology;

pub use channel::{ChannelModel, LinkQuality, Sampled};
pub use cost::{CostModel, FloodCharge, MessageLedger, UnicastCharge};
pub use fault::{FaultState, TargetingStrategy};
pub use idmap::{IdMap, Vacancy};
pub use routing::{Hops, Routing, HOPS_UNREACHABLE};
pub use topology::{NodeId, Topology};
