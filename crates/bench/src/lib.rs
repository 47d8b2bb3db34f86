//! Shared helpers for the in-tree benchmark harness.
//!
//! The `benches/` targets print a scaled-down version of the figures they
//! cover (so a plain `cargo bench` run shows the reproduced shape), then
//! time the work that generates them with the zero-dependency [`runner`]
//! (warmup + median-of-N wall clock, JSON lines appended under
//! `results/`): `paper_figures` covers Figures 5–8 from one paired sweep,
//! `fig9_cluster` the cluster measurement, and `micro`/`transport` the
//! layers underneath.
//!
//! The full-scale series (paper horizons) come from the `experiments`
//! binary; see DESIGN.md's per-experiment index.

use realtor_core::ProtocolKind;
use realtor_sim::Scenario;

pub mod runner;

pub use runner::{fmt_ns, Record, Runner};

/// Horizon used by the bench-scale runs (the paper uses ~10^4 s).
pub const BENCH_HORIZON_SECS: u64 = 300;

/// Seed shared by all bench runs.
pub const BENCH_SEED: u64 = 42;

/// A bench-scale paper scenario.
pub fn bench_scenario(protocol: ProtocolKind, lambda: f64) -> Scenario {
    Scenario::paper(protocol, lambda, BENCH_HORIZON_SECS, BENCH_SEED)
}
