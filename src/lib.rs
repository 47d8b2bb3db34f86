//! # realtor — dynamic resource discovery for application survivability
//!
//! A production-quality Rust reproduction of *"Dynamic Resource Discovery
//! for Applications Survivability in Distributed Real-Time Systems"*
//! (Choi, Rho, Bettati — IPDPS 2003): the **REALTOR** protocol, the four
//! baseline discovery schemes it is compared against, the discrete-event
//! simulation that produces the paper's Figures 5–8, and a thread-per-host
//! Agile Objects runtime that reproduces the Figure-9 cluster measurement.
//!
//! This crate is a facade re-exporting the workspace members:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`simcore`] | `realtor-simcore` | discrete-event engine, virtual time, RNG, statistics |
//! | [`net`] | `realtor-net` | topologies, routing, message-cost model, fault injection |
//! | [`core`] | `realtor-core` | REALTOR + baselines, Algorithms H and P, communities |
//! | [`node`] | `realtor-node` | tasks, work queues, EDF/CUS scheduling, admission |
//! | [`workload`] | `realtor-workload` | arrival processes, size distributions, traces, attacks |
//! | [`sim`] | `realtor-sim` | the Section-5 simulation harness and the Figure 5–8 tables |
//! | [`runner`] | `realtor-runner` | deterministic parallel sweep runner (grids, CI-width replication) |
//! | [`agile`] | `realtor-agile` | the Section-6 thread-per-host cluster runtime |
//!
//! ## Quickstart
//!
//! Run the paper's experiment at one operating point:
//!
//! ```
//! use realtor::core::ProtocolKind;
//! use realtor::sim::{run_scenario, Scenario};
//!
//! // 5x5 mesh, 100-second queues, Poisson(6.0) arrivals of exponential
//! // (mean 5 s) tasks, 200 simulated seconds, seed 1.
//! let scenario = Scenario::paper(ProtocolKind::Realtor, 6.0, 200, 1);
//! let result = run_scenario(&scenario);
//! assert!(result.offered > 0);
//! assert!(result.admission_probability() > 0.8);
//! ```
//!
//! See `examples/` for runnable end-to-end programs and the `experiments`
//! binary for the full figure reproduction.

pub use realtor_agile as agile;
pub use realtor_core as core;
pub use realtor_net as net;
pub use realtor_node as node;
pub use realtor_runner as runner;
pub use realtor_sim as sim;
pub use realtor_simcore as simcore;
pub use realtor_workload as workload;
