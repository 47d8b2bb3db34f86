//! # realtor-sim — the Section-5 simulation harness
//!
//! Wires the discovery protocols (`realtor-core`), the host model
//! (`realtor-node`), the overlay network (`realtor-net`) and the workload
//! (`realtor-workload`) into the discrete-event experiments of the paper:
//!
//! * [`config`] — the [`Scenario`] describing one run (the paper's defaults:
//!   5×5 mesh, 100-second queues, Poisson(λ) arrivals of exponential(5 s)
//!   tasks, one-shot migration),
//! * [`world`] — the event loop: arrivals, flood/unicast delivery with
//!   per-hop latency, timers, queue-drain threshold crossings, attacks,
//! * [`metrics`] — the Figure 5–8 quantities and the λ × protocol
//!   [`Figure`] tables that plot them.
//!
//! Sweeps over many scenarios run on the grid runner (`realtor-runner`).

#![warn(missing_docs)]

pub mod config;
pub mod metrics;
pub mod world;

pub use config::{AdversaryConfig, ChaosConfig, CostChoice, RecoveryConfig, Scenario};
pub use metrics::{figure_table, Figure, SimResult, WindowStat};
pub use world::{
    run_scenario, run_scenario_profiled, run_scenario_traced, run_scenario_traced_profiled,
    run_scenario_with, RunProfile, World,
};
