//! # realtor-agile — the Agile Objects runtime
//!
//! A thread-per-host implementation of the infrastructure the paper measures
//! in Section 6 (a 20-node Linux cluster running migratable Java
//! components), built on in-process transports with the same delivery
//! semantics as the paper's stack:
//!
//! * [`transport`] — UDP-like datagrams (PLEDGE), an IP-multicast-like
//!   broadcast to every other host (HELP), TCP-like reliable request channels (admission negotiation),
//!   with a seeded loss model and bounded, shed-on-full queues; each host
//!   blocks on one inbox that carries its datagrams and control messages,
//! * [`codec`] — the explicit binary wire format of discovery datagrams and
//!   admission negotiation,
//! * [`clock`] — scaled wall-clock time (1 simulated second = `1/scale`
//!   wall seconds; scale 1.0 is true real time),
//! * [`naming`] — the versioned Agile Object naming service,
//! * [`component`] — timer-style migratable components ("the only state of
//!   the task is the current value of un-expired time"),
//! * [`host`] — the per-host runtime: REALTOR agent + admission-control
//!   thread + migration subsystem (speculative or two-phase),
//! * [`retry`] — bounded, seeded, deadline-aware retry for the reliable
//!   exchanges,
//! * [`supervisor`] — the watchdog policy: crash/wedge detection, amnesiac
//!   restart, and supervised recovery of interrupted work under the
//!   `interrupted == recovered + destroyed` ledger identity,
//! * [`fault`] — live fault injection: replay simulator `AttackScenario`s
//!   (kill/restore waves) against the running cluster,
//! * [`cluster`] — orchestration, supervision, and the Figure-9 measurement.
//!
//! The discovery protocols themselves are the *same code* that runs under
//! the discrete-event simulator: `realtor_core::DiscoveryProtocol` instances
//! driven by real threads, real channels and a real (scaled) clock.

#![warn(missing_docs)]

pub mod clock;
pub mod cluster;
pub mod codec;
pub mod component;
pub mod fault;
pub mod host;
pub mod naming;
pub mod retry;
pub mod supervisor;
pub mod transport;

pub use clock::Clock;
pub use cluster::{Cluster, ClusterConfig, ClusterReport, HostExit, HostExitStatus};
pub use component::AgileComponent;
pub use fault::{FaultCommand, FaultOp, FaultPlan, FaultStyle};
pub use host::{HostConfig, HostStats, SubmitOutcome};
pub use naming::{ComponentId, NameService};
pub use retry::RetryPolicy;
pub use supervisor::{ClusterLedger, SupervisorConfig};
pub use transport::{Endpoint, HostId, Network, RequestError};
