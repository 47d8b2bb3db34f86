//! # realtor-node — host model
//!
//! The per-host substrate beneath the discovery protocols:
//!
//! * [`queue`] — the fluid bounded work queue of the Section-5 simulation
//!   ("a single queue of 100 seconds"), with exact threshold-crossing times;
//!   both the simulator and the Agile Objects host admit through it,
//! * [`monitor`] — debounced usage monitoring with watermarks,
//! * [`recovery`] — per-task shadow log over the fluid queue, enabling
//!   crash recovery and evacuation,
//! * [`rt`] — single-CPU EDF/FIFO schedulability simulation validating the
//!   guaranteed-rate admission test.

#![warn(missing_docs)]

pub mod monitor;
pub mod queue;
pub mod recovery;
pub mod rt;

pub use monitor::{ResourceMonitor, UsageEvent};
pub use queue::{AdmitError, WorkQueue};
pub use recovery::{KillSplit, TaskEntry, TaskLog};
pub use rt::{DispatchPolicy, PeriodicTask, RtReport};
