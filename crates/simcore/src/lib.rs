//! # realtor-simcore — discrete-event simulation substrate
//!
//! The foundation every Section-5 experiment of the REALTOR paper runs on:
//!
//! * [`time`] — integer virtual time ([`SimTime`], [`SimDuration`]),
//! * [`event`] — a deterministic future-event list: the ladder
//!   [`EventQueue`] plus the retained binary-heap oracle
//!   ([`event::HeapQueue`]),
//! * [`wheel`] — the hashed timer wheel backing the ladder queue's
//!   middle rung ([`wheel::TimerWheel`]),
//! * [`engine`] — the event loop ([`Engine`], [`Handler`], [`Context`]),
//! * [`rng`] — named deterministic random streams (in-tree xoshiro256++)
//!   and the samplers the paper's workload needs (exponential task lengths,
//!   Poisson arrivals),
//! * [`check`] — a seed-driven property-test harness (`forall` + shrinking)
//!   replacing the external `proptest` dependency,
//! * [`stats`] — Welford mean/variance, ratios, Jain fairness, and the
//!   mergeable HDR-style [`stats::LogHistogram`],
//! * [`metrics`] — point-in-time [`metrics::MetricsSnapshot`]s rendered in
//!   the Prometheus text exposition format for live observability,
//! * [`table`] — CSV/markdown result tables used by the experiment harness,
//! * [`pool`] — order-preserving parallel execution with an explicit
//!   worker count (the sweep runner's execution core),
//! * [`merge`] — grid-order streamed merging of per-cell CSV/JSONL chunks,
//! * [`plot`] — terminal ASCII line plots for the reproduced figures,
//! * [`json`] — the one JSON reader (no serde): RFC 8259 values parsed
//!   into a [`json::JsonValue`] tree, used to check and analyze traces,
//! * [`trace`] — deterministic structured tracing ([`Tracer`], typed
//!   [`trace::TraceEvent`]s, JSON-lines export) and the named counter/gauge
//!   registry; a no-op sink when disabled so golden runs stay bit-exact.
//!
//! The engine is deliberately minimal and fully deterministic: identical
//! seeds produce identical event orders (FIFO tie-breaking at equal
//! timestamps), which the workspace-level integration tests assert.
//!
//! ```
//! use realtor_simcore::prelude::*;
//!
//! struct Ping(u32);
//! impl Handler for Ping {
//!     type Event = ();
//!     fn handle(&mut self, _: (), ctx: &mut Context<'_, ()>) {
//!         self.0 += 1;
//!         if self.0 < 3 {
//!             ctx.schedule_in(SimDuration::from_secs(1), ());
//!         }
//!     }
//! }
//!
//! let mut engine = Engine::new();
//! engine.schedule_at(SimTime::ZERO, ());
//! let mut model = Ping(0);
//! engine.run_until(&mut model, SimTime::from_secs(100));
//! assert_eq!(model.0, 3);
//! assert_eq!(engine.now(), SimTime::from_secs(2));
//! ```

#![warn(missing_docs)]

pub mod check;
pub mod engine;
pub mod event;
pub mod json;
pub mod merge;
pub mod metrics;
pub mod plot;
pub mod pool;
pub mod rng;
pub mod stats;
pub mod table;
pub mod time;
pub mod trace;
pub mod wheel;

pub use engine::{Context, Engine, Handler, RunOutcome};
pub use event::{EventQueue, HeapQueue};
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
pub use trace::Tracer;

/// Convenient glob import for simulation models.
pub mod prelude {
    pub use crate::check::{forall, gen, PropResult};
    pub use crate::engine::{Context, Engine, Handler, RunOutcome};
    pub use crate::event::EventQueue;
    pub use crate::rng::SimRng;
    pub use crate::stats::{LogHistogram, Welford};
    pub use crate::table::{Cell, Table};
    pub use crate::time::{SimDuration, SimTime};
    pub use crate::trace::{TraceEvent, TraceKind, TraceValue, Tracer};
}
