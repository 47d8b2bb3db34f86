//! # realtor-core — the REALTOR resource-discovery protocol
//!
//! Faithful implementation of the protocol proposed in *"Dynamic Resource
//! Discovery for Applications Survivability in Distributed Real-Time
//! Systems"* (Choi, Rho, Bettati — IPDPS 2003), together with the four
//! baselines the paper compares against. All five are presets of one state
//! machine, [`discovery`], selected by [`ProtocolKind`]:
//!
//! | label | kind | pull | push | membership |
//! |---|---|---|---|---|
//! | `Pull-.9`     | pure PULL     | unlimited | off | off |
//! | `Push-1`      | pure PUSH     | off | periodic | off |
//! | `Push-.9`     | adaptive PUSH | off | on crossing | off |
//! | `Pull-100`    | adaptive PULL | adaptive | off | off |
//! | `REALTOR-100` | combined      | adaptive | off | on |
//!
//! Building blocks:
//! * [`help`] — Algorithm H, the adaptive HELP-interval controller,
//! * [`pledge`] — Algorithm P and the organizer's availability store,
//! * [`community`] — soft-state community membership,
//! * [`failure`] — timeout-based failure detection over protocol traffic,
//! * [`message`] — the HELP/PLEDGE/ADVERT wire types,
//! * [`protocol`] — the event-driven [`DiscoveryProtocol`] trait that lets
//!   the same protocol code run under the discrete-event simulator
//!   (`realtor-sim`) and the thread-per-host runtime (`realtor-agile`),
//! * [`factory`] — [`ProtocolKind`] selection and the preset table,
//! * [`resources`] — the multi-resource extension (paper footnote 3),
//! * [`inter_community`] — the inter-neighbor-group extension (paper §7).

#![warn(missing_docs)]

pub mod community;
pub mod config;
pub mod discovery;
pub mod factory;
pub mod failure;
pub mod help;
pub mod inter_community;
pub mod message;
pub mod pledge;
pub mod protocol;
pub mod resources;

pub use config::{CandidatePolicy, ProtocolConfig};
pub use factory::ProtocolKind;
pub use failure::{FailureDetector, FailureDetectorConfig, PeerState};
pub use message::{Advert, Help, Message, Pledge};
pub use protocol::{Action, Actions, DiscoveryProtocol, LocalView, TimerToken};
