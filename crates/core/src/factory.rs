//! Protocol selection and construction.

use crate::config::ProtocolConfig;
use crate::discovery::{Discovery, Push, Settings};
use crate::help::HelpMode;
use crate::protocol::DiscoveryProtocol;
use realtor_net::NodeId;
use std::sync::Arc;

/// The five protocols compared in the paper's Figures 5–8: presets of the
/// one [`crate::discovery`] state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProtocolKind {
    /// `Pull-.9` — pure PULL.
    PurePull,
    /// `Push-1` — pure PUSH with a periodic interval.
    PurePush,
    /// `Push-.9` — adaptive PUSH on threshold crossings.
    AdaptivePush,
    /// `Pull-100` — adaptive PULL with `Upper_limit` 100.
    AdaptivePull,
    /// `REALTOR-100` — the paper's combined protocol.
    Realtor,
}

// Enables ProtocolKind inside `forall` tuple inputs; a protocol choice has
// no simpler form, so it never shrinks.
impl realtor_simcore::check::Shrink for ProtocolKind {}

impl ProtocolKind {
    /// All five kinds in the paper's legend order.
    pub const ALL: [ProtocolKind; 5] = [
        ProtocolKind::PurePull,
        ProtocolKind::PurePush,
        ProtocolKind::AdaptivePush,
        ProtocolKind::AdaptivePull,
        ProtocolKind::Realtor,
    ];

    /// The paper's curve label for this protocol.
    pub fn label(self) -> &'static str {
        self.preset().0
    }

    /// The preset table: each protocol's label and machine settings.
    pub(crate) fn preset(self) -> (&'static str, Settings) {
        let (label, pull, push, membership) = match self {
            ProtocolKind::PurePull => ("Pull-.9", Some(HelpMode::Unlimited), None, false),
            ProtocolKind::PurePush => ("Push-1", None, Some(Push::Periodic), false),
            ProtocolKind::AdaptivePush => ("Push-.9", None, Some(Push::OnCrossing), false),
            ProtocolKind::AdaptivePull => ("Pull-100", Some(HelpMode::Adaptive), None, false),
            ProtocolKind::Realtor => ("REALTOR-100", Some(HelpMode::Adaptive), None, true),
        };
        let settings = Settings {
            pull,
            push,
            membership,
        };
        (label, settings)
    }

    /// Parse a label or shorthand name (case-insensitive).
    pub fn parse(s: &str) -> Option<ProtocolKind> {
        match s.to_ascii_lowercase().as_str() {
            "pull-.9" | "pure-pull" | "purepull" | "pull" => Some(ProtocolKind::PurePull),
            "push-1" | "pure-push" | "purepush" | "push" => Some(ProtocolKind::PurePush),
            "push-.9" | "adaptive-push" | "adaptivepush" => Some(ProtocolKind::AdaptivePush),
            "pull-100" | "adaptive-pull" | "adaptivepull" => Some(ProtocolKind::AdaptivePull),
            "realtor-100" | "realtor" => Some(ProtocolKind::Realtor),
            _ => None,
        }
    }

    /// Build an instance of this protocol for `node`.
    ///
    /// `peers` lists the world's nodes: its length sizes the dense
    /// per-node tables once (the pledge store, the organizer's own
    /// community and the failure detector; see `realtor_net::IdMap`).
    /// Community memberships grow with the communities a node is in
    /// instead (see [`crate::community::MembershipTable`]). Only adaptive
    /// push keeps the
    /// list itself, together with `capacity_secs`, each peer's queue
    /// capacity (its "silence means unchanged" semantics needs an
    /// optimistic prior — see [`crate::discovery`]). Pass an
    /// `Arc<[NodeId]>` built once per world to share one list among all
    /// instances; any other list is copied into each one.
    pub fn build<P>(
        self,
        node: NodeId,
        cfg: ProtocolConfig,
        peers: &P,
        capacity_secs: f64,
    ) -> Box<dyn DiscoveryProtocol>
    where
        P: AsRef<[NodeId]> + Clone + Into<Arc<[NodeId]>>,
    {
        Box::new(Discovery::new(self, node, cfg, peers, capacity_secs))
    }
}

impl std::fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_round_trip_through_parse() {
        for kind in ProtocolKind::ALL {
            assert_eq!(ProtocolKind::parse(kind.label()), Some(kind));
        }
        assert_eq!(ProtocolKind::parse("realtor"), Some(ProtocolKind::Realtor));
        assert_eq!(ProtocolKind::parse("bogus"), None);
    }

    #[test]
    fn build_produces_named_instances() {
        let peers: Vec<usize> = (0..5).collect();
        for kind in ProtocolKind::ALL {
            let p = kind.build(0, ProtocolConfig::paper(), &peers, 100.0);
            assert_eq!(p.name(), kind.label());
            assert_eq!(p.node(), 0);
        }
    }
}
