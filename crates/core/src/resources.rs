//! Multi-resource discovery — the generalization the paper sketches in
//! footnote 3: *"In this simulation, we assume a single resource — CPU. More
//! general resource scenarios such as network bandwidth, current security
//! level, etc., would give similar results."*
//!
//! A [`ResourceVector`] carries CPU headroom (seconds of queued work, as in
//! the main experiments), network bandwidth headroom, and the host's current
//! security level. A pledge satisfies a demand when every component
//! suffices; candidates are ranked by the bottleneck (minimum component
//! ratio), which prevents a host with huge CPU headroom but no bandwidth
//! from looking attractive.

use realtor_net::NodeId;
use realtor_simcore::{SimDuration, SimTime};

/// Security levels, ordered: a host satisfies a demand for level L when its
/// own level is *at least* L.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum SecurityLevel {
    /// No assurances (e.g. a node in a zone under active attack).
    #[default]
    Open,
    /// Baseline hardening.
    Standard,
    /// Hardened hosts suitable for critical components.
    Hardened,
    /// Trusted enclave.
    Trusted,
}

/// A vector of resource availabilities (offer) or requirements (demand).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResourceVector {
    /// CPU queue headroom in seconds of work.
    pub cpu_secs: f64,
    /// Network bandwidth headroom in Mbit/s.
    pub bandwidth_mbps: f64,
    /// Security level of the host (offer) or the minimum acceptable level
    /// (demand).
    pub security: SecurityLevel,
}

impl ResourceVector {
    /// Does this offer satisfy `demand` in every dimension?
    pub fn satisfies(&self, demand: &ResourceVector) -> bool {
        self.cpu_secs >= demand.cpu_secs
            && self.bandwidth_mbps >= demand.bandwidth_mbps
            && self.security >= demand.security
    }

    /// Bottleneck score of this offer against `demand`: the minimum
    /// offer/demand ratio over the numeric dimensions (∞ when the demand is
    /// zero in both). Higher is better; `< 1` means unsatisfiable.
    pub fn bottleneck_score(&self, demand: &ResourceVector) -> f64 {
        if self.security < demand.security {
            return 0.0;
        }
        let mut score = f64::INFINITY;
        if demand.cpu_secs > 0.0 {
            score = score.min(self.cpu_secs / demand.cpu_secs);
        }
        if demand.bandwidth_mbps > 0.0 {
            score = score.min(self.bandwidth_mbps / demand.bandwidth_mbps);
        }
        score
    }

    /// Subtract a granted demand from this offer, saturating at zero
    /// (security level is a property, not a consumable).
    pub fn consume(&mut self, demand: &ResourceVector) {
        self.cpu_secs = (self.cpu_secs - demand.cpu_secs).max(0.0);
        self.bandwidth_mbps = (self.bandwidth_mbps - demand.bandwidth_mbps).max(0.0);
    }
}

/// One multi-resource report, as remembered by an organizer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultiReport {
    /// The reported availability vector.
    pub offer: ResourceVector,
    /// When the report was received.
    pub at: SimTime,
}

/// A multi-resource availability store — the vector-valued analogue of
/// [`crate::pledge::AvailabilityStore`].
#[derive(Debug, Clone, Default)]
pub struct MultiResourceStore {
    reports: std::collections::BTreeMap<NodeId, MultiReport>,
}

impl MultiResourceStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record (or overwrite) a report.
    pub fn record(&mut self, node: NodeId, offer: ResourceVector, at: SimTime) {
        self.reports.insert(node, MultiReport { offer, at });
    }

    /// Latest report for `node`.
    pub fn get(&self, node: NodeId) -> Option<MultiReport> {
        self.reports.get(&node).copied()
    }

    /// Number of stored reports.
    pub fn len(&self) -> usize {
        self.reports.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.reports.is_empty()
    }

    /// Best satisfying candidate by bottleneck score (lowest id on ties).
    pub fn pick(
        &self,
        now: SimTime,
        demand: &ResourceVector,
        ttl: Option<SimDuration>,
        exclude: NodeId,
    ) -> Option<NodeId> {
        self.reports
            .iter()
            .filter(|&(&n, r)| {
                n != exclude
                    && match ttl {
                        Some(ttl) => now.since(r.at) <= ttl,
                        None => true,
                    }
                    && r.offer.satisfies(demand)
            })
            .max_by(|a, b| {
                a.1.offer
                    .bottleneck_score(demand)
                    .partial_cmp(&b.1.offer.bottleneck_score(demand))
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(b.0.cmp(a.0))
            })
            .map(|(&n, _)| n)
    }

    /// Deduct a granted demand from the remembered offer of `node`.
    pub fn consume(&mut self, node: NodeId, demand: &ResourceVector) {
        if let Some(r) = self.reports.get_mut(&node) {
            r.offer.consume(demand);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn offer(cpu: f64, bw: f64, sec: SecurityLevel) -> ResourceVector {
        ResourceVector {
            cpu_secs: cpu,
            bandwidth_mbps: bw,
            security: sec,
        }
    }

    #[test]
    fn satisfaction_is_componentwise() {
        let o = offer(50.0, 100.0, SecurityLevel::Hardened);
        assert!(o.satisfies(&offer(50.0, 100.0, SecurityLevel::Hardened)));
        assert!(o.satisfies(&offer(10.0, 10.0, SecurityLevel::Open)));
        assert!(!o.satisfies(&offer(60.0, 10.0, SecurityLevel::Open)));
        assert!(!o.satisfies(&offer(10.0, 200.0, SecurityLevel::Open)));
        assert!(!o.satisfies(&offer(10.0, 10.0, SecurityLevel::Trusted)));
    }

    #[test]
    fn security_levels_are_ordered() {
        assert!(SecurityLevel::Trusted > SecurityLevel::Hardened);
        assert!(SecurityLevel::Hardened > SecurityLevel::Standard);
        assert!(SecurityLevel::Standard > SecurityLevel::Open);
    }

    #[test]
    fn bottleneck_score_picks_weakest_dimension() {
        let o = offer(100.0, 10.0, SecurityLevel::Standard);
        let d = offer(10.0, 10.0, SecurityLevel::Open);
        assert_eq!(o.bottleneck_score(&d), 1.0); // bandwidth is the bottleneck
        let insufficient_sec = offer(1.0, 1.0, SecurityLevel::Trusted);
        assert_eq!(o.bottleneck_score(&insufficient_sec), 0.0);
        let free = offer(0.0, 0.0, SecurityLevel::Open);
        assert_eq!(o.bottleneck_score(&free), f64::INFINITY);
    }

    #[test]
    fn consume_saturates() {
        let mut o = offer(10.0, 5.0, SecurityLevel::Standard);
        o.consume(&offer(4.0, 20.0, SecurityLevel::Open));
        assert_eq!(o.cpu_secs, 6.0);
        assert_eq!(o.bandwidth_mbps, 0.0);
        assert_eq!(o.security, SecurityLevel::Standard);
    }

    #[test]
    fn store_picks_best_bottleneck() {
        let mut s = MultiResourceStore::new();
        let t = SimTime::from_secs(1);
        s.record(1, offer(100.0, 12.0, SecurityLevel::Standard), t);
        s.record(2, offer(40.0, 40.0, SecurityLevel::Standard), t);
        let d = offer(10.0, 10.0, SecurityLevel::Standard);
        // node 1 bottleneck: 1.2 (bw); node 2 bottleneck: 4.0 (cpu & bw)
        assert_eq!(s.pick(t, &d, None, usize::MAX), Some(2));
    }

    #[test]
    fn store_respects_security_and_ttl() {
        let mut s = MultiResourceStore::new();
        s.record(
            1,
            offer(100.0, 100.0, SecurityLevel::Open),
            SimTime::from_secs(1),
        );
        s.record(
            2,
            offer(100.0, 100.0, SecurityLevel::Trusted),
            SimTime::from_secs(1),
        );
        let d = offer(10.0, 10.0, SecurityLevel::Hardened);
        let now = SimTime::from_secs(2);
        assert_eq!(s.pick(now, &d, None, usize::MAX), Some(2));
        // TTL of 0.5 s makes both reports stale at t=2.
        assert_eq!(
            s.pick(now, &d, Some(SimDuration::from_millis(500)), usize::MAX),
            None
        );
    }

    #[test]
    fn store_consume_updates_offer() {
        let mut s = MultiResourceStore::new();
        let t = SimTime::from_secs(1);
        s.record(1, offer(20.0, 20.0, SecurityLevel::Standard), t);
        s.consume(1, &offer(15.0, 0.0, SecurityLevel::Open));
        let d = offer(10.0, 10.0, SecurityLevel::Open);
        assert_eq!(s.pick(t, &d, None, usize::MAX), None);
        assert_eq!(s.get(1).unwrap().offer.cpu_secs, 5.0);
    }
}
