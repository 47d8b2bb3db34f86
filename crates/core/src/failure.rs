//! Timeout-based failure detection over existing protocol traffic.
//!
//! The paper's survivability story assumes nodes *notice* that a peer died:
//! an organizer whose HELP refreshes stop arriving will eventually be
//! abandoned by its members, and an organizer stops counting on a member
//! whose PLEDGE updates go silent. Soft-state TTLs give that behaviour
//! passively, but passively means *slowly* — and nothing in the protocol
//! ever concludes "that node is dead" so nothing can trigger recovery.
//!
//! [`FailureDetector`] closes that gap without any extra wire traffic: every
//! received message doubles as a heartbeat. A peer that has been heard from
//! at least once is *watched*; silence longer than
//! [`FailureDetectorConfig::suspect_after`] moves it to **suspect**, and a
//! further [`FailureDetectorConfig::confirm_after`] of silence **confirms**
//! the failure. Confirmation is reported exactly once per outage to the
//! owning protocol, which tears down the peer's soft state (explicit
//! community [`leave`](crate::community::MembershipTable::leave), candidate
//! eviction) and notifies the environment. Any later message from the peer
//! revives it — a *false suspicion* the environment can meter but that the
//! detector survives, exactly like the eventually-perfect detectors of the
//! distributed-agreement literature.
//!
//! The detector is a pure state machine driven by `record_heard` and
//! periodic `sweep` calls; it draws no randomness and iterates peers in id
//! order, so runs embedding it stay bit-for-bit deterministic.

use realtor_net::{IdMap, NodeId, Vacancy};
use realtor_simcore::{SimDuration, SimTime};

/// Tuning knobs for the timeout-based failure detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailureDetectorConfig {
    /// Silence longer than this moves a watched peer to *suspect*. Should be
    /// a small multiple of the HELP refresh / membership TTL scale so normal
    /// protocol quiescence is not instantly suspicious.
    pub suspect_after: SimDuration,
    /// A suspect that stays silent this much longer is *confirmed* dead.
    pub confirm_after: SimDuration,
    /// How often the owning protocol sweeps the watch list (timer period).
    pub sweep_interval: SimDuration,
}

impl Default for FailureDetectorConfig {
    /// Defaults sized against the paper's 10-second membership TTL: suspect
    /// after two missed refresh lifetimes, confirm one lifetime later.
    fn default() -> Self {
        FailureDetectorConfig {
            suspect_after: SimDuration::from_secs(20),
            confirm_after: SimDuration::from_secs(10),
            sweep_interval: SimDuration::from_secs(5),
        }
    }
}

impl FailureDetectorConfig {
    /// Validate cross-field invariants.
    pub fn validate(&self) {
        assert!(
            !self.suspect_after.is_zero(),
            "suspect_after must be positive"
        );
        assert!(
            !self.confirm_after.is_zero(),
            "confirm_after must be positive"
        );
        assert!(
            !self.sweep_interval.is_zero(),
            "sweep_interval must be positive"
        );
    }
}

/// Liveness verdict for one watched peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeerState {
    /// Heard from recently.
    Alive,
    /// Silent past `suspect_after`; not yet given up on.
    Suspect {
        /// When the suspicion started (the sweep that noticed the silence).
        since: SimTime,
    },
    /// Silent past `suspect_after + confirm_after`: declared dead. Stays
    /// confirmed (no re-reporting) until the peer is heard from again.
    Confirmed,
}

#[derive(Debug, Clone, Copy)]
struct PeerEntry {
    last_heard: SimTime,
    state: PeerState,
}

/// Nothing is heard at the end of time, so that marks an unwatched peer.
impl Vacancy for PeerEntry {
    const VACANT: PeerEntry = PeerEntry {
        last_heard: SimTime::MAX,
        state: PeerState::Alive,
    };

    #[inline]
    fn is_vacant(&self) -> bool {
        self.last_heard == SimTime::MAX
    }
}

/// State transitions observed by one detector sweep, in id order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SweepReport {
    /// Peers that moved Alive → Suspect during this sweep.
    pub newly_suspected: Vec<NodeId>,
    /// Peers whose failure this sweep confirmed (reported exactly once per
    /// outage).
    pub confirmed: Vec<NodeId>,
}

/// The per-node failure detector (one instance per protocol instance).
#[derive(Debug, Clone)]
pub struct FailureDetector {
    cfg: FailureDetectorConfig,
    /// Watched peers, indexed by node id. Id-indexed storage keeps the
    /// per-message [`FailureDetector::record_heard`] at O(1) and every
    /// sweep in id order (the verdict-ordering contract).
    peers: IdMap<PeerEntry>,
}

impl FailureDetector {
    /// An empty detector.
    pub fn new(cfg: FailureDetectorConfig) -> Self {
        Self::with_id_capacity(cfg, 0)
    }

    /// An empty detector for peer ids below `nodes`: the watch list is
    /// sized to them on the first message heard and never reallocates.
    pub(crate) fn with_id_capacity(cfg: FailureDetectorConfig, nodes: usize) -> Self {
        cfg.validate();
        FailureDetector {
            cfg,
            peers: IdMap::with_id_capacity(nodes),
        }
    }

    /// The configuration this detector runs with.
    pub fn config(&self) -> &FailureDetectorConfig {
        &self.cfg
    }

    /// A message from `peer` arrived at `now`: the peer is alive. Returns
    /// `true` when the peer was previously **confirmed** dead — i.e. the
    /// confirmation was a false suspicion (or the peer was restored) and the
    /// owner may want to re-establish soft state.
    pub fn record_heard(&mut self, peer: NodeId, now: SimTime) -> bool {
        // Runs once per received message: a single indexed upsert.
        let mut slot = self.peers.slot_mut(peer);
        match slot.get_mut() {
            Some(e) => {
                let was_confirmed = e.state == PeerState::Confirmed;
                e.last_heard = now;
                e.state = PeerState::Alive;
                was_confirmed
            }
            None => {
                slot.insert(PeerEntry {
                    last_heard: now,
                    state: PeerState::Alive,
                });
                false
            }
        }
    }

    /// Advance every watched peer's verdict to `now`. Returns the peers
    /// whose failure was confirmed **by this sweep**, in id order; each
    /// outage is reported exactly once.
    pub fn sweep(&mut self, now: SimTime) -> Vec<NodeId> {
        self.sweep_report(now).confirmed
    }

    /// Like [`FailureDetector::sweep`], but also reports the Alive → Suspect
    /// transitions this sweep caused (for tracing/diagnostics; the verdicts
    /// themselves are identical).
    pub fn sweep_report(&mut self, now: SimTime) -> SweepReport {
        let mut report = SweepReport::default();
        for (peer, entry) in self.peers.iter_mut() {
            let silence = now.since(entry.last_heard);
            match entry.state {
                PeerState::Alive => {
                    if silence > self.cfg.suspect_after {
                        entry.state = PeerState::Suspect { since: now };
                        report.newly_suspected.push(peer);
                    }
                }
                PeerState::Suspect { since } => {
                    if now.since(since) >= self.cfg.confirm_after {
                        entry.state = PeerState::Confirmed;
                        report.confirmed.push(peer);
                    }
                }
                PeerState::Confirmed => {}
            }
        }
        report
    }

    /// Current verdict for `peer` (`None` if never heard from).
    pub fn state(&self, peer: NodeId) -> Option<PeerState> {
        self.peers.get(peer).map(|e| e.state)
    }

    /// Is `peer` currently confirmed dead?
    pub fn is_confirmed(&self, peer: NodeId) -> bool {
        self.state(peer) == Some(PeerState::Confirmed)
    }

    /// Peers currently under suspicion (id order).
    pub fn suspects(&self) -> Vec<NodeId> {
        self.peers
            .iter()
            .filter(|(_, e)| matches!(e.state, PeerState::Suspect { .. }))
            .map(|(p, _)| p)
            .collect()
    }

    /// Number of watched peers.
    pub fn watched(&self) -> usize {
        self.peers.len()
    }

    /// Stop watching `peer` entirely (e.g. it left the system for good).
    pub fn forget(&mut self, peer: NodeId) {
        self.peers.remove(peer);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    fn cfg() -> FailureDetectorConfig {
        FailureDetectorConfig {
            suspect_after: SimDuration::from_secs(10),
            confirm_after: SimDuration::from_secs(5),
            sweep_interval: SimDuration::from_secs(1),
        }
    }

    #[test]
    fn silence_escalates_suspect_then_confirmed() {
        let mut d = FailureDetector::new(cfg());
        d.record_heard(7, at(0));
        assert_eq!(d.state(7), Some(PeerState::Alive));
        assert!(d.sweep(at(10)).is_empty(), "10s silence: not yet suspect");
        assert_eq!(d.state(7), Some(PeerState::Alive));
        assert!(d.sweep(at(11)).is_empty(), "suspicion is not confirmation");
        assert_eq!(d.state(7), Some(PeerState::Suspect { since: at(11) }));
        assert!(d.sweep(at(15)).is_empty(), "confirm window not elapsed");
        assert_eq!(d.sweep(at(16)), vec![7], "confirmed after 11+5");
        assert!(d.is_confirmed(7));
        assert_eq!(d.sweep(at(20)), Vec::<NodeId>::new(), "reported once");
    }

    #[test]
    fn traffic_resets_suspicion() {
        let mut d = FailureDetector::new(cfg());
        d.record_heard(3, at(0));
        d.sweep(at(11)); // suspect
        assert_eq!(d.suspects(), vec![3]);
        assert!(!d.record_heard(3, at(12)), "was not yet confirmed");
        assert_eq!(d.state(3), Some(PeerState::Alive));
        assert!(d.sweep(at(20)).is_empty(), "silence clock restarted");
    }

    #[test]
    fn hearing_a_confirmed_peer_reports_revival() {
        let mut d = FailureDetector::new(cfg());
        d.record_heard(5, at(0));
        d.sweep(at(11));
        assert_eq!(d.sweep(at(16)), vec![5]);
        assert!(d.record_heard(5, at(17)), "revival of a confirmed peer");
        assert_eq!(d.state(5), Some(PeerState::Alive));
        // A fresh outage is reported again.
        d.sweep(at(28));
        assert_eq!(d.sweep(at(33)), vec![5]);
    }

    #[test]
    fn unheard_peers_are_never_suspected() {
        let mut d = FailureDetector::new(cfg());
        assert!(d.sweep(at(100)).is_empty());
        assert_eq!(d.state(9), None);
        assert_eq!(d.watched(), 0);
    }

    #[test]
    fn confirmations_come_out_in_id_order() {
        let mut d = FailureDetector::new(cfg());
        d.record_heard(9, at(0));
        d.record_heard(2, at(0));
        d.record_heard(4, at(0));
        d.sweep(at(11));
        assert_eq!(d.sweep(at(16)), vec![2, 4, 9]);
    }

    #[test]
    fn sweep_report_exposes_suspicion_transitions() {
        let mut d = FailureDetector::new(cfg());
        d.record_heard(7, at(0));
        let r = d.sweep_report(at(11));
        assert_eq!(r.newly_suspected, vec![7]);
        assert!(r.confirmed.is_empty());
        // Staying suspect is not a transition.
        let r = d.sweep_report(at(12));
        assert!(r.newly_suspected.is_empty());
        assert!(r.confirmed.is_empty());
        let r = d.sweep_report(at(16));
        assert_eq!(r.confirmed, vec![7]);
    }

    #[test]
    fn forget_drops_the_watch() {
        let mut d = FailureDetector::new(cfg());
        d.record_heard(1, at(0));
        d.forget(1);
        assert_eq!(d.state(1), None);
        assert!(d.sweep(at(100)).is_empty());
    }

    #[test]
    #[should_panic(expected = "suspect_after")]
    fn zero_suspect_window_rejected() {
        FailureDetector::new(FailureDetectorConfig {
            suspect_after: SimDuration::ZERO,
            ..Default::default()
        });
    }
}
