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

use realtor_net::NodeId;
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

/// State transitions observed by one detector sweep, in id order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SweepReport {
    /// Peers that moved Alive → Suspect during this sweep.
    pub newly_suspected: Vec<NodeId>,
    /// Peers whose failure this sweep confirmed (reported exactly once per
    /// outage).
    pub confirmed: Vec<NodeId>,
}

/// A peer's verdict, one byte per id in [`FailureDetector::state`].
const UNWATCHED: u8 = 0;
const ALIVE: u8 = 1;
const SUSPECT: u8 = 2;
const CONFIRMED: u8 = 3;

/// The per-node failure detector (one instance per protocol instance).
///
/// Storage is two parallel arrays indexed by peer id, 9 B per id: a
/// verdict byte and the *quiet-until* instant, the last instant at which
/// the peer's verdict does not change. A sweep at `now` moves a peer on
/// exactly when `now > quiet_until`:
///
/// * alive: `last_heard + suspect_after`, so it turns suspect on the first
///   sweep whose silence exceeds `suspect_after` (strictly);
/// * suspect since `s`: `s + confirm_after - 1 tick`, so it is confirmed
///   on the first sweep at least `confirm_after` after `s`;
/// * confirmed or unwatched: [`SimTime::MAX`], which no instant exceeds.
///
/// The adds saturate, and a saturated sum means "never", as it did when
/// the silence was compared at each sweep. `earliest` is a lower bound on
/// every `quiet_until`, so a sweep at or before it returns at once; only a
/// sweep past it pays one linear pass, which fires the due peers in id
/// order and recomputes the bound. Hearing a peer only moves its instant
/// later, so [`FailureDetector::record_heard`] keeps the bound with a
/// `min` and stays O(1).
#[derive(Debug, Clone)]
pub struct FailureDetector {
    cfg: FailureDetectorConfig,
    /// Verdict per peer id.
    state: Vec<u8>,
    /// Last instant with no transition, per peer id (see the type doc).
    quiet_until: Vec<SimTime>,
    /// Lower bound on every entry of `quiet_until`.
    earliest: SimTime,
    /// Number of watched peers.
    watched: usize,
    /// Ids the arrays are sized to on the first message heard.
    nodes: usize,
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
            state: Vec::new(),
            quiet_until: Vec::new(),
            earliest: SimTime::MAX,
            watched: 0,
            nodes,
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
        // Runs once per received message: two indexed stores and a min.
        if peer >= self.state.len() {
            let len = if self.state.is_empty() {
                self.nodes.max(peer + 1)
            } else {
                peer + 1
            };
            self.state.reserve_exact(len - self.state.len());
            self.quiet_until.reserve_exact(len - self.quiet_until.len());
            self.state.resize(len, UNWATCHED);
            self.quiet_until.resize(len, SimTime::MAX);
        }
        let was = std::mem::replace(&mut self.state[peer], ALIVE);
        self.watched += usize::from(was == UNWATCHED);
        let quiet = now.saturating_add(self.cfg.suspect_after);
        self.quiet_until[peer] = quiet;
        self.earliest = self.earliest.min(quiet);
        was == CONFIRMED
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
        if now <= self.earliest {
            return report;
        }
        let suspect_quiet = now.saturating_add(self.suspect_span());
        let mut earliest = SimTime::MAX;
        for (peer, (state, quiet)) in self
            .state
            .iter_mut()
            .zip(self.quiet_until.iter_mut())
            .enumerate()
        {
            if now > *quiet {
                if *state == ALIVE {
                    *state = SUSPECT;
                    *quiet = suspect_quiet;
                    report.newly_suspected.push(peer);
                } else {
                    // Only alive and suspect peers have a finite instant.
                    debug_assert_eq!(*state, SUSPECT);
                    *state = CONFIRMED;
                    *quiet = SimTime::MAX;
                    report.confirmed.push(peer);
                }
            }
            earliest = earliest.min(*quiet);
        }
        self.earliest = earliest;
        report
    }

    /// How far a suspect's quiet-until instant lies past its suspicion:
    /// confirmation comes `confirm_after` after the suspecting sweep. The
    /// window is positive (validated), so this cannot underflow.
    fn suspect_span(&self) -> SimDuration {
        SimDuration::from_ticks(self.cfg.confirm_after.ticks() - 1)
    }

    /// Current verdict for `peer` (`None` if never heard from).
    pub fn state(&self, peer: NodeId) -> Option<PeerState> {
        match self.state.get(peer).copied().unwrap_or(UNWATCHED) {
            UNWATCHED => None,
            ALIVE => Some(PeerState::Alive),
            SUSPECT => {
                // Inverts the suspect instant set in `sweep_report`; exact
                // unless that sum saturated, ~584 years in.
                let since = self.quiet_until[peer].ticks() - self.suspect_span().ticks();
                Some(PeerState::Suspect {
                    since: SimTime::from_ticks(since),
                })
            }
            _ => Some(PeerState::Confirmed),
        }
    }

    /// Is `peer` currently confirmed dead?
    pub fn is_confirmed(&self, peer: NodeId) -> bool {
        self.state.get(peer) == Some(&CONFIRMED)
    }

    /// Peers currently under suspicion (id order).
    pub fn suspects(&self) -> Vec<NodeId> {
        (0..self.state.len())
            .filter(|&p| self.state[p] == SUSPECT)
            .collect()
    }

    /// Number of watched peers.
    pub fn watched(&self) -> usize {
        self.watched
    }

    /// Stop watching `peer` entirely (e.g. it left the system for good).
    pub fn forget(&mut self, peer: NodeId) {
        if let Some(state) = self.state.get_mut(peer) {
            if std::mem::replace(state, UNWATCHED) != UNWATCHED {
                self.watched -= 1;
                self.quiet_until[peer] = SimTime::MAX;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use realtor_net::{IdMap, Vacancy};
    use realtor_simcore::check::{forall, gen};
    use realtor_simcore::prop_assert_eq;

    /// The detector as it was before the packed arrays: one `IdMap` entry
    /// per watched peer, every sweep scanning them all and comparing the
    /// silence against the windows. Kept as the reference for the packed
    /// layout.
    struct ScanOracle {
        cfg: FailureDetectorConfig,
        peers: IdMap<Entry>,
    }

    #[derive(Debug, Clone, Copy)]
    struct Entry {
        last_heard: SimTime,
        state: PeerState,
    }

    impl Vacancy for Entry {
        const VACANT: Entry = Entry {
            last_heard: SimTime::MAX,
            state: PeerState::Alive,
        };

        fn is_vacant(&self) -> bool {
            self.last_heard == SimTime::MAX
        }
    }

    impl ScanOracle {
        fn record_heard(&mut self, peer: NodeId, now: SimTime) -> bool {
            let was = self.state(peer);
            self.peers.insert(
                peer,
                Entry {
                    last_heard: now,
                    state: PeerState::Alive,
                },
            );
            was == Some(PeerState::Confirmed)
        }

        fn sweep_report(&mut self, now: SimTime) -> SweepReport {
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

        fn state(&self, peer: NodeId) -> Option<PeerState> {
            self.peers.get(peer).map(|e| e.state)
        }

        fn suspects(&self) -> Vec<NodeId> {
            self.peers
                .iter()
                .filter(|(_, e)| matches!(e.state, PeerState::Suspect { .. }))
                .map(|(p, _)| p)
                .collect()
        }
    }

    /// Random scripts of hears, sweeps, forgets and queries at
    /// non-decreasing times give the same verdicts, transitions and
    /// counts from the packed detector as from the scan it replaced. The
    /// windows and gaps are a few ticks, so sweeps land exactly on
    /// `suspect_after` and `confirm_after`, and hears and sweeps often
    /// share an instant.
    #[test]
    fn packed_detector_matches_scan_oracle() {
        const PEERS: usize = 8;
        forall(
            "packed_detector_matches_scan_oracle",
            0xFD_0001,
            512,
            |r| {
                (
                    (
                        gen::u64_in(r, 0, 5),
                        gen::u64_in(r, 0, 5),
                        gen::u8_in(r, 0, 2),
                    ),
                    gen::vec(r, 0, 120, |r| {
                        (
                            gen::u8_in(r, 0, 6),
                            gen::usize_in(r, 0, PEERS),
                            gen::u64_in(r, 0, 4),
                        )
                    }),
                )
            },
            |((suspect, confirm, sized), script)| {
                // Windows of 1 to 5 ticks; shrinking toward 0 stays valid.
                let cfg = FailureDetectorConfig {
                    suspect_after: SimDuration::from_ticks(1 + suspect),
                    confirm_after: SimDuration::from_ticks(1 + confirm),
                    sweep_interval: SimDuration::from_ticks(1),
                };
                let capacity = if *sized == 1 { PEERS } else { 0 };
                let mut packed = FailureDetector::with_id_capacity(cfg, capacity);
                let mut oracle = ScanOracle {
                    cfg,
                    peers: IdMap::with_id_capacity(capacity),
                };
                let mut now = SimTime::ZERO;
                for (step, &(op, peer, gap)) in script.iter().enumerate() {
                    now = now.saturating_add(SimDuration::from_ticks(gap));
                    match op {
                        0 | 1 => prop_assert_eq!(
                            packed.record_heard(peer, now),
                            oracle.record_heard(peer, now),
                            "step {step}: heard {peer} at {now:?}"
                        ),
                        2 | 3 => prop_assert_eq!(
                            packed.sweep_report(now),
                            oracle.sweep_report(now),
                            "step {step}: sweep at {now:?}"
                        ),
                        4 => {
                            packed.forget(peer);
                            oracle.peers.remove(peer);
                        }
                        _ => {
                            prop_assert_eq!(packed.suspects(), oracle.suspects(), "step {step}");
                            prop_assert_eq!(packed.watched(), oracle.peers.len(), "step {step}");
                        }
                    }
                    for p in 0..PEERS {
                        prop_assert_eq!(packed.state(p), oracle.state(p), "step {step}: peer {p}");
                        prop_assert_eq!(
                            packed.is_confirmed(p),
                            oracle.state(p) == Some(PeerState::Confirmed),
                            "step {step}: peer {p}"
                        );
                    }
                }
                Ok(())
            },
        );
    }

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
