//! Algorithm P — the pledge policy (paper Figure 3) — and the availability
//! store an organizer builds out of the reports it receives.
//!
//! ```text
//! Whenever a HELP message arrives do {
//!   If the host has used its resource less than a threshold level
//!     Reply PLEDGE;
//! }
//! Whenever the resource availability changes across the threshold level do {
//!   Reply PLEDGE;
//! }
//! ```

use crate::config::{CandidatePolicy, ProtocolConfig};
use realtor_net::{IdMap, NodeId, Vacancy};
use realtor_simcore::{SimDuration, SimTime};

/// Which way usage moved across the pledge threshold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Crossing {
    /// Usage rose from below the threshold to at-or-above it (host became
    /// busy — its earlier pledges should be withdrawn).
    BecameBusy,
    /// Usage fell from at-or-above the threshold to below it (host became
    /// available again).
    BecameFree,
}

/// The Algorithm P state machine for one host.
#[derive(Debug, Clone)]
pub struct PledgePolicy {
    threshold: f64,
    above: bool,
}

impl PledgePolicy {
    /// Start with the given initial occupancy.
    pub fn new(cfg: &ProtocolConfig, initial_frac: f64) -> Self {
        PledgePolicy {
            threshold: cfg.pledge_threshold,
            above: initial_frac >= cfg.pledge_threshold,
        }
    }

    /// The occupancy threshold.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Should this host answer an incoming HELP with a PLEDGE?
    /// ("If the host has used its resource less than a threshold level".)
    pub fn should_answer_help(&self, queue_frac: f64) -> bool {
        queue_frac < self.threshold
    }

    /// Feed a new occupancy; returns the crossing, if usage moved across the
    /// threshold since the previous observation. Exactly-once per crossing:
    /// repeated observations on the same side return `None`.
    pub fn observe(&mut self, queue_frac: f64) -> Option<Crossing> {
        let above = queue_frac >= self.threshold;
        if above == self.above {
            return None;
        }
        self.above = above;
        Some(if above {
            Crossing::BecameBusy
        } else {
            Crossing::BecameFree
        })
    }

    /// Whether the host currently sits at or above the threshold.
    pub fn is_above(&self) -> bool {
        self.above
    }
}

/// One availability report as remembered by an organizer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Report {
    /// Spare queue capacity in seconds of work, as last reported.
    pub headroom_secs: f64,
    /// When the report was received.
    pub at: SimTime,
    /// Sender-side timestamp of the newest *remote* report folded into this
    /// entry. Out-of-order or duplicated deliveries with an older `sent_at`
    /// are rejected by [`AvailabilityStore::record_report`]; local updates
    /// via [`AvailabilityStore::record`] leave this watermark untouched.
    pub sent_at: SimTime,
}

/// A report received at the end of time marks an empty store slot: no
/// delivery happens at [`SimTime::MAX`].
impl Vacancy for Report {
    const VACANT: Report = Report {
        headroom_secs: 0.0,
        at: SimTime::MAX,
        sent_at: SimTime::ZERO,
    };

    #[inline]
    fn is_vacant(&self) -> bool {
        self.at == SimTime::MAX
    }
}

/// The availability store: the organizer's "PLEDGE list" (for pull-based
/// protocols) or advertisement cache (for push-based ones).
#[derive(Debug, Clone, Default)]
pub struct AvailabilityStore {
    /// Reports indexed by node id: one upsert per received PLEDGE/ADVERT.
    /// Id-indexed iteration keeps candidate scans id-ordered (the
    /// tie-break rules in [`AvailabilityStore::pick`] assume a total,
    /// order-independent comparison, so this is belt and braces).
    reports: IdMap<Report>,
}

impl AvailabilityStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty store for node ids below `nodes`: it is sized to them on
    /// its first report and never reallocates.
    pub(crate) fn with_id_capacity(nodes: usize) -> Self {
        AvailabilityStore {
            reports: IdMap::with_id_capacity(nodes),
        }
    }

    /// Record (or overwrite) a *local* estimate for `node` — e.g. the
    /// organizer adjusting a destination's headroom after a migration. The
    /// entry's remote watermark is preserved so an in-flight older report
    /// still loses to newer remote information, and vice versa.
    pub fn record(&mut self, node: NodeId, headroom_secs: f64, at: SimTime) {
        let sent_at = self
            .reports
            .get(node)
            .map(|r| r.sent_at)
            .unwrap_or(SimTime::ZERO);
        self.reports.insert(
            node,
            Report {
                headroom_secs,
                at,
                sent_at,
            },
        );
    }

    /// Record a *remote* report (a PLEDGE or ADVERT) sent at `sent_at` and
    /// received at `received_at`.
    ///
    /// Idempotent under the unreliable channel: a delivery whose `sent_at`
    /// is older than the entry's watermark — a duplicate, or a report
    /// overtaken in flight by a newer one — is discarded. Returns whether
    /// the report was folded in (i.e. it carried fresh information).
    pub fn record_report(
        &mut self,
        node: NodeId,
        headroom_secs: f64,
        received_at: SimTime,
        sent_at: SimTime,
    ) -> bool {
        // Runs once per received pledge: a single indexed upsert.
        let mut slot = self.reports.slot_mut(node);
        if let Some(existing) = slot.get_mut() {
            if sent_at < existing.sent_at {
                return false;
            }
        }
        slot.insert(Report {
            headroom_secs,
            at: received_at,
            sent_at,
        });
        true
    }

    /// Remove a node's report entirely (e.g. it was observed dead).
    pub fn forget(&mut self, node: NodeId) {
        self.reports.remove(node);
    }

    /// Latest report for `node`.
    pub fn get(&self, node: NodeId) -> Option<Report> {
        self.reports.get(node).copied()
    }

    /// Number of stored reports.
    pub fn len(&self) -> usize {
        self.reports.len()
    }

    /// True when no reports are stored.
    pub fn is_empty(&self) -> bool {
        self.reports.is_empty()
    }

    /// Pick the best migration destination under `policy`.
    ///
    /// Only nodes whose report claims enough headroom for `need_secs`
    /// qualify; if none qualifies the caller gets `None` and — per the
    /// paper's one-shot migration semantics — rejects the task.
    pub fn pick(
        &self,
        now: SimTime,
        need_secs: f64,
        ttl: Option<SimDuration>,
        exclude: NodeId,
        policy: CandidatePolicy,
    ) -> Option<NodeId> {
        let eligible = self
            .iter_fresh(now, ttl)
            .filter(|&(n, r)| n != exclude && r.headroom_secs >= need_secs);
        match policy {
            CandidatePolicy::MostHeadroom => eligible
                .max_by(|a, b| {
                    a.1.headroom_secs
                        .partial_cmp(&b.1.headroom_secs)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(b.0.cmp(&a.0)) // prefer the LOWER id on ties
                })
                .map(|(n, _)| n),
            CandidatePolicy::Freshest => eligible
                .max_by(|a, b| {
                    a.1.at.cmp(&b.1.at).then_with(|| {
                        a.1.headroom_secs
                            .partial_cmp(&b.1.headroom_secs)
                            .unwrap_or(std::cmp::Ordering::Equal)
                            .then(b.0.cmp(&a.0))
                    })
                })
                .map(|(n, _)| n),
            CandidatePolicy::FirstFit => eligible.map(|(n, _)| n).min(),
        }
    }

    /// Iterate reports that are still fresh under `ttl`.
    fn iter_fresh(
        &self,
        now: SimTime,
        ttl: Option<SimDuration>,
    ) -> impl Iterator<Item = (NodeId, Report)> + '_ {
        self.reports.iter().filter_map(move |(n, &r)| match ttl {
            Some(ttl) if now.since(r.at) > ttl => None,
            _ => Some((n, r)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ProtocolConfig {
        ProtocolConfig::paper()
    }

    #[test]
    fn answers_help_only_below_threshold() {
        let p = PledgePolicy::new(&cfg(), 0.0);
        assert!(p.should_answer_help(0.5));
        assert!(p.should_answer_help(0.8999));
        assert!(!p.should_answer_help(0.9));
        assert!(!p.should_answer_help(1.0));
    }

    #[test]
    fn crossing_fires_exactly_once_per_transition() {
        let mut p = PledgePolicy::new(&cfg(), 0.0);
        assert_eq!(p.observe(0.5), None);
        assert_eq!(p.observe(0.95), Some(Crossing::BecameBusy));
        assert_eq!(p.observe(0.99), None); // still above
        assert_eq!(p.observe(0.3), Some(Crossing::BecameFree));
        assert_eq!(p.observe(0.2), None); // still below
        assert!(!p.is_above());
    }

    #[test]
    fn initial_state_respects_initial_occupancy() {
        let mut p = PledgePolicy::new(&cfg(), 0.95);
        assert!(p.is_above());
        assert_eq!(p.observe(0.95), None); // no spurious crossing at start
        assert_eq!(p.observe(0.1), Some(Crossing::BecameFree));
    }

    #[test]
    fn report_slots_stay_24_bytes() {
        // One slot per node per organizer: a new field widens N² slots.
        assert_eq!(std::mem::size_of::<Report>(), 24);
    }

    #[test]
    #[should_panic(expected = "vacant marker")]
    fn a_report_received_at_the_end_of_time_is_refused() {
        AvailabilityStore::new().record(1, 5.0, SimTime::MAX);
    }

    #[test]
    fn store_records_and_overwrites() {
        let mut s = AvailabilityStore::new();
        s.record(3, 10.0, SimTime::from_secs(1));
        s.record(3, 20.0, SimTime::from_secs(2));
        assert_eq!(s.len(), 1);
        let r = s.get(3).unwrap();
        assert_eq!(r.headroom_secs, 20.0);
        assert_eq!(r.at, SimTime::from_secs(2));
    }

    #[test]
    fn pick_most_headroom_with_tiebreak() {
        let mut s = AvailabilityStore::new();
        let t = SimTime::from_secs(1);
        s.record(5, 50.0, t);
        s.record(2, 50.0, t);
        s.record(7, 30.0, t);
        let best = s.pick(t, 10.0, None, usize::MAX, CandidatePolicy::MostHeadroom);
        assert_eq!(best, Some(2), "lowest id wins headroom ties");
    }

    #[test]
    fn pick_excludes_self_and_insufficient() {
        let mut s = AvailabilityStore::new();
        let t = SimTime::from_secs(1);
        s.record(1, 100.0, t);
        s.record(2, 5.0, t);
        assert_eq!(
            s.pick(t, 10.0, None, 1, CandidatePolicy::MostHeadroom),
            None,
            "only node 1 fits but it is excluded"
        );
        assert_eq!(
            s.pick(t, 10.0, None, 99, CandidatePolicy::MostHeadroom),
            Some(1)
        );
    }

    #[test]
    fn ttl_filters_stale_reports() {
        let mut s = AvailabilityStore::new();
        s.record(1, 100.0, SimTime::from_secs(0));
        s.record(2, 50.0, SimTime::from_secs(90));
        let now = SimTime::from_secs(100);
        let ttl = Some(SimDuration::from_secs(20));
        assert_eq!(
            s.pick(now, 10.0, ttl, usize::MAX, CandidatePolicy::MostHeadroom),
            Some(2),
            "node 1's report is 100 s old and must be ignored"
        );
        // Without a TTL the bigger (stale) report wins.
        assert_eq!(
            s.pick(now, 10.0, None, usize::MAX, CandidatePolicy::MostHeadroom),
            Some(1)
        );
    }

    #[test]
    fn pick_freshest() {
        let mut s = AvailabilityStore::new();
        s.record(1, 100.0, SimTime::from_secs(1));
        s.record(2, 10.0, SimTime::from_secs(5));
        assert_eq!(
            s.pick(
                SimTime::from_secs(6),
                5.0,
                None,
                usize::MAX,
                CandidatePolicy::Freshest
            ),
            Some(2)
        );
    }

    #[test]
    fn pick_first_fit() {
        let mut s = AvailabilityStore::new();
        let t = SimTime::from_secs(1);
        s.record(9, 100.0, t);
        s.record(4, 11.0, t);
        s.record(6, 50.0, t);
        assert_eq!(
            s.pick(t, 10.0, None, usize::MAX, CandidatePolicy::FirstFit),
            Some(4)
        );
    }

    #[test]
    fn forget_removes_node() {
        let mut s = AvailabilityStore::new();
        s.record(1, 1.0, SimTime::ZERO);
        s.forget(1);
        assert!(s.is_empty());
    }

    #[test]
    fn stale_remote_report_is_discarded() {
        let mut s = AvailabilityStore::new();
        // Report sent at t=5 arrives at t=6.
        assert!(s.record_report(1, 50.0, SimTime::from_secs(6), SimTime::from_secs(5)));
        // An older report (sent t=2) overtaken in flight arrives later: rejected.
        assert!(!s.record_report(1, 99.0, SimTime::from_secs(7), SimTime::from_secs(2)));
        assert_eq!(s.get(1).unwrap().headroom_secs, 50.0);
        // A duplicate of the t=5 report is idempotent on content.
        assert!(s.record_report(1, 50.0, SimTime::from_secs(8), SimTime::from_secs(5)));
        assert_eq!(s.get(1).unwrap().headroom_secs, 50.0);
        // A genuinely newer report wins.
        assert!(s.record_report(1, 10.0, SimTime::from_secs(9), SimTime::from_secs(9)));
        assert_eq!(s.get(1).unwrap().headroom_secs, 10.0);
    }

    #[test]
    fn local_record_preserves_remote_watermark() {
        let mut s = AvailabilityStore::new();
        assert!(s.record_report(1, 50.0, SimTime::from_secs(6), SimTime::from_secs(5)));
        // Local adjustment (e.g. after migrating work there) at t=10.
        s.record(1, 20.0, SimTime::from_secs(10));
        assert_eq!(s.get(1).unwrap().headroom_secs, 20.0);
        assert_eq!(s.get(1).unwrap().sent_at, SimTime::from_secs(5));
        // A report sent at t=7 (before the local update arrived remotely,
        // after the last remote report) still supersedes the local guess.
        assert!(s.record_report(1, 44.0, SimTime::from_secs(11), SimTime::from_secs(7)));
        assert_eq!(s.get(1).unwrap().headroom_secs, 44.0);
    }

    #[test]
    fn local_record_on_absent_entry_has_zero_watermark() {
        let mut s = AvailabilityStore::new();
        s.record(1, 20.0, SimTime::from_secs(10));
        // Any remote report supersedes a purely local entry.
        assert!(s.record_report(1, 44.0, SimTime::from_secs(11), SimTime::from_secs(1)));
        assert_eq!(s.get(1).unwrap().headroom_secs, 44.0);
    }
}
