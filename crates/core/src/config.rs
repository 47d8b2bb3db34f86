//! Protocol configuration.
//!
//! Defaults reproduce the parameter values published in Section 5 of the
//! paper: thresholds of 0.9 for both Algorithm H and Algorithm P, a 1-second
//! pure-push dissemination interval, and an adaptive-pull time window /
//! `Upper_limit` of 100 time units.

use crate::failure::FailureDetectorConfig;
use realtor_simcore::SimDuration;

/// How an organizer ranks migration candidates from its availability store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CandidatePolicy {
    /// The node reporting the most spare capacity (ties broken by lowest id);
    /// this is the paper's "best candidate destination node".
    #[default]
    MostHeadroom,
    /// The node whose report is freshest (ties by headroom, then id).
    Freshest,
    /// The lowest-id node whose report satisfies the demand — a cheap
    /// first-fit used by ablations.
    FirstFit,
}

/// Tunable parameters shared by all five protocols.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProtocolConfig {
    /// Algorithm H queue-occupancy threshold: a task arrival only triggers
    /// HELP when occupancy (including the new task) exceeds this fraction.
    /// The paper's `Pull-.9` / `REALTOR` use 0.9.
    pub help_threshold: f64,
    /// Algorithm P queue-occupancy threshold: a host pledges only while its
    /// occupancy is below this fraction, and (REALTOR / adaptive push) emits
    /// an update whenever occupancy crosses it in either direction.
    pub pledge_threshold: f64,
    /// Initial value of `HELP_interval`.
    pub initial_help_interval: SimDuration,
    /// Algorithm H penalty factor: on timeout, `interval += interval * alpha`.
    pub alpha: f64,
    /// Algorithm H reward factor: on success, `interval -= interval * beta`.
    pub beta: f64,
    /// Algorithm H `Upper_limit`: the interval never grows beyond this.
    pub upper_limit: SimDuration,
    /// How long after sending HELP the organizer waits for a PLEDGE before
    /// declaring a timeout (the paper's `set_timer` duration is unspecified;
    /// see DESIGN.md §5).
    pub pledge_wait: SimDuration,
    /// Pure-push dissemination period (the paper's `Push-1` uses 1 s).
    pub push_interval: SimDuration,
    /// Community-membership soft-state lifetime: a member stops sending
    /// unsolicited pledges to an organizer whose last HELP (refresh) is older
    /// than this.
    pub membership_ttl: SimDuration,
    /// Availability reports older than this are ignored when picking a
    /// migration candidate. `None` keeps the latest report forever.
    pub info_ttl: Option<SimDuration>,
    /// Candidate ranking policy.
    pub candidate_policy: CandidatePolicy,
    /// Optional timeout-based failure detection over protocol traffic
    /// (see [`crate::failure`]). `None` — the default, and the paper's
    /// configuration — relies purely on soft-state TTL expiry.
    pub failure_detector: Option<FailureDetectorConfig>,
}

impl Default for ProtocolConfig {
    fn default() -> Self {
        ProtocolConfig {
            help_threshold: 0.9,
            pledge_threshold: 0.9,
            initial_help_interval: SimDuration::from_secs(1),
            alpha: 0.5,
            beta: 0.5,
            upper_limit: SimDuration::from_secs(100),
            pledge_wait: SimDuration::from_secs(1),
            push_interval: SimDuration::from_secs(1),
            // Memberships are "valid only for the interval between two
            // consecutive refresh messages" (§4): they must expire on the
            // scale of a few HELP intervals, not the Upper_limit — a long
            // TTL makes every node a member of every community and REALTOR's
            // unsolicited updates degenerate into a flood.
            membership_ttl: SimDuration::from_secs(10),
            info_ttl: None,
            candidate_policy: CandidatePolicy::MostHeadroom,
            failure_detector: None,
        }
    }
}

impl ProtocolConfig {
    /// The parameter set used throughout the paper's Section 5.
    pub fn paper() -> Self {
        Self::default()
    }

    /// Builder-style setter for the Algorithm H threshold.
    pub fn with_help_threshold(mut self, v: f64) -> Self {
        assert!((0.0..=1.0).contains(&v));
        self.help_threshold = v;
        self
    }

    /// Builder-style setter for the Algorithm P threshold.
    pub fn with_pledge_threshold(mut self, v: f64) -> Self {
        assert!((0.0..=1.0).contains(&v));
        self.pledge_threshold = v;
        self
    }

    /// Builder-style setter for `alpha` (growth penalty).
    pub fn with_alpha(mut self, v: f64) -> Self {
        assert!(v >= 0.0);
        self.alpha = v;
        self
    }

    /// Builder-style setter for `beta` (shrink reward); must be `< 1`.
    pub fn with_beta(mut self, v: f64) -> Self {
        assert!((0.0..1.0).contains(&v), "beta must be in [0, 1)");
        self.beta = v;
        self
    }

    /// Builder-style setter for `Upper_limit`.
    pub fn with_upper_limit(mut self, v: SimDuration) -> Self {
        self.upper_limit = v;
        self
    }

    /// Builder-style setter for the candidate policy.
    pub fn with_candidate_policy(mut self, v: CandidatePolicy) -> Self {
        self.candidate_policy = v;
        self
    }

    /// Builder-style setter enabling the failure detector.
    pub fn with_failure_detector(mut self, v: FailureDetectorConfig) -> Self {
        self.failure_detector = Some(v);
        self
    }

    /// Validate cross-field invariants; called by the protocol factory.
    pub fn validate(&self) {
        assert!((0.0..=1.0).contains(&self.help_threshold));
        assert!((0.0..=1.0).contains(&self.pledge_threshold));
        assert!(self.alpha >= 0.0, "alpha must be non-negative");
        assert!(
            (0.0..1.0).contains(&self.beta),
            "beta must be in [0, 1) so the interval stays positive"
        );
        assert!(
            !self.initial_help_interval.is_zero(),
            "initial HELP interval must be positive"
        );
        assert!(
            self.upper_limit >= self.initial_help_interval,
            "Upper_limit below the initial interval would clamp immediately"
        );
        assert!(!self.push_interval.is_zero());
        if let Some(fd) = &self.failure_detector {
            fd.validate();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = ProtocolConfig::paper();
        assert_eq!(c.help_threshold, 0.9);
        assert_eq!(c.pledge_threshold, 0.9);
        assert_eq!(c.push_interval, SimDuration::from_secs(1));
        assert_eq!(c.upper_limit, SimDuration::from_secs(100));
        c.validate();
    }

    #[test]
    fn builders_apply() {
        let c = ProtocolConfig::paper()
            .with_help_threshold(0.8)
            .with_alpha(0.25)
            .with_beta(0.1)
            .with_upper_limit(SimDuration::from_secs(50))
            .with_candidate_policy(CandidatePolicy::Freshest);
        assert_eq!(c.help_threshold, 0.8);
        assert_eq!(c.alpha, 0.25);
        assert_eq!(c.beta, 0.1);
        assert_eq!(c.candidate_policy, CandidatePolicy::Freshest);
        c.validate();
    }

    #[test]
    #[should_panic(expected = "beta")]
    fn beta_of_one_rejected() {
        ProtocolConfig::paper().with_beta(1.0);
    }

    #[test]
    #[should_panic(expected = "Upper_limit")]
    fn upper_limit_below_initial_rejected() {
        ProtocolConfig::paper()
            .with_upper_limit(SimDuration::from_millis(10))
            .validate();
    }
}
