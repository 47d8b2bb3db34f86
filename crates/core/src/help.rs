//! Algorithm H — the adaptive HELP-interval controller (paper Figure 2).
//!
//! ```text
//! Whenever a task arrives do {
//!   If resource usage would exceed a threshold level {
//!     If ((T_current - T_sent) > HELP_interval) { send HELP; set_timer; }
//!   }
//! }
//! Timeout do {
//!   If ((HELP_interval + HELP_interval * alpha) < Upper_limit)
//!     HELP_interval += HELP_interval * alpha;
//! }
//! Whenever a PLEDGE message arrives do {
//!   If the corresponding timer is not expired reset_timer;
//!   Update corresponding PLEDGE list;
//!   If a node is found for migration {
//!     If ((HELP_interval - HELP_interval * beta) > 0)
//!       HELP_interval -= HELP_interval * beta;
//!   }
//! }
//! ```
//!
//! The controller is a pure state machine: the owning protocol feeds it
//! arrivals, timeouts and pledge outcomes and reads back whether to flood a
//! HELP. Timers are correlated by generation number so that a stale timeout
//! (one whose timer was already reset by a PLEDGE) is ignored.

use crate::config::ProtocolConfig;
use realtor_simcore::{SimDuration, SimTime};

/// Interval-adaptation policy variants used by the different protocols.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HelpMode {
    /// Full Algorithm H: multiplicative increase on timeout (bounded by
    /// `Upper_limit`), multiplicative decrease on success. REALTOR and the
    /// adaptive-PULL baseline use this.
    Adaptive,
    /// The pure-PULL baseline: no interval gating at all — every qualifying
    /// arrival floods ("generates HELP messages unlimitedly").
    Unlimited,
}

/// The Algorithm H controller.
///
/// ```
/// use realtor_core::help::{HelpController, HelpDecision, HelpMode};
/// use realtor_core::ProtocolConfig;
/// use realtor_simcore::SimTime;
///
/// let mut h = HelpController::new(&ProtocolConfig::paper(), HelpMode::Adaptive);
/// // A task arrival that overflows the queue (occupancy preview 1.0)
/// // opens an urgent HELP round:
/// let HelpDecision::SendHelp { timer_gen, .. } =
///     h.on_task_arrival(SimTime::ZERO, 1.0) else { panic!() };
/// // Nobody pledges in time: the timeout backs the interval off by alpha.
/// assert!(h.on_timeout(timer_gen));
/// assert!(h.interval() > ProtocolConfig::paper().initial_help_interval);
/// ```
#[derive(Debug, Clone)]
pub struct HelpController {
    mode: HelpMode,
    threshold: f64,
    interval: SimDuration,
    initial_interval: SimDuration,
    upper_limit: SimDuration,
    alpha: f64,
    beta: f64,
    pledge_wait: SimDuration,
    last_sent: Option<SimTime>,
    /// Generation of the currently armed timer; `None` when no timer armed.
    armed: Option<u64>,
    /// Whether the open round was triggered by an actual queue overflow (a
    /// task that needs migration) rather than a precautionary threshold
    /// excursion. Only urgent rounds can earn the shrink reward: the paper's
    /// "a node is found for migration" refers to a real migration demand,
    /// and under overload "HELP_interval is kept at maximum due to the
    /// repeated failure of finding available resources".
    round_urgent: bool,
    next_gen: u64,
    helps_sent: u64,
    timeouts: u64,
    successes: u64,
}

/// What the controller asks its owner to do after a task arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HelpDecision {
    /// Flood a HELP now and arm a pledge-wait timer with this generation.
    SendHelp {
        /// Timer correlation token to hand back via [`HelpController::on_timeout`].
        timer_gen: u64,
        /// Delay after which the timeout fires unless a pledge resets it.
        wait: SimDuration,
    },
    /// Do nothing (below threshold, or interval not yet elapsed).
    Hold,
}

impl HelpController {
    /// Build from a protocol configuration.
    pub fn new(cfg: &ProtocolConfig, mode: HelpMode) -> Self {
        HelpController {
            mode,
            threshold: cfg.help_threshold,
            interval: cfg.initial_help_interval,
            initial_interval: cfg.initial_help_interval,
            upper_limit: cfg.upper_limit,
            alpha: cfg.alpha,
            beta: cfg.beta,
            pledge_wait: cfg.pledge_wait,
            last_sent: None,
            armed: None,
            round_urgent: false,
            next_gen: 0,
            helps_sent: 0,
            timeouts: 0,
            successes: 0,
        }
    }

    /// The current `HELP_interval`.
    pub fn interval(&self) -> SimDuration {
        self.interval
    }

    /// The occupancy threshold above which arrivals solicit help.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Lifetime counts: (HELPs sent, timeouts, successes).
    pub fn counters(&self) -> (u64, u64, u64) {
        (self.helps_sent, self.timeouts, self.successes)
    }

    /// A task arrived; `queue_frac` is occupancy *including* the new task
    /// ("If resource usage would exceed a threshold level").
    pub fn on_task_arrival(&mut self, now: SimTime, queue_frac: f64) -> HelpDecision {
        if queue_frac <= self.threshold {
            return HelpDecision::Hold;
        }
        let due = match self.mode {
            HelpMode::Unlimited => true,
            HelpMode::Adaptive => match self.last_sent {
                None => true,
                Some(sent) => now.since(sent) > self.interval,
            },
        };
        if !due {
            return HelpDecision::Hold;
        }
        self.last_sent = Some(now);
        self.helps_sent += 1;
        let gen = self.next_gen;
        self.next_gen += 1;
        self.armed = Some(gen);
        // An arrival that fills the queue completely cannot be admitted
        // locally: this round solicits for a concrete migration.
        self.round_urgent = queue_frac >= 1.0 - 1e-9;
        HelpDecision::SendHelp {
            timer_gen: gen,
            wait: self.pledge_wait,
        }
    }

    /// A pledge-wait timer fired. Returns `true` when the timeout was live
    /// (not already reset by a pledge) and the interval was penalized.
    pub fn on_timeout(&mut self, timer_gen: u64) -> bool {
        if self.armed != Some(timer_gen) {
            return false; // stale timer: a PLEDGE already reset it
        }
        self.armed = None;
        self.timeouts += 1;
        // Paper: grow only while the grown value stays under Upper_limit.
        self.grow_interval();
        true
    }

    /// A PLEDGE arrived. `found_candidate` is the paper's "a node is found
    /// for migration": the pledge made a viable destination known.
    ///
    /// The reward applies at most once per outstanding HELP round: the paper
    /// guards the whole handler with "if the corresponding timer is not
    /// expired reset_timer", so pledges arriving outside a round (duplicate
    /// answers, REALTOR's unsolicited updates) must not keep shrinking the
    /// interval — without this guard the ~N pledges answering one HELP
    /// collapse the interval to zero and adaptive pull degenerates into
    /// unlimited pull.
    pub fn on_pledge(&mut self, found_candidate: bool) {
        if self.armed.take().is_none() {
            return; // no outstanding HELP round
        }
        if found_candidate && self.round_urgent {
            self.successes += 1;
            if self.mode == HelpMode::Adaptive {
                let shrunk = self
                    .interval
                    .saturating_sub(self.interval.mul_f64(self.beta));
                // "If ((HELP_interval - HELP_interval*beta) > 0)"
                if !shrunk.is_zero() {
                    self.interval = shrunk;
                }
            }
        } else {
            // The round closed without locating a migration destination — a
            // precautionary solicit, or a pledge too small to host the task.
            // Count it as a failure exactly like a timeout, so that
            // discovery activity backs off whenever it is not paying for
            // itself ("the idea is to avoid unnecessary discovery activity"
            // — §4; see DESIGN.md §5 for the interpretation).
            self.grow_interval();
            self.timeouts += 1;
        }
        self.round_urgent = false;
    }

    fn grow_interval(&mut self) {
        if self.mode == HelpMode::Adaptive {
            let grown = self.interval + self.interval.mul_f64(self.alpha);
            if grown < self.upper_limit {
                self.interval = grown;
            } else {
                self.interval = self.upper_limit;
            }
        }
    }

    /// Reset the interval to its initial value (used when a node recovers
    /// from an attack and rejoins).
    pub fn reset(&mut self) {
        self.interval = self.initial_interval;
        self.last_sent = None;
        self.armed = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ProtocolConfig {
        ProtocolConfig::paper()
    }

    fn arrive(h: &mut HelpController, t: f64, frac: f64) -> HelpDecision {
        h.on_task_arrival(SimTime::from_secs_f64(t), frac)
    }

    #[test]
    fn below_threshold_never_sends() {
        let mut h = HelpController::new(&cfg(), HelpMode::Adaptive);
        for i in 0..10 {
            assert_eq!(arrive(&mut h, i as f64, 0.5), HelpDecision::Hold);
        }
        assert_eq!(h.counters().0, 0);
    }

    #[test]
    fn first_qualifying_arrival_sends() {
        let mut h = HelpController::new(&cfg(), HelpMode::Adaptive);
        match arrive(&mut h, 0.0, 0.95) {
            HelpDecision::SendHelp { wait, .. } => assert_eq!(wait, SimDuration::from_secs(1)),
            other => panic!("expected SendHelp, got {other:?}"),
        }
    }

    #[test]
    fn interval_gates_resends() {
        let mut h = HelpController::new(&cfg(), HelpMode::Adaptive);
        assert!(matches!(
            arrive(&mut h, 0.0, 0.95),
            HelpDecision::SendHelp { .. }
        ));
        // interval is 1s: arrivals within 1s hold
        assert_eq!(arrive(&mut h, 0.5, 0.95), HelpDecision::Hold);
        assert_eq!(arrive(&mut h, 1.0, 0.95), HelpDecision::Hold); // strictly greater required
        assert!(matches!(
            arrive(&mut h, 1.01, 0.95),
            HelpDecision::SendHelp { .. }
        ));
    }

    #[test]
    fn timeout_grows_interval_to_upper_limit() {
        let mut h = HelpController::new(&cfg(), HelpMode::Adaptive);
        let mut t = 0.0;
        // Repeated send/timeout cycles: interval 1 * 1.5^k, clamped at 100.
        for _ in 0..30 {
            if let HelpDecision::SendHelp { timer_gen, .. } = arrive(&mut h, t, 0.95) {
                assert!(h.on_timeout(timer_gen));
            }
            t += 200.0; // always past the interval
        }
        assert_eq!(h.interval(), SimDuration::from_secs(100));
    }

    #[test]
    fn success_shrinks_interval_once_per_round() {
        let mut h = HelpController::new(&cfg(), HelpMode::Adaptive);
        // grow a bit first
        if let HelpDecision::SendHelp { timer_gen, .. } = arrive(&mut h, 0.0, 0.95) {
            h.on_timeout(timer_gen);
        }
        let grown = h.interval();
        assert_eq!(grown, SimDuration::from_secs_f64(1.5));
        // No round outstanding: a pledge must not shrink.
        h.on_pledge(true);
        assert_eq!(h.interval(), grown);
        // Open a new URGENT round (overflow); the first useful pledge shrinks...
        assert!(matches!(
            arrive(&mut h, 10.0, 1.0),
            HelpDecision::SendHelp { .. }
        ));
        h.on_pledge(true);
        assert_eq!(h.interval(), SimDuration::from_secs_f64(0.75));
        // ...and later pledges of the same round do not shrink again.
        h.on_pledge(true);
        h.on_pledge(true);
        assert_eq!(h.interval(), SimDuration::from_secs_f64(0.75));
    }

    #[test]
    fn failure_pledges_close_round_with_penalty() {
        let mut h = HelpController::new(&cfg(), HelpMode::Adaptive);
        let HelpDecision::SendHelp { timer_gen, .. } = arrive(&mut h, 0.0, 1.0) else {
            panic!()
        };
        // A pledge that cannot host the pending task fails the round: the
        // interval backs off exactly as on timeout.
        h.on_pledge(false);
        assert_eq!(h.interval(), SimDuration::from_secs_f64(1.5));
        // The round is closed: the timeout is now stale and adds nothing.
        assert!(!h.on_timeout(timer_gen));
        assert_eq!(h.interval(), SimDuration::from_secs_f64(1.5));
    }

    #[test]
    fn precautionary_round_backs_off_on_any_pledge() {
        let mut h = HelpController::new(&cfg(), HelpMode::Adaptive);
        // Non-urgent round (queue above threshold but task still fits).
        assert!(matches!(
            arrive(&mut h, 0.0, 0.95),
            HelpDecision::SendHelp { .. }
        ));
        h.on_pledge(true); // viable pledge, but no migration was pending
        assert_eq!(h.interval(), SimDuration::from_secs_f64(1.5));
    }

    #[test]
    fn interval_never_reaches_zero() {
        let mut h = HelpController::new(&cfg(), HelpMode::Adaptive);
        let mut t = 0.0;
        for _ in 0..10_000 {
            if matches!(arrive(&mut h, t, 1.0), HelpDecision::SendHelp { .. }) {
                h.on_pledge(true); // shrink once per round
            }
            t += 1_000.0; // always past the (shrinking) interval
        }
        assert!(!h.interval().is_zero());
    }

    #[test]
    fn stale_timeout_ignored() {
        let mut h = HelpController::new(&cfg(), HelpMode::Adaptive);
        let HelpDecision::SendHelp { timer_gen, .. } = arrive(&mut h, 0.0, 1.0) else {
            panic!()
        };
        h.on_pledge(true); // urgent round rewarded; timer reset
        let after_reward = h.interval();
        assert!(!h.on_timeout(timer_gen), "reset timer must not penalize");
        assert_eq!(h.interval(), after_reward);
        assert_eq!(h.counters().1, 0, "no timeout was counted");
    }

    #[test]
    fn unlimited_mode_sends_every_arrival() {
        let mut h = HelpController::new(&cfg(), HelpMode::Unlimited);
        for i in 0..50 {
            assert!(matches!(
                arrive(&mut h, i as f64 * 0.001, 0.95),
                HelpDecision::SendHelp { .. }
            ));
        }
        assert_eq!(h.counters().0, 50);
    }

    #[test]
    fn unlimited_mode_never_adapts() {
        let mut h = HelpController::new(&cfg(), HelpMode::Unlimited);
        let HelpDecision::SendHelp { timer_gen, .. } = arrive(&mut h, 0.0, 0.95) else {
            panic!()
        };
        h.on_timeout(timer_gen);
        assert_eq!(h.interval(), SimDuration::from_secs(1));
        h.on_pledge(true);
        assert_eq!(h.interval(), SimDuration::from_secs(1));
    }

    #[test]
    fn reset_restores_initial_state() {
        let mut h = HelpController::new(&cfg(), HelpMode::Adaptive);
        if let HelpDecision::SendHelp { timer_gen, .. } = arrive(&mut h, 0.0, 0.95) {
            h.on_timeout(timer_gen);
        }
        assert_ne!(h.interval(), SimDuration::from_secs(1));
        h.reset();
        assert_eq!(h.interval(), SimDuration::from_secs(1));
        // can immediately send again
        assert!(matches!(
            arrive(&mut h, 0.1, 0.95),
            HelpDecision::SendHelp { .. }
        ));
    }
}
