//! Conformance tests transcribed from the paper's pseudo-code for
//! Algorithm H (Figure 2, the adaptive HELP-interval controller) and
//! Algorithm P (Figure 3, the pledge policy). Each test quotes the exact
//! line of pseudo-code it checks, with the paper's parameters
//! (`alpha = beta = 0.5`, `Upper_limit = 100 s`, thresholds `0.9`).

use realtor_core::config::ProtocolConfig;
use realtor_core::help::{HelpController, HelpDecision, HelpMode};
use realtor_core::pledge::{Crossing, PledgePolicy};
use realtor_simcore::{SimDuration, SimTime};

fn cfg() -> ProtocolConfig {
    ProtocolConfig::paper()
}

fn secs(d: SimDuration) -> f64 {
    d.as_secs_f64()
}

/// Open a HELP round at time `t` (urgent: the arrival overflows the queue)
/// and return the timer generation.
fn open_round(h: &mut HelpController, t: f64) -> u64 {
    match h.on_task_arrival(SimTime::from_secs_f64(t), 1.0) {
        HelpDecision::SendHelp { timer_gen, .. } => timer_gen,
        HelpDecision::Hold => panic!("expected a HELP at t={t}"),
    }
}

#[test]
fn paper_parameters_are_wired() {
    let c = cfg();
    assert_eq!(c.alpha, 0.5, "paper: alpha = 0.5");
    assert_eq!(c.beta, 0.5, "paper: beta = 0.5");
    assert_eq!(
        c.upper_limit,
        SimDuration::from_secs(100),
        "paper: Upper_limit = 100 s"
    );
    assert_eq!(c.initial_help_interval, SimDuration::from_secs(1));
    assert_eq!(c.help_threshold, 0.9, "paper: 90% HELP threshold");
    assert_eq!(c.pledge_threshold, 0.9, "paper: 90% PLEDGE threshold");
}

/// "Timeout do { If ((HELP_interval + HELP_interval * alpha) < Upper_limit)
///  HELP_interval += HELP_interval * alpha; }"
///
/// Each unanswered round multiplies the interval by (1 + alpha): the exact
/// geometric sequence 1, 1.5, 2.25, 3.375, ... s.
#[test]
fn algorithm_h_timeout_multiplies_interval_by_alpha() {
    let c = cfg();
    let mut h = HelpController::new(&c, HelpMode::Adaptive);
    let mut expected = secs(c.initial_help_interval);
    let mut t = 0.0;
    for round in 0..10 {
        let gen = open_round(&mut h, t);
        assert!(h.on_timeout(gen));
        expected *= 1.0 + c.alpha;
        assert!(
            (secs(h.interval()) - expected).abs() < 1e-9 * expected,
            "after timeout {round}: interval {} != {expected}",
            secs(h.interval())
        );
        t += 1000.0; // always past the interval
    }
}

/// The growth guard: the interval saturates at `Upper_limit` and NEVER
/// exceeds it, no matter how many timeouts pile up. ("HELP_interval is
/// kept at maximum due to the repeated failure of finding available
/// resources.")
#[test]
fn algorithm_h_interval_never_exceeds_upper_limit() {
    let c = cfg();
    let mut h = HelpController::new(&c, HelpMode::Adaptive);
    let mut t = 0.0;
    for _ in 0..64 {
        let gen = open_round(&mut h, t);
        assert!(h.on_timeout(gen));
        assert!(
            h.interval() <= c.upper_limit,
            "interval {:?} exceeded Upper_limit",
            h.interval()
        );
        t += 1000.0;
    }
    // 1 * 1.5^k crosses 100 at k = 12; far past that, the clamp must hold
    // the interval exactly at the limit.
    assert_eq!(h.interval(), c.upper_limit);
}

/// "If a node is found for migration { If ((HELP_interval -
///  HELP_interval * beta) > 0) HELP_interval -= HELP_interval * beta; }"
///
/// A successful round contracts the interval by exactly beta.
#[test]
fn algorithm_h_success_contracts_interval_by_beta() {
    let c = cfg();
    let mut h = HelpController::new(&c, HelpMode::Adaptive);
    let mut t = 0.0;
    // Grow to 1.5^4 first so contraction has room to act.
    for _ in 0..4 {
        let gen = open_round(&mut h, t);
        h.on_timeout(gen);
        t += 1000.0;
    }
    let mut expected = secs(c.initial_help_interval) * (1.0 + c.alpha).powi(4);
    for round in 0..4 {
        open_round(&mut h, t);
        h.on_pledge(true); // "a node is found for migration"
        expected *= 1.0 - c.beta;
        assert!(
            (secs(h.interval()) - expected).abs() < 1e-9 * (1.0 + expected),
            "after success {round}: interval {} != {expected}",
            secs(h.interval())
        );
        t += 1000.0;
    }
}

/// The contraction guard "( ... ) > 0": however many successes arrive, the
/// interval halves toward zero but never reaches it, so HELP gating can
/// always recover.
#[test]
fn algorithm_h_contraction_never_reaches_zero() {
    let c = cfg();
    let mut h = HelpController::new(&c, HelpMode::Adaptive);
    let mut t = 0.0;
    for _ in 0..500 {
        open_round(&mut h, t);
        h.on_pledge(true);
        assert!(!h.interval().is_zero(), "interval hit zero");
        t += 1000.0;
    }
}

/// "If ((T_current - T_sent) > HELP_interval) { send HELP; set_timer; }" —
/// the gate is strict: an arrival exactly one interval after the last HELP
/// still holds.
#[test]
fn algorithm_h_send_gate_is_strict() {
    let mut h = HelpController::new(&cfg(), HelpMode::Adaptive);
    open_round(&mut h, 0.0);
    assert_eq!(
        h.on_task_arrival(SimTime::from_secs(1), 1.0),
        HelpDecision::Hold,
        "T_current - T_sent == HELP_interval must hold, not send"
    );
    assert!(matches!(
        h.on_task_arrival(SimTime::from_secs_f64(1.001), 1.0),
        HelpDecision::SendHelp { .. }
    ));
}

/// Growth and contraction compose multiplicatively: k timeouts then k
/// successes land on initial * (1+alpha)^k * (1-beta)^k exactly — with the
/// paper's alpha = beta = 0.5 that is 0.75^k of the initial interval.
#[test]
fn algorithm_h_growth_then_contraction_composes() {
    let c = cfg();
    let mut h = HelpController::new(&c, HelpMode::Adaptive);
    let k = 6;
    let mut t = 0.0;
    for _ in 0..k {
        let gen = open_round(&mut h, t);
        h.on_timeout(gen);
        t += 1000.0;
    }
    for _ in 0..k {
        open_round(&mut h, t);
        h.on_pledge(true);
        t += 1000.0;
    }
    let expected = secs(c.initial_help_interval) * ((1.0 + c.alpha) * (1.0 - c.beta)).powi(k);
    assert!(
        (secs(h.interval()) - expected).abs() < 1e-9,
        "interval {} != {expected}",
        secs(h.interval())
    );
}

/// "Whenever a HELP message arrives do { If the host has used its resource
///  less than a threshold level Reply PLEDGE; }" — strict less-than.
#[test]
fn algorithm_p_answers_help_strictly_below_threshold() {
    let c = cfg();
    let p = PledgePolicy::new(&c, 0.0);
    assert!(p.should_answer_help(0.0));
    assert!(p.should_answer_help(c.pledge_threshold - 1e-9));
    assert!(
        !p.should_answer_help(c.pledge_threshold),
        "at threshold: no pledge"
    );
    assert!(!p.should_answer_help(1.0));
}

/// "Whenever the resource availability changes across the threshold level
///  do { Reply PLEDGE; }" — the unsolicited PLEDGE fires exactly when the
/// crossing happens, once per crossing, in both directions.
#[test]
fn algorithm_p_unsolicited_pledge_exactly_on_crossing() {
    let c = cfg();
    let mut p = PledgePolicy::new(&c, 0.0);
    let th = c.pledge_threshold;

    // Climbing toward the threshold from below: silent.
    assert_eq!(p.observe(0.2), None);
    assert_eq!(p.observe(th - 0.001), None);
    // The instant usage reaches the threshold: one upward crossing.
    assert_eq!(p.observe(th), Some(Crossing::BecameBusy));
    // Staying above: silent, however often observed.
    assert_eq!(p.observe(th + 0.05), None);
    assert_eq!(p.observe(1.0), None);
    // Falling back below: one downward crossing (the unsolicited PLEDGE
    // REALTOR sends when capacity frees up).
    assert_eq!(p.observe(th - 0.001), Some(Crossing::BecameFree));
    // And again silent until the next real crossing.
    assert_eq!(p.observe(0.0), None);
    assert_eq!(p.observe(th), Some(Crossing::BecameBusy));
}

/// A host that starts at-or-above the threshold must not fire a spurious
/// upward crossing on its first observation.
#[test]
fn algorithm_p_initial_side_respected() {
    let c = cfg();
    let mut busy = PledgePolicy::new(&c, 1.0);
    assert!(busy.is_above());
    assert_eq!(busy.observe(0.95), None, "still above: no crossing");
    assert_eq!(busy.observe(0.1), Some(Crossing::BecameFree));

    let mut free = PledgePolicy::new(&c, 0.0);
    assert!(!free.is_above());
    assert_eq!(free.observe(0.5), None);
}

/// An oscillating workload hugging the threshold produces alternating
/// crossings — never two of the same kind in a row (the paper's pledge /
/// withdraw pairing depends on this).
#[test]
fn algorithm_p_crossings_alternate_under_oscillation() {
    let c = cfg();
    let mut p = PledgePolicy::new(&c, 0.0);
    let mut last: Option<Crossing> = None;
    for i in 0..100 {
        let frac = if i % 2 == 0 { 0.95 } else { 0.85 };
        let crossing = p.observe(frac).expect("every flip crosses");
        if let Some(prev) = last {
            assert_ne!(prev, crossing, "crossing direction must alternate");
        }
        last = Some(crossing);
    }
}
