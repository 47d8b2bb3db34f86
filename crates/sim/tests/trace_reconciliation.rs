//! The trace export of a lossy, attacked, recovering run is valid JSON
//! line by line, and the engine profile agrees with the `SimResult`.

use realtor_core::{FailureDetectorConfig, ProtocolConfig, ProtocolKind};
use realtor_net::{LinkQuality, TargetingStrategy};
use realtor_sim::{run_scenario_traced, RecoveryConfig, Scenario};
use realtor_simcore::trace::{validate_json_line, Tracer};
use realtor_simcore::{SimDuration, SimTime};
use realtor_workload::AttackScenario;

/// Lossy channel + warned strike + proactive recovery: every part of the
/// failure machinery emits events in this run.
fn chaos() -> Scenario {
    let detector = FailureDetectorConfig {
        suspect_after: SimDuration::from_secs(4),
        confirm_after: SimDuration::from_secs(2),
        sweep_interval: SimDuration::from_secs(1),
    };
    let attack = AttackScenario::warned_strike_and_recover(
        SimTime::from_secs(160),
        SimDuration::from_secs(10),
        SimTime::from_secs(280),
        6,
    );
    Scenario::paper(ProtocolKind::Realtor, 6.0, 400, 42)
        .with_protocol_config(ProtocolConfig::paper().with_failure_detector(detector))
        .with_channel(LinkQuality::lossy(0.05))
        .with_attack(attack, TargetingStrategy::Random)
        .with_window(SimDuration::from_secs(20))
        .with_recovery(RecoveryConfig::proactive())
}

#[test]
fn exported_jsonl_is_valid_line_by_line() {
    let tracer = Tracer::bounded(100_000);
    let r = run_scenario_traced(&chaos(), tracer.clone());
    // The run must exercise the failure machinery, or the export below
    // would cover only the quiet paths.
    assert!(r.tasks_interrupted > 0, "strike must interrupt tasks");
    assert!(r.ledger.lost_count > 0, "lossy channel must drop messages");
    assert!(r.detections > 0, "detector must confirm the outage");
    let jsonl = tracer.export_jsonl();
    let mut lines = 0usize;
    for line in jsonl.lines() {
        validate_json_line(line).unwrap_or_else(|e| panic!("bad JSON line: {e}\n{line}"));
        lines += 1;
    }
    assert!(lines > 1_000, "chaos run should emit plenty of events");
}

#[test]
fn engine_profile_fields_are_populated() {
    let scenario = chaos();
    let (r, profile) = realtor_sim::run_scenario_profiled(&scenario);
    assert!(r.queue_high_water > 0, "event queue must have held events");
    assert_eq!(profile.events_processed, r.events_processed);
    assert_eq!(profile.queue_high_water, r.queue_high_water);
    assert!(profile.events_per_sec() > 0.0);
    // The profile never perturbs the result either.
    assert!(realtor_sim::run_scenario(&scenario) == r);
}
