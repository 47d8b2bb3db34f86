//! Workspace-level determinism and reproducibility guarantees.

use realtor::core::ProtocolKind;
use realtor::sim::{run_scenario, Scenario};
use realtor::simcore::SimTime;
use realtor::workload::{Trace, WorkloadSpec};

/// Identical scenario (seed included) ⇒ bit-identical results, for every
/// protocol, including message ledgers and migration counts.
#[test]
fn full_run_determinism() {
    for kind in ProtocolKind::ALL {
        let s = || Scenario::paper(kind, 7.0, 800, 1234);
        let a = run_scenario(&s());
        let b = run_scenario(&s());
        assert_eq!(a.offered, b.offered, "{kind}");
        assert_eq!(a.admitted_local, b.admitted_local, "{kind}");
        assert_eq!(a.admitted_migrated, b.admitted_migrated, "{kind}");
        assert_eq!(a.rejected, b.rejected, "{kind}");
        assert_eq!(a.migration_attempts, b.migration_attempts, "{kind}");
        assert_eq!(a.ledger, b.ledger, "{kind}");
        assert_eq!(a.events_processed, b.events_processed, "{kind}");
    }
}

/// The unreliable channel and attack machinery keep full determinism: a
/// lossy, jittery, duplicating channel plus a mid-run strike produces a
/// byte-identical `SimResult` (every field, via `PartialEq`) when re-run at
/// the same seed, and a different result at a different seed.
#[test]
fn lossy_attacked_run_is_deterministic() {
    use realtor::net::{LinkQuality, TargetingStrategy};
    use realtor::simcore::SimDuration;
    use realtor::workload::AttackScenario;

    let scenario = |seed: u64| {
        Scenario::paper(ProtocolKind::Realtor, 6.0, 600, seed)
            .with_channel(LinkQuality {
                loss: 0.1,
                extra_latency: SimDuration::from_millis(5),
                jitter: SimDuration::from_millis(10),
                duplication: 0.05,
            })
            .with_attack(
                AttackScenario::strike_and_recover(
                    SimTime::from_secs(200),
                    SimTime::from_secs(400),
                    8,
                ),
                TargetingStrategy::Random,
            )
            .with_window(SimDuration::from_secs(30))
    };
    let a = run_scenario(&scenario(9));
    let b = run_scenario(&scenario(9));
    assert!(a == b, "same seed must reproduce the full SimResult");
    assert!(a.ledger.lost_count > 0, "the channel must actually drop");
    assert!(a.ledger.duplicated_count > 0, "and duplicate");

    let c = run_scenario(&scenario(10));
    assert!(a != c, "a different seed must produce a different run");
}

/// Different seeds give different (but statistically similar) runs.
#[test]
fn seeds_matter_but_only_statistically() {
    let a = run_scenario(&Scenario::paper(ProtocolKind::Realtor, 6.0, 2_000, 1));
    let b = run_scenario(&Scenario::paper(ProtocolKind::Realtor, 6.0, 2_000, 2));
    assert_ne!(a.offered, b.offered, "different seeds must differ");
    assert!(
        (a.admission_probability() - b.admission_probability()).abs() < 0.05,
        "seeds {:.4} vs {:.4} diverge more than statistics allow",
        a.admission_probability(),
        b.admission_probability()
    );
}

/// A trace written to text and re-read drives an identical simulation
/// outcome (record/replay fidelity at the sub-microsecond rounding of the
/// text format is enough not to change any admission decision).
#[test]
fn trace_text_round_trip_preserves_results() {
    let spec = WorkloadSpec::paper(5.0, 25, SimTime::from_secs(300), 77);
    let trace = spec.generate();
    let parsed = Trace::from_text(&trace.to_text()).unwrap();
    assert_eq!(trace.len(), parsed.len());
    // Task-for-task the parsed trace matches to text precision.
    for (a, b) in trace.records.iter().zip(parsed.records.iter()) {
        assert_eq!(a.node, b.node);
        assert!((a.size_secs - b.size_secs).abs() < 1e-6);
    }
}

/// The engine's event count scales with, and only with, activity: an empty
/// workload processes nothing.
#[test]
fn empty_workload_is_silent() {
    let mut scenario = Scenario::paper(ProtocolKind::Realtor, 1.0, 100, 5);
    scenario.workload.horizon = SimTime::ZERO; // no arrivals generated
    let r = run_scenario(&scenario);
    assert_eq!(r.offered, 0);
    assert_eq!(r.total_messages(), 0.0);
}
