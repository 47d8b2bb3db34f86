//! Integration tests for the crash-recovery subsystem: failure detection
//! feeding reactive checkpoint recovery, warning-driven proactive
//! evacuation, and the determinism and ledger invariants that keep the
//! whole machinery honest. The golden Figure-5 configuration keeps
//! recovery disabled, so everything here exercises the opt-in paths.

use realtor_core::{FailureDetectorConfig, ProtocolConfig, ProtocolKind};
use realtor_net::TargetingStrategy;
use realtor_sim::{run_scenario, RecoveryConfig, Scenario};
use realtor_simcore::{SimDuration, SimTime};
use realtor_workload::AttackScenario;

const KILLS: usize = 8;

fn detector() -> FailureDetectorConfig {
    FailureDetectorConfig {
        suspect_after: SimDuration::from_secs(4),
        confirm_after: SimDuration::from_secs(2),
        sweep_interval: SimDuration::from_secs(1),
    }
}

/// λ=6 overload on the paper mesh, detector on, strike at t=100 (warned
/// strikes are warned at t=90 with a 10 s lead, landing at the same
/// instant), full restore at t=200, horizon 300 s.
fn scenario(recovery: RecoveryConfig, warned: bool, seed: u64) -> Scenario {
    let attack = if warned {
        AttackScenario::warned_strike_and_recover(
            SimTime::from_secs(90),
            SimDuration::from_secs(10),
            SimTime::from_secs(200),
            KILLS,
        )
    } else {
        AttackScenario::strike_and_recover(SimTime::from_secs(100), SimTime::from_secs(200), KILLS)
    };
    Scenario::paper(ProtocolKind::Realtor, 6.0, 300, seed)
        .with_protocol_config(ProtocolConfig::paper().with_failure_detector(detector()))
        .with_attack(attack, TargetingStrategy::Random)
        .with_recovery(recovery)
}

#[test]
fn without_recovery_interrupted_work_is_silently_destroyed() {
    let r = run_scenario(&scenario(RecoveryConfig::default(), false, 42));
    assert!(r.work_destroyed > 0.0, "kills must destroy queued work");
    assert_eq!(r.tasks_interrupted, 0, "no task identity without recovery");
    assert_eq!(r.tasks_recovered, 0);
    assert_eq!(r.recovery_attempts, 0);
    assert_eq!(r.evacuation_attempts, 0);
    assert!(r.lost_to_attacks > 0);
    // The detector still runs (it is protocol state), so the outage itself
    // is noticed even though nobody acts on the orphaned work.
    assert!(r.detections > 0);
}

#[test]
fn reactive_recovery_rehomes_checkpointed_tasks() {
    let r = run_scenario(&scenario(RecoveryConfig::reactive(), false, 42));
    assert!(r.tasks_interrupted > 0, "the strike must interrupt tasks");
    assert!(r.tasks_recovered > 0, "full checkpoints must recover some");
    assert!(r.work_recovered > 0.0);
    assert!(r.recovered_fraction() > 0.0);
    // Detection is the recovery trigger: latency is bounded by the
    // detector windows (4 s suspicion + 2 s confirmation + 2 sweeps).
    assert!(r.detections >= 1);
    let lat = r.mean_detection_latency();
    assert!(lat > 0.0 && lat <= 8.0, "detection latency {lat}");
    // `tasks_interrupted == tasks_recovered + tasks_destroyed` was already
    // enforced by SimResult::validate() inside run_scenario.
}

#[test]
fn zero_checkpoint_fraction_destroys_every_interrupted_task() {
    let cfg = RecoveryConfig::reactive().with_checkpoint_fraction(0.0);
    let r = run_scenario(&scenario(cfg, false, 42));
    assert!(r.tasks_interrupted > 0);
    assert_eq!(
        r.tasks_recovered, 0,
        "nothing to recover without checkpoints"
    );
    assert_eq!(r.tasks_destroyed, r.tasks_interrupted);
    assert_eq!(r.recovery_attempts, 0);
}

#[test]
fn proactive_evacuation_moves_work_before_the_strike() {
    let r = run_scenario(&scenario(RecoveryConfig::proactive(), true, 42));
    assert!(
        r.evacuation_attempts > 0,
        "warning must trigger evacuations"
    );
    assert!(r.evacuation_successes > 0, "some evacuations must land");
    assert!(r.work_evacuated > 0.0);
    assert!(r.evacuation_successes <= r.evacuation_attempts);

    // Evacuation drains the victims before the kill, so proactive runs
    // destroy strictly less work at the strike than warned-but-passive
    // runs on the same seed (identical victims by construction).
    let passive = run_scenario(&scenario(RecoveryConfig::reactive(), true, 42));
    assert!(
        r.work_destroyed + r.work_recovered <= passive.work_destroyed + passive.work_recovered,
        "evacuation should shrink the exposed backlog: proactive {} vs passive {}",
        r.work_destroyed + r.work_recovered,
        passive.work_destroyed + passive.work_recovered,
    );
}

#[test]
fn warned_and_unwarned_strikes_are_equivalent_without_defence() {
    // Same seed, recovery off: the warning changes nothing except when the
    // targeting stream is drawn, and the draw is constructed to match.
    let unwarned = run_scenario(&scenario(RecoveryConfig::default(), false, 7));
    let warned = run_scenario(&scenario(RecoveryConfig::default(), true, 7));
    assert_eq!(unwarned.offered, warned.offered);
    assert_eq!(unwarned.admitted(), warned.admitted());
    assert_eq!(unwarned.lost_to_attacks, warned.lost_to_attacks);
    assert_eq!(
        unwarned.work_destroyed.to_bits(),
        warned.work_destroyed.to_bits(),
        "identical victims, identical destroyed backlog"
    );
}

#[test]
fn failover_runs_are_deterministic() {
    for (recovery, warned) in [
        (RecoveryConfig::reactive(), false),
        (RecoveryConfig::proactive(), true),
    ] {
        let a = run_scenario(&scenario(recovery, warned, 11));
        let b = run_scenario(&scenario(recovery, warned, 11));
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "same seed, same run");
    }
}
