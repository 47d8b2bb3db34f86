//! Property tests of the chaos subsystem (A16): whatever churn schedule,
//! partition script or adversary configuration runs, the survivability
//! ledger must balance, the trace registry must reconcile, runs must be
//! reproducible — and with chaos disabled the world must be byte-identical
//! to the paper baseline.

use realtor_core::{FailureDetectorConfig, ProtocolConfig, ProtocolKind};
use realtor_net::TargetingStrategy;
use realtor_sim::{
    run_scenario, run_scenario_traced, AdversaryConfig, ChaosConfig, RecoveryConfig, Scenario,
};
use realtor_simcore::prelude::*;
use realtor_simcore::trace::Tracer;
use realtor_simcore::{prop_assert, prop_assert_eq, SimDuration, SimTime};
use realtor_workload::{AttackScenario, ChurnConfig};

const HORIZON_SECS: u64 = 300;

fn arb_protocol(rng: &mut SimRng) -> ProtocolKind {
    gen::one_of(rng, &ProtocolKind::ALL)
}

fn detector() -> FailureDetectorConfig {
    FailureDetectorConfig {
        suspect_after: SimDuration::from_secs(4),
        confirm_after: SimDuration::from_secs(2),
        sweep_interval: SimDuration::from_secs(1),
    }
}

/// A random churn schedule inside the horizon as shrinkable primitives:
/// (fraction 2–25%, interval 5–30 s, window start, window end).
fn arb_churn(rng: &mut SimRng) -> (f64, u64, u64, u64) {
    let fraction = gen::f64_in(rng, 0.02, 0.25);
    let interval = gen::u64_in(rng, 5, 30);
    let start = gen::u64_in(rng, 20, HORIZON_SECS / 2);
    let end = gen::u64_in(rng, start + 10, HORIZON_SECS - 10);
    (fraction, interval, start, end)
}

/// Build the config from the generated primitives, clamping the window so
/// shrunk counterexamples stay valid.
fn churn_of((fraction, interval, start, end): (f64, u64, u64, u64)) -> ChurnConfig {
    let start = start.clamp(5, HORIZON_SECS - 20);
    let end = end.clamp(start + 1, HORIZON_SECS - 1);
    ChurnConfig::new(
        fraction.clamp(0.01, 1.0),
        SimDuration::from_secs(interval.max(1)),
        SimTime::from_secs(start),
        SimTime::from_secs(end),
    )
}

/// The survivability task ledger balances for any churn schedule, any
/// partition script layered on top, any seed and protocol — and the run
/// reproduces bit-for-bit.
#[test]
fn ledger_balances_under_random_churn_and_partitions() {
    forall(
        "chaos_ledger",
        0xC4A051,
        12,
        |r| {
            (
                arb_protocol(r),
                gen::f64_in(r, 3.0, 9.0),
                gen::u64_in(r, 0, 1_000),
                arb_churn(r),
                r.bernoulli(0.5),
                gen::usize_in(r, 2, 4),
            )
        },
        |&(protocol, lambda, seed, churn, partitioned, parts)| {
            let mut scenario = Scenario::paper(protocol, lambda, HORIZON_SECS, seed)
                .with_protocol_config(ProtocolConfig::paper().with_failure_detector(detector()))
                .with_recovery(RecoveryConfig::reactive())
                .with_window(SimDuration::from_secs(10))
                .with_chaos(ChaosConfig::churn(churn_of(churn)));
            if partitioned {
                scenario = scenario.with_attack(
                    AttackScenario::partition_and_heal(
                        SimTime::from_secs(HORIZON_SECS / 3),
                        SimTime::from_secs(HORIZON_SECS * 2 / 3),
                        parts.clamp(2, 4),
                    ),
                    TargetingStrategy::Random,
                );
            }
            let r = run_scenario(&scenario);
            // SimResult::validate() already ran inside run_scenario; assert
            // the chaos ledger identities explicitly as well.
            prop_assert_eq!(r.tasks_interrupted, r.tasks_recovered + r.tasks_destroyed);
            prop_assert_eq!(r.offered, r.admitted() + r.rejected);
            prop_assert!(r.work_destroyed >= 0.0);
            let again = run_scenario(&scenario);
            prop_assert!(r == again, "chaos run must be deterministic");
            Ok(())
        },
    );
}

/// The trace registry reconciles with the `SimResult` under churn +
/// partition chaos, and the attached tracer never perturbs the run.
#[test]
fn registry_reconciles_under_chaos() {
    forall(
        "chaos_reconciliation",
        0xC4A052,
        6,
        |r| (gen::u64_in(r, 0, 500), arb_churn(r)),
        |&(seed, churn)| {
            let scenario = Scenario::paper(ProtocolKind::Realtor, 6.0, HORIZON_SECS, seed)
                .with_protocol_config(ProtocolConfig::paper().with_failure_detector(detector()))
                .with_recovery(RecoveryConfig::reactive())
                .with_window(SimDuration::from_secs(10))
                .with_attack(
                    AttackScenario::partition_and_heal(
                        SimTime::from_secs(HORIZON_SECS / 3),
                        SimTime::from_secs(HORIZON_SECS * 2 / 3),
                        2,
                    ),
                    TargetingStrategy::Random,
                )
                .with_chaos(ChaosConfig::churn(churn_of(churn)));
            let tracer = Tracer::bounded(100_000);
            let r = run_scenario_traced(&scenario, tracer.clone());
            let snap = tracer.snapshot();
            for (name, want) in [
                ("offered", r.offered),
                ("rejected", r.rejected),
                ("tasks_interrupted", r.tasks_interrupted),
                ("tasks_recovered", r.tasks_recovered),
                ("tasks_destroyed", r.tasks_destroyed),
                ("msg_help", r.ledger.help_count),
                ("msg_pledge", r.ledger.pledge_count),
                ("partition_dropped", r.ledger.partition_dropped_count),
            ] {
                prop_assert_eq!(snap.registry.counter(name), want, "counter {}", name);
            }
            prop_assert!(
                run_scenario(&scenario) == r,
                "tracing must not perturb a chaos run"
            );
            Ok(())
        },
    );
}

/// A partition is not a kill: nodes stay alive, but messages cannot cross
/// the cut (accounted in the ledger), and healing restores full service.
#[test]
fn partitions_block_traffic_without_killing_nodes() {
    let scenario = Scenario::paper(ProtocolKind::Realtor, 6.0, HORIZON_SECS, 42)
        .with_window(SimDuration::from_secs(10))
        .with_attack(
            AttackScenario::partition_and_heal(SimTime::from_secs(100), SimTime::from_secs(200), 3),
            TargetingStrategy::Random,
        );
    let r = run_scenario(&scenario);
    assert!(
        r.ledger.partition_dropped_count > 0,
        "a 3-way partition must drop cross-partition messages"
    );
    // Every node stays alive through the whole run: partitions sever links,
    // not hosts.
    assert!(r.windows.iter().all(|w| w.alive_nodes == 25));
    assert_eq!(r.tasks_interrupted, 0, "no tasks die from a pure partition");
    // The partition does not leak into the ledger's charged total.
    let baseline = run_scenario(&Scenario::paper(
        ProtocolKind::Realtor,
        6.0,
        HORIZON_SECS,
        42,
    ));
    assert_eq!(baseline.ledger.partition_dropped_count, 0);
}

/// Chaos disabled is the paper baseline, bit for bit: attaching an empty
/// `ChaosConfig` changes nothing about a run (the golden-figure tests pin
/// the baseline itself).
#[test]
fn chaos_none_is_bit_exact_with_baseline() {
    for (lambda, seed) in [(2.0, 42), (8.0, 7)] {
        let base = Scenario::paper(ProtocolKind::Realtor, lambda, 200, seed);
        let with_none = base.clone().with_chaos(ChaosConfig::none());
        assert!(
            run_scenario(&base) == run_scenario(&with_none),
            "ChaosConfig::none() must be invisible (lambda {lambda}, seed {seed})"
        );
    }
}

/// The adaptive adversary: strikes kill exactly `kills` alive nodes chosen
/// from observed traffic, victims return after the downtime, runs are
/// deterministic — and an attached tracer never changes the decisions,
/// whatever its capacity and whatever it has already recorded.
#[test]
fn adversary_strikes_are_bounded_deterministic_and_capacity_free() {
    let adv = AdversaryConfig {
        interval: SimDuration::from_secs(50),
        kills: 3,
        downtime: SimDuration::from_secs(20),
        start: SimTime::from_secs(100),
        end: SimTime::from_secs(250),
    };
    let scenario = Scenario::paper(ProtocolKind::Realtor, 6.0, HORIZON_SECS, 42)
        .with_protocol_config(ProtocolConfig::paper().with_failure_detector(detector()))
        .with_recovery(RecoveryConfig::reactive())
        .with_window(SimDuration::from_secs(5))
        .with_chaos(ChaosConfig::adversary(adv));
    let r = run_scenario(&scenario);
    let min_alive = r.windows.iter().map(|w| w.alive_nodes).min().unwrap();
    assert_eq!(
        min_alive,
        25 - adv.kills,
        "each strike must take down exactly its kill budget"
    );
    assert_eq!(
        r.windows.last().unwrap().alive_nodes,
        25,
        "every adversary victim must be restored after its downtime"
    );
    assert_eq!(r.tasks_interrupted, r.tasks_recovered + r.tasks_destroyed);
    assert!(
        r.tasks_interrupted > 0,
        "strikes against top talkers must interrupt queued work"
    );
    // Determinism, and independence from the attached tracer: a huge one
    // must reproduce the same run, and so must a tracer shared with an
    // earlier world, whose counters already hold that world's traffic.
    assert!(run_scenario(&scenario) == r);
    assert!(run_scenario_traced(&scenario, Tracer::bounded(1_000_000)) == r);
    let shared = Tracer::bounded(1_000);
    assert!(run_scenario_traced(&scenario, shared.clone()) == r);
    assert!(
        run_scenario_traced(&scenario, shared) == r,
        "a second run on a shared tracer must match a run alone"
    );
}
