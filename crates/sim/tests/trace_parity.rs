//! Satellite of the trace layer: attaching a tracer must never change what
//! the simulation computes. `SimResult` derives `PartialEq`, so "bit
//! identical" is a single comparison — every counter, every window, every
//! ledger cell.

use realtor_core::{FailureDetectorConfig, ProtocolConfig, ProtocolKind};
use realtor_net::{LinkQuality, TargetingStrategy, Topology};
use realtor_sim::{run_scenario, run_scenario_traced, RecoveryConfig, Scenario};
use realtor_simcore::prelude::*;
use realtor_simcore::prop_assert;
use realtor_workload::AttackScenario;

fn arb_protocol(rng: &mut SimRng) -> ProtocolKind {
    gen::one_of(
        rng,
        &[
            ProtocolKind::PurePull,
            ProtocolKind::PurePush,
            ProtocolKind::AdaptivePush,
            ProtocolKind::AdaptivePull,
            ProtocolKind::Realtor,
        ],
    )
}

/// The nastiest scenario shape we have: lossy channel, warned strike,
/// proactive recovery, failure detection — every trace emission site fires.
fn chaos_scenario(protocol: ProtocolKind, lambda: f64, seed: u64, loss: f64) -> Scenario {
    let horizon = 240;
    let detector = FailureDetectorConfig {
        suspect_after: SimDuration::from_secs(4),
        confirm_after: SimDuration::from_secs(2),
        sweep_interval: SimDuration::from_secs(1),
    };
    let attack = AttackScenario::warned_strike_and_recover(
        SimTime::from_secs(90),
        SimDuration::from_secs(10),
        SimTime::from_secs(170),
        5,
    );
    Scenario::paper(protocol, lambda, horizon, seed)
        .with_protocol_config(ProtocolConfig::paper().with_failure_detector(detector))
        .with_channel(LinkQuality::lossy(loss))
        .with_attack(attack, TargetingStrategy::Random)
        .with_window(SimDuration::from_secs(12))
        .with_recovery(RecoveryConfig::proactive())
}

/// Property: for random protocols, loads, seeds and loss rates, the traced
/// run returns a `SimResult` equal to the plain run's.
#[test]
fn tracing_on_equals_tracing_off() {
    forall(
        "tracing_on_equals_tracing_off",
        0x7ACE01,
        16,
        |r| {
            (
                arb_protocol(r),
                gen::f64_in(r, 1.0, 9.0),
                gen::u64_in(r, 0, 1_000),
                gen::f64_in(r, 0.0, 0.15),
            )
        },
        |&(protocol, lambda, seed, loss)| {
            let scenario = chaos_scenario(protocol, lambda, seed, loss);
            let plain = run_scenario(&scenario);
            let tracer = Tracer::bounded(4_096);
            let traced = run_scenario_traced(&scenario, tracer.clone());
            prop_assert!(
                plain == traced,
                "{} lambda {lambda} seed {seed} loss {loss}: tracing changed the result",
                protocol.label()
            );
            prop_assert!(
                tracer.snapshot().recorded > 0,
                "the chaos scenario must actually emit events"
            );
            Ok(())
        },
    );
}

/// A tracer with aggressive filtering (tiny ring, Info floor, narrow kind
/// allow-list) is still observational.
#[test]
fn filtered_tracer_is_still_observational() {
    forall(
        "filtered_tracer_is_still_observational",
        0x7ACE02,
        12,
        |r| (gen::f64_in(r, 2.0, 10.0), gen::u64_in(r, 0, 500)),
        |&(lambda, seed)| {
            let scenario = chaos_scenario(ProtocolKind::Realtor, lambda, seed, 0.05);
            let plain = run_scenario(&scenario);
            let tracer = Tracer::bounded(64)
                .with_min_severity(realtor_simcore::trace::Severity::Info)
                .with_kinds(&[TraceKind::HelpFlood, TraceKind::NodeKill]);
            let traced = run_scenario_traced(&scenario, tracer);
            prop_assert!(plain == traced, "filtering changed the result");
            Ok(())
        },
    );
}

/// Fixed golden-style cell for every protocol: the exact Figure-5 scenario
/// the golden tests pin, traced vs plain.
#[test]
fn golden_cell_parity_all_protocols() {
    for protocol in ProtocolKind::ALL {
        let scenario = Scenario::paper(protocol, 6.0, 400, 42).with_topology(Topology::mesh(5, 5));
        let plain = run_scenario(&scenario);
        let traced = run_scenario_traced(&scenario, Tracer::bounded(100_000));
        assert!(
            plain == traced,
            "{}: traced golden cell diverged from plain run",
            protocol.label()
        );
    }
}
