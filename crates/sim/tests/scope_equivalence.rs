//! The default flood scope ("every other node, in id order") is implicit:
//! no per-node recipient list is stored. These tests pin it to the explicit
//! lists it replaced: a world given all-but-me scopes through
//! `World::set_scopes` must produce the same `SimResult`, field for field.

use realtor_core::{FailureDetectorConfig, ProtocolConfig, ProtocolKind};
use realtor_net::{LinkQuality, NodeId, TargetingStrategy};
use realtor_sim::{ChaosConfig, CostChoice, RecoveryConfig, Scenario, SimResult, World};
use realtor_simcore::{Engine, SimDuration, SimTime};
use realtor_workload::{AttackScenario, ChurnConfig};

const HORIZON_SECS: u64 = 300;

fn run(scenario: &Scenario, explicit_scopes: bool) -> SimResult {
    let mut world = World::new(scenario);
    if explicit_scopes {
        let n = world.node_count();
        let all_but_me: Vec<Vec<NodeId>> = (0..n)
            .map(|me| (0..n).filter(|&other| other != me).collect())
            .collect();
        world.set_scopes(all_but_me);
    }
    let mut engine = Engine::new();
    world.prime(&mut engine);
    engine.run_until(&mut world, scenario.horizon());
    world.finish(&engine)
}

/// Every protocol (REALTOR floods HELP, the push baselines flood adverts)
/// on `scenario`, implicit against explicit scopes.
fn assert_scopes_agree(name: &str, scenario: impl Fn(ProtocolKind) -> Scenario) {
    for kind in ProtocolKind::ALL {
        let s = scenario(kind);
        let implicit = run(&s, false);
        let explicit = run(&s, true);
        assert!(
            implicit.offered > 0,
            "{name}/{kind:?}: the scenario offered no work"
        );
        assert_eq!(
            implicit, explicit,
            "{name}/{kind:?}: implicit scope diverged"
        );
    }
}

#[test]
fn implicit_scope_matches_explicit_on_the_ideal_channel() {
    assert_scopes_agree("ideal", |kind| Scenario::paper(kind, 8.0, HORIZON_SECS, 11));
}

/// Per-recipient channel sampling walks the scope in id order; a 5 % lossy
/// channel makes any change of that order show up in the results.
#[test]
fn implicit_scope_matches_explicit_on_a_lossy_channel() {
    assert_scopes_agree("lossy", |kind| {
        Scenario::paper(kind, 8.0, HORIZON_SECS, 12).with_channel(LinkQuality::lossy(0.05))
    });
}

/// A partition that heals, on top of continuous churn with detection and
/// recovery, under the spanning-tree charge (which counts the alive nodes
/// of the sender's scope): both the grouped and the per-recipient flood
/// paths filter recipients by partition and liveness.
#[test]
fn implicit_scope_matches_explicit_under_partition_chaos() {
    let detector = FailureDetectorConfig {
        suspect_after: SimDuration::from_secs(4),
        confirm_after: SimDuration::from_secs(2),
        sweep_interval: SimDuration::from_secs(1),
    };
    for lossy in [false, true] {
        assert_scopes_agree("partition", |kind| {
            let s = Scenario::paper(kind, 6.0, HORIZON_SECS, 13)
                .with_protocol_config(ProtocolConfig::paper().with_failure_detector(detector))
                .with_recovery(RecoveryConfig::reactive())
                .with_cost(CostChoice::SpanningTree)
                .with_attack(
                    AttackScenario::partition_and_heal(
                        SimTime::from_secs(HORIZON_SECS / 3),
                        SimTime::from_secs(HORIZON_SECS * 2 / 3),
                        3,
                    ),
                    TargetingStrategy::Random,
                )
                .with_chaos(ChaosConfig::churn(ChurnConfig::new(
                    0.1,
                    SimDuration::from_secs(20),
                    SimTime::from_secs(30),
                    SimTime::from_secs(HORIZON_SECS - 30),
                )));
            if lossy {
                s.with_channel(LinkQuality::lossy(0.05))
            } else {
                s
            }
        });
    }
}
