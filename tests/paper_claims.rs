//! Integration tests asserting the paper's headline claims hold in this
//! reproduction (shape claims, not absolute numbers — see EXPERIMENTS.md).

use realtor::core::ProtocolKind;
use realtor::net::Topology;
use realtor::runner::{run_grid, GridCell, RunOpts, SeedPolicy, SweepGrid};
use realtor::sim::{run_scenario, Scenario, SimResult};

const HORIZON: u64 = 2_000;
const SEED: u64 = 42;

/// Every protocol at every λ on the grid runner, all at `seed` (the paper's
/// paired comparison).
fn paired_sweep(lambdas: &[f64], horizon: u64, seed: u64) -> Vec<(GridCell, SimResult)> {
    let grid = SweepGrid::new(seed)
        .with_protocols(&ProtocolKind::ALL)
        .with_lambdas(lambdas)
        .with_seed_policy(SeedPolicy::Shared);
    let opts = RunOpts {
        jobs: std::thread::available_parallelism().map_or(1, |n| n.get()),
        progress: false,
    };
    let results = run_grid(&grid, &opts, |cell| {
        run_scenario(&Scenario::paper(
            cell.protocol,
            cell.lambda,
            horizon,
            cell.seed,
        ))
    });
    grid.cells().into_iter().zip(results).collect()
}

/// One point of a [`paired_sweep`].
fn at(sweep: &[(GridCell, SimResult)], protocol: ProtocolKind, lambda: f64) -> &SimResult {
    let (_, r) = sweep
        .iter()
        .find(|(c, _)| c.protocol == protocol && c.lambda == lambda)
        .expect("point in the sweep");
    r
}

/// Claim 1 (effectiveness): under both normal and heavy load, REALTOR's
/// admission probability is within a whisker of the best protocol.
#[test]
fn realtor_admission_is_top_tier() {
    for lambda in [3.0, 6.0, 9.0] {
        let sweep = paired_sweep(&[lambda], HORIZON, SEED);
        let best = ProtocolKind::ALL
            .iter()
            .map(|&p| at(&sweep, p, lambda).admission_probability())
            .fold(0.0f64, f64::max);
        let realtor = at(&sweep, ProtocolKind::Realtor, lambda).admission_probability();
        assert!(
            realtor >= best - 0.02,
            "lambda={lambda}: REALTOR {realtor:.4} vs best {best:.4}"
        );
    }
}

/// Claim 2 (overhead): REALTOR's total message cost is a small fraction of
/// pure push at every load, and pure pull's cost grows with load while pure
/// push's does not.
#[test]
fn realtor_overhead_beats_pure_push() {
    let lambdas = [2.0, 6.0, 10.0];
    let sweep = paired_sweep(&lambdas, HORIZON, SEED);
    for &lambda in &lambdas {
        let push = at(&sweep, ProtocolKind::PurePush, lambda).total_messages();
        let realtor = at(&sweep, ProtocolKind::Realtor, lambda).total_messages();
        assert!(
            realtor < push / 2.0,
            "lambda={lambda}: REALTOR {realtor} not well below Push-1 {push}"
        );
    }
    // Pure push: flat in load. Pure pull: grows with load.
    let push_light = at(&sweep, ProtocolKind::PurePush, 2.0).ledger.push;
    let push_heavy = at(&sweep, ProtocolKind::PurePush, 10.0).ledger.push;
    assert!((push_light - push_heavy).abs() / push_light < 0.01);
    let pull_light = at(&sweep, ProtocolKind::PurePull, 2.0).total_messages();
    let pull_heavy = at(&sweep, ProtocolKind::PurePull, 10.0).total_messages();
    assert!(
        pull_heavy > pull_light * 10.0,
        "pull cost must grow with load"
    );
}

/// Claim 3 (size independence): REALTOR's per-node overhead per admitted
/// task stays roughly flat as the system grows (constant per-node load),
/// while pure push's grows.
#[test]
fn realtor_overhead_is_size_independent() {
    let per_node = |kind: ProtocolKind, side: usize| {
        let n = side * side;
        let scenario = Scenario::paper(kind, 0.28 * n as f64, 800, SEED)
            .with_topology(Topology::mesh(side, side));
        let r = run_scenario(&scenario);
        assert!(r.admitted() > 0);
        r.total_messages() / n as f64 / r.admitted() as f64
    };
    let realtor_small = per_node(ProtocolKind::Realtor, 4);
    let realtor_large = per_node(ProtocolKind::Realtor, 12);
    assert!(
        realtor_large < realtor_small * 2.0,
        "REALTOR per-node overhead grew {realtor_small:.3} -> {realtor_large:.3}"
    );
    let push_small = per_node(ProtocolKind::PurePush, 4);
    let push_large = per_node(ProtocolKind::PurePush, 12);
    assert!(
        push_large > push_small * 1.2,
        "Push-1 per-node overhead should grow with size: {push_small:.3} -> {push_large:.3}"
    );
}

/// Claim 4 (survivability): killing a third of the nodes degrades admission
/// during the outage only by roughly the lost arrivals; after recovery the
/// system returns to its pre-attack admission level.
#[test]
fn realtor_survives_attack_and_recovers() {
    use realtor::net::TargetingStrategy;
    use realtor::simcore::{SimDuration, SimTime};
    use realtor::workload::AttackScenario;
    let scenario = Scenario::paper(ProtocolKind::Realtor, 4.0, 3_000, 7)
        .with_attack(
            AttackScenario::strike_and_recover(
                SimTime::from_secs(1_000),
                SimTime::from_secs(2_000),
                8,
            ),
            TargetingStrategy::Random,
        )
        .with_window(SimDuration::from_secs(250));
    let r = run_scenario(&scenario);
    let phase_admission = |lo: f64, hi: f64| {
        let (mut off, mut adm) = (0u64, 0u64);
        for w in &r.windows {
            let t = w.start.as_secs_f64();
            if t >= lo && t < hi {
                off += w.offered;
                adm += w.admitted;
            }
        }
        adm as f64 / off as f64
    };
    let before = phase_admission(0.0, 1_000.0);
    let during = phase_admission(1_000.0, 2_000.0);
    let after = phase_admission(2_250.0, 3_000.0); // skip one settling window
    assert!(before > 0.99, "before {before}");
    // 8/25 of arrivals go to dead nodes and are lost; survivors absorb the rest.
    assert!(during > 0.6 && during < 0.8, "during {during}");
    assert!(after > 0.98, "after {after} — system must recover");
}

/// The five protocols face the byte-identical workload (paired comparison).
#[test]
fn sweep_is_paired() {
    let sweep = paired_sweep(&[5.0], 500, 3);
    let offered: Vec<u64> = ProtocolKind::ALL
        .iter()
        .map(|&p| at(&sweep, p, 5.0).offered)
        .collect();
    assert!(
        offered.windows(2).all(|w| w[0] == w[1]),
        "offered counts differ: {offered:?}"
    );
}
