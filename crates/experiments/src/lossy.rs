//! Unreliable-network survivability — the `lossy` experiment.
//!
//! Two questions the paper's perfect-network evaluation leaves open:
//!
//! 1. **Graceful degradation**: how does admission probability fall as the
//!    datagram loss rate rises (loss ∈ {0, 1 %, 5 %, 10 %, 25 %} × λ)?
//! 2. **Recovery under chaos**: with 10 % base loss, a node strike *and*
//!    link-quality degradation mid-run, how deep is the admission dip and
//!    how many windows until the system is back at its pre-strike baseline?
//!
//! The smoke mode (`--smoke true`, used by CI) shrinks the horizon and
//! asserts the headline robustness properties instead of emitting tables:
//! no panic across the sweep, loss degrades admission monotonically (within
//! statistical tolerance), the chaos run is bit-for-bit deterministic, and
//! REALTOR's time-to-recovery is finite after `RestoreAll`.

use crate::output::{emit, OutDir};
use realtor_core::ProtocolKind;
use realtor_net::{LinkQuality, TargetingStrategy};
use realtor_runner::{run_grid, RunOpts, SweepGrid};
use realtor_sim::{run_scenario, Scenario, SimResult};
use realtor_simcore::table::{Cell, Table};
use realtor_simcore::{SimDuration, SimTime};
use realtor_workload::{AttackAction, AttackEvent, AttackScenario};

/// The loss sweep of the experiment.
pub const LOSS_LEVELS: [f64; 5] = [0.0, 0.01, 0.05, 0.10, 0.25];

/// Arrival rates crossed with the loss sweep.
const LAMBDAS: [f64; 4] = [2.0, 4.0, 6.0, 8.0];

/// Baseline-recovery tolerance for time-to-recovery.
const EPSILON: f64 = 0.05;

/// The chaos scenario: `kill_fraction` of the nodes die and a third of the
/// links are degraded at 40 % of the horizon; everything is restored at
/// 70 %. Base channel quality is `loss` across every delivery.
fn chaos_scenario(
    protocol: ProtocolKind,
    lambda: f64,
    horizon_secs: u64,
    seed: u64,
    loss: f64,
    kill_fraction: f64,
) -> (Scenario, SimTime, SimTime) {
    let strike = SimTime::from_secs(horizon_secs * 2 / 5);
    let recover = SimTime::from_secs(horizon_secs * 7 / 10);
    let victims = ((25.0 * kill_fraction).round() as usize).max(1);
    let window = SimDuration::from_secs((horizon_secs / 20).max(1));
    let attack = AttackScenario::new(vec![
        AttackEvent {
            at: strike,
            action: AttackAction::Kill { count: victims },
        },
        AttackEvent {
            at: strike,
            action: AttackAction::DegradeLinks { count: 13 },
        },
        AttackEvent {
            at: recover,
            action: AttackAction::RestoreAll,
        },
        AttackEvent {
            at: recover,
            action: AttackAction::RestoreLinkQuality,
        },
    ]);
    let scenario = Scenario::paper(protocol, lambda, horizon_secs, seed)
        .with_channel(LinkQuality::lossy(loss))
        .with_attack(attack, TargetingStrategy::Random)
        .with_window(window);
    (scenario, strike, recover)
}

/// Run the lossy-network experiment and emit its tables.
pub fn run(horizon_secs: u64, seed: u64, kill_fraction: f64, jobs: usize, out: &OutDir) {
    eprintln!(
        "lossy: loss sweep {LOSS_LEVELS:?} x lambda {LAMBDAS:?}, then 10% loss chaos run \
         (kill {kill_fraction} of nodes + degrade 13/40 links), jobs {jobs}"
    );

    // Part 1 — steady-state REALTOR admission across λ × loss (grid order:
    // λ slowest, loss fastest — matching the table's rows and columns).
    let grid = SweepGrid::new(seed)
        .with_lambdas(&LAMBDAS)
        .with_losses(&LOSS_LEVELS);
    let results = run_grid(&grid, &RunOpts::jobs(jobs), |cell| {
        run_scenario(
            &Scenario::paper(ProtocolKind::Realtor, cell.lambda, horizon_secs, cell.seed)
                .with_channel(LinkQuality::lossy(cell.loss)),
        )
    });

    let mut columns = vec!["lambda".to_string()];
    columns.extend(LOSS_LEVELS.iter().map(|p| format!("loss-{p}")));
    let col_refs: Vec<&str> = columns.iter().map(|s| s.as_str()).collect();
    let mut admission = Table::new(
        "Lossy network — REALTOR admission probability vs datagram loss",
        &col_refs,
    )
    .float_precision(4);
    let mut overhead = Table::new(
        "Lossy network — REALTOR message cost per admitted task vs datagram loss",
        &col_refs,
    )
    .float_precision(2);
    for (i, &lambda) in LAMBDAS.iter().enumerate() {
        let row = &results[i * LOSS_LEVELS.len()..(i + 1) * LOSS_LEVELS.len()];
        let mut adm = vec![Cell::Float(lambda)];
        let mut ovh = vec![Cell::Float(lambda)];
        for r in row {
            adm.push(Cell::Float(r.admission_probability()));
            ovh.push(Cell::Float(r.cost_per_admitted_task()));
        }
        admission.push_row(adm);
        overhead.push_row(ovh);
    }
    emit(out, "lossy_admission", &admission);
    emit(out, "lossy_overhead", &overhead);

    // Part 2 — chaos run: every protocol under 10 % loss + strike + jamming.
    let protocols = ProtocolKind::ALL;
    let chaos_grid = SweepGrid::new(seed)
        .with_protocols(&protocols)
        .with_lambdas(&[4.0]);
    let chaos: Vec<(SimResult, SimTime, SimTime)> =
        run_grid(&chaos_grid, &RunOpts::jobs(jobs), |cell| {
            let (scenario, strike, recover) = chaos_scenario(
                cell.protocol,
                cell.lambda,
                horizon_secs,
                cell.seed,
                0.10,
                kill_fraction,
            );
            (run_scenario(&scenario), strike, recover)
        });
    let mut summary = Table::new(
        "Lossy network — survivability under 10% loss, node strike and link jamming",
        &[
            "protocol",
            "baseline",
            "dip-depth",
            "recovery-windows",
            "admission",
            "datagrams-lost",
            "datagrams-duplicated",
        ],
    )
    .float_precision(4);
    for (p, (r, strike, recover)) in protocols.iter().zip(&chaos) {
        let ttr = r.time_to_recovery(*strike, *recover, EPSILON);
        summary.push_row(vec![
            p.label().into(),
            Cell::Float(r.baseline_admission(*strike).unwrap_or(0.0)),
            Cell::Float(r.dip_depth(*strike)),
            match ttr {
                Some(w) => Cell::Int(w as i64),
                None => Cell::Str("never".into()),
            },
            Cell::Float(r.admission_probability()),
            Cell::Int(r.ledger.lost_count as i64),
            Cell::Int(r.ledger.duplicated_count as i64),
        ]);
    }
    emit(out, "lossy_chaos_summary", &summary);
}

/// CI smoke: assert the headline robustness properties on a short horizon.
/// Panics (nonzero exit) on any violation.
pub fn smoke(seed: u64, jobs: usize) {
    let horizon = 600;
    eprintln!("lossy smoke: horizon {horizon}s, seed {seed}, jobs {jobs}");

    // Loss degrades REALTOR admission gracefully: monotone within a small
    // statistical tolerance, and never catastrophic at moderate loss.
    let grid = SweepGrid::new(seed)
        .with_lambdas(&[8.0])
        .with_losses(&LOSS_LEVELS);
    let sweep = run_grid(&grid, &RunOpts::jobs(jobs), |cell| {
        run_scenario(
            &Scenario::paper(ProtocolKind::Realtor, cell.lambda, horizon, cell.seed)
                .with_channel(LinkQuality::lossy(cell.loss)),
        )
    });
    for pair in sweep.windows(2) {
        let (a, b) = (
            pair[0].admission_probability(),
            pair[1].admission_probability(),
        );
        assert!(
            b <= a + 0.02,
            "admission must not improve with loss: {a:.4} -> {b:.4}"
        );
    }
    assert!(
        sweep[3].admission_probability() > 0.5,
        "10% loss must degrade gracefully, admission {}",
        sweep[3].admission_probability()
    );
    assert!(sweep[0].ledger.lost_count == 0 && sweep[4].ledger.lost_count > 0);

    // The chaos run is deterministic and recovers.
    let once = || {
        let (scenario, strike, recover) =
            chaos_scenario(ProtocolKind::Realtor, 4.0, horizon, seed, 0.10, 0.3);
        (run_scenario(&scenario), strike, recover)
    };
    let (a, strike, recover) = once();
    let (b, _, _) = once();
    assert!(a == b, "lossy chaos run must be bit-for-bit deterministic");
    let ttr = a.time_to_recovery(strike, recover, EPSILON);
    assert!(
        ttr.is_some(),
        "REALTOR must recover to baseline after RestoreAll (baseline {:?}, windows {:?})",
        a.baseline_admission(strike),
        a.windows
            .iter()
            .map(|w| w.admission_probability())
            .collect::<Vec<_>>()
    );
    assert!(
        a.dip_depth(strike) > 0.0,
        "the strike must leave a visible dip"
    );
    eprintln!(
        "lossy smoke ok: dip {:.3}, recovery in {} windows, {} datagrams lost",
        a.dip_depth(strike),
        ttr.unwrap(),
        a.ledger.lost_count
    );
}
