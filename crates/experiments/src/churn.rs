//! Chaos churn experiment (A16) — survivability under *continuous* node
//! replacement rather than a single scripted strike.
//!
//! A [`ChurnProcess`](realtor_workload::ChurnProcess) replaces a fraction of the population every interval
//! inside a churn window: each wave kills fresh victims (drawn from a
//! dedicated seed-split RNG stream) and amnesiac-restores the previous
//! wave's. The sweep crosses churn rate × failure-detector timeout ×
//! protocol on the deterministic grid runner, so `--jobs N` produces
//! byte-identical artifacts for any N.
//!
//! The grid runner's cell label format is pinned (golden-tested), so the
//! churn-rate and detector axes ride the **arm** axis as composite strings
//! (`churn=0.05/det=4`) instead of new grid axes.
//!
//! Reported per cell: overall admission probability, the windowed-admission
//! dip depth below the pre-churn baseline, windows-to-recovery after the
//! churn window closes, and the interrupted/recovered/destroyed task
//! ledger — whose invariant `interrupted == recovered + destroyed` is
//! asserted on every cell, every run.

use crate::output::{emit, OutDir};
use realtor_core::{FailureDetectorConfig, ProtocolConfig, ProtocolKind};
use realtor_runner::{run_grid, RunOpts, SweepGrid};
use realtor_sim::{run_scenario, ChaosConfig, RecoveryConfig, Scenario, SimResult};
use realtor_simcore::table::{Cell, Table};
use realtor_simcore::{SimDuration, SimTime};
use realtor_workload::ChurnConfig;

/// Fraction of the population replaced per churn wave.
pub const CHURN_FRACTIONS: [f64; 2] = [0.05, 0.15];

/// Failure-detector suspicion timeouts (seconds of silence) under test.
pub const DETECTOR_TIMEOUTS: [u64; 2] = [4, 8];

/// Composite arm strings — the grid's label format is pinned, so the two
/// churn axes share the arm axis as `churn=<frac>/det=<secs>`.
fn arms() -> Vec<String> {
    let mut out = Vec::new();
    for &frac in &CHURN_FRACTIONS {
        for &det in &DETECTOR_TIMEOUTS {
            out.push(format!("churn={frac}/det={det}"));
        }
    }
    out
}

/// Parse a composite arm back into (fraction, detector timeout).
fn parse_arm(arm: &str) -> (f64, u64) {
    let (churn, det) = arm.split_once('/').expect("arm is churn=<f>/det=<s>");
    let frac = churn
        .strip_prefix("churn=")
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("bad churn arm: {arm}"));
    let secs = det
        .strip_prefix("det=")
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("bad detector arm: {arm}"));
    (frac, secs)
}

/// Churn window boundaries: waves run from 20% to 70% of the horizon, so
/// every run has a clean pre-churn baseline and a recovery tail.
fn churn_window(horizon_secs: u64) -> (SimTime, SimTime) {
    (
        SimTime::from_secs(horizon_secs / 5),
        SimTime::from_secs(horizon_secs * 7 / 10),
    )
}

/// One churn cell: paper scenario + reactive recovery + a failure detector
/// at the arm's timeout + continuous churn at the arm's rate. Public so
/// the integration tests replay the exact cells the CLI runs.
pub fn churn_scenario(
    protocol: ProtocolKind,
    lambda: f64,
    horizon_secs: u64,
    seed: u64,
    fraction: f64,
    detect_secs: u64,
) -> Scenario {
    let (start, end) = churn_window(horizon_secs);
    let interval = SimDuration::from_secs((horizon_secs / 40).max(5));
    let window = SimDuration::from_secs((horizon_secs / 20).max(1));
    let detector = FailureDetectorConfig {
        suspect_after: SimDuration::from_secs(detect_secs),
        confirm_after: SimDuration::from_secs(2),
        sweep_interval: SimDuration::from_secs(1),
    };
    Scenario::paper(protocol, lambda, horizon_secs, seed)
        .with_protocol_config(ProtocolConfig::paper().with_failure_detector(detector))
        .with_window(window)
        .with_recovery(RecoveryConfig::reactive())
        .with_chaos(ChaosConfig::churn(ChurnConfig::new(
            fraction, interval, start, end,
        )))
}

/// Assert the survivability task ledger on one cell and return the result.
fn checked(label: &str, r: SimResult) -> SimResult {
    assert_eq!(
        r.tasks_interrupted,
        r.tasks_recovered + r.tasks_destroyed,
        "ledger invariant violated on cell {label}"
    );
    r
}

fn summary_table(horizon_secs: u64, rows: &[(String, ProtocolKind, SimResult)]) -> Table {
    let (start, end) = churn_window(horizon_secs);
    let mut t = Table::new(
        "Churn (A16) — admission under continuous node replacement \
         (waves from 20% to 70% of the horizon, reactive recovery)",
        &[
            "arm",
            "protocol",
            "admission",
            "dip-depth",
            "windows-to-recovery",
            "interrupted",
            "recovered",
            "destroyed",
            "recovered-frac",
            "detections",
        ],
    )
    .float_precision(4);
    for (arm, protocol, r) in rows {
        let recovery = r
            .time_to_recovery(start, end, 0.05)
            .map(|w| Cell::Int(w as i64))
            .unwrap_or_else(|| Cell::Str("never".into()));
        t.push_row(vec![
            Cell::Str(arm.clone()),
            Cell::Str(protocol.label().into()),
            Cell::Float(r.admission_probability()),
            Cell::Float(r.dip_depth(start)),
            recovery,
            Cell::Int(r.tasks_interrupted as i64),
            Cell::Int(r.tasks_recovered as i64),
            Cell::Int(r.tasks_destroyed as i64),
            Cell::Float(r.recovered_fraction()),
            Cell::Int(r.detections as i64),
        ]);
    }
    t
}

/// Run the churn sweep and emit `churn_summary.csv`.
pub fn run(lambda: f64, horizon_secs: u64, seed: u64, jobs: usize, out: &OutDir) {
    let arms = arms();
    eprintln!(
        "churn (A16): {} arms (rates {CHURN_FRACTIONS:?} x detectors {DETECTOR_TIMEOUTS:?}s) \
         x {} protocols, lambda {lambda}, horizon {horizon_secs}s, jobs {jobs}",
        arms.len(),
        ProtocolKind::ALL.len()
    );
    let grid = SweepGrid::new(seed)
        .with_arms(arms)
        .with_protocols(&ProtocolKind::ALL)
        .with_lambdas(&[lambda]);
    let results = run_grid(&grid, &RunOpts::jobs(jobs), |cell| {
        let (fraction, detect) = parse_arm(&cell.arm);
        let r = run_scenario(&churn_scenario(
            cell.protocol,
            cell.lambda,
            horizon_secs,
            cell.seed,
            fraction,
            detect,
        ));
        checked(&cell.label(), r)
    });
    let rows: Vec<(String, ProtocolKind, SimResult)> = grid
        .cells()
        .iter()
        .zip(results)
        .map(|(cell, r)| (cell.arm.clone(), cell.protocol, r))
        .collect();
    emit(out, "churn_summary", &summary_table(horizon_secs, &rows));
}

/// CI smoke: a tiny grid on a short horizon, asserting the headline chaos
/// properties and grid determinism. Panics (nonzero exit) on violation.
pub fn smoke(seed: u64, jobs: usize, out: &OutDir) {
    let horizon = 600;
    let lambda = 6.0;
    eprintln!("churn smoke: horizon {horizon}s, lambda {lambda}, seed {seed}, jobs {jobs}");
    let grid = SweepGrid::new(seed)
        .with_arms(["churn=0.1/det=4"])
        .with_protocols(&[ProtocolKind::Realtor, ProtocolKind::PurePull])
        .with_lambdas(&[lambda]);
    let run_cells = |jobs: usize| {
        run_grid(
            &grid,
            &RunOpts {
                jobs,
                progress: false,
            },
            |cell| {
                let (fraction, detect) = parse_arm(&cell.arm);
                let r = run_scenario(&churn_scenario(
                    cell.protocol,
                    cell.lambda,
                    horizon,
                    cell.seed,
                    fraction,
                    detect,
                ));
                checked(&cell.label(), r)
            },
        )
    };
    let results = run_cells(jobs);
    // Churn must actually interrupt work, and recovery must re-home some.
    let realtor = &results[0];
    assert!(realtor.tasks_interrupted > 0, "churn must interrupt tasks");
    assert!(
        realtor.tasks_recovered > 0,
        "recovery must re-home some tasks"
    );
    assert!(realtor.dip_depth(churn_window(horizon).0) >= 0.0);
    // Thread-count invariance: the same grid at another job count is
    // bit-identical.
    assert!(
        run_cells(1) == results && run_cells(2) == results,
        "churn grid must be thread-count invariant"
    );
    let rows: Vec<(String, ProtocolKind, SimResult)> = grid
        .cells()
        .iter()
        .zip(results)
        .map(|(cell, r)| (cell.arm.clone(), cell.protocol, r))
        .collect();
    emit(out, "churn_summary", &summary_table(horizon, &rows));
    let r = &rows[0].2;
    eprintln!(
        "churn smoke ok: {} interrupted, {} recovered, {} destroyed, admission {:.3}",
        r.tasks_interrupted,
        r.tasks_recovered,
        r.tasks_destroyed,
        r.admission_probability()
    );
}
