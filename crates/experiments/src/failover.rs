//! Failure detection, evacuation and crash recovery — the `failover`
//! experiment (A13).
//!
//! The paper argues REALTOR provides *survivability*: applications keep
//! running as nodes come under attack. The base simulation only measures
//! that indirectly (admission probability dips and recovers); this
//! experiment measures survivability directly, comparing three defence
//! postures across kill intensities on the same warned strike:
//!
//! * **none** — queued work on killed nodes silently dies (the paper's
//!   implicit model),
//! * **reactive** — peers detect the death by timeout and re-home the
//!   victims' checkpointed tasks through normal REALTOR discovery,
//! * **proactive** — an attack warning additionally evacuates pending
//!   tasks off the victims before the strike lands.
//!
//! All three arms script the *same* warned strike with the same seed, so
//! the victims are identical and every difference is the defence. The
//! smoke mode (`--smoke true`, used by CI) shrinks the horizon, asserts
//! the headline recovery properties, and still emits the summary CSV.

use crate::output::{emit, OutDir};
use realtor_core::{FailureDetectorConfig, ProtocolConfig, ProtocolKind};
use realtor_net::TargetingStrategy;
use realtor_runner::{run_grid, RunOpts, SweepGrid};
use realtor_sim::{run_scenario, RecoveryConfig, Scenario, SimResult};
use realtor_simcore::table::{Cell, Table};
use realtor_simcore::{SimDuration, SimTime};
use realtor_workload::AttackScenario;

/// Kill intensities crossed with the defence arms (out of 25 nodes).
pub const KILL_COUNTS: [usize; 3] = [4, 8, 12];

/// Seconds between the attack warning and the strike landing.
const WARNING_LEAD_SECS: u64 = 10;

/// The three defence postures under comparison.
fn arms() -> [(&'static str, RecoveryConfig); 3] {
    [
        ("none", RecoveryConfig::default()),
        ("reactive", RecoveryConfig::reactive()),
        ("proactive", RecoveryConfig::proactive()),
    ]
}

/// Resolve a grid arm name back to its recovery posture.
fn arm_config(name: &str) -> RecoveryConfig {
    arms()
        .iter()
        .find(|(n, _)| *n == name)
        .map(|&(_, cfg)| cfg)
        .unwrap_or_else(|| panic!("unknown defence arm: {name}"))
}

/// Detector sized well inside the strike-to-restore window: 4 s of silence
/// raises suspicion, 2 more confirm, swept every second.
fn detector() -> FailureDetectorConfig {
    FailureDetectorConfig {
        suspect_after: SimDuration::from_secs(4),
        confirm_after: SimDuration::from_secs(2),
        sweep_interval: SimDuration::from_secs(1),
    }
}

/// One failover cell: warned strike at 40 % of the horizon (warning
/// `WARNING_LEAD_SECS` earlier), full restore at 70 %, windowed stats.
/// Shared with the `trace` subcommand, which replays the same cell with
/// tracing attached, and with the `analyze` golden test, which pins the
/// causal analysis of its fixed-seed trace.
pub fn failover_scenario(
    lambda: f64,
    horizon_secs: u64,
    seed: u64,
    kills: usize,
    recovery: RecoveryConfig,
) -> Scenario {
    let strike_secs = horizon_secs * 2 / 5;
    assert!(strike_secs > WARNING_LEAD_SECS, "horizon too short to warn");
    let warn = SimTime::from_secs(strike_secs - WARNING_LEAD_SECS);
    let recover = SimTime::from_secs(horizon_secs * 7 / 10);
    let window = SimDuration::from_secs((horizon_secs / 20).max(1));
    let attack = AttackScenario::warned_strike_and_recover(
        warn,
        SimDuration::from_secs(WARNING_LEAD_SECS),
        recover,
        kills,
    );
    Scenario::paper(ProtocolKind::Realtor, lambda, horizon_secs, seed)
        .with_protocol_config(ProtocolConfig::paper().with_failure_detector(detector()))
        .with_attack(attack, TargetingStrategy::Random)
        .with_window(window)
        .with_recovery(recovery)
}

fn summary_table(rows: &[(&'static str, usize, SimResult)]) -> Table {
    let mut t = Table::new(
        "Failover — defence posture vs kill intensity (warned strike, same victims per seed)",
        &[
            "arm",
            "kills",
            "admission",
            "interrupted",
            "recovered",
            "destroyed",
            "recovered-frac",
            "work-destroyed",
            "work-recovered",
            "work-evacuated",
            "evac-attempts",
            "evac-successes",
            "detections",
            "mean-detect-latency",
        ],
    )
    .float_precision(4);
    for (arm, kills, r) in rows {
        t.push_row(vec![
            Cell::Str((*arm).into()),
            Cell::Int(*kills as i64),
            Cell::Float(r.admission_probability()),
            Cell::Int(r.tasks_interrupted as i64),
            Cell::Int(r.tasks_recovered as i64),
            Cell::Int(r.tasks_destroyed as i64),
            Cell::Float(r.recovered_fraction()),
            Cell::Float(r.work_destroyed),
            Cell::Float(r.work_recovered),
            Cell::Float(r.work_evacuated),
            Cell::Int(r.evacuation_attempts as i64),
            Cell::Int(r.evacuation_successes as i64),
            Cell::Int(r.detections as i64),
            Cell::Float(r.mean_detection_latency()),
        ]);
    }
    t
}

/// Run the failover experiment and emit its summary table.
pub fn run(lambda: f64, horizon_secs: u64, seed: u64, jobs: usize, out: &OutDir) {
    eprintln!(
        "failover: arms none/reactive/proactive x kills {KILL_COUNTS:?}, lambda {lambda}, \
         warned strike at 40% of {horizon_secs}s (lead {WARNING_LEAD_SECS}s), restore at 70%, \
         jobs {jobs}"
    );
    // Grid order (arm slowest, kills fastest) matches the table's rows.
    let grid = SweepGrid::new(seed)
        .with_arms(arms().iter().map(|&(name, _)| name))
        .with_kills(&KILL_COUNTS)
        .with_lambdas(&[lambda]);
    let results = run_grid(&grid, &RunOpts::jobs(jobs), |cell| {
        run_scenario(&failover_scenario(
            cell.lambda,
            horizon_secs,
            cell.seed,
            cell.kills,
            arm_config(&cell.arm),
        ))
    });
    let rows: Vec<(&'static str, usize, SimResult)> = grid
        .cells()
        .iter()
        .zip(results)
        .map(|(cell, r)| {
            let name = arms()
                .iter()
                .find(|(n, _)| *n == cell.arm)
                .map(|&(n, _)| n)
                .expect("arm name is static");
            (name, cell.kills, r)
        })
        .collect();
    emit(out, "failover_summary", &summary_table(&rows));
}

/// CI smoke: assert the headline recovery properties on a short horizon
/// and still emit the summary CSV. Panics (nonzero exit) on any violation.
pub fn smoke(seed: u64, out: &OutDir) {
    let horizon = 800;
    let kills = 6;
    let lambda = 6.0;
    eprintln!("failover smoke: horizon {horizon}s, {kills} kills, lambda {lambda}, seed {seed}");

    let cell = |cfg| run_scenario(&failover_scenario(lambda, horizon, seed, kills, cfg));
    let none = cell(RecoveryConfig::default());
    let reactive = cell(RecoveryConfig::reactive());
    let proactive = cell(RecoveryConfig::proactive());

    // No defence: interrupted work dies silently, with no task ledger.
    assert!(none.work_destroyed > 0.0, "the strike must destroy work");
    assert_eq!(none.tasks_recovered, 0);
    assert_eq!(
        none.tasks_interrupted, 0,
        "no task identity without recovery"
    );

    // Reactive: detection happens and some checkpoints find new homes.
    assert!(
        reactive.tasks_interrupted > 0,
        "strike must interrupt tasks"
    );
    assert!(
        reactive.tasks_recovered > 0,
        "recovery must re-home some tasks"
    );
    assert!(
        reactive.detections >= 1,
        "the detector must confirm the outage"
    );
    let latency = reactive.mean_detection_latency();
    assert!(
        latency > 0.0 && latency <= 10.0,
        "detection latency {latency} outside the detector's windows"
    );

    // Proactive: the warning is acted on and beats the strike for some work.
    assert!(
        proactive.evacuation_attempts > 0,
        "warning must trigger evacuation"
    );
    assert!(
        proactive.evacuation_successes > 0,
        "some evacuations must land"
    );
    assert!(proactive.work_evacuated > 0.0);

    // Determinism: the same seed reproduces every arm bit-for-bit.
    assert!(
        cell(RecoveryConfig::reactive()) == reactive
            && cell(RecoveryConfig::proactive()) == proactive,
        "failover runs must be deterministic"
    );

    let rows = vec![
        ("none", kills, none),
        ("reactive", kills, reactive),
        ("proactive", kills, proactive),
    ];
    emit(out, "failover_summary", &summary_table(&rows));
    let r = &rows[1].2;
    eprintln!(
        "failover smoke ok: {} interrupted, {} recovered ({:.1}%), detection {:.2}s, \
         {} evacuations landed",
        r.tasks_interrupted,
        r.tasks_recovered,
        100.0 * r.recovered_fraction(),
        r.mean_detection_latency(),
        rows[2].2.evacuation_successes
    );
}
