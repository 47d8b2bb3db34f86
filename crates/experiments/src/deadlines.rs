//! Ablation A11 — the guaranteed-rate scheduling claim (§3): with EDF over
//! utilization-test admission, admitted components meet their deadlines;
//! a FIFO host with the same admission test does not.
//!
//! Synthetic periodic task sets are drawn at increasing total utilization;
//! each set runs on a preemptive-EDF host and on a non-preemptive FIFO
//! host, and we report deadline-miss ratios. Since PR 7 the utilization
//! points fan out over the grid runner's arm axis (`u=<target>`) behind
//! `--jobs N`; per-trial task-set seeds come from the position-independent
//! `indexed_stream(seed, "deadline-sets", trial)` split, so parallel
//! execution is byte-identical to the historical serial loop.

use crate::output::{emit, OutDir};
use realtor_node::rt::{simulate_periodic, DispatchPolicy, PeriodicTask};
use realtor_runner::{run_grid, RunOpts, SweepGrid};
use realtor_simcore::table::{Cell, Table};
use realtor_simcore::{SimRng, SimTime};

/// Total-utilization targets swept (spanning the EDF feasibility bound).
pub const UTILIZATIONS: [f64; 7] = [0.5, 0.7, 0.9, 0.95, 1.0, 1.1, 1.3];

/// Draw a task set with total utilization ≈ `target_u`.
fn draw_task_set(target_u: f64, rng: &mut SimRng) -> Vec<PeriodicTask> {
    let mut tasks = Vec::new();
    let mut remaining = target_u;
    while remaining > 0.02 && tasks.len() < 12 {
        let u = (rng.range_f64(0.05, 0.25)).min(remaining);
        let period = rng.range_f64(2.0, 40.0);
        tasks.push(PeriodicTask {
            wcet_secs: u * period,
            period_secs: period,
        });
        remaining -= u;
    }
    if tasks.is_empty() {
        tasks.push(PeriodicTask {
            wcet_secs: target_u.max(0.02) * 10.0,
            period_secs: 10.0,
        });
    }
    tasks
}

/// Aggregated counters of one utilization point.
struct Point {
    edf_missed: u64,
    edf_done: u64,
    fifo_missed: u64,
    fifo_done: u64,
    jobs_released: u64,
}

/// Run all trials of one utilization target.
fn run_point(target_u: f64, horizon: SimTime, seed: u64, trials: usize) -> Point {
    let mut p = Point {
        edf_missed: 0,
        edf_done: 0,
        fifo_missed: 0,
        fifo_done: 0,
        jobs_released: 0,
    };
    for trial in 0..trials {
        let mut rng = SimRng::indexed_stream(seed, "deadline-sets", trial as u64);
        let tasks = draw_task_set(target_u, &mut rng);
        let edf = simulate_periodic(&tasks, DispatchPolicy::EdfPreemptive, horizon);
        let fifo = simulate_periodic(&tasks, DispatchPolicy::FifoNonPreemptive, horizon);
        p.edf_missed += edf.missed;
        p.edf_done += edf.completed;
        p.fifo_missed += fifo.missed;
        p.fifo_done += fifo.completed;
        p.jobs_released += edf.released;
    }
    p
}

/// Run the utilization sweep on `jobs` workers and emit the comparison.
pub fn run(horizon_secs: u64, seed: u64, trials: usize, jobs: usize, out: &OutDir) {
    eprintln!("ablation A11 (deadlines): EDF vs FIFO, {trials} task sets per point, jobs {jobs}");
    let horizon = SimTime::from_secs(horizon_secs);
    let grid = SweepGrid::new(seed).with_arms(UTILIZATIONS.iter().map(|u| format!("u={u}")));
    let points = run_grid(&grid, &RunOpts::jobs(jobs), |cell| {
        let target_u: f64 = cell
            .arm
            .strip_prefix("u=")
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("bad utilization arm: {}", cell.arm));
        run_point(target_u, horizon, cell.seed, trials)
    });
    let mut table = Table::new(
        "Ablation A11 — deadline-miss ratio: preemptive EDF vs non-preemptive FIFO",
        &[
            "utilization",
            "edf-miss-ratio",
            "fifo-miss-ratio",
            "jobs-per-trial",
        ],
    )
    .float_precision(4);
    for (&target_u, p) in UTILIZATIONS.iter().zip(&points) {
        table.push_row(vec![
            Cell::Float(target_u),
            Cell::Float(realtor_simcore::stats::ratio(p.edf_missed, p.edf_done)),
            Cell::Float(realtor_simcore::stats::ratio(p.fifo_missed, p.fifo_done)),
            Cell::Int((p.jobs_released / trials as u64) as i64),
        ]);
    }
    emit(out, "ablation_a11_deadlines", &table);
}
