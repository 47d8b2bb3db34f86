//! Ablation A8 — placement quality: how evenly does each discovery protocol
//! spread admitted work across the system?
//!
//! The paper evaluates *whether* a destination is found; this ablation asks
//! *how good* the destinations are, using Jain's fairness index of per-node
//! admitted work and the spread of time-averaged queue occupancy. A
//! discovery scheme with stale information funnels migrations to whichever
//! node last advertised, producing hot spots.

use crate::output::{emit, OutDir};
use realtor_core::ProtocolKind;
use realtor_runner::{run_grid, RunOpts, SweepGrid};
use realtor_sim::{run_scenario, Scenario};
use realtor_simcore::table::{Cell, Table};

/// Run the balance comparison at the given loads on `jobs` workers.
pub fn run(lambdas: &[f64], horizon_secs: u64, seed: u64, jobs: usize, out: &OutDir) {
    // Grid order (protocol slowest, λ fastest) matches the table's rows.
    let grid = SweepGrid::new(seed)
        .with_protocols(&ProtocolKind::ALL)
        .with_lambdas(lambdas);
    eprintln!("ablation A8 (balance): {} points, jobs {jobs}", grid.len());
    let results = run_grid(&grid, &RunOpts::jobs(jobs), |cell| {
        run_scenario(&Scenario::paper(
            cell.protocol,
            cell.lambda,
            horizon_secs,
            cell.seed,
        ))
    });
    let points: Vec<(ProtocolKind, f64)> = grid
        .cells()
        .iter()
        .map(|c| (c.protocol, c.lambda))
        .collect();
    let mut table = Table::new(
        "Ablation A8 — placement fairness and occupancy spread",
        &[
            "protocol",
            "lambda",
            "admission-probability",
            "jain-fairness",
            "mean-occupancy",
            "max-occupancy",
        ],
    )
    .float_precision(4);
    for ((p, l), r) in points.into_iter().zip(results) {
        let (mean_occ, max_occ) = r.occupancy_spread();
        table.push_row(vec![
            p.label().into(),
            Cell::Float(l),
            Cell::Float(r.admission_probability()),
            Cell::Float(r.placement_fairness()),
            Cell::Float(mean_occ),
            Cell::Float(max_occ),
        ]);
    }
    emit(out, "ablation_a8_balance", &table);
}
