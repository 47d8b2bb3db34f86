//! Figures 5–8: the main simulation sweep of the paper's Section 5.
//!
//! Since PR 6 the sweep executes through the deterministic grid runner
//! (`realtor-runner`): cells fan out over `--jobs N` workers and come back
//! in grid order, so the emitted tables are byte-identical for any job
//! count — and bit-exact with the historical serial driver, because the
//! grid keeps the paper's shared-seed paired-comparison policy.

use crate::output::{emit, OutDir};
use realtor_core::ProtocolKind;
use realtor_runner::{replicate_until_ci, run_grid, CiPolicy, RunOpts, SweepGrid};
use realtor_sim::sweep::SweepPoint;
use realtor_sim::{run_scenario, FigureMetric, ReplicatedSweep, Scenario, Sweep};
use realtor_simcore::table::{Cell, Table};

/// Run the paired λ sweep shared by Figures 5–8 on `jobs` workers.
pub fn run_main_sweep(lambdas: &[f64], horizon_secs: u64, seed: u64, jobs: usize) -> Sweep {
    let grid = SweepGrid::new(seed)
        .with_protocols(&ProtocolKind::ALL)
        .with_lambdas(lambdas);
    let results = run_grid(&grid, &RunOpts::jobs(jobs), |cell| {
        run_scenario(&Scenario::paper(
            cell.protocol,
            cell.lambda,
            horizon_secs,
            cell.seed,
        ))
    });
    let points = grid
        .cells()
        .iter()
        .zip(results)
        .map(|(cell, result)| SweepPoint {
            protocol: cell.protocol,
            lambda: cell.lambda,
            result,
        })
        .collect();
    Sweep {
        lambdas: lambdas.to_vec(),
        protocols: ProtocolKind::ALL.to_vec(),
        points,
    }
}

/// Which figures to emit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Figure {
    Fig5,
    Fig6,
    Fig7,
    Fig8,
}

impl Figure {
    pub fn metric(self) -> FigureMetric {
        match self {
            Figure::Fig5 => FigureMetric::AdmissionProbability,
            Figure::Fig6 => FigureMetric::TotalMessages,
            Figure::Fig7 => FigureMetric::CostPerAdmittedTask,
            Figure::Fig8 => FigureMetric::MigrationRate,
        }
    }

    pub fn title(self) -> &'static str {
        match self {
            Figure::Fig5 => "Figure 5 — Admission probability",
            Figure::Fig6 => "Figure 6 — Number of messages exchanged",
            Figure::Fig7 => "Figure 7 — Communication cost per admitted task",
            Figure::Fig8 => "Figure 8 — Migration rate",
        }
    }

    pub fn file_stem(self) -> &'static str {
        match self {
            Figure::Fig5 => "fig5_admission_probability",
            Figure::Fig6 => "fig6_number_of_messages",
            Figure::Fig7 => "fig7_cost_per_admitted_task",
            Figure::Fig8 => "fig8_migration_rate",
        }
    }
}

/// Render and emit one figure from a sweep.
pub fn emit_figure(sweep: &Sweep, figure: Figure, out: &OutDir, plot: bool) {
    let table = sweep.figure(figure.metric(), figure.title());
    emit(out, figure.file_stem(), &table);
    if plot {
        use realtor_simcore::plot::{render, PlotConfig, Series};
        let series: Vec<Series> = sweep
            .protocols
            .iter()
            .map(|&p| {
                Series::new(
                    p.label(),
                    sweep
                        .lambdas
                        .iter()
                        .filter_map(|&l| sweep.get(p, l).map(|r| (l, figure.metric().extract(r))))
                        .collect(),
                )
            })
            .collect();
        let log_y = figure == Figure::Fig6; // the paper's message counts span decades
        println!(
            "{}",
            render(
                &series,
                &PlotConfig {
                    title: figure.title().to_string(),
                    width: 70,
                    height: 20,
                    log_y,
                    y_range: None,
                }
            )
        );
    }
}

/// Run and emit the requested figures (they share one sweep).
pub fn run(
    figures: &[Figure],
    lambdas: &[f64],
    horizon_secs: u64,
    seed: u64,
    jobs: usize,
    out: &OutDir,
    plot: bool,
) {
    eprintln!(
        "running main sweep: {} protocols x {} lambdas, horizon {horizon_secs}s, seed {seed}, \
         jobs {jobs}",
        ProtocolKind::ALL.len(),
        lambdas.len()
    );
    let sweep = run_main_sweep(lambdas, horizon_secs, seed, jobs);
    for &f in figures {
        emit_figure(&sweep, f, out, plot);
    }
}

/// Replicated variant: every (protocol, λ) point is re-run with fresh
/// replication seeds until the 95% CI half-width of every figure metric
/// falls below `policy.rel_half_width` (relative to its mean) or
/// `policy.max_reps` is hit. Replication seeds derive from the cell's
/// coordinate label, never its position, so adding λs or protocols leaves
/// existing points' replicas untouched. Emits the four `<stem>_ci.csv`
/// figures plus `figures_ci_reps.csv` recording how many replications each
/// point needed.
pub fn run_replicated(
    figures: &[Figure],
    lambdas: &[f64],
    horizon_secs: u64,
    seed: u64,
    policy: &CiPolicy,
    jobs: usize,
    out: &OutDir,
) {
    eprintln!(
        "running CI-width replicated sweep: {} protocols x {} lambdas, horizon {horizon_secs}s, \
         target rel half-width {}, reps {}..{}, jobs {jobs}",
        ProtocolKind::ALL.len(),
        lambdas.len(),
        policy.rel_half_width,
        policy.min_reps,
        policy.max_reps
    );
    let grid = SweepGrid::new(seed)
        .with_protocols(&ProtocolKind::ALL)
        .with_lambdas(lambdas);
    let reps = run_grid(&grid, &RunOpts::jobs(jobs), |cell| {
        replicate_until_ci(
            policy,
            seed,
            &cell.label(),
            |rep_seed| {
                run_scenario(&Scenario::paper(
                    cell.protocol,
                    cell.lambda,
                    horizon_secs,
                    rep_seed,
                ))
            },
            |r| {
                vec![
                    r.admission_probability(),
                    r.total_messages(),
                    r.cost_per_admitted_task(),
                    r.migration_rate(),
                ]
            },
        )
    });
    let cells = grid.cells();
    let sweep = ReplicatedSweep {
        lambdas: lambdas.to_vec(),
        protocols: ProtocolKind::ALL.to_vec(),
        points: cells
            .iter()
            .zip(&reps)
            .map(|(c, rep)| (c.protocol, c.lambda, rep.results.clone()))
            .collect(),
    };
    for &f in figures {
        let table = sweep.figure(
            f.metric(),
            &format!(
                "{} (mean ± 95% CI, adaptive reps to rel half-width {})",
                f.title(),
                policy.rel_half_width
            ),
        );
        emit(out, &format!("{}_ci", f.file_stem()), &table);
    }
    // The replication ledger: reps spent and the worst relative half-width
    // reached, per point.
    let mut ledger = Table::new(
        "CI-width replication — replications per (protocol, lambda) point",
        &[
            "protocol",
            "lambda",
            "reps",
            "converged",
            "worst-rel-half-width",
        ],
    )
    .float_precision(4);
    for (c, rep) in cells.iter().zip(&reps) {
        ledger.push_row(vec![
            Cell::Str(c.protocol.label().into()),
            Cell::Float(c.lambda),
            Cell::Int(rep.reps as i64),
            Cell::Str(if rep.converged { "yes" } else { "cap" }.into()),
            Cell::Float(rep.worst_rel_half_width),
        ]);
    }
    emit(out, "figures_ci_reps", &ledger);
}
