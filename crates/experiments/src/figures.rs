//! Figures 5–8: the main simulation sweep of the paper's Section 5.
//!
//! One paired λ sweep feeds all four figures: every protocol at a λ runs
//! on the grid seed itself (`SeedPolicy::Shared`), so all five see the
//! same arrivals. The sweep runs on the grid runner (`realtor-runner`):
//! cells fan out over `--jobs N` workers and come back in grid order, so
//! the emitted tables are byte-identical for any job count.

use crate::output::{emit, OutDir};
use realtor_core::ProtocolKind;
use realtor_runner::{replicate_until_ci, run_grid, CiPolicy, RunOpts, SweepGrid};
pub use realtor_sim::Figure;
use realtor_sim::{figure_table, run_scenario, Scenario, SimResult};
use realtor_simcore::table::{Cell, Table};

/// The paired λ grid shared by Figures 5–8: every protocol at every λ,
/// protocol-major, the point order `realtor_sim::figure_table` renders.
fn main_grid(lambdas: &[f64], seed: u64) -> SweepGrid {
    SweepGrid::new(seed)
        .with_protocols(&ProtocolKind::ALL)
        .with_lambdas(lambdas)
}

/// Run the paired λ sweep shared by Figures 5–8 on `jobs` workers; the
/// results are in grid order: protocol-major, every protocol at every λ.
pub fn run_main_sweep(
    lambdas: &[f64],
    horizon_secs: u64,
    seed: u64,
    jobs: usize,
) -> Vec<SimResult> {
    run_grid(&main_grid(lambdas, seed), &RunOpts::jobs(jobs), |cell| {
        run_scenario(&Scenario::paper(
            cell.protocol,
            cell.lambda,
            horizon_secs,
            cell.seed,
        ))
    })
}

/// Render and emit one figure from a [`run_main_sweep`] result.
pub fn emit_figure(
    lambdas: &[f64],
    results: &[SimResult],
    figure: Figure,
    out: &OutDir,
    plot: bool,
) {
    emit(
        out,
        figure.file_stem(),
        &figure.table(figure.title(), lambdas, results),
    );
    if plot {
        use realtor_simcore::plot::{render, PlotConfig, Series};
        let series: Vec<Series> = ProtocolKind::ALL
            .iter()
            .zip(results.chunks(lambdas.len()))
            .map(|(p, row)| {
                Series::new(
                    p.label(),
                    lambdas
                        .iter()
                        .zip(row)
                        .map(|(&l, r)| (l, figure.extract(r)))
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
    let results = run_main_sweep(lambdas, horizon_secs, seed, jobs);
    for &f in figures {
        emit_figure(lambdas, &results, f, out, plot);
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
    let grid = main_grid(lambdas, seed);
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
            |r| Figure::ALL.iter().map(|f| f.extract(r)).collect(),
        )
    });
    for &f in figures {
        let title = format!(
            "{} (mean ± 95% CI, adaptive reps to rel half-width {})",
            f.title(),
            policy.rel_half_width
        );
        let table = figure_table(&title, lambdas, |i| {
            let (m, ci) = reps[i].mean_ci(|r| f.extract(r));
            Cell::Str(format!("{m:.4}±{ci:.4}"))
        });
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
    for (c, rep) in grid.cells().iter().zip(&reps) {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_table_is_lambda_rows_by_protocol_columns() {
        let lambdas = [2.0, 6.0];
        let results = run_main_sweep(&lambdas, 100, 11, 2);
        assert_eq!(results.len(), ProtocolKind::ALL.len() * lambdas.len());
        let table = Figure::Fig5.table("Fig 5 (mini)", &lambdas, &results);
        assert_eq!(table.len(), lambdas.len());
        let columns = table.columns();
        assert_eq!(columns.len(), 1 + ProtocolKind::ALL.len());
        assert_eq!(columns[0], "lambda");
        for (col, p) in columns[1..].iter().zip(ProtocolKind::ALL) {
            assert_eq!(col, p.label());
        }
        for (l, &lambda) in lambdas.iter().enumerate() {
            assert_eq!(table.value(l, 0), Some(lambda));
            for (p, &kind) in ProtocolKind::ALL.iter().enumerate() {
                let alone = run_scenario(&Scenario::paper(kind, lambda, 100, 11));
                assert_eq!(table.value(l, 1 + p), Some(alone.admission_probability()));
            }
        }
        // Light load: every protocol admits nearly everything.
        for p in 0..ProtocolKind::ALL.len() {
            assert!(table.value(0, 1 + p).unwrap() > 0.95);
        }
    }

    #[test]
    fn ci_tables_hold_mean_and_half_width_cells() {
        let dir = std::env::temp_dir().join(format!("realtor_figures_ci_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let out = OutDir(Some(dir.clone()));
        let policy = CiPolicy::default().with_reps(3, 3);
        run_replicated(&[Figure::Fig5], &[6.0], 150, 100, &policy, 1, &out);
        let csv = std::fs::read_to_string(dir.join("fig5_admission_probability_ci.csv")).unwrap();
        let mut lines = csv.lines();
        assert_eq!(lines.next().unwrap().split(',').count(), 6);
        let row: Vec<&str> = lines.next().unwrap().split(',').collect();
        assert_eq!(row[0], "6.0000");
        for cell in &row[1..] {
            let (mean, ci) = cell.split_once('±').expect("mean±ci cell");
            let (mean, ci): (f64, f64) = (mean.parse().unwrap(), ci.parse().unwrap());
            assert!((0.5..=1.0).contains(&mean), "mean {mean}");
            assert!((0.0..0.2).contains(&ci), "ci {ci}");
        }
        assert!(lines.next().is_none());
        let reps = std::fs::read_to_string(dir.join("figures_ci_reps.csv")).unwrap();
        assert_eq!(reps.lines().count(), 1 + ProtocolKind::ALL.len());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn metric_labels() {
        let labels = Figure::ALL.map(Figure::label);
        assert_eq!(
            labels,
            [
                "admission-probability",
                "number-of-messages",
                "message-cost-per-task",
                "migration-rate"
            ]
        );
    }
}
