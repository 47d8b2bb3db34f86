//! Parameter sweeps — the machinery that regenerates the paper's figures.
//!
//! A sweep runs one simulation per (protocol, λ) point. All five protocols
//! at a given λ share the identical workload trace (same seed), so the
//! comparison is paired exactly as in the paper's methodology ("we
//! repeatedly run the simulation for other approaches"). Points run in
//! parallel on OS threads; results are assembled in deterministic order.

use crate::config::Scenario;
use crate::metrics::SimResult;
use crate::world::run_scenario;
use realtor_core::ProtocolKind;
use realtor_simcore::table::{Cell, Table};

/// Which figure metric a table column reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FigureMetric {
    /// Figure 5: admission probability.
    AdmissionProbability,
    /// Figure 6: total message cost.
    TotalMessages,
    /// Figure 7: message cost per admitted task.
    CostPerAdmittedTask,
    /// Figure 8: migrations per admitted task.
    MigrationRate,
}

impl FigureMetric {
    /// Extract this metric from a run result.
    pub fn extract(self, r: &SimResult) -> f64 {
        match self {
            FigureMetric::AdmissionProbability => r.admission_probability(),
            FigureMetric::TotalMessages => r.total_messages(),
            FigureMetric::CostPerAdmittedTask => r.cost_per_admitted_task(),
            FigureMetric::MigrationRate => r.migration_rate(),
        }
    }

    /// Column/axis label.
    pub fn label(self) -> &'static str {
        match self {
            FigureMetric::AdmissionProbability => "admission-probability",
            FigureMetric::TotalMessages => "number-of-messages",
            FigureMetric::CostPerAdmittedTask => "message-cost-per-task",
            FigureMetric::MigrationRate => "migration-rate",
        }
    }
}

/// One (protocol, λ) result.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// The protocol.
    pub protocol: ProtocolKind,
    /// The arrival rate.
    pub lambda: f64,
    /// The run's full metrics.
    pub result: SimResult,
}

/// The output of [`run_sweep`]: every protocol at every λ.
#[derive(Debug, Clone)]
pub struct Sweep {
    /// λ values, ascending.
    pub lambdas: Vec<f64>,
    /// Protocols in legend order.
    pub protocols: Vec<ProtocolKind>,
    /// One entry per (protocol, λ), row-major in `protocols` then `lambdas`.
    pub points: Vec<SweepPoint>,
}

impl Sweep {
    /// The result for a given (protocol, λ) point.
    pub fn get(&self, protocol: ProtocolKind, lambda: f64) -> Option<&SimResult> {
        self.points
            .iter()
            .find(|p| p.protocol == protocol && p.lambda == lambda)
            .map(|p| &p.result)
    }

    /// Render one figure: λ rows, one column per protocol.
    pub fn figure(&self, metric: FigureMetric, title: &str) -> Table {
        let mut columns = vec!["lambda".to_string()];
        columns.extend(self.protocols.iter().map(|p| p.label().to_string()));
        let col_refs: Vec<&str> = columns.iter().map(|s| s.as_str()).collect();
        let mut table = Table::new(title, &col_refs).float_precision(4);
        for &lambda in &self.lambdas {
            let mut row: Vec<Cell> = vec![Cell::Float(lambda)];
            for &proto in &self.protocols {
                let v = self
                    .get(proto, lambda)
                    .map(|r| metric.extract(r))
                    .unwrap_or(f64::NAN);
                row.push(Cell::Float(v));
            }
            table.push_row(row);
        }
        table
    }
}

/// A replicated sweep: every (protocol, λ) point run at `reps` different
/// seeds, reported as mean ± 95 % CI.
#[derive(Debug, Clone)]
pub struct ReplicatedSweep {
    /// λ values, ascending.
    pub lambdas: Vec<f64>,
    /// Protocols in legend order.
    pub protocols: Vec<ProtocolKind>,
    /// Replica results per (protocol, λ), in `protocols × lambdas` order.
    pub points: Vec<(ProtocolKind, f64, Vec<SimResult>)>,
}

impl ReplicatedSweep {
    /// Replicas for one point.
    pub fn replicas(&self, protocol: ProtocolKind, lambda: f64) -> Option<&[SimResult]> {
        self.points
            .iter()
            .find(|(p, l, _)| *p == protocol && *l == lambda)
            .map(|(_, _, rs)| rs.as_slice())
    }

    /// Mean and 95 % CI half-width of a metric at one point.
    pub fn mean_ci(
        &self,
        protocol: ProtocolKind,
        lambda: f64,
        metric: FigureMetric,
    ) -> Option<(f64, f64)> {
        let rs = self.replicas(protocol, lambda)?;
        let mut w = realtor_simcore::stats::Welford::new();
        for r in rs {
            w.record(metric.extract(r));
        }
        Some((w.mean(), w.ci95_half_width()))
    }

    /// Render one figure with `mean ± ci` cells.
    pub fn figure(&self, metric: FigureMetric, title: &str) -> Table {
        let mut columns = vec!["lambda".to_string()];
        columns.extend(self.protocols.iter().map(|p| p.label().to_string()));
        let col_refs: Vec<&str> = columns.iter().map(|s| s.as_str()).collect();
        let mut table = Table::new(title, &col_refs);
        for &lambda in &self.lambdas {
            let mut row: Vec<Cell> = vec![Cell::Float(lambda)];
            for &proto in &self.protocols {
                let cell = match self.mean_ci(proto, lambda, metric) {
                    Some((m, ci)) => Cell::Str(format!("{m:.4}±{ci:.4}")),
                    None => Cell::Empty,
                };
                row.push(cell);
            }
            table.push_row(row);
        }
        table
    }
}

/// Run every (protocol, λ) point at `reps` seeds (base seed + replica
/// index), in parallel. Replicas of a point differ in workload; across
/// protocols the comparison stays paired per replica.
pub fn run_replicated_sweep(
    protocols: &[ProtocolKind],
    lambdas: &[f64],
    reps: u64,
    make_scenario: impl Fn(ProtocolKind, f64, u64) -> Scenario + Sync,
) -> ReplicatedSweep {
    assert!(reps >= 1);
    let mut jobs = Vec::new();
    for &p in protocols {
        for &l in lambdas {
            for rep in 0..reps {
                jobs.push((p, l, rep));
            }
        }
    }
    let results = run_parallel(&jobs, |&(p, l, rep)| {
        run_scenario(&make_scenario(p, l, rep))
    });
    let mut by_point: Vec<(ProtocolKind, f64, Vec<SimResult>)> = Vec::new();
    for &p in protocols {
        for &l in lambdas {
            by_point.push((p, l, Vec::with_capacity(reps as usize)));
        }
    }
    for ((p, l, _), r) in jobs.into_iter().zip(results) {
        let slot = by_point
            .iter_mut()
            .find(|(bp, bl, _)| *bp == p && *bl == l)
            .expect("point exists");
        slot.2.push(r);
    }
    ReplicatedSweep {
        lambdas: lambdas.to_vec(),
        protocols: protocols.to_vec(),
        points: by_point,
    }
}

/// Run `make_scenario(protocol, lambda)` for every combination, in parallel.
pub fn run_sweep(
    protocols: &[ProtocolKind],
    lambdas: &[f64],
    make_scenario: impl Fn(ProtocolKind, f64) -> Scenario + Sync,
) -> Sweep {
    let mut jobs: Vec<(ProtocolKind, f64)> = Vec::new();
    for &p in protocols {
        for &l in lambdas {
            jobs.push((p, l));
        }
    }
    let results: Vec<SimResult> = run_parallel(&jobs, |&(p, l)| run_scenario(&make_scenario(p, l)));
    let points = jobs
        .into_iter()
        .zip(results)
        .map(|((protocol, lambda), result)| SweepPoint {
            protocol,
            lambda,
            result,
        })
        .collect();
    Sweep {
        lambdas: lambdas.to_vec(),
        protocols: protocols.to_vec(),
        points,
    }
}

/// Run a job list on up to `available_parallelism` OS threads, preserving
/// input order in the output. A thin wrapper over `simcore::pool` — sweep
/// callers that need an explicit worker count use the grid runner instead.
pub fn run_parallel<J: Sync, R: Send>(jobs: &[J], f: impl Fn(&J) -> R + Sync) -> Vec<R> {
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(jobs.len().max(1));
    realtor_simcore::pool::run_ordered(workers, jobs, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_parallel_preserves_order() {
        let jobs: Vec<u64> = (0..50).collect();
        let out = run_parallel(&jobs, |&j| j * 2);
        assert_eq!(out, (0..50).map(|j| j * 2).collect::<Vec<_>>());
    }

    #[test]
    fn sweep_produces_full_grid() {
        let protocols = [ProtocolKind::Realtor, ProtocolKind::PurePush];
        let lambdas = [2.0, 6.0];
        let sweep = run_sweep(&protocols, &lambdas, |p, l| Scenario::paper(p, l, 100, 11));
        assert_eq!(sweep.points.len(), 4);
        assert!(sweep.get(ProtocolKind::Realtor, 2.0).is_some());
        assert!(sweep.get(ProtocolKind::PurePush, 6.0).is_some());
        assert!(sweep.get(ProtocolKind::PurePull, 2.0).is_none());
        let table = sweep.figure(FigureMetric::AdmissionProbability, "Fig 5 (mini)");
        assert_eq!(table.len(), 2);
        assert_eq!(table.columns().len(), 3);
        // Light load: both protocols admit nearly everything.
        assert!(table.value(0, 1).unwrap() > 0.95);
    }

    #[test]
    fn replicated_sweep_aggregates() {
        let protocols = [ProtocolKind::Realtor];
        let lambdas = [6.0];
        let sweep = run_replicated_sweep(&protocols, &lambdas, 4, |p, l, rep| {
            Scenario::paper(p, l, 150, 100 + rep)
        });
        let rs = sweep.replicas(ProtocolKind::Realtor, 6.0).unwrap();
        assert_eq!(rs.len(), 4);
        let (mean, ci) = sweep
            .mean_ci(
                ProtocolKind::Realtor,
                6.0,
                FigureMetric::AdmissionProbability,
            )
            .unwrap();
        assert!((0.5..=1.0).contains(&mean));
        assert!((0.0..0.2).contains(&ci), "ci {ci}");
        let table = sweep.figure(FigureMetric::AdmissionProbability, "ci test");
        assert_eq!(table.len(), 1);
        assert!(table.to_markdown().contains('±'));
    }

    #[test]
    fn metric_labels() {
        assert_eq!(
            FigureMetric::AdmissionProbability.label(),
            "admission-probability"
        );
        assert_eq!(FigureMetric::MigrationRate.label(), "migration-rate");
    }
}
