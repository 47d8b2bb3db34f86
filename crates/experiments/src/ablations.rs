//! Ablations A1/A2 — sensitivity of REALTOR to the Algorithm H parameters
//! (`alpha`, `beta`, `Upper_limit`) and to the H/P thresholds.

use crate::output::{emit, OutDir};
use realtor_core::{ProtocolConfig, ProtocolKind};
use realtor_sim::sweep::run_parallel;
use realtor_sim::{run_scenario, Scenario};
use realtor_simcore::table::{Cell, Table};
use realtor_simcore::SimDuration;

/// A1: sweep `alpha` × `beta` (and a small `Upper_limit` set) at a fixed
/// overload point and report admission probability and cost per admitted
/// task.
pub fn run_algorithm_h(lambda: f64, horizon_secs: u64, seed: u64, out: &OutDir) {
    let alphas = [0.1, 0.25, 0.5, 1.0, 2.0];
    let betas = [0.1, 0.25, 0.5, 0.75];
    let uppers = [10u64, 100, 1000];
    let mut jobs = Vec::new();
    for &upper in &uppers {
        for &alpha in &alphas {
            for &beta in &betas {
                jobs.push((upper, alpha, beta));
            }
        }
    }
    eprintln!(
        "ablation A1 (Algorithm H): {} points at lambda={lambda}",
        jobs.len()
    );
    let results = run_parallel(&jobs, |&(upper, alpha, beta)| {
        let cfg = ProtocolConfig::paper()
            .with_alpha(alpha)
            .with_beta(beta)
            .with_upper_limit(SimDuration::from_secs(upper));
        let scenario = Scenario::paper(ProtocolKind::Realtor, lambda, horizon_secs, seed)
            .with_protocol_config(cfg);
        run_scenario(&scenario)
    });
    let mut table = Table::new(
        format!("Ablation A1 — Algorithm H parameters (REALTOR, lambda={lambda})"),
        &[
            "upper_limit",
            "alpha",
            "beta",
            "admission-probability",
            "cost-per-admitted-task",
            "help-floods",
        ],
    )
    .float_precision(4);
    for ((upper, alpha, beta), r) in jobs.into_iter().zip(results) {
        table.push_row(vec![
            Cell::Int(upper as i64),
            Cell::Float(alpha),
            Cell::Float(beta),
            Cell::Float(r.admission_probability()),
            Cell::Float(r.cost_per_admitted_task()),
            Cell::Int(r.ledger.help_count as i64),
        ]);
    }
    emit(out, "ablation_a1_algorithm_h", &table);
}

/// A2: sweep the H/P occupancy thresholds for every protocol that uses them.
pub fn run_thresholds(lambda: f64, horizon_secs: u64, seed: u64, out: &OutDir) {
    let thresholds = [0.5, 0.6, 0.7, 0.8, 0.9, 0.95];
    let protocols = [
        ProtocolKind::Realtor,
        ProtocolKind::AdaptivePull,
        ProtocolKind::AdaptivePush,
        ProtocolKind::PurePull,
    ];
    let mut jobs = Vec::new();
    for &p in &protocols {
        for &th in &thresholds {
            jobs.push((p, th));
        }
    }
    eprintln!(
        "ablation A2 (thresholds): {} points at lambda={lambda}",
        jobs.len()
    );
    let results = run_parallel(&jobs, |&(p, th)| {
        let cfg = ProtocolConfig::paper()
            .with_help_threshold(th)
            .with_pledge_threshold(th);
        let scenario = Scenario::paper(p, lambda, horizon_secs, seed).with_protocol_config(cfg);
        run_scenario(&scenario)
    });
    let mut table = Table::new(
        format!("Ablation A2 — H/P threshold sensitivity (lambda={lambda})"),
        &[
            "protocol",
            "threshold",
            "admission-probability",
            "cost-per-admitted-task",
            "migration-rate",
        ],
    )
    .float_precision(4);
    for ((p, th), r) in jobs.into_iter().zip(results) {
        table.push_row(vec![
            p.label().into(),
            Cell::Float(th),
            Cell::Float(r.admission_probability()),
            Cell::Float(r.cost_per_admitted_task()),
            Cell::Float(r.migration_rate()),
        ]);
    }
    emit(out, "ablation_a2_thresholds", &table);
}
