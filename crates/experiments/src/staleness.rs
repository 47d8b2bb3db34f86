//! Ablation A9 — information staleness: the paper's Figure-8 discussion
//! blames pull-based schemes' low effectiveness on out-of-date pledges
//! ("the information can be out-of-dated rather easily"). This ablation
//! quantifies that: sweep the `info_ttl` freshness bound on the candidate
//! store and report how admission and the one-shot migration *success*
//! ratio respond.
//!
//! A short TTL discards stale reports (fewer candidates, but honest);
//! `none` keeps the latest report forever (more candidates, more refusals).

use crate::output::{emit, OutDir};
use realtor_core::{ProtocolConfig, ProtocolKind};
use realtor_sim::{run_scenario, Scenario};
use realtor_simcore::pool::run_ordered;
use realtor_simcore::table::{Cell, Table};
use realtor_simcore::SimDuration;

/// Run the staleness sweep at a fixed overload point; points run on `jobs`
/// workers, all at the same seed.
pub fn run(lambda: f64, horizon_secs: u64, seed: u64, jobs: usize, out: &OutDir) {
    let ttls: [(&str, Option<SimDuration>); 5] = [
        ("none (keep forever)", None),
        ("100s", Some(SimDuration::from_secs(100))),
        ("20s", Some(SimDuration::from_secs(20))),
        ("5s", Some(SimDuration::from_secs(5))),
        ("1s", Some(SimDuration::from_secs(1))),
    ];
    let protocols = [
        ProtocolKind::PurePull,
        ProtocolKind::AdaptivePull,
        ProtocolKind::Realtor,
    ];
    let mut points = Vec::new();
    for &p in &protocols {
        for &(name, ttl) in &ttls {
            points.push((p, name, ttl));
        }
    }
    eprintln!(
        "ablation A9 (staleness): {} points at lambda={lambda}",
        points.len()
    );
    let results = run_ordered(jobs, &points, |&(p, _, ttl)| {
        let mut cfg = ProtocolConfig::paper();
        cfg.info_ttl = ttl;
        run_scenario(&Scenario::paper(p, lambda, horizon_secs, seed).with_protocol_config(cfg))
    });
    let mut table = Table::new(
        format!("Ablation A9 — candidate-info staleness bound (lambda={lambda})"),
        &[
            "protocol",
            "info-ttl",
            "admission-probability",
            "migration-attempts",
            "migration-success-ratio",
        ],
    )
    .float_precision(4);
    for ((p, name, _), r) in points.into_iter().zip(results) {
        table.push_row(vec![
            p.label().into(),
            name.into(),
            Cell::Float(r.admission_probability()),
            Cell::Int(r.migration_attempts as i64),
            Cell::Float(realtor_simcore::stats::ratio(
                r.migration_successes,
                r.migration_attempts,
            )),
        ]);
    }
    emit(out, "ablation_a9_staleness", &table);
}
