//! Ablation A4 — attack survivability: *"works well in highly adverse
//! environments."*
//!
//! A strike kills a fraction of the nodes mid-run; the victims are restored
//! later. We record windowed admission probability so the transient is
//! visible: before the strike, during the outage, and after recovery. All
//! five protocols face the identical workload and identical victim set.

use crate::output::{emit, OutDir};
use realtor_core::ProtocolKind;
use realtor_net::TargetingStrategy;
use realtor_runner::{run_grid, RunOpts, SweepGrid};
use realtor_sim::{run_scenario, Scenario};
use realtor_simcore::table::{Cell, Table};
use realtor_simcore::{SimDuration, SimTime};
use realtor_workload::AttackScenario;

/// Run the strike-and-recover experiment on `jobs` workers.
///
/// The strike hits at 40 % of the horizon and recovery happens at 70 %;
/// `kill_fraction` of the 25 nodes are killed (random targeting, seeded).
pub fn run(
    lambda: f64,
    horizon_secs: u64,
    seed: u64,
    kill_fraction: f64,
    jobs: usize,
    out: &OutDir,
) {
    let strike = SimTime::from_secs(horizon_secs * 2 / 5);
    let recover = SimTime::from_secs(horizon_secs * 7 / 10);
    let victims = ((25.0 * kill_fraction).round() as usize).max(1);
    let window = SimDuration::from_secs((horizon_secs / 20).max(1));
    eprintln!(
        "ablation A4 (attack): kill {victims}/25 nodes at {strike}, restore at {recover}, \
         lambda={lambda}, jobs {jobs}"
    );

    // Validate the scripted strike once, up front: an impossible script
    // (e.g. --kill-fraction beyond the population) is a usage error and
    // exits 2 with the typed validation message, like any bad CLI input.
    let script = AttackScenario::strike_and_recover(strike, recover, victims);
    if let Err(e) = script.validate(SimTime::from_secs(horizon_secs), 25) {
        eprintln!("error: invalid attack script: {e}");
        std::process::exit(2);
    }

    let protocols = ProtocolKind::ALL;
    let grid = SweepGrid::new(seed)
        .with_protocols(&protocols)
        .with_lambdas(&[lambda])
        .with_kills(&[victims]);
    let results = run_grid(&grid, &RunOpts::jobs(jobs), |cell| {
        let scenario = Scenario::paper(cell.protocol, cell.lambda, horizon_secs, cell.seed)
            .with_attack(
                AttackScenario::strike_and_recover(strike, recover, cell.kills),
                TargetingStrategy::Random,
            )
            .with_window(window);
        run_scenario(&scenario)
    });

    // Windowed time series: one row per window, one column per protocol.
    let mut columns = vec!["window-start".to_string(), "alive-nodes".to_string()];
    columns.extend(protocols.iter().map(|p| p.label().to_string()));
    let col_refs: Vec<&str> = columns.iter().map(|s| s.as_str()).collect();
    let mut series = Table::new(
        format!(
            "Ablation A4 — admission probability over time under attack \
             ({victims}/25 nodes killed, lambda={lambda})"
        ),
        &col_refs,
    )
    .float_precision(4);
    let window_count = results.iter().map(|r| r.windows.len()).min().unwrap_or(0);
    for w in 0..window_count {
        let mut row = vec![
            Cell::Float(results[0].windows[w].start.as_secs_f64()),
            Cell::Int(results[0].windows[w].alive_nodes as i64),
        ];
        for r in &results {
            row.push(Cell::Float(r.windows[w].admission_probability()));
        }
        series.push_row(row);
    }
    emit(out, "ablation_a4_attack_timeseries", &series);

    // Phase summary.
    let mut summary = Table::new(
        "Ablation A4 — admission probability by phase",
        &[
            "protocol",
            "before",
            "during-attack",
            "after-recovery",
            "lost-to-attacks",
        ],
    )
    .float_precision(4);
    for (p, r) in protocols.iter().zip(&results) {
        let phase = |lo: SimTime, hi: SimTime| {
            let (mut off, mut adm) = (0u64, 0u64);
            for w in &r.windows {
                if w.start >= lo && w.start < hi {
                    off += w.offered;
                    adm += w.admitted;
                }
            }
            realtor_simcore::stats::ratio(adm, off)
        };
        summary.push_row(vec![
            p.label().into(),
            Cell::Float(phase(SimTime::ZERO, strike)),
            Cell::Float(phase(strike, recover)),
            Cell::Float(phase(recover, SimTime::from_secs(horizon_secs))),
            Cell::Int(r.lost_to_attacks as i64),
        ]);
    }
    emit(out, "ablation_a4_attack_summary", &summary);
}
