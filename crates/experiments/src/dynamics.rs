//! Ablation A10 — Algorithm H interval dynamics over time.
//!
//! The adaptive HELP interval is the paper's central control mechanism:
//! it should sit at its minimum while discovery pays off, climb toward
//! `Upper_limit` under hopeless overload, and fall again when capacity
//! returns. We drive REALTOR through a load step (overload for the middle
//! third of the run via an MMPP burst) and plot the mean/max interval
//! sampled once per window.

use crate::output::{emit, OutDir};
use realtor_core::ProtocolKind;
use realtor_sim::{run_scenario, Scenario};
use realtor_simcore::plot::{render, PlotConfig, Series};
use realtor_simcore::table::{Cell, Table};
use realtor_simcore::SimDuration;
use realtor_workload::ArrivalProcess;

/// Run the load-step experiment and emit table + ASCII plot.
pub fn run(horizon_secs: u64, seed: u64, out: &OutDir) {
    eprintln!("ablation A10 (interval dynamics): REALTOR under an MMPP load step");
    let mut scenario = Scenario::paper(ProtocolKind::Realtor, 4.0, horizon_secs, seed)
        .with_window(SimDuration::from_secs((horizon_secs / 60).max(1)));
    // Calm at λ=3 (well below capacity), bursting at λ=12 (2.4x capacity),
    // with sojourns long enough that Algorithm H visibly adapts.
    scenario.workload.arrivals = ArrivalProcess::Mmpp {
        calm_rate: 3.0,
        burst_rate: 12.0,
        mean_calm_secs: horizon_secs as f64 / 4.0,
        mean_burst_secs: horizon_secs as f64 / 4.0,
    };
    let r = run_scenario(&scenario);

    let mut table = Table::new(
        "Ablation A10 — Algorithm H interval dynamics under an MMPP load step (REALTOR)",
        &[
            "time",
            "offered-in-window",
            "admission",
            "mean-interval-s",
            "max-interval-s",
        ],
    )
    .float_precision(4);
    for (w, &(at, mean, max)) in r.windows.iter().zip(r.interval_series.iter()) {
        table.push_row(vec![
            Cell::Float(at.as_secs_f64()),
            Cell::Int(w.offered as i64),
            Cell::Float(w.admission_probability()),
            Cell::Float(mean),
            Cell::Float(max),
        ]);
    }
    emit(out, "ablation_a10_interval_dynamics", &table);

    let interval = Series::new(
        "mean HELP interval (s)",
        r.interval_series
            .iter()
            .map(|&(t, m, _)| (t.as_secs_f64(), m))
            .collect(),
    );
    let load = Series::new(
        "offered tasks per window / 10",
        r.windows
            .iter()
            .map(|w| (w.start.as_secs_f64(), w.offered as f64 / 10.0))
            .collect(),
    );
    println!(
        "{}",
        render(
            &[interval, load],
            &PlotConfig {
                title: "Algorithm H: HELP interval tracks offered load (higher load → backoff)"
                    .into(),
                width: 70,
                height: 18,
                ..Default::default()
            }
        )
    );
}
