//! Figure 7 — message cost per admitted task vs arrival rate.
//!
//! Prints the (bench-scale) reproduced series, then benchmarks one
//! simulation run per protocol at the paper's saturation point.

use realtor_bench::{bench_scenario, print_series, Runner};
use realtor_core::ProtocolKind;
use realtor_sim::{run_scenario, FigureMetric};

fn main() {
    print_series(
        FigureMetric::CostPerAdmittedTask,
        "Figure 7 (bench scale) — message cost per admitted task",
    );
    let mut runner = Runner::from_env();
    {
        let mut group = runner.group("fig7_cost_per_task");
        group.sample_size(10);
        for kind in ProtocolKind::ALL {
            group.bench_function(kind.label(), || {
                run_scenario(&bench_scenario(kind, 6.0)).cost_per_admitted_task()
            });
        }
        group.finish();
    }
    runner.finish();
}
