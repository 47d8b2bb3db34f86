//! Figure 8 — migration rate vs arrival rate.
//!
//! Prints the (bench-scale) reproduced series, then benchmarks one
//! simulation run per protocol at the paper's saturation point.

use realtor_bench::{bench_scenario, print_series, Runner};
use realtor_core::ProtocolKind;
use realtor_sim::{run_scenario, FigureMetric};

fn main() {
    print_series(
        FigureMetric::MigrationRate,
        "Figure 8 (bench scale) — migration rate",
    );
    let mut runner = Runner::from_env();
    {
        let mut group = runner.group("fig8_migration");
        group.sample_size(10);
        for kind in ProtocolKind::ALL {
            group.bench_function(kind.label(), || {
                run_scenario(&bench_scenario(kind, 6.0)).migration_rate()
            });
        }
        group.finish();
    }
    runner.finish();
}
