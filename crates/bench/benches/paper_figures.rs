//! Figures 5–8 — admission probability, message count, cost per admitted
//! task and migration rate vs arrival rate.
//!
//! Runs the bench-scale paired λ sweep once and prints all four reproduced
//! series from it, then benchmarks one simulation run per protocol at the
//! paper's saturation point.

use realtor_bench::{bench_scenario, Runner, BENCH_SEED};
use realtor_core::ProtocolKind;
use realtor_runner::{run_grid, RunOpts, SweepGrid};
use realtor_sim::{run_scenario, Figure};

fn main() {
    let lambdas = [2.0, 4.0, 6.0, 8.0, 10.0];
    let grid = SweepGrid::new(BENCH_SEED)
        .with_protocols(&ProtocolKind::ALL)
        .with_lambdas(&lambdas);
    let results = run_grid(&grid, &RunOpts::serial(), |cell| {
        run_scenario(&bench_scenario(cell.protocol, cell.lambda))
    });
    for figure in Figure::ALL {
        let title = format!("{} (bench scale)", figure.title());
        println!(
            "\n{}",
            figure.table(&title, &lambdas, &results).to_markdown()
        );
    }
    let mut runner = Runner::from_env();
    {
        let mut group = runner.group("paper_figures");
        group.sample_size(10);
        for kind in ProtocolKind::ALL {
            group.bench_function(kind.label(), || {
                run_scenario(&bench_scenario(kind, 6.0)).admission_probability()
            });
        }
        group.finish();
    }
    runner.finish();
}
