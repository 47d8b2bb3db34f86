//! The runner's headline guarantee, property-tested end-to-end on real
//! simulation grids:
//!
//! 1. **Thread-count invariance** — for random grids (protocol subsets,
//!    λs, loss levels, seeds, either seed policy), the merged output bytes
//!    and the grid-ordered `SimResult`s at `--jobs 1`, `2` and `8` are
//!    identical.
//! 2. **Cell hermeticity** — every cell's result equals a from-scratch
//!    serial run of that single cell: running beside other cells, on any
//!    worker, perturbs nothing.
//!
//! Horizons are short (the property is about scheduling, not statistics),
//! but the cells are full REALTOR simulations: floods, pledges,
//! migrations, lossy channels.

use realtor_core::ProtocolKind;
use realtor_net::LinkQuality;
use realtor_runner::{run_grid_csv, GridCell, RunOpts, SeedPolicy, SweepGrid};
use realtor_sim::{run_scenario, Scenario, SimResult};
use realtor_simcore::check::{forall, gen};
use realtor_simcore::prop_assert;

const HORIZON_SECS: u64 = 120;

/// Map a grid cell onto a paper scenario (5×5 mesh; loss via the channel).
fn scenario_of(cell: &GridCell) -> Scenario {
    let s = Scenario::paper(cell.protocol, cell.lambda, HORIZON_SECS, cell.seed);
    if cell.loss > 0.0 {
        s.with_channel(LinkQuality::lossy(cell.loss))
    } else {
        s
    }
}

/// One cell's CSV chunk. Bit-level renderings (`to_bits`) make the bytes
/// sensitive to any f64 drift a scheduling bug could introduce.
fn cell_chunk(cell: &GridCell, r: &SimResult) -> String {
    format!(
        "{},{:#018x},{:#018x},{}\n",
        cell.label(),
        r.admission_probability().to_bits(),
        r.total_messages().to_bits(),
        r.offered
    )
}

const HEADER: &str = "cell,admission_bits,messages_bits,offered\n";

fn run_at(grid: &SweepGrid, jobs: usize) -> (Vec<SimResult>, String) {
    run_grid_csv(
        grid,
        &RunOpts {
            jobs,
            progress: false,
        },
        HEADER,
        |cell| {
            let r = run_scenario(&scenario_of(cell));
            let chunk = cell_chunk(cell, &r);
            (r, chunk)
        },
    )
}

/// Generate a small random grid: 1–3 protocols, 1–3 λs, 1–2 loss levels,
/// any seed, either seed policy.
fn gen_grid(rng: &mut realtor_simcore::SimRng) -> (Vec<u8>, Vec<f64>, Vec<f64>, u64, bool) {
    let protos = gen::vec(rng, 1, 3, |r| {
        gen::u8_in(r, 0, ProtocolKind::ALL.len() as u8)
    });
    let lambdas = gen::vec(rng, 1, 3, |r| {
        (gen::f64_in(r, 2.0, 8.0) * 2.0).round() / 2.0
    });
    let losses = gen::vec(rng, 1, 2, |r| gen::one_of(r, &[0.0, 0.05, 0.1]));
    (protos, lambdas, losses, rng.u64(), rng.bernoulli(0.5))
}

fn build_grid(input: &(Vec<u8>, Vec<f64>, Vec<f64>, u64, bool)) -> SweepGrid {
    let (protos, lambdas, losses, seed, per_cell) = input;
    let mut protocols: Vec<ProtocolKind> = protos
        .iter()
        .map(|&i| ProtocolKind::ALL[i as usize % ProtocolKind::ALL.len()])
        .collect();
    protocols.dedup();
    let policy = if *per_cell {
        SeedPolicy::PerCell
    } else {
        SeedPolicy::Shared
    };
    SweepGrid::new(*seed)
        .with_protocols(&protocols)
        .with_lambdas(lambdas)
        .with_losses(losses)
        .with_seed_policy(policy)
}

#[test]
fn output_bytes_identical_for_jobs_1_2_8() {
    forall("jobs_invariance", 0x9E1701, 5, gen_grid, |input| {
        let grid = build_grid(input);
        let (serial_results, serial_bytes) = run_at(&grid, 1);
        for jobs in [2usize, 8] {
            let (results, bytes) = run_at(&grid, jobs);
            prop_assert!(
                bytes == serial_bytes,
                "merged bytes diverged at jobs={jobs} on grid {:?}",
                input
            );
            prop_assert!(
                results == serial_results,
                "SimResults diverged at jobs={jobs} on grid {:?}",
                input
            );
        }
        Ok(())
    });
}

#[test]
fn each_cell_matches_a_from_scratch_single_cell_run() {
    forall("cell_hermeticity", 0x9E1702, 3, gen_grid, |input| {
        let grid = build_grid(input);
        let (grid_results, _) = run_at(&grid, 8);
        for (cell, from_grid) in grid.cells().iter().zip(&grid_results) {
            let alone = run_scenario(&scenario_of(cell));
            prop_assert!(
                alone == *from_grid,
                "cell {} differs from its from-scratch serial run",
                cell.label()
            );
        }
        Ok(())
    });
}

/// The Figure 5–8 grid itself (all five protocols, the paper's λ axis at a
/// short horizon) through the runner: grid execution must reproduce
/// serial `run_scenario` calls exactly, at every job count. Together with
/// `tests/golden_figures.rs` (which pins `run_scenario` bit-for-bit at
/// horizon 1000) this guarantees the golden figure cells regenerate
/// bit-exact through the new runner.
#[test]
fn figures_grid_through_runner_equals_direct_runs() {
    let lambdas = [2.0, 5.0, 8.0];
    let grid = SweepGrid::new(42)
        .with_protocols(&ProtocolKind::ALL)
        .with_lambdas(&lambdas);
    let expected: Vec<SimResult> = grid
        .cells()
        .iter()
        .map(|c| run_scenario(&Scenario::paper(c.protocol, c.lambda, HORIZON_SECS, 42)))
        .collect();
    for jobs in [1usize, 2, 8] {
        let got = realtor_runner::run_grid(
            &grid,
            &RunOpts {
                jobs,
                progress: false,
            },
            |c| run_scenario(&scenario_of(c)),
        );
        assert_eq!(got, expected, "jobs={jobs}");
    }
}
