//! Experiment driver: regenerates every figure of the paper's evaluation
//! plus the ablations indexed in DESIGN.md.
//!
//! ```text
//! experiments <command> [--option value]...
//!
//! commands:
//!   fig5 | fig6 | fig7 | fig8   one simulation figure
//!   figures                     all four simulation figures (one sweep)
//!   figures-ci                  the same with CI-width-driven replication:
//!                               each point re-runs until every figure
//!                               metric's 95% CI half-width is within
//!                               --ci-rel of its mean (reps bounded by
//!                               --min-reps / --reps)
//!   fig9                        the 20-host cluster measurement
//!   ablation-h                  A1: Algorithm H parameter sensitivity
//!   ablation-threshold          A2: H/P threshold sensitivity
//!   scalability                 A3: overhead vs system size
//!   attack                      A4: strike-and-recover survivability
//!   lossy                       A12: unreliable-network loss sweep + chaos recovery
//!   failover                    A13: failure detection, evacuation, crash recovery
//!   inter-community             A5: scoped floods + gateway relays
//!   multi-resource              A6: vector-aware candidate selection
//!   speculative                 A7: speculative vs two-phase migration
//!   balance                     A8: placement fairness / occupancy spread
//!   staleness                   A9: candidate-info staleness bound
//!   dynamics                    A10: Algorithm H interval evolution (plot)
//!   deadlines                   A11: EDF vs FIFO deadline-miss rate
//!   trace                       A14: traced run -> JSONL event log + registry
//!                               reconciliation (--scenario paper|lossy|failover)
//!   analyze                     A19: causal analysis of any trace JSONL —
//!                               per-phase latency, recovery critical path,
//!                               messages per admitted task, flame self-time
//!                               (--input <path>, or stdin)
//!   churn                       A16: continuous node replacement — churn rate x
//!                               detector timeout x protocol on the grid runner
//!                               (--smoke true for the CI assertion run)
//!   cluster                     A18: live-runtime survivability — closed-loop
//!                               clients vs a crash-style kill wave, supervised
//!                               recovery, p99 + time-to-recovery + ledger
//!                               (--smoke true for the CI assertion run)
//!   all                         everything above
//!
//! common options:
//!   --horizon <secs>     simulation horizon (default 10000, the paper's scale)
//!   --seed <n>           master seed (default 42)
//!   --lambdas <a..b|csv> arrival-rate sweep (default 1..10)
//!   --jobs <n>           worker threads for sweep commands — fig5..fig8,
//!                        figures, figures-ci, ablation-h,
//!                        ablation-threshold, scalability, attack, lossy,
//!                        failover, balance, staleness, deadlines, churn,
//!                        trace (default 1 = serial; any value yields
//!                        byte-identical output)
//!   --out <dir>          CSV output directory (default results/)
//!   --quick true         shrink horizons ~10x for a fast smoke run
//!   --plot true          draw figures as ASCII charts in the terminal
//!
//! figures-ci options:
//!   --ci-rel <frac>      target relative 95% CI half-width (default 0.05)
//!   --min-reps <n>       replications to always run (default 3)
//!   --reps <n>           replication cap per point (default 16)
//! ```
//!
//! Unknown scenario names and invalid `--jobs` values exit with status 2
//! and a message listing what is accepted.

use experiments::cli::{self, Cli};
use experiments::figures::Figure;
use experiments::output::OutDir;
use experiments::{
    ablations, analyze, attack, balance, churn, cluster, deadlines, dynamics, failover, fig9,
    figures, inter_community, lossy, multi_resource, scalability, speculative, staleness, trace,
};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let cli = match Cli::parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = cli::validate_command(&cli.command) {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
    let jobs = match cli.get_jobs() {
        Ok(j) => j,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };

    let quick = cli.get_flag("quick");
    let shrink = if quick { 10 } else { 1 };
    let horizon = cli.get_u64("horizon", 10_000) / shrink;
    let cluster_horizon = cli.get_u64("cluster-horizon", 600) / shrink;
    let seed = cli.get_u64("seed", 42);
    let lambdas = cli.get_lambdas(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]);
    let out = OutDir::new(Some(cli.get("out").unwrap_or("results")));
    let scale = cli.get_f64("time-scale", 2000.0);
    let plot = cli.get_flag("plot");

    match cli.command.as_str() {
        "fig5" => figures::run(&[Figure::Fig5], &lambdas, horizon, seed, jobs, &out, plot),
        "fig6" => figures::run(&[Figure::Fig6], &lambdas, horizon, seed, jobs, &out, plot),
        "fig7" => figures::run(&[Figure::Fig7], &lambdas, horizon, seed, jobs, &out, plot),
        "fig8" => figures::run(&[Figure::Fig8], &lambdas, horizon, seed, jobs, &out, plot),
        "figures" => figures::run(&Figure::ALL, &lambdas, horizon, seed, jobs, &out, plot),
        "figures-ci" => figures::run_replicated(
            &Figure::ALL,
            &lambdas,
            horizon.min(3000),
            seed,
            &realtor_runner::CiPolicy::default()
                .with_rel_half_width(cli.get_f64("ci-rel", 0.05))
                .with_reps(cli.get_u64("min-reps", 3), cli.get_u64("reps", 16)),
            jobs,
            &out,
        ),
        "fig9" => fig9::run(&lambdas, cluster_horizon, seed, scale, &out),
        "ablation-h" => ablations::run_algorithm_h(
            cli.get_f64("lambda", 7.0),
            horizon.min(3000),
            seed,
            jobs,
            &out,
        ),
        "ablation-threshold" => ablations::run_thresholds(
            cli.get_f64("lambda", 7.0),
            horizon.min(3000),
            seed,
            jobs,
            &out,
        ),
        "scalability" => scalability::run(
            cli.get_f64("per-node-lambda", 0.28),
            horizon.min(2000),
            seed,
            jobs,
            &out,
        ),
        "attack" => attack::run(
            cli.get_f64("lambda", 4.0),
            horizon.min(3000),
            seed,
            cli.get_f64("kill-fraction", 0.3),
            jobs,
            &out,
        ),
        "lossy" => {
            if cli.get_flag("smoke") {
                lossy::smoke(seed, jobs);
            } else {
                lossy::run(
                    horizon.min(3000),
                    seed,
                    cli.get_f64("kill-fraction", 0.3),
                    jobs,
                    &out,
                );
            }
        }
        "failover" => {
            if cli.get_flag("smoke") {
                failover::smoke(seed, &out);
            } else {
                // Capped well below the other ablations: the implicit
                // heartbeats that drive detection exist only while discovery
                // traffic is dense (the saturation transient) — see
                // DESIGN.md A13.
                failover::run(
                    cli.get_f64("lambda", 6.0),
                    horizon.min(800),
                    seed,
                    jobs,
                    &out,
                );
            }
        }
        "inter-community" => inter_community::run(
            cli.get_u64("side", 10) as usize,
            cli.get_u64("tile", 5) as usize,
            cli.get_f64("lambda", 30.0),
            horizon.min(2000),
            seed,
            &out,
        ),
        "multi-resource" => multi_resource::run(
            cli.get_u64("hosts", 50) as usize,
            cli.get_u64("demands", 5000) as usize,
            seed,
            &out,
        ),
        "speculative" => speculative::run(cluster_horizon.min(300), seed, &out),
        "balance" => balance::run(&[5.0, 7.0, 9.0], horizon.min(3000), seed, jobs, &out),
        "dynamics" => dynamics::run(horizon.min(3000), seed, &out),
        "deadlines" => deadlines::run(
            horizon.min(2000),
            seed,
            cli.get_u64("trials", 20) as usize,
            jobs,
            &out,
        ),
        "churn" => {
            if cli.get_flag("smoke") {
                churn::smoke(seed, jobs, &out);
            } else {
                churn::run(
                    cli.get_f64("lambda", 6.0),
                    horizon.min(1500),
                    seed,
                    jobs,
                    &out,
                );
            }
        }
        "cluster" => {
            if cli.get_flag("smoke") {
                cluster::smoke(seed, &out);
            } else {
                cluster::run(
                    cli.get_u64("hosts", 20) as usize,
                    cli.get_u64("clients", 24) as usize,
                    cluster_horizon.min(600),
                    seed,
                    scale,
                    &out,
                );
            }
        }
        "staleness" => staleness::run(
            cli.get_f64("lambda", 8.0),
            horizon.min(3000),
            seed,
            jobs,
            &out,
        ),
        "analyze" => analyze::run(cli.get("input")),
        "trace" => trace::run(
            cli.get("scenario").unwrap_or("paper"),
            cli.get_f64("lambda", 8.0),
            horizon.min(3000),
            seed,
            jobs,
            &out,
        ),
        "all" => {
            figures::run(&Figure::ALL, &lambdas, horizon, seed, jobs, &out, plot);
            fig9::run(&lambdas, cluster_horizon, seed, scale, &out);
            ablations::run_algorithm_h(7.0, horizon.min(3000), seed, jobs, &out);
            ablations::run_thresholds(7.0, horizon.min(3000), seed, jobs, &out);
            scalability::run(0.28, horizon.min(2000), seed, jobs, &out);
            attack::run(4.0, horizon.min(3000), seed, 0.3, jobs, &out);
            lossy::run(horizon.min(3000), seed, 0.3, jobs, &out);
            failover::run(6.0, horizon.min(800), seed, jobs, &out);
            inter_community::run(10, 5, 30.0, horizon.min(2000), seed, &out);
            multi_resource::run(50, 5000, seed, &out);
            speculative::run(cluster_horizon.min(300), seed, &out);
            balance::run(&[5.0, 7.0, 9.0], horizon.min(3000), seed, jobs, &out);
            staleness::run(8.0, horizon.min(3000), seed, jobs, &out);
            dynamics::run(horizon.min(3000), seed, &out);
            deadlines::run(horizon.min(2000), seed, 20, jobs, &out);
            churn::run(6.0, horizon.min(1500), seed, jobs, &out);
            cluster::run(10, 12, cluster_horizon.min(300), seed, scale, &out);
        }
        "help" => {
            eprintln!("usage: experiments <command> [--option value]...");
            eprintln!("see the crate docs (src/main.rs) for the command list");
        }
        other => {
            eprintln!("unknown command: {other}");
            eprintln!("usage: experiments <command> [--option value]...");
            std::process::exit(2);
        }
    }
}
