//! `cluster_steady`: the live Agile runtime under a closed loop of
//! `submit_sync` clients, measured through its public API.
//!
//! 20 hosts at time scale 1000 (one simulated second = 1 ms of wall time).
//! Each of [`CLIENTS`] client threads replays its own seeded schedule of
//! (host, exponential(5 s) size, exponential think time): submit, wait for
//! the admission outcome, think in simulated time, repeat. The think time
//! makes the offered load 0.8 of the cluster's capacity when admission takes
//! no time; real admission latency lengthens each cycle, so a slower
//! runtime is offered less work (a closed loop). No faults.
//!
//! One pass starts a fresh cluster (set-up), replays the schedules (run),
//! then quiesces and shuts the cluster down.

use crate::calib::Gauge;
use crate::report::{self, median, FineHist, Outcome};
use realtor_agile::{Cluster, ClusterConfig, ClusterReport, SubmitOutcome};
use realtor_simcore::stats::LogHistogram;
use realtor_simcore::{SimDuration, SimRng};
use std::time::{Duration, Instant};

pub const HOSTS: usize = 20;
/// Closed-loop client threads: few enough that the clients themselves do
/// not compete with the 20 host threads on a small machine.
pub const CLIENTS: usize = 2;
const TIME_SCALE: f64 = 1000.0;
const MEAN_SIZE_SECS: f64 = 5.0;
const OFFERED_LOAD: f64 = 0.8;
/// Tasks each client submits per pass (~1 s of wall time per pass).
const TASKS_PER_CLIENT: usize = 1200;
const SUBMIT_TIMEOUT: Duration = Duration::from_secs(2);

/// One client's schedule: (host, size in simulated seconds, think time in
/// simulated seconds) per task.
type Schedule = Vec<(usize, f64, f64)>;

/// Every client's schedule, drawn from `seed` alone.
fn schedules(seed: u64) -> Vec<Schedule> {
    // Offered tasks per simulated second over all clients, and the cycle
    // each client keeps to offer its share.
    let rate = OFFERED_LOAD * HOSTS as f64 / MEAN_SIZE_SECS;
    let think_mean = CLIENTS as f64 / rate;
    (0..CLIENTS as u64)
        .map(|c| {
            let mut rng = SimRng::indexed_stream(seed, "perfbench-client", c);
            (0..TASKS_PER_CLIENT)
                .map(|_| {
                    let host = rng.index(HOSTS);
                    let size = rng.exp(MEAN_SIZE_SECS).clamp(0.5, 25.0);
                    (host, size, rng.exp(think_mean))
                })
                .collect()
        })
        .collect()
}

fn config(seed: u64) -> ClusterConfig {
    ClusterConfig {
        hosts: HOSTS,
        time_scale: TIME_SCALE,
        seed,
        ..ClusterConfig::default()
    }
}

/// Client-side tallies of one pass.
#[derive(Default)]
struct Tally {
    submitted: u64,
    admitted: u64,
    lost: u64,
}

struct Pass {
    setup: Duration,
    /// How much slower than nominal the host speed gauge ran around the
    /// pass (see `calib`).
    slowdown: f64,
    run: Duration,
    quiesce: Duration,
    shutdown: Duration,
    cpu_s: f64,
    setup_rss_mb: f64,
    quiet: bool,
    tally: Tally,
    report: ClusterReport,
}

/// Replay one client's schedule against the cluster.
fn client(cluster: &Cluster, schedule: &Schedule, latency: &mut FineHist) -> Tally {
    let clock = cluster.clock();
    let mut tally = Tally::default();
    for &(host, size, think) in schedule {
        let t = Instant::now();
        let outcome = cluster.submit_sync(host, size, SUBMIT_TIMEOUT);
        latency.record(t.elapsed().as_nanos() as u64);
        tally.submitted += 1;
        match outcome {
            SubmitOutcome::AdmittedLocal | SubmitOutcome::AdmittedMigrated => tally.admitted += 1,
            SubmitOutcome::Rejected => {}
            SubmitOutcome::Lost => tally.lost += 1,
        }
        clock.sleep_until(clock.now() + SimDuration::from_secs_f64(think));
    }
    tally
}

/// `gauge` times a piece of its work before the cluster starts and after
/// it has shut down, when no host thread competes with it.
fn pass(seed: u64, schedules: &[Schedule], latency: &mut FineHist, gauge: &mut Gauge) -> Pass {
    let cfg = config(seed);
    let mark = gauge.mark();
    gauge.piece();
    let t0 = Instant::now();
    let cluster = Cluster::start(&cfg);
    let setup = t0.elapsed();
    let setup_rss_mb = report::status_mb("VmRSS");
    let cpu0 = report::cpu_seconds();
    let t1 = Instant::now();
    let mut hists: Vec<FineHist> = schedules.iter().map(|_| FineHist::new()).collect();
    let tallies: Vec<Tally> = std::thread::scope(|s| {
        let handles: Vec<_> = schedules
            .iter()
            .zip(hists.iter_mut())
            .map(|(sched, hist)| {
                let cluster = &cluster;
                s.spawn(move || client(cluster, sched, hist))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let run = t1.elapsed();
    let cpu_s = report::cpu_seconds() - cpu0;
    let t2 = Instant::now();
    let quiet = cluster.quiesce(Duration::from_millis(20), Duration::from_secs(5));
    let t3 = Instant::now();
    let report = cluster.shutdown();
    let shutdown = t3.elapsed();
    gauge.piece();
    for h in &hists {
        latency.merge(h);
    }
    let mut tally = Tally::default();
    for t in tallies {
        tally.submitted += t.submitted;
        tally.admitted += t.admitted;
        tally.lost += t.lost;
    }
    Pass {
        setup,
        slowdown: gauge.slowdown(mark),
        run,
        quiesce: t3 - t2,
        shutdown,
        cpu_s,
        setup_rss_mb,
        quiet,
        tally,
        report,
    }
}

/// The gate: a valid ledger, no `Lost` outcome, every submission counted
/// by the runtime, and a cluster that went quiet.
fn check(out: &mut Outcome, seed: u64, p: &Pass) {
    let r = &p.report;
    let valid = r.validate();
    out.check(valid.is_ok(), || {
        format!("cluster_steady seed {seed}: {}", valid.clone().unwrap_err())
    });
    out.check(p.tally.lost == 0, || {
        format!("cluster_steady seed {seed}: {} Lost outcomes", p.tally.lost)
    });
    let counted = (r.offered, r.admitted());
    let tallied = (p.tally.submitted, p.tally.admitted);
    out.check(counted == tallied, || {
        format!("cluster_steady seed {seed}: runtime counted (offered, admitted) {counted:?}, clients {tallied:?}")
    });
    out.check(p.quiet, || {
        format!("cluster_steady seed {seed}: did not quiesce")
    });
}

/// Passes run at least this many times, however short `--seconds` is.
const MIN_PASSES: usize = 3;

/// Run passes for `seconds` after one warm-up pass; returns the measured
/// passes and the pooled client latency.
fn passes(out: &mut Outcome, seed: u64, seconds: f64) -> (Vec<Pass>, FineHist) {
    let schedules = schedules(seed);
    let mut gauge = Gauge::new();
    let warm = pass(seed, &schedules, &mut FineHist::new(), &mut gauge);
    check(out, seed, &warm);
    out.set("mem.setup_rss_mb", warm.setup_rss_mb);
    let mut latency = FineHist::new();
    let mut done = Vec::new();
    let start = Instant::now();
    while done.len() < MIN_PASSES || start.elapsed().as_secs_f64() < seconds {
        let p = pass(seed, &schedules, &mut latency, &mut gauge);
        check(out, seed, &p);
        done.push(p);
    }
    (done, latency)
}

fn admitted_per_s(p: &Pass) -> f64 {
    p.tally.admitted as f64 / p.run.as_secs_f64()
}

/// `--trace 0`: the end-to-end metrics.
pub fn measure(seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let (done, latency) = passes(&mut out, seed, seconds);
    let col = |f: &dyn Fn(&Pass) -> f64| median(&done.iter().map(f).collect::<Vec<_>>());
    // `Cluster::start` spawns the host threads: kernel and scheduler work
    // that slows with the host as the simulator does, so it is gauged too.
    out.set("setup_s", col(&|p| p.setup.as_secs_f64() / p.slowdown));
    out.set("run_s", col(&|p| p.run.as_secs_f64()));
    out.set("peak_rss_mb", report::status_mb("VmHWM"));
    out.set("admitted_per_s", col(&admitted_per_s));
    out.set("latency_p50_ms", latency.quantile(0.50) / 1e6);
    out.set("latency_p99_ms", latency.quantile(0.99) / 1e6);
    out.note(format!(
        "cluster_steady: {} passes, {HOSTS} hosts, {CLIENTS} closed-loop clients; latency = client-side submit_sync, {} samples",
        done.len(),
        latency.count()
    ));
    let list = |f: &dyn Fn(&Pass) -> f64| {
        done.iter()
            .map(|p| format!("{:.3}", f(p)))
            .collect::<Vec<_>>()
            .join(" ")
    };
    out.note(format!(
        "  host set-up ms per pass: {}",
        list(&|p| p.setup.as_secs_f64() * 1e3)
    ));
    out.note(format!(
        "  gauge slowdown per pass: {}",
        list(&|p| p.slowdown)
    ));
    out
}

/// `--trace 1`: the `agile` layer, read from each pass's `ClusterReport`,
/// process CPU time, and the timed `quiesce`/`shutdown` calls.
pub fn trace(seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let (done, client) = passes(&mut out, seed, seconds);
    let mut host = LogHistogram::new();
    for p in &done {
        host.merge(&p.report.admission_latency_ns);
    }
    let n = done.len() as f64;
    let admitted: u64 = done.iter().map(|p| p.tally.admitted).sum();
    let per_pass = |f: &dyn Fn(&ClusterReport) -> u64| {
        done.iter().map(|p| f(&p.report)).sum::<u64>() as f64 / n
    };
    let col = |f: &dyn Fn(&Pass) -> f64| median(&done.iter().map(f).collect::<Vec<_>>());
    let host_p50_us = host.quantile(0.50) as f64 / 1e3;
    let client_p50_us = client.quantile(0.50) / 1e3;
    out.set("agile.host_admit_p50_us", host_p50_us);
    out.set("agile.host_admit_p99_us", host.quantile(0.99) as f64 / 1e3);
    out.set("agile.control_wait_p50_us", client_p50_us - host_p50_us);
    out.set(
        "agile.cpu_us_per_admitted",
        1e6 * done.iter().map(|p| p.cpu_s).sum::<f64>() / admitted.max(1) as f64,
    );
    out.set(
        "agile.datagrams_per_admitted",
        done.iter().map(|p| p.report.datagrams_sent).sum::<u64>() as f64 / admitted.max(1) as f64,
    );
    out.set("agile.helps_sent", per_pass(&|r| r.helps_sent));
    out.set("agile.migrations", per_pass(&|r| r.migrations));
    out.set(
        "agile.migration_latency_ms",
        col(&|p| p.report.migration_latency_mean * 1e3),
    );
    out.set(
        "agile.mailbox_high_water_max",
        done.iter()
            .flat_map(|p| p.report.mailbox_high_water.iter().copied())
            .max()
            .unwrap_or(0) as f64,
    );
    out.set("agile.shed_datagrams", per_pass(&|r| r.shed_datagrams));
    out.set("agile.shed_admissions", per_pass(&|r| r.shed_admissions));
    out.set(
        "agile.negotiation_retries",
        per_pass(&|r| r.negotiation_retries),
    );
    out.set("agile.quiesce_s", col(&|p| p.quiesce.as_secs_f64()));
    out.set("agile.shutdown_s", col(&|p| p.shutdown.as_secs_f64()));
    let reps: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(schedules(seed));
            t.elapsed().as_secs_f64()
        })
        .collect();
    out.set("workload.generate_s", median(&reps));
    // The outside probes add no work to a cluster pass, so "traced" and
    // "untraced" are the same code here: the ratio of odd to even passes is
    // the run-to-run noise floor.
    let half = |odd: usize| {
        median(
            &done
                .iter()
                .skip(odd)
                .step_by(2)
                .map(|p| p.run.as_secs_f64())
                .collect::<Vec<_>>(),
        )
    };
    out.set("trace.overhead", half(1) / half(0));
    out.set("trace.coverage", host_p50_us / client_p50_us);
    out.note(format!(
        "cluster_steady: {} passes; client p50 {client_p50_us:.1} us = host admission {host_p50_us:.1} us + control wait {:.1} us",
        done.len(),
        client_p50_us - host_p50_us
    ));
    out
}
