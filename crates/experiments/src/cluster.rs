//! The `cluster` subcommand (A18) — survivability of the live thread-per-host
//! runtime under kill-during-load waves.
//!
//! A closed-loop client fleet drives an N-host cluster: each client submits a
//! task (seeded exponential size, uniform host choice), waits for the
//! admission outcome, thinks for a seeded exponential delay, and repeats
//! until the horizon. Mid-load, a crash-style fault wave — compiled from the
//! same [`AttackScenario`] scripts the simulator uses — kills a fraction of
//! the host threads outright; the supervisor must detect the deaths, recover
//! the interrupted work through bounded-retry re-admission, and restart the
//! hosts amnesiac.
//!
//! Reported: sustained admitted tasks/sec, admission latency quantiles
//! (p50/p90/p99/p999 wall clock, from a mergeable [`LogHistogram`] — the
//! A19 observability layer), time-to-recovery (first post-kill instant at
//! which the cumulative admission rate regains 90% of the pre-kill
//! baseline), per-host mailbox high-water depth (so shed-on-full events are
//! attributable to observed backlog), and the full survivability ledger,
//! which must satisfy `interrupted == recovered + destroyed` on every run.
//! Events and per-host counters flow through the A14 trace schema; the
//! buffered events are exported to `results/cluster_run.jsonl` (validated
//! line by line), and a Prometheus-text metrics snapshot of the live
//! cluster is exported periodically to `results/cluster_metrics.prom`
//! while the run is in flight.
//!
//! The client schedule and the fault plan are seed-deterministic; measured
//! latencies and rates are genuine wall-clock observations of a concurrent
//! runtime and therefore vary between runs (unlike the simulator figures,
//! which are bit-exact).

use crate::output::{emit, OutDir};
use realtor_agile::fault::run_faults;
use realtor_agile::{Cluster, ClusterConfig, ClusterReport, FaultPlan, FaultStyle, SubmitOutcome};
use realtor_simcore::stats::LogHistogram;
use realtor_simcore::table::{Cell, Table};
use realtor_simcore::trace::{validate_json_line, Tracer};
use realtor_simcore::{SimDuration, SimRng, SimTime};
use realtor_workload::attack::AttackScenario;
use std::time::{Duration, Instant};

/// Mean task size (simulated seconds) — the paper's workload.
const MEAN_SIZE_SECS: f64 = 5.0;

/// Windowed-admission window width (simulated seconds).
const WINDOW_SECS: f64 = 10.0;

/// Trace ring capacity for the run.
const RING_CAPACITY: usize = 100_000;

/// One client observation: submit instant (simulated seconds), outcome, and
/// the wall-clock admission latency.
struct Sample {
    at_secs: f64,
    outcome: SubmitOutcome,
    latency: Duration,
}

/// The closed loop of one client: submit, await the outcome, think, repeat.
fn client_loop(
    cluster: &Cluster,
    hosts: usize,
    think_mean: f64,
    id: u64,
    seed: u64,
    end: SimTime,
) -> Vec<Sample> {
    let mut rng = SimRng::indexed_stream(seed, "cluster-client", id);
    let clock = cluster.clock();
    let mut samples = Vec::new();
    loop {
        let now = clock.now();
        if now >= end {
            return samples;
        }
        let host = rng.index(hosts);
        let size = rng.exp(MEAN_SIZE_SECS).clamp(0.5, 25.0);
        let begun = Instant::now();
        let outcome = cluster.submit_sync(host, size, Duration::from_secs(2));
        samples.push(Sample {
            at_secs: now.as_secs_f64(),
            outcome,
            latency: begun.elapsed(),
        });
        let think = rng.exp(think_mean).max(0.01);
        clock.sleep_until(clock.now() + SimDuration::from_secs_f64(think));
    }
}

/// Derived survivability metrics of one run.
struct Metrics {
    sustained_per_sec: f64,
    baseline_per_sec: f64,
    /// Client-observed admission latency (nanoseconds), log-bucketed.
    latency_hist: LogHistogram,
    /// Exact sort-based p99 at the histogram's rank convention
    /// (`⌈0.99·n⌉`), kept so the smoke run can bound the histogram's
    /// quantile error against ground truth.
    exact_p99: Duration,
    time_to_recovery_secs: Option<f64>,
}

impl Metrics {
    /// A latency quantile in milliseconds, from the histogram.
    fn latency_ms(&self, q: f64) -> f64 {
        self.latency_hist.quantile(q) as f64 / 1e6
    }
}

/// Compute the headline metrics from the client observations.
///
/// Baseline: admitted tasks/sec over the pre-kill windows (the first window
/// is warm-up and excluded). Time-to-recovery: the first window boundary
/// after the kill at which the *cumulative* post-kill admission rate is back
/// within 10% of that baseline — cumulative, not windowed, so one noisy
/// Poisson window cannot fake a recovery.
fn derive_metrics(samples: &[Sample], horizon_secs: u64, kill_at_secs: f64) -> Metrics {
    let admitted: Vec<&Sample> = samples
        .iter()
        .filter(|s| {
            matches!(
                s.outcome,
                SubmitOutcome::AdmittedLocal | SubmitOutcome::AdmittedMigrated
            )
        })
        .collect();
    let sustained_per_sec = admitted.len() as f64 / horizon_secs as f64;
    let mut latency_hist = LogHistogram::new();
    let mut latencies: Vec<u64> = Vec::with_capacity(admitted.len());
    for s in &admitted {
        let ns = s.latency.as_nanos().min(u64::MAX as u128) as u64;
        latency_hist.record(ns);
        latencies.push(ns);
    }
    latencies.sort_unstable();
    // Same rank convention as LogHistogram::quantile: ⌈q·n⌉, 1-based.
    let exact_p99 = if latencies.is_empty() {
        Duration::ZERO
    } else {
        let rank = ((0.99 * latencies.len() as f64).ceil() as usize).clamp(1, latencies.len());
        Duration::from_nanos(latencies[rank - 1])
    };
    let baseline_span = kill_at_secs - WINDOW_SECS;
    let baseline_count = admitted
        .iter()
        .filter(|s| s.at_secs >= WINDOW_SECS && s.at_secs < kill_at_secs)
        .count();
    let baseline_per_sec = if baseline_span > 0.0 {
        baseline_count as f64 / baseline_span
    } else {
        0.0
    };
    let mut time_to_recovery_secs = None;
    if baseline_per_sec > 0.0 {
        let mut boundary = kill_at_secs + WINDOW_SECS;
        while boundary <= horizon_secs as f64 {
            let recovered = admitted
                .iter()
                .filter(|s| s.at_secs >= kill_at_secs && s.at_secs < boundary)
                .count();
            if recovered as f64 / (boundary - kill_at_secs) >= 0.9 * baseline_per_sec {
                time_to_recovery_secs = Some(boundary - kill_at_secs);
                break;
            }
            boundary += WINDOW_SECS;
        }
    }
    Metrics {
        sustained_per_sec,
        baseline_per_sec,
        latency_hist,
        exact_p99,
        time_to_recovery_secs,
    }
}

/// Outcome of one full cluster run, for the caller's assertions.
pub struct ClusterRunOutcome {
    pub report: ClusterReport,
    pub metrics_recovered: bool,
    pub restarts: u64,
    /// Histogram p99 admission latency (ms) — what the summary reports.
    pub p99_hist_ms: f64,
    /// Exact sort-based p99 (ms) at the same rank, for error-bound checks.
    pub p99_exact_ms: f64,
    /// Prometheus snapshots exported while the run was in flight.
    pub prom_exports: u64,
}

/// Drive one closed-loop run: `clients` clients against `hosts` hosts for
/// `horizon_secs` simulated seconds at clock scale `scale`, with a
/// crash-style kill wave of `kill_count` hosts at 40% of the horizon.
#[allow(clippy::too_many_arguments)]
fn drive(
    hosts: usize,
    clients: usize,
    horizon_secs: u64,
    seed: u64,
    scale: f64,
    kill_count: usize,
    out: &OutDir,
) -> ClusterRunOutcome {
    let kill_at = SimTime::from_secs(horizon_secs * 2 / 5);
    let restore_at = SimTime::from_secs(horizon_secs * 7 / 10);
    eprintln!(
        "cluster (A18): {hosts} hosts x {clients} clients, horizon {horizon_secs}s, \
         clock scale {scale}x, crash {kill_count} @ {}s, seed {seed}",
        kill_at.as_secs_f64()
    );
    let tracer = Tracer::bounded(RING_CAPACITY);
    let cluster = Cluster::start_with(
        &ClusterConfig {
            hosts,
            time_scale: scale,
            seed,
            ..Default::default()
        },
        tracer.clone(),
    );
    let scenario = AttackScenario::strike_and_recover(kill_at, restore_at, kill_count);
    let plan = FaultPlan::from_attack(&scenario, hosts, seed);
    // Offered load ~0.8 of aggregate capacity: every client cycles through
    // think(mean) + submit, so think = clients * mean_size / (0.8 * hosts).
    let think_mean = clients as f64 * MEAN_SIZE_SECS / (0.8 * hosts as f64);
    let end = SimTime::from_secs(horizon_secs);
    let prom_path = out.0.as_ref().map(|dir| {
        std::fs::create_dir_all(dir).expect("create results directory");
        dir.join("cluster_metrics.prom")
    });
    let (samples, prom_exports): (Vec<Sample>, u64) = std::thread::scope(|s| {
        let fault = s.spawn(|| run_faults(&cluster, &plan, FaultStyle::Crash));
        // Live exposition (A19): scrape the cluster every half window and
        // publish the snapshot in Prometheus text format, like a /metrics
        // endpoint would.
        let sampler = s.spawn(|| {
            let Some(path) = &prom_path else { return 0u64 };
            let clock = cluster.clock();
            let period = SimDuration::from_secs_f64(WINDOW_SECS / 2.0);
            let mut exported = 0u64;
            while clock.now() < end {
                clock.sleep_until((clock.now() + period).min(end));
                let text = cluster.metrics_snapshot().to_prometheus_text();
                std::fs::write(path, text).expect("write cluster metrics snapshot");
                exported += 1;
            }
            exported
        });
        let handles: Vec<_> = (0..clients)
            .map(|i| {
                let cluster = &cluster;
                s.spawn(move || client_loop(cluster, hosts, think_mean, i as u64, seed, end))
            })
            .collect();
        fault.join().expect("fault thread");
        let samples = handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect();
        (samples, sampler.join().expect("sampler thread"))
    });
    assert!(
        cluster.quiesce(Duration::from_millis(10), Duration::from_secs(30)),
        "cluster failed to quiesce after the run"
    );
    // Final snapshot after quiescence so the exported file reflects the
    // end state of the run.
    if let Some(path) = &prom_path {
        let text = cluster.metrics_snapshot().to_prometheus_text();
        std::fs::write(path, text).expect("write final cluster metrics snapshot");
        eprintln!(
            "wrote {} ({} in-flight exports)",
            path.display(),
            prom_exports
        );
    }
    let report = cluster.shutdown();
    report
        .validate()
        .expect("runtime ledger identities must hold");
    let metrics = derive_metrics(&samples, horizon_secs, kill_at.as_secs_f64());

    let mut summary = Table::new(
        "Cluster survivability (A18) — closed-loop clients vs crash-style kill wave \
         (supervised recovery, bounded-retry negotiation)",
        &["metric", "value"],
    )
    .float_precision(4);
    let ttr = metrics
        .time_to_recovery_secs
        .map(Cell::Float)
        .unwrap_or_else(|| Cell::Str("never".into()));
    for (metric, value) in [
        ("hosts", Cell::Int(hosts as i64)),
        ("clients", Cell::Int(clients as i64)),
        ("horizon-secs", Cell::Int(horizon_secs as i64)),
        ("kill-count", Cell::Int(kill_count as i64)),
        ("kill-at-secs", Cell::Float(kill_at.as_secs_f64())),
        ("offered", Cell::Int(report.offered as i64)),
        ("admitted", Cell::Int(report.admitted() as i64)),
        ("rejected", Cell::Int(report.rejected as i64)),
        ("lost-to-attacks", Cell::Int(report.lost_to_attacks as i64)),
        (
            "sustained-admitted-per-sec",
            Cell::Float(metrics.sustained_per_sec),
        ),
        (
            "baseline-admitted-per-sec",
            Cell::Float(metrics.baseline_per_sec),
        ),
        (
            "p50-admission-latency-ms",
            Cell::Float(metrics.latency_ms(0.5)),
        ),
        (
            "p90-admission-latency-ms",
            Cell::Float(metrics.latency_ms(0.9)),
        ),
        (
            "p99-admission-latency-ms",
            Cell::Float(metrics.latency_ms(0.99)),
        ),
        (
            "p999-admission-latency-ms",
            Cell::Float(metrics.latency_ms(0.999)),
        ),
        ("time-to-recovery-secs", ttr),
        ("interrupted", Cell::Int(report.interrupted as i64)),
        ("recovered", Cell::Int(report.recovered as i64)),
        ("destroyed", Cell::Int(report.destroyed as i64)),
        ("recovery-tries", Cell::Int(report.recovery_tries as i64)),
        ("restarts", Cell::Int(report.restarts as i64)),
        (
            "negotiation-retries",
            Cell::Int(report.negotiation_retries as i64),
        ),
        (
            "negotiation-abandoned",
            Cell::Int(report.negotiation_abandoned as i64),
        ),
        ("shed-datagrams", Cell::Int(report.shed_datagrams as i64)),
        ("shed-admissions", Cell::Int(report.shed_admissions as i64)),
    ] {
        summary.push_row(vec![Cell::Str(metric.into()), value]);
    }
    emit(out, "cluster_survivability", &summary);

    // Per-host counts and exit statuses, as the cluster reports them.
    let mut per_host = Table::new(
        "Cluster survivability (A18) — per-host counters and exit status",
        &[
            "host",
            "admitted",
            "recovered-in",
            "interrupted",
            "kills",
            "restarts",
            "mailbox-high-water",
            "exit",
        ],
    );
    for e in &report.host_exits {
        per_host.push_row(vec![
            Cell::Int(e.host as i64),
            Cell::Int(e.admitted_local as i64),
            Cell::Int(e.recovered_in as i64),
            Cell::Int(e.interrupted as i64),
            Cell::Int(e.kills as i64),
            Cell::Int(e.restarts as i64),
            Cell::Int(report.mailbox_high_water[e.host] as i64),
            Cell::Str(format!("{:?}", e.status)),
        ]);
    }
    emit(out, "cluster_survivability_hosts", &per_host);

    // Export the buffered events, validated line by line.
    let jsonl = tracer.export_jsonl();
    for (i, line) in jsonl.lines().enumerate() {
        if let Err(e) = validate_json_line(line) {
            panic!("line {} of cluster trace is not valid JSON: {e}", i + 1);
        }
    }
    if let Some(dir) = &out.0 {
        std::fs::create_dir_all(dir).expect("create results directory");
        let path = dir.join("cluster_run.jsonl");
        std::fs::write(&path, &jsonl).expect("write cluster trace jsonl");
        eprintln!("wrote {} ({} lines)", path.display(), jsonl.lines().count());
    }
    eprintln!(
        "cluster run: {} admitted ({:.2}/s), p50/p99 {:.2}/{:.2} ms, {} interrupted = {} recovered + {} destroyed, {} restarts",
        report.admitted(),
        metrics.sustained_per_sec,
        metrics.latency_ms(0.5),
        metrics.latency_ms(0.99),
        report.interrupted,
        report.recovered,
        report.destroyed,
        report.restarts,
    );
    ClusterRunOutcome {
        restarts: report.restarts,
        metrics_recovered: metrics.time_to_recovery_secs.is_some(),
        p99_hist_ms: metrics.latency_ms(0.99),
        p99_exact_ms: metrics.exact_p99.as_secs_f64() * 1e3,
        prom_exports,
        report,
    }
}

/// The full run: paper-sized cluster (20 hosts), 24 clients, a crash wave of
/// 30% of the hosts.
pub fn run(hosts: usize, clients: usize, horizon_secs: u64, seed: u64, scale: f64, out: &OutDir) {
    let kill_count = (hosts * 3 / 10).max(1);
    drive(hosts, clients, horizon_secs, seed, scale, kill_count, out);
}

/// CI smoke: a small cluster, one crash wave of two hosts, hard assertions
/// on recovery, supervision, and the ledger identity. Panics (nonzero exit)
/// on violation.
pub fn smoke(seed: u64, out: &OutDir) {
    let outcome = drive(5, 6, 120, seed, 2_000.0, 2, out);
    assert!(
        outcome.restarts >= 2,
        "supervisor must restart both crashed hosts, saw {}",
        outcome.restarts
    );
    assert!(
        outcome.metrics_recovered,
        "admission rate never regained 90% of the pre-kill baseline"
    );
    // A19: the log-bucketed p99 must agree with the exact sort-based p99 at
    // the same rank within the documented one-sided bucket error bound.
    assert!(
        outcome.p99_hist_ms >= outcome.p99_exact_ms
            && outcome.p99_hist_ms <= outcome.p99_exact_ms * (1.0 + LogHistogram::RELATIVE_ERROR),
        "histogram p99 {:.4} ms outside error bound of exact p99 {:.4} ms",
        outcome.p99_hist_ms,
        outcome.p99_exact_ms
    );
    let r = &outcome.report;
    assert_eq!(
        r.interrupted,
        r.recovered + r.destroyed,
        "ledger identity broken"
    );
    eprintln!(
        "cluster smoke ok: {} restarts, {} interrupted, {} recovered, {} destroyed",
        r.restarts, r.interrupted, r.recovered, r.destroyed
    );
}
