//! The `trace` subcommand — run one scenario with the deterministic trace
//! layer attached and dump what it saw (A14).
//!
//! Three canned scenarios exercise different slices of the event schema:
//!
//! * **paper** — the Figure-5 cell: HELP/PLEDGE protocol chatter, admissions,
//!   migrations,
//! * **lossy** — the same cell over a 5 % loss channel: adds channel
//!   loss/duplication and stale-pledge traffic,
//! * **failover** — the A13 proactive-defence cell: adds warnings,
//!   evacuations, kills, detector transitions and recovery.
//!
//! The run happens **twice**, once plain and once traced, and the two
//! [`SimResult`]s are asserted identical — tracing is observational by
//! construction and this command re-proves it on every invocation. The
//! traced run's registry is then reconciled counter-by-counter against the
//! `SimResult` ledger; any mismatch is a hard failure (exit 1). Artifacts:
//!
//! * `results/trace_<scenario>.jsonl` — the buffered events, one JSON
//!   object per line (validated line-by-line before writing),
//! * a text timeline summary on stdout: per-kind event counts, the
//!   noisiest nodes, and the full Algorithm-H interval-adaptation history.

use crate::output::OutDir;
use realtor_core::ProtocolKind;
use realtor_net::LinkQuality;
use realtor_sim::{run_scenario, run_scenario_traced, RecoveryConfig, Scenario, SimResult};
use realtor_simcore::pool;
use realtor_simcore::trace::{validate_json_line, TraceKind, TraceSnapshot, TraceValue, Tracer};
use std::collections::BTreeMap;

/// How many events the trace ring buffers before evicting the oldest.
const RING_CAPACITY: usize = 200_000;

/// How many of the noisiest nodes the timeline summary lists.
const TOP_N: usize = 5;

/// Build the scenario named on the command line.
fn build_scenario(name: &str, lambda: f64, horizon: u64, seed: u64) -> Scenario {
    match name {
        "paper" => Scenario::paper(ProtocolKind::Realtor, lambda, horizon, seed),
        "lossy" => Scenario::paper(ProtocolKind::Realtor, lambda, horizon, seed)
            .with_channel(LinkQuality::lossy(0.05)),
        "failover" => crate::failover::failover_scenario(
            lambda,
            horizon,
            seed,
            6,
            RecoveryConfig::proactive(),
        ),
        other => {
            eprintln!(
                "error: {}",
                crate::cli::validate_trace_scenario(other).unwrap_err()
            );
            std::process::exit(2);
        }
    }
}

/// Registry-vs-ledger reconciliation: every global counter the world bumps
/// must equal the `SimResult` field it shadows. Returns the mismatches.
fn reconcile(snap: &TraceSnapshot, r: &SimResult) -> Vec<String> {
    let pairs: [(&str, u64); 17] = [
        ("offered", r.offered),
        ("admitted_local", r.admitted_local),
        ("admitted_migrated", r.admitted_migrated),
        ("rejected", r.rejected),
        ("lost_to_attacks", r.lost_to_attacks),
        ("migration_attempts", r.migration_attempts),
        ("migration_successes", r.migration_successes),
        ("tasks_interrupted", r.tasks_interrupted),
        ("tasks_recovered", r.tasks_recovered),
        ("tasks_destroyed", r.tasks_destroyed),
        ("recovery_attempts", r.recovery_attempts),
        ("evacuation_attempts", r.evacuation_attempts),
        ("evacuation_successes", r.evacuation_successes),
        ("detections", r.detections),
        ("false_suspicions", r.false_suspicions),
        ("channel_lost", r.ledger.lost_count),
        ("channel_duplicated", r.ledger.duplicated_count),
    ];
    let mut bad = Vec::new();
    for (name, want) in pairs {
        let got = snap.registry.counter(name);
        if got != want {
            bad.push(format!("counter {name}: registry {got} != result {want}"));
        }
    }
    // Message counters shadow the cost ledger's per-class message counts.
    let msgs: [(&str, u64); 4] = [
        ("msg_help", r.ledger.help_count),
        ("msg_pledge", r.ledger.pledge_count),
        ("msg_push", r.ledger.push_count),
        ("msg_migration", r.ledger.migration_count),
    ];
    for (name, want) in msgs {
        let got = snap.registry.counter(name);
        if got != want {
            bad.push(format!("counter {name}: registry {got} != ledger {want}"));
        }
    }
    // Per-node counters shadow the per-node stats.
    for (node, stat) in r.node_stats.iter().enumerate() {
        let got = snap.registry.node_counter("offered", node);
        if got != stat.offered {
            bad.push(format!(
                "node {node} offered: registry {got} != result {}",
                stat.offered
            ));
        }
        let got = snap.registry.node_counter("admitted_here", node);
        if got != stat.admitted_here {
            bad.push(format!(
                "node {node} admitted_here: registry {got} != result {}",
                stat.admitted_here
            ));
        }
    }
    bad
}

/// Print the text timeline summary of a snapshot.
fn summarize(snap: &TraceSnapshot) {
    let mut by_kind: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut by_node: BTreeMap<usize, u64> = BTreeMap::new();
    for e in &snap.events {
        *by_kind.entry(e.kind.as_str()).or_default() += 1;
        if let Some(n) = e.node {
            *by_node.entry(n).or_default() += 1;
        }
    }
    println!("## Trace summary");
    println!();
    println!(
        "{} events recorded, {} buffered, {} evicted from the ring, {} filtered",
        snap.recorded,
        snap.events.len(),
        snap.dropped,
        snap.filtered
    );
    println!();
    println!("events by kind:");
    for (kind, n) in &by_kind {
        println!("  {kind:<22} {n}");
    }
    let mut noisiest: Vec<(usize, u64)> = by_node.into_iter().collect();
    noisiest.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    println!();
    println!("noisiest nodes (top {TOP_N}):");
    for &(node, n) in noisiest.iter().take(TOP_N) {
        println!("  node {node:<3} {n} events");
    }
    // Algorithm-H adaptation history: every interval change in the buffer.
    let adapts: Vec<_> = snap
        .events
        .iter()
        .filter(|e| e.kind == TraceKind::IntervalAdapt)
        .collect();
    println!();
    println!("interval adaptations buffered: {}", adapts.len());
    for e in adapts.iter().take(20) {
        let get = |key: &str| {
            e.fields.iter().find_map(|(k, v)| match v {
                TraceValue::F64(x) if *k == key => Some(*x),
                _ => None,
            })
        };
        let cause = e
            .fields
            .iter()
            .find_map(|(k, v)| match v {
                TraceValue::Str(s) if *k == "cause" => Some(*s),
                _ => None,
            })
            .unwrap_or("?");
        println!(
            "  t={:.1}s node {:?}: {:.2}s -> {:.2}s ({cause})",
            e.t.as_secs_f64(),
            e.node,
            get("old_secs").unwrap_or(f64::NAN),
            get("new_secs").unwrap_or(f64::NAN),
        );
    }
    if adapts.len() > 20 {
        println!("  ... and {} more", adapts.len() - 20);
    }
}

/// Run the trace experiment: traced run, parity check, JSONL export,
/// reconciliation, timeline summary. Exits nonzero on any violation.
pub fn run(scenario_name: &str, lambda: f64, horizon: u64, seed: u64, jobs: usize, out: &OutDir) {
    eprintln!(
        "trace: scenario {scenario_name}, lambda {lambda}, horizon {horizon}s, seed {seed}, \
         ring capacity {RING_CAPACITY}, jobs {jobs}"
    );
    let scenario = build_scenario(scenario_name, lambda, horizon, seed);

    // The traced and plain runs are independent hermetic worlds, so with
    // `--jobs 2` the parity pair runs concurrently on the runner's pool.
    let tracer = Tracer::bounded(RING_CAPACITY);
    let mut runs = pool::run_ordered(jobs.min(2), &[true, false], |&with_trace| {
        if with_trace {
            run_scenario_traced(&scenario, tracer.clone())
        } else {
            run_scenario(&scenario)
        }
    });
    let plain = runs.pop().expect("plain run present");
    let traced = runs.pop().expect("traced run present");

    // Tracing must be observational: the plain run is bit-identical.
    if plain != traced {
        eprintln!("FAIL: tracing perturbed the simulation (SimResult differs)");
        std::process::exit(1);
    }

    let snap = tracer.snapshot();
    if snap.recorded == 0 {
        eprintln!("FAIL: traced run recorded no events");
        std::process::exit(1);
    }

    // Validate every line before writing the artifact.
    let jsonl = tracer.export_jsonl();
    for (i, line) in jsonl.lines().enumerate() {
        if let Err(e) = validate_json_line(line) {
            eprintln!(
                "FAIL: line {} of trace output is not valid JSON: {e}",
                i + 1
            );
            std::process::exit(1);
        }
    }
    if let Some(dir) = &out.0 {
        std::fs::create_dir_all(dir).expect("create results directory");
        let path = dir.join(format!("trace_{scenario_name}.jsonl"));
        std::fs::write(&path, &jsonl).expect("write trace jsonl");
        eprintln!("wrote {} ({} lines)", path.display(), jsonl.lines().count());
    }

    let mismatches = reconcile(&snap, &traced);
    if !mismatches.is_empty() {
        eprintln!("FAIL: trace registry does not reconcile with SimResult:");
        for m in &mismatches {
            eprintln!("  {m}");
        }
        std::process::exit(1);
    }
    eprintln!(
        "reconciled: registry matches SimResult ({} offered, {} messages, {} channel losses)",
        traced.offered,
        traced.ledger.total_count(),
        traced.ledger.lost_count
    );

    summarize(&snap);
}
