//! A19 acceptance: `experiments analyze` on the fixed-seed failover trace.
//!
//! One traced failover run (the same cell the `trace` subcommand replays)
//! is analyzed in-process. The causal requirements are asserted directly —
//! complete lineage for every admitted and recovered task, zero orphan span
//! references, and a recovery critical path whose segments sum exactly to
//! the observed time-to-recovery — and the rendered report is pinned
//! against a committed golden file (the DES is deterministic, so the
//! analysis text is bit-stable).
//!
//! Regenerate the golden after an intentional format change with:
//! `ANALYZE_BLESS=1 cargo test -p experiments --test analyze_golden`.

use experiments::analyze::analyze_str;
use experiments::failover::failover_scenario;
use realtor_sim::{run_scenario_traced, RecoveryConfig};
use realtor_simcore::time::TICKS_PER_SEC;
use realtor_simcore::trace::Tracer;

const GOLDEN_PATH: &str = "tests/golden/analyze_failover.txt";

#[test]
fn analyze_reconstructs_failover_lineage_and_matches_golden() {
    let scenario = failover_scenario(6.0, 300, 42, 6, RecoveryConfig::proactive());
    let tracer = Tracer::bounded(200_000);
    let _ = run_scenario_traced(&scenario, tracer.clone());
    let snap = tracer.snapshot();
    assert_eq!(snap.dropped, 0, "ring eviction would break lineage");
    let jsonl = tracer.export_jsonl();

    let a = analyze_str(&jsonl).expect("failover trace must parse");

    // Complete causal lineage for every admitted and every recovered task.
    assert!(
        a.admitted > 0 && a.recovered > 0,
        "scenario must exercise recovery"
    );
    assert_eq!(a.orphan_refs, 0, "no orphan span references");
    assert_eq!(
        a.admitted_complete, a.admitted,
        "every admitted task must have a complete lineage"
    );
    assert_eq!(
        a.recovered_complete, a.recovered,
        "every recovered task must have a complete lineage"
    );

    // The critical path telescopes: its segment durations sum to the
    // time-to-recovery (last task_recover - first node_kill) exactly, i.e.
    // well within one event timestamp.
    assert!(
        !a.critical_path.is_empty(),
        "kill wave must yield a critical path"
    );
    let total_ticks: u64 = a
        .critical_path
        .iter()
        .map(|s| s.to_ticks - s.from_ticks)
        .sum();
    let ttr = a.time_to_recovery_secs.expect("recovery observed");
    let diff = (total_ticks as f64 / TICKS_PER_SEC as f64 - ttr).abs();
    assert!(
        diff * TICKS_PER_SEC as f64 <= 1.0,
        "critical path ({} ticks) must sum to time-to-recovery ({ttr}s)",
        total_ticks
    );

    // Golden pin of the rendered report.
    if std::env::var_os("ANALYZE_BLESS").is_some() {
        std::fs::create_dir_all("tests/golden").expect("create golden dir");
        std::fs::write(GOLDEN_PATH, &a.text).expect("write golden");
        eprintln!("blessed {GOLDEN_PATH}");
        return;
    }
    let want = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden file missing; run with ANALYZE_BLESS=1 to create it");
    assert_eq!(
        a.text, want,
        "analyze output drifted from {GOLDEN_PATH}; if intentional, re-bless"
    );
}
