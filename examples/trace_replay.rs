//! Trace record & replay — capture a workload to a text file, replay it
//! against two protocol configurations, and diff the outcomes. This is the
//! paired-comparison workflow a downstream user needs when tuning REALTOR
//! parameters against a production-like trace.
//!
//! ```text
//! cargo run --release --example trace_replay
//! ```

use realtor::core::{ProtocolConfig, ProtocolKind};
use realtor::sim::{run_scenario, Scenario};
use realtor::simcore::{SimDuration, SimTime};
use realtor::workload::{Trace, WorkloadSpec};

fn main() {
    // 1. Record: generate a workload once and serialize it.
    let spec = WorkloadSpec::paper(7.0, 25, SimTime::from_secs(2_000), 2026);
    let trace = spec.generate();
    let path = std::env::temp_dir().join("realtor_demo_trace.txt");
    std::fs::write(&path, trace.to_text()).expect("write trace");
    println!(
        "recorded {} arrivals ({:.0} s of work) to {}",
        trace.len(),
        trace.offered_work_secs(),
        path.display()
    );

    // 2. Replay: read it back and run two REALTOR configurations on the
    //    byte-identical workload.
    let replayed = Trace::from_text(&std::fs::read_to_string(&path).expect("read trace"))
        .expect("parse trace");
    assert_eq!(replayed.len(), trace.len());

    let configs = [
        ("paper defaults (Upper_limit 100)", ProtocolConfig::paper()),
        (
            "tight backoff (Upper_limit 10, alpha 1.0)",
            ProtocolConfig::paper()
                .with_alpha(1.0)
                .with_upper_limit(SimDuration::from_secs(10)),
        ),
    ];
    println!(
        "\n{:<44} {:>10} {:>12} {:>12}",
        "configuration", "admission", "cost/task", "HELP floods"
    );
    for (name, cfg) in configs {
        // The scenario regenerates the same trace from the same spec, so
        // both configurations see the recorded workload.
        let scenario =
            Scenario::paper(ProtocolKind::Realtor, 7.0, 2_000, 2026).with_protocol_config(cfg);
        let r = run_scenario(&scenario);
        println!(
            "{:<44} {:>10.4} {:>12.2} {:>12}",
            name,
            r.admission_probability(),
            r.cost_per_admitted_task(),
            r.ledger.help_count
        );
    }
    println!(
        "\nSame workload, different Algorithm-H tuning: admission barely moves while\n\
         discovery traffic shifts — the adaptive interval trades messages, not tasks."
    );
    let _ = std::fs::remove_file(&path);
}
