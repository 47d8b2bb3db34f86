//! Attack survivability — the paper's motivating scenario: a third of the
//! system comes under external attack mid-run; components must migrate to
//! surviving nodes, and the system must recover when the victims return.
//!
//! ```text
//! cargo run --release --example attack_survivability
//! ```

use realtor::core::ProtocolKind;
use realtor::net::TargetingStrategy;
use realtor::sim::{run_scenario, Scenario};
use realtor::simcore::{SimDuration, SimTime};
use realtor::workload::AttackScenario;

fn main() {
    let horizon = 3_000u64;
    let lambda = 4.0;
    let strike = SimTime::from_secs(1_000);
    let recover = SimTime::from_secs(2_000);
    let victims = 8; // about a third of the 25-node mesh

    println!(
        "Strike-and-recover: {victims}/25 nodes killed at t={strike}s, restored at t={recover}s"
    );
    println!("lambda={lambda} (light load: survivors have spare capacity)\n");

    for kind in [
        ProtocolKind::Realtor,
        ProtocolKind::PurePush,
        ProtocolKind::PurePull,
    ] {
        let scenario = Scenario::paper(kind, lambda, horizon, 7)
            .with_attack(
                AttackScenario::strike_and_recover(strike, recover, victims),
                TargetingStrategy::Region, // a localized attack, e.g. one rack
            )
            .with_window(SimDuration::from_secs(250));
        let result = run_scenario(&scenario);

        println!(
            "{} — overall admission {:.4}",
            kind.label(),
            result.admission_probability()
        );
        println!("  window    alive  admission");
        for w in &result.windows {
            let bar_len = (w.admission_probability() * 40.0).round() as usize;
            println!(
                "  t={:>6.0}s  {:>3}    {:.3} {}",
                w.start.as_secs_f64(),
                w.alive_nodes,
                w.admission_probability(),
                "#".repeat(bar_len)
            );
        }
        println!(
            "  tasks offered to dead nodes (unavoidably lost): {}\n",
            result.lost_to_attacks
        );
    }
    println!(
        "REALTOR's soft state (communities expire, pledges age out) means dead nodes\n\
         simply vanish from pledge lists — no repair protocol runs at recovery time."
    );
}
