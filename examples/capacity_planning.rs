//! Capacity planning — a downstream-user scenario: given a real-time
//! workload, how much headroom does a deployment need before admission
//! probability degrades, and which discovery protocol buys the most
//! effective capacity per message?
//!
//! Sweeps offered load as a fraction of system capacity on three topologies
//! and reports the admission knee for REALTOR vs periodic push.
//!
//! ```text
//! cargo run --release --example capacity_planning
//! ```

use realtor::core::ProtocolKind;
use realtor::net::Topology;
use realtor::sim::{run_scenario, Scenario};

fn main() {
    let topologies = [
        Topology::mesh(5, 5),
        Topology::torus(5, 5),
        Topology::random_connected(25, 0.2, 9),
    ];
    let mean_task = 5.0;
    println!("Admission probability vs offered load (fraction of total capacity)\n");
    for topo in topologies {
        let n = topo.node_count();
        println!(
            "topology {} — {n} nodes, {} links, mean path {:.2} hops",
            topo.name(),
            topo.link_count(),
            realtor::net::Routing::new(&topo).mean_path_length()
        );
        println!(
            "  {:>6} {:>9} | {:>12} {:>14} | {:>12} {:>14}",
            "load", "lambda", "REALTOR", "(cost/task)", "Push-1", "(cost/task)"
        );
        for load in [0.6, 0.8, 0.9, 1.0, 1.1, 1.3, 1.6] {
            // offered work = lambda * mean_task; capacity = n work-s/s
            let lambda = load * n as f64 / mean_task;
            let mut row = format!("  {load:>6.2} {lambda:>9.2} |");
            for kind in [ProtocolKind::Realtor, ProtocolKind::PurePush] {
                let scenario = Scenario::paper(kind, lambda, 2_000, 11).with_topology(topo.clone());
                let r = run_scenario(&scenario);
                row.push_str(&format!(
                    " {:>12.4} {:>14.2} |",
                    r.admission_probability(),
                    r.cost_per_admitted_task()
                ));
            }
            println!("{row}");
        }
        println!();
    }
    println!(
        "Reading the knee: admission stays ~1.0 until offered load crosses capacity\n\
         (load 1.0), then degrades. REALTOR tracks the periodic-push curve while\n\
         spending an order of magnitude fewer messages per admitted task."
    );
}
