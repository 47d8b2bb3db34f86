//! Agile Objects cluster — the paper's Section-6 measurement on the
//! thread-per-host runtime: 20 hosts, 50-second queues, REALTOR over
//! UDP-like / multicast-like / TCP-like in-process transports, running at a
//! scaled clock (1 simulated second = 0.5 ms wall).
//!
//! ```text
//! cargo run --release --example agile_cluster
//! ```

use realtor::agile::{Cluster, ClusterConfig};
use realtor::simcore::SimTime;
use realtor::workload::WorkloadSpec;

fn main() {
    let hosts = 20;
    println!("Figure-9 style cluster measurement: {hosts} hosts, queue 50 s, REALTOR\n");
    println!(
        "{:>7} {:>9} {:>9} {:>10} {:>11} {:>12} {:>13}",
        "lambda", "offered", "admitted", "rejected", "migrations", "HELP-floods", "admission"
    );
    for lambda in [1.0, 2.0, 3.0, 4.0, 5.0, 6.0] {
        let mut cfg = ClusterConfig {
            hosts,
            time_scale: 2_000.0,
            seed: 42,
            ..Default::default()
        };
        cfg.host.capacity_secs = 50.0;

        let cluster = Cluster::start(&cfg);
        let trace = WorkloadSpec::paper(lambda, hosts, SimTime::from_secs(300), 42).generate();
        cluster.run_workload(&trace);
        cluster.settle(2.0);
        let report = cluster.shutdown();

        println!(
            "{:>7.1} {:>9} {:>9} {:>10} {:>11} {:>12} {:>13.4}",
            lambda,
            report.offered,
            report.admitted(),
            report.rejected,
            report.migrations,
            report.helps_sent,
            report.admission_probability(),
        );
    }
    println!(
        "\nEvery host runs the *same* REALTOR code as the discrete-event simulator —\n\
         here driven by real threads, real channels and a scaled wall clock.\n\
         Mean migration latency includes admission negotiation and state transfer."
    );
}
