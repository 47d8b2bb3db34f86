//! Figure 9 — measured admission probability of REALTOR on the Agile
//! Objects cluster (20 hosts, 50-second queues), reproduced on the
//! thread-per-host runtime at a scaled clock.

use crate::output::{emit, OutDir};
use realtor_agile::{Cluster, ClusterConfig};
use realtor_simcore::table::{Cell, Table};
use realtor_simcore::SimTime;
use realtor_workload::WorkloadSpec;
use std::time::Duration;

/// One Figure-9 measurement point. After the last arrival the cluster is
/// drained to quiescence (no in-flight datagram, admission request, control
/// message, or pending recovery for a grace window) rather than settled for
/// a fixed wall time — exact under light load, bounded under pathology.
pub fn measure_point(lambda: f64, horizon_secs: u64, seed: u64, hosts: usize, scale: f64) -> f64 {
    let mut cfg = ClusterConfig {
        hosts,
        time_scale: scale,
        seed,
        ..Default::default()
    };
    cfg.host.capacity_secs = 50.0; // the paper's §6 queue size
    let cluster = Cluster::start(&cfg);
    let trace =
        WorkloadSpec::paper(lambda, hosts, SimTime::from_secs(horizon_secs), seed).generate();
    cluster.run_workload(&trace);
    assert!(
        cluster.quiesce(Duration::from_millis(10), Duration::from_secs(30)),
        "fig9 cluster failed to quiesce"
    );
    let report = cluster.shutdown();
    let report_validation = report.validate();
    assert!(report_validation.is_ok(), "{report_validation:?}");
    report.admission_probability()
}

/// Run the λ sweep and emit the table.
///
/// The paper's §6 observation is that the measured curve "shows the same
/// type of shape as in the simulation", so alongside the cluster
/// measurement we run the discrete-event simulator with identical
/// parameters (20 nodes, 50-second queues) for direct comparison.
pub fn run(lambdas: &[f64], horizon_secs: u64, seed: u64, scale: f64, out: &OutDir) {
    eprintln!(
        "figure 9: 20-host cluster, queue 50 s, REALTOR, horizon {horizon_secs}s, \
         clock scale {scale}x"
    );
    emit(
        out,
        "fig9_cluster_admission",
        &render(lambdas, horizon_secs, seed, scale),
    );
}

/// Build the Figure-9 table (cluster measurement + simulator comparison,
/// both on the paper's 20-host/5x4-mesh geometry) — separated from [`run`]
/// so tests can assert the rendered output is byte-identical across
/// consecutive runs.
pub fn render(lambdas: &[f64], horizon_secs: u64, seed: u64, scale: f64) -> Table {
    let hosts = 20;
    let mut table = Table::new(
        "Figure 9 — Admission probability measured (20-host cluster, REALTOR, queue 50 s) \
         vs the simulator at identical parameters",
        &["lambda", "cluster-measured", "simulated"],
    )
    .float_precision(4);
    for &lambda in lambdas {
        let measured = measure_point(lambda, horizon_secs, seed, hosts, scale);
        let sim = {
            use realtor_core::ProtocolKind;
            use realtor_net::Topology;
            use realtor_sim::{run_scenario, Scenario};
            let scenario = Scenario::paper(ProtocolKind::Realtor, lambda, horizon_secs, seed)
                .with_topology(Topology::mesh(5, 4))
                .with_capacity(50.0);
            run_scenario(&scenario).admission_probability()
        };
        eprintln!("  lambda={lambda}: cluster={measured:.4} sim={sim:.4}");
        table.push_row(vec![
            Cell::Float(lambda),
            Cell::Float(measured),
            Cell::Float(sim),
        ]);
    }
    table
}
