//! The same protocol code runs under two substrates: the deterministic
//! discrete-event simulator and the thread-per-host Agile Objects cluster.
//! These tests check the two substrates agree on protocol behaviour.

use realtor::agile::{Cluster, ClusterConfig};
use realtor::core::ProtocolKind;
use realtor::sim::{run_scenario, Scenario};
use realtor::simcore::SimTime;
use realtor::workload::WorkloadSpec;

/// Run the cluster with the sim's parameters and compare admission
/// probability. The cluster is nondeterministic (real threads), so the
/// comparison uses a generous tolerance.
fn cluster_admission(lambda: f64, hosts: usize, capacity: f64, horizon: u64) -> f64 {
    let mut cfg = ClusterConfig {
        hosts,
        time_scale: 2_000.0,
        seed: 42,
        ..Default::default()
    };
    cfg.host.capacity_secs = capacity;
    let cluster = Cluster::start(&cfg);
    let trace = WorkloadSpec::paper(lambda, hosts, SimTime::from_secs(horizon), 42).generate();
    cluster.run_workload(&trace);
    cluster.settle(3.0);
    cluster.shutdown().admission_probability()
}

fn sim_admission(lambda: f64, capacity: f64, horizon: u64) -> f64 {
    let scenario =
        Scenario::paper(ProtocolKind::Realtor, lambda, horizon, 42).with_capacity(capacity);
    run_scenario(&scenario).admission_probability()
}

#[test]
fn sim_and_cluster_agree_at_light_load() {
    let cluster = cluster_admission(1.0, 25, 100.0, 120);
    let sim = sim_admission(1.0, 100.0, 120);
    assert!(cluster > 0.99, "cluster {cluster}");
    assert!(sim > 0.99, "sim {sim}");
}

#[test]
fn sim_and_cluster_agree_under_overload() {
    // 25 hosts x 1 work-s/s against lambda 10 x 5 s of work: heavy overload.
    // Both substrates must land in the same admission band.
    let cluster = cluster_admission(10.0, 25, 100.0, 400);
    let sim = sim_admission(10.0, 100.0, 400);
    assert!(
        (cluster - sim).abs() < 0.12,
        "substrates disagree: cluster {cluster:.3} vs sim {sim:.3}"
    );
}

#[test]
fn cluster_naming_service_is_clean_after_settling() {
    // After the workload drains completely, every component has expired and
    // the naming service must be empty (no leaked registrations).
    let mut cfg = ClusterConfig {
        hosts: 4,
        time_scale: 2_000.0,
        seed: 5,
        ..Default::default()
    };
    cfg.host.capacity_secs = 50.0;
    let cluster = Cluster::start(&cfg);
    let trace = WorkloadSpec::paper(1.0, 4, SimTime::from_secs(30), 5).generate();
    cluster.run_workload(&trace);
    // Longest possible backlog is the queue capacity; settle past it.
    cluster.settle(60.0);
    // Poke the hosts so their loops run the expiry sweep after settling.
    for _ in 0..4 {
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let report = cluster.shutdown();
    assert_eq!(report.rejected, 0);
    assert_eq!(
        report.live_components, 0,
        "naming service leaked {} bindings",
        report.live_components
    );
}
