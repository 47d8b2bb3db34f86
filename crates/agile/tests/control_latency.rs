//! Control messages wake a host at once: admission latency and shutdown do
//! not depend on [`HostConfig::tick`], which only bounds the idle wait
//! before timers, usage and completions are polled.

use realtor_agile::{
    Cluster, ClusterConfig, HostConfig, HostExitStatus, SubmitOutcome, SupervisorConfig,
};
use std::time::{Duration, Instant};

#[test]
fn submit_and_shutdown_do_not_wait_out_the_tick() {
    let cluster = Cluster::start(&ClusterConfig {
        hosts: 4,
        host: HostConfig {
            tick: Duration::from_secs(2),
            ..HostConfig::default()
        },
        supervisor: SupervisorConfig {
            enabled: false,
            ..SupervisorConfig::default()
        },
        ..ClusterConfig::default()
    });
    let started = Instant::now();
    for i in 0..20 {
        let outcome = cluster.submit_sync(i % 4, 1.0, Duration::from_secs(5));
        assert_eq!(outcome, SubmitOutcome::AdmittedLocal, "submit {i}");
    }
    let submits = started.elapsed();
    assert!(
        submits < Duration::from_secs(1),
        "20 sequential submits took {submits:?} with a 2 s tick"
    );

    let started = Instant::now();
    let report = cluster.shutdown();
    let shutdown = started.elapsed();
    assert!(
        shutdown < Duration::from_secs(1),
        "shutdown took {shutdown:?} with a 2 s tick"
    );
    assert_eq!(report.host_exits.len(), 4);
    assert!(
        report
            .host_exits
            .iter()
            .all(|e| e.status == HostExitStatus::Stopped),
        "{:?}",
        report.host_exits
    );
    assert_eq!(report.admitted_local, 20);
    report.validate().expect("identities hold");
}
