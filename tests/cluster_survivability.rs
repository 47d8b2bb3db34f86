//! Survivability on the real (threaded) Agile Objects runtime: hosts come
//! under attack mid-run, survivors keep admitting, revived hosts rejoin.

use realtor::agile::{Cluster, ClusterConfig};
use realtor::simcore::SimTime;
use realtor::workload::WorkloadSpec;

fn cfg(hosts: usize) -> ClusterConfig {
    let mut cfg = ClusterConfig {
        hosts,
        time_scale: 2_000.0,
        seed: 17,
        ..Default::default()
    };
    cfg.host.capacity_secs = 50.0;
    cfg
}

#[test]
fn killed_hosts_lose_their_arrivals_but_survivors_admit() {
    let mut cfg = cfg(6);
    // Light load so survivors always have space: at lambda 1.0 the four
    // survivors each see ~110 s of arriving work against 120 s of drain,
    // so a 50 s queue leaves only a few sim-seconds of slack — thin
    // enough for wall-clock jitter (scaled 2000x) to flip an admission.
    // Double the queue so "always have space" holds with real margin.
    cfg.host.capacity_secs = 100.0;
    let cluster = Cluster::start(&cfg);
    let trace = WorkloadSpec::paper(1.0, 6, SimTime::from_secs(120), 17).generate();
    // Kill hosts 0 and 1 up front.
    cluster.kill_host(0);
    cluster.kill_host(1);
    cluster.settle(1.0);
    cluster.run_workload(&trace);
    cluster.settle(3.0);
    let report = cluster.shutdown();
    assert_eq!(report.offered, trace.len() as u64);
    assert!(report.lost_to_attacks > 0, "dead hosts saw no arrivals?");
    // Every loss is an arrival addressed to a dead host; everything else
    // was admitted (load is far below survivor capacity).
    assert_eq!(
        report.admitted() + report.lost_to_attacks,
        report.offered,
        "survivors must admit all their arrivals: {report:?}"
    );
}

#[test]
fn revived_hosts_rejoin_and_admit_again() {
    let cluster = Cluster::start(&cfg(4));
    cluster.kill_host(2);
    cluster.settle(1.0);
    // While host 2 is down, its submissions are lost.
    for _ in 0..5 {
        cluster.submit(2, 1.0);
    }
    cluster.settle(2.0);
    cluster.revive_host(2);
    cluster.settle(2.0);
    // After revival, submissions are admitted again.
    for _ in 0..5 {
        cluster.submit(2, 1.0);
    }
    cluster.settle(5.0);
    let report = cluster.shutdown();
    assert_eq!(report.offered, 10);
    assert_eq!(report.lost_to_attacks, 5);
    assert_eq!(report.admitted(), 5, "revived host must admit");
}

#[test]
fn dead_hosts_refuse_migrations() {
    // 2 hosts; host 1 dead; host 0 overloaded: one-shot migrations to the
    // dead host must fail (rejected), never hang.
    let cluster = Cluster::start(&cfg(2));
    cluster.kill_host(1);
    cluster.settle(1.0);
    // Overfill host 0 (capacity 50): 20 x 5s = 100s of work.
    for _ in 0..20 {
        cluster.submit(0, 5.0);
    }
    cluster.settle(5.0);
    let report = cluster.shutdown();
    assert_eq!(report.offered, 20);
    assert!(
        report.rejected > 0,
        "overflow must be rejected, not admitted"
    );
    assert_eq!(
        report.admitted_migrated, 0,
        "nothing can migrate to a dead host"
    );
}
