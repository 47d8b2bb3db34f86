//! Survivability integration tests for the live runtime: determinism with
//! faults disabled, the ledger identity under scripted kill/restore
//! schedules, supervised crash/wedge recovery, and bounded shutdown.

use realtor_agile::fault::{run_faults, FaultOp};
use realtor_agile::{
    Cluster, ClusterConfig, ClusterReport, FaultPlan, FaultStyle, HostExit, HostExitStatus,
    SubmitOutcome, SupervisorConfig,
};
use realtor_simcore::prelude::*;
use realtor_simcore::{prop_assert, prop_assert_eq};
use realtor_workload::attack::AttackScenario;
use realtor_workload::WorkloadSpec;
use std::time::{Duration, Instant};

fn drain(cluster: &Cluster) {
    assert!(
        cluster.quiesce(Duration::from_millis(10), Duration::from_secs(10)),
        "cluster failed to quiesce"
    );
}

fn wait_until(cond: impl Fn() -> bool, timeout: Duration) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    cond()
}

/// The deterministic slice of a report: task accounting, the survivability
/// ledger, and exit statuses. Datagram counters are excluded — discovery
/// chatter depends on thread interleaving even when admission does not.
fn deterministic_slice(r: &ClusterReport) -> (Vec<u64>, Vec<HostExitStatus>) {
    (
        vec![
            r.offered,
            r.admitted_local,
            r.admitted_migrated,
            r.rejected,
            r.lost_to_attacks,
            r.interrupted,
            r.recovered,
            r.destroyed,
            r.recovery_tries,
            r.restarts,
            r.negotiation_abandoned,
        ],
        r.host_exits.iter().map(|e| e.status).collect(),
    )
}

fn zero_fault_run(seed: u64) -> ClusterReport {
    let cluster = Cluster::start(&ClusterConfig {
        hosts: 4,
        time_scale: 2000.0,
        seed,
        ..Default::default()
    });
    // Light enough that no queue ever overflows: admission is decided
    // locally everywhere and the outcome cannot depend on timing.
    let trace = WorkloadSpec::paper(0.3, 4, SimTime::from_secs(60), 5).generate();
    cluster.run_workload(&trace);
    drain(&cluster);
    cluster.shutdown()
}

/// With faults disabled, the survivable runtime behaves exactly like the
/// pre-supervision runtime: no interrupts, no restarts, no retries — and
/// two runs of the same workload produce identical reports.
#[test]
fn zero_fault_runs_are_report_identical() {
    let a = zero_fault_run(11);
    let b = zero_fault_run(11);
    assert_eq!(a.interrupted, 0);
    assert_eq!(a.recovered, 0);
    assert_eq!(a.destroyed, 0);
    assert_eq!(a.recovery_tries, 0);
    assert_eq!(a.restarts, 0);
    assert_eq!(a.negotiation_retries, 0);
    assert_eq!(a.rejected, 0);
    assert!(a
        .host_exits
        .iter()
        .all(|e| e.status == HostExitStatus::Stopped && e.restarts == 0));
    a.validate().expect("identities hold");
    assert_eq!(
        deterministic_slice(&a),
        deterministic_slice(&b),
        "zero-fault runs must be report-identical"
    );
}

/// Property: any scripted kill/restore schedule — cooperative or crash
/// style, with bounded-retry recovery in between — preserves both ledger
/// identities: `offered == admitted + rejected` and
/// `interrupted == recovered + destroyed`.
#[test]
fn kill_restore_schedules_preserve_the_ledger() {
    forall(
        "kill_restore_schedules_preserve_the_ledger",
        0xA61E0A,
        6,
        |r| {
            (
                gen::u64_in(r, 1, 1_000),
                gen::usize_in(r, 1, 2),  // victims per strike
                gen::u8_in(r, 0, 1),     // fault style
                gen::usize_in(r, 4, 10), // offered tasks
            )
        },
        |&(seed, victims, style, tasks)| {
            let cluster = Cluster::start(&ClusterConfig {
                hosts: 3,
                time_scale: 4_000.0,
                seed,
                supervisor: SupervisorConfig {
                    poll: Duration::from_millis(1),
                    ..Default::default()
                },
                ..Default::default()
            });
            for i in 0..tasks {
                cluster.submit(i % 3, 25.0);
            }
            let scenario = AttackScenario::strike_and_recover(
                SimTime::from_secs(4),
                SimTime::from_secs(30),
                victims,
            );
            let plan = FaultPlan::from_attack(&scenario, 3, seed);
            let style = if style == 0 {
                FaultStyle::Cooperative
            } else {
                FaultStyle::Crash
            };
            run_faults(&cluster, &plan, style);
            prop_assert!(
                cluster.quiesce(Duration::from_millis(10), Duration::from_secs(10)),
                "cluster failed to quiesce"
            );
            let report = cluster.shutdown();
            prop_assert!(
                report.validate().is_ok(),
                "ledger identity broken: {:?}",
                report.validate()
            );
            prop_assert_eq!(report.offered, tasks as u64);
            Ok(())
        },
    );
}

/// The per-host counts carried on `HostExit` add up to the cluster ledger
/// on a crash-wave run, and each host counts exactly the kills the fault
/// plan aimed at it.
#[test]
fn per_host_counts_sum_to_the_ledger_under_a_crash_wave() {
    let hosts = 4;
    let seed = 23;
    let cluster = Cluster::start(&ClusterConfig {
        hosts,
        time_scale: 1_000.0,
        seed,
        supervisor: SupervisorConfig {
            poll: Duration::from_millis(1),
            ..Default::default()
        },
        ..Default::default()
    });
    // 40 s of resident work per host (capacity 50, 40 ms of wall time at
    // this scale), still queued when the wave lands one second later.
    for i in 0..2 * hosts {
        assert_eq!(
            cluster.submit_sync(i % hosts, 20.0, Duration::from_secs(5)),
            SubmitOutcome::AdmittedLocal
        );
    }
    let strike = cluster.clock().now() + SimDuration::from_secs(1);
    // Crash-style replay ignores the restore; the supervisor revives.
    let scenario =
        AttackScenario::strike_and_recover(strike, strike + SimDuration::from_secs(1), 2);
    let plan = FaultPlan::from_attack(&scenario, hosts, seed);
    run_faults(&cluster, &plan, FaultStyle::Crash);
    drain(&cluster);
    let report = cluster.shutdown();
    report.validate().expect("identities hold");
    assert!(
        report.interrupted > 0,
        "the wave must interrupt resident work"
    );

    let sum = |f: fn(&HostExit) -> u64| report.host_exits.iter().map(f).sum::<u64>();
    assert_eq!(sum(|e| e.admitted_local), report.admitted_local);
    assert_eq!(
        sum(|e| e.admitted_local + e.admitted_migrated),
        report.admitted()
    );
    assert_eq!(sum(|e| e.interrupted), report.interrupted);
    let mut planned = vec![0u64; hosts];
    for c in &plan.commands {
        if let FaultOp::Kill(h) = c.op {
            planned[h] += 1;
        }
    }
    assert_eq!(planned.iter().sum::<u64>(), 2, "the plan strikes two hosts");
    let kills: Vec<u64> = report.host_exits.iter().map(|e| e.kills).collect();
    assert_eq!(kills, planned);
}

/// A crashed host thread is detected by the supervisor, its resident work
/// recovered at a surviving host, and the host restarted amnesiac — after
/// which it admits again.
#[test]
fn supervisor_restarts_a_crashed_host() {
    let cluster = Cluster::start(&ClusterConfig {
        hosts: 3,
        time_scale: 2_000.0,
        supervisor: SupervisorConfig {
            poll: Duration::from_millis(1),
            ..Default::default()
        },
        ..Default::default()
    });
    assert_eq!(
        cluster.submit_sync(0, 30.0, Duration::from_secs(5)),
        SubmitOutcome::AdmittedLocal
    );
    cluster.crash_host(0);
    assert!(
        wait_until(|| cluster.restarts() >= 1, Duration::from_secs(5)),
        "supervisor never restarted the crashed host"
    );
    // The amnesiac incarnation serves admissions again.
    let outcome = cluster.submit_sync(0, 2.0, Duration::from_secs(5));
    assert_ne!(outcome, SubmitOutcome::Rejected);
    assert_ne!(outcome, SubmitOutcome::Lost);
    drain(&cluster);
    let report = cluster.shutdown();
    report.validate().expect("identities hold");
    assert_eq!(report.interrupted, 1, "the resident task was interrupted");
    assert_eq!(report.recovered, 1, "an empty survivor must accept it");
    assert_eq!(report.destroyed, 0);
    assert!(report.recovery_tries >= 1, "every recovery try is charged");
    assert!(report.restarts >= 1);
    assert_eq!(report.host_exits[0].status, HostExitStatus::Stopped);
}

/// A host that stops heartbeating (wedged, not dead) is fenced off and
/// replaced; its work is recovered exactly like a crash.
#[test]
fn wedged_host_is_fenced_and_replaced() {
    // Scale 100: the 40-simulated-second task below is 400 ms of wall time,
    // so it is still resident when the watchdog fences the host (~60 ms in).
    let cluster = Cluster::start(&ClusterConfig {
        hosts: 3,
        time_scale: 100.0,
        supervisor: SupervisorConfig {
            poll: Duration::from_millis(5),
            stall_timeout: Duration::from_millis(50),
            ..Default::default()
        },
        ..Default::default()
    });
    assert_eq!(
        cluster.submit_sync(1, 40.0, Duration::from_secs(5)),
        SubmitOutcome::AdmittedLocal
    );
    cluster.stall_host(1, Duration::from_millis(600));
    assert!(
        wait_until(|| cluster.restarts() >= 1, Duration::from_secs(5)),
        "supervisor never fenced the wedged host"
    );
    let outcome = cluster.submit_sync(1, 2.0, Duration::from_secs(5));
    assert_ne!(outcome, SubmitOutcome::Lost);
    drain(&cluster);
    let report = cluster.shutdown();
    report.validate().expect("identities hold");
    assert!(report.interrupted >= 1);
    assert!(report.restarts >= 1);
    assert_eq!(report.host_exits[1].status, HostExitStatus::Stopped);
}

/// Shutdown is bounded even when a host is wedged and nobody is there to
/// fence it: the driver fences it itself within `shutdown_timeout`, reports
/// it as `Wedged`, and settles its resident work through the ledger.
#[test]
fn shutdown_is_bounded_with_a_wedged_host() {
    // Scale 100 keeps the 50-simulated-second task resident past the
    // 300 ms shutdown budget, so fencing must settle it via the ledger.
    let cluster = Cluster::start(&ClusterConfig {
        hosts: 2,
        time_scale: 100.0,
        shutdown_timeout: Duration::from_millis(300),
        supervisor: SupervisorConfig {
            enabled: false,
            ..Default::default()
        },
        ..Default::default()
    });
    assert_eq!(
        cluster.submit_sync(0, 50.0, Duration::from_secs(5)),
        SubmitOutcome::AdmittedLocal
    );
    cluster.stall_host(0, Duration::from_secs(5));
    std::thread::sleep(Duration::from_millis(20)); // let the stall begin
    let begun = Instant::now();
    let report = cluster.shutdown();
    assert!(
        begun.elapsed() < Duration::from_secs(2),
        "shutdown took {:?}, must be bounded by the timeout",
        begun.elapsed()
    );
    assert_eq!(report.host_exits[0].status, HostExitStatus::Wedged);
    assert_eq!(report.host_exits[1].status, HostExitStatus::Stopped);
    report.validate().expect("identities hold");
    assert_eq!(report.interrupted, 1);
    // With no supervisor, recovery ends with the run: the task is destroyed.
    assert_eq!(report.destroyed, 1);
}

/// Backpressure: with an absurdly small mailbox the fabric sheds datagrams
/// and counts them, but admission keeps working and every identity holds.
#[test]
fn tiny_mailbox_sheds_but_survives() {
    let cluster = Cluster::start(&ClusterConfig {
        hosts: 4,
        time_scale: 2_000.0,
        mailbox_capacity: 2,
        seed: 9,
        ..Default::default()
    });
    let trace = WorkloadSpec::paper(4.0, 4, SimTime::from_secs(90), 9).generate();
    cluster.run_workload(&trace);
    drain(&cluster);
    let report = cluster.shutdown();
    report.validate().expect("identities hold");
    assert_eq!(report.offered, trace.len() as u64);
    assert!(report.admitted() > 0, "the cluster must keep admitting");
}
