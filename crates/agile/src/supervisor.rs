//! Supervised recovery: the policy half of the cluster's watchdog.
//!
//! The cluster spawns a supervisor thread (see `cluster.rs`) that detects
//! dead host threads — a crashed thread is `is_finished()` without having
//! been stopped, a wedged one stops heartbeating — and restarts them
//! amnesiac, exactly like the paper's §1 recovery story: the replacement
//! re-joins discovery via HELP with fresh soft state. Work that was in
//! flight on the dead host is *interrupted*; this module re-admits it
//! elsewhere through ordinary admission negotiation with bounded, seeded,
//! deadline-aware retries. Every try is charged to the ledger, and the run
//! must satisfy the same identity the simulator enforces:
//! `interrupted == recovered + destroyed`.

use crate::clock::Clock;
use crate::codec::{decode_admission_reply, encode_admission_request, AdmissionRequest};
use crate::component::AgileComponent;
use crate::naming::NameService;
use crate::retry::RetryPolicy;
use crate::transport::{ClientDirectory, HostId, RequestError};
use realtor_simcore::stats::LogHistogram;
use realtor_simcore::trace::{TaskLineage, TraceKind, TraceValue, Tracer};
use realtor_simcore::{SimRng, SimTime};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The admission-negotiation channel directory (requests and replies cross
/// as codec bytes, like every other wire message).
pub type AdmissionDirectory = ClientDirectory<Vec<u8>, Vec<u8>>;

/// Watchdog and recovery policy.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Run the watchdog at all. Disabled, dead hosts stay dead (their
    /// interrupted work is destroyed at shutdown) — the pre-supervision
    /// behaviour, useful for experiments that script their own recovery.
    pub enabled: bool,
    /// Wall-clock poll period of the watchdog.
    pub poll: Duration,
    /// A live host thread heartbeats every loop iteration; one that has not
    /// beaten for this long is declared wedged, fenced off, and replaced.
    pub stall_timeout: Duration,
    /// Restart dead hosts (amnesiac). When false the watchdog only recovers
    /// the interrupted work and leaves the host down.
    pub restart: bool,
    /// Retry policy for re-admitting interrupted components.
    pub recovery: RetryPolicy,
    /// Per-try negotiation timeout for recovery admissions.
    pub negotiation_timeout: Duration,
    /// Total wall-clock budget per interrupted component: a retry that
    /// cannot finish inside it is abandoned (and the component destroyed).
    pub recovery_deadline: Duration,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            enabled: true,
            poll: Duration::from_millis(2),
            stall_timeout: Duration::from_millis(500),
            restart: true,
            recovery: RetryPolicy::default(),
            negotiation_timeout: Duration::from_millis(20),
            recovery_deadline: Duration::from_millis(250),
        }
    }
}

/// The runtime survivability ledger, mirroring the simulator's: every task
/// interrupted by a host death is eventually either recovered (re-admitted
/// elsewhere) or destroyed (recovery abandoned), and every recovery try is
/// charged whether or not it succeeds.
#[derive(Debug, Default)]
pub struct ClusterLedger {
    /// Tasks whose host died while they were queued.
    pub interrupted: AtomicU64,
    /// Interrupted tasks re-admitted at another host.
    pub recovered: AtomicU64,
    /// Interrupted tasks whose recovery was refused, timed out, or abandoned.
    pub destroyed: AtomicU64,
    /// Recovery negotiation attempts charged (includes failed tries).
    pub recovery_tries: AtomicU64,
    /// Wall-clock time from picking an interrupted component up to settling
    /// it (recovered or destroyed), in nanoseconds — mergeable and exported
    /// through the cluster report and metrics snapshots.
    pub recovery_latency_ns: Mutex<LogHistogram>,
}

impl ClusterLedger {
    /// The survivability identity: `interrupted == recovered + destroyed`.
    /// Only meaningful once every in-flight recovery has resolved (after
    /// shutdown).
    pub fn balanced(&self) -> bool {
        self.interrupted.load(Relaxed)
            == self.recovered.load(Relaxed) + self.destroyed.load(Relaxed)
    }
}

/// One interrupted component awaiting recovery.
#[derive(Debug, Clone)]
pub struct RecoveryItem {
    /// The component, with `remaining_secs` clipped to the work it had left.
    pub component: AgileComponent,
    /// The host that died under it (never retargeted there).
    pub from_host: HostId,
}

/// Charge freshly interrupted work to the ledger (and the dead host's own
/// counters), emit the trace events, and enqueue each item for supervised
/// recovery. Both death paths — a cooperative kill draining itself and the
/// supervisor draining a crashed host's core — go through here, so the
/// accounting cannot diverge between them.
pub fn file_interrupts(
    items: Vec<RecoveryItem>,
    ledger: &ClusterLedger,
    stats: &crate::host::HostStats,
    tracer: &Tracer,
    now: SimTime,
    queue: &Mutex<Vec<RecoveryItem>>,
) {
    if items.is_empty() {
        return;
    }
    let mut q = queue.lock().expect("recovery queue lock");
    for item in items {
        ledger.interrupted.fetch_add(1, Relaxed);
        stats.interrupted.fetch_add(1, Relaxed);
        tracer.emit_spanned(
            now,
            Some(item.from_host),
            TraceKind::TaskInterrupt,
            Some(TaskLineage(item.component.id.0).span()),
            None,
            &[
                ("component", TraceValue::U64(item.component.id.0)),
                (
                    "remaining_secs",
                    TraceValue::F64(item.component.remaining_secs),
                ),
            ],
        );
        q.push(item);
    }
}

/// Re-admit one interrupted component somewhere else: bounded retries with
/// seeded backoff across rotating targets, abandoning when the deadline
/// budget cannot cover another try. Returns `true` when recovered. The
/// ledger is always settled: exactly one of `recovered`/`destroyed` is
/// incremented, and each negotiation attempt charges `recovery_tries`.
#[allow(clippy::too_many_arguments)]
pub fn recover_item(
    item: &RecoveryItem,
    directory: &AdmissionDirectory,
    naming: &NameService,
    ledger: &ClusterLedger,
    cfg: &SupervisorConfig,
    rng: &mut SimRng,
    tracer: &Tracer,
    clock: Clock,
) -> bool {
    let hosts = directory.len();
    let candidates: Vec<HostId> = (0..hosts).filter(|&h| h != item.from_host).collect();
    let id = item.component.id;
    let started = Instant::now();
    let mut recovered = false;
    if !candidates.is_empty() {
        let first = rng.index(candidates.len());
        for attempt in 0..cfg.recovery.max_tries {
            if attempt > 0 {
                let backoff = cfg.recovery.backoff(attempt - 1, rng);
                if !cfg.recovery.attempt_fits(
                    started.elapsed(),
                    backoff,
                    cfg.negotiation_timeout,
                    cfg.recovery_deadline,
                ) {
                    break; // abandoned: the deadline cannot cover another try
                }
                std::thread::sleep(backoff);
            }
            let target = candidates[(first + attempt as usize) % candidates.len()];
            ledger.recovery_tries.fetch_add(1, Relaxed);
            let req = AdmissionRequest {
                size_secs: item.component.remaining_secs,
                component: item.component.snapshot(),
                commit: true,
                recovery: true,
            };
            match directory
                .client(target)
                .request(encode_admission_request(&req), cfg.negotiation_timeout)
            {
                Ok(bytes) => {
                    if decode_admission_reply(&bytes)
                        .map(|r| r.accepted)
                        .unwrap_or(false)
                    {
                        recovered = true;
                    }
                }
                Err(RequestError::Timeout) => {
                    // The commit may have landed with only the reply lost;
                    // the receiving AC updates the binding on restore, so a
                    // brief retried lookup disambiguates before we retry
                    // (and potentially double-admit).
                    recovered = naming.await_binding(id, target, 3, Duration::from_micros(200));
                }
                Err(RequestError::Busy) | Err(RequestError::Closed) => {}
            }
            if recovered {
                break;
            }
        }
    }
    let settled_ns = started.elapsed().as_nanos().min(u64::MAX as u128) as u64;
    ledger
        .recovery_latency_ns
        .lock()
        .expect("recovery latency lock")
        .record(settled_ns);
    let span = Some(TaskLineage(id.0).span());
    if recovered {
        ledger.recovered.fetch_add(1, Relaxed);
        tracer.emit_spanned(
            clock.now(),
            Some(item.from_host),
            TraceKind::TaskRecover,
            span,
            None,
            &[
                ("component", TraceValue::U64(id.0)),
                (
                    "remaining_secs",
                    TraceValue::F64(item.component.remaining_secs),
                ),
            ],
        );
    } else {
        ledger.destroyed.fetch_add(1, Relaxed);
        naming.unregister(id);
        tracer.emit_spanned(
            clock.now(),
            Some(item.from_host),
            TraceKind::TaskDestroy,
            span,
            None,
            &[
                ("component", TraceValue::U64(id.0)),
                (
                    "remaining_secs",
                    TraceValue::F64(item.component.remaining_secs),
                ),
            ],
        );
    }
    recovered
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{decode_admission_request, encode_admission_reply, AdmissionReply};
    use crate::naming::ComponentId;
    use crate::transport::request_channel;

    type ByteServer = crate::transport::RequestServer<Vec<u8>, Vec<u8>>;

    fn setup(hosts: usize) -> (AdmissionDirectory, Vec<ByteServer>) {
        let mut clients = Vec::new();
        let mut servers = Vec::new();
        for _ in 0..hosts {
            let (c, s) = request_channel();
            clients.push(c);
            servers.push(s);
        }
        (AdmissionDirectory::new(clients), servers)
    }

    fn item(id: u64, from: HostId) -> RecoveryItem {
        RecoveryItem {
            component: AgileComponent::new(ComponentId(id), 4.0),
            from_host: from,
        }
    }

    #[test]
    fn recovery_lands_on_an_accepting_host_and_charges_the_try() {
        let (dir, servers) = setup(2);
        let naming = NameService::new();
        let ledger = ClusterLedger::default();
        let cfg = SupervisorConfig::default();
        // Host 1 accepts everything; host 0 is the dead source.
        let acceptor = std::thread::spawn(move || {
            servers[1].serve_one(Duration::from_secs(1), |bytes: Vec<u8>| {
                let req = decode_admission_request(&bytes).unwrap();
                assert!(req.commit && req.recovery);
                encode_admission_reply(&AdmissionReply { accepted: true })
            });
        });
        let mut rng = SimRng::from_seed(1);
        let ok = recover_item(
            &item(7, 0),
            &dir,
            &naming,
            &ledger,
            &cfg,
            &mut rng,
            &Tracer::disabled(),
            Clock::start(1000.0),
        );
        acceptor.join().unwrap();
        assert!(ok);
        assert_eq!(ledger.recovered.load(Relaxed), 1);
        assert_eq!(ledger.destroyed.load(Relaxed), 0);
        assert_eq!(ledger.recovery_tries.load(Relaxed), 1);
        assert_eq!(
            ledger.recovery_latency_ns.lock().unwrap().count(),
            1,
            "every settled item records its recovery latency"
        );
    }

    #[test]
    fn exhausted_retries_destroy_and_balance_the_ledger() {
        let (dir, _servers) = setup(3); // servers dropped: every channel closed
        let naming = NameService::new();
        naming.register(ComponentId(9), 0);
        let ledger = ClusterLedger::default();
        ledger.interrupted.fetch_add(1, Relaxed);
        let cfg = SupervisorConfig {
            recovery: RetryPolicy {
                max_tries: 3,
                base: Duration::from_micros(100),
                cap: Duration::from_micros(400),
                jitter: 0.0,
            },
            negotiation_timeout: Duration::from_millis(2),
            recovery_deadline: Duration::from_millis(100),
            ..Default::default()
        };
        let mut rng = SimRng::from_seed(2);
        let ok = recover_item(
            &item(9, 0),
            &dir,
            &naming,
            &ledger,
            &cfg,
            &mut rng,
            &Tracer::disabled(),
            Clock::start(1000.0),
        );
        assert!(!ok);
        assert!(ledger.balanced());
        assert_eq!(ledger.destroyed.load(Relaxed), 1);
        assert_eq!(
            ledger.recovery_tries.load(Relaxed),
            3,
            "every try is charged"
        );
        assert_eq!(
            naming.lookup(ComponentId(9)),
            None,
            "destroyed work unbinds"
        );
    }

    #[test]
    fn deadline_abandons_instead_of_overrunning() {
        let (dir, _servers) = setup(2);
        let ledger = ClusterLedger::default();
        let cfg = SupervisorConfig {
            recovery: RetryPolicy {
                max_tries: 10,
                base: Duration::from_millis(5),
                cap: Duration::from_millis(50),
                jitter: 0.0,
            },
            negotiation_timeout: Duration::from_millis(5),
            // Budget covers roughly one try: the rest must be abandoned.
            recovery_deadline: Duration::from_millis(8),
            ..Default::default()
        };
        let mut rng = SimRng::from_seed(3);
        let started = Instant::now();
        let ok = recover_item(
            &item(1, 0),
            &dir,
            &NameService::new(),
            &ledger,
            &cfg,
            &mut rng,
            &Tracer::disabled(),
            Clock::start(1000.0),
        );
        assert!(!ok);
        assert!(
            started.elapsed() < Duration::from_millis(60),
            "abandonment must respect the deadline budget, took {:?}",
            started.elapsed()
        );
        assert!(ledger.recovery_tries.load(Relaxed) < 10);
        assert_eq!(ledger.destroyed.load(Relaxed), 1);
    }
}
