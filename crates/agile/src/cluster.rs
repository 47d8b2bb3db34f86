//! Cluster orchestration: spawn N hosts on the in-process fabric, replay a
//! workload in scaled time, aggregate statistics — the machinery behind the
//! paper's Section-6 measurement (Figure 9).
//!
//! Survivability: a supervisor thread watches every host — a thread that
//! ends without a clean stop has *crashed*, one that stops heartbeating is
//! *wedged* and gets fenced off — recovers the interrupted work from the
//! dead host's shared [`HostCore`] through bounded-retry re-admission, and
//! restarts the host amnesiac (fresh soft state, fresh transport channels,
//! re-joining discovery via HELP like any newcomer). Shutdown is
//! timeout-bounded and idempotent: a wedged host is fenced and detached,
//! never joined unconditionally, so it can never hang the driver. The
//! resulting [`ClusterReport`] must satisfy the simulator's ledger identity
//! `interrupted == recovered + destroyed` (see [`ClusterReport::validate`]).

use crate::clock::Clock;
use crate::host::{
    Host, HostConfig, HostControl, HostCore, HostStats, SubmitOutcome, EXIT_CRASHED, EXIT_RUNNING,
};
use crate::naming::NameService;
use crate::supervisor::{
    file_interrupts, recover_item, AdmissionDirectory, ClusterLedger, RecoveryItem,
    SupervisorConfig,
};
use crate::transport::{request_channel, Network, DEFAULT_MAILBOX_CAPACITY};
use realtor_simcore::metrics::MetricsSnapshot;
use realtor_simcore::stats::LogHistogram;
use realtor_simcore::trace::{TraceKind, TraceValue, Tracer};
use realtor_simcore::SimRng;
use realtor_workload::Trace;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering::Relaxed};
use std::sync::mpsc::channel;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Cluster configuration.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of hosts (the paper's cluster: 20).
    pub hosts: usize,
    /// Per-host configuration.
    pub host: HostConfig,
    /// Simulated seconds per wall second (1.0 = real time).
    pub time_scale: f64,
    /// Datagram loss probability (HELP/PLEDGE only; negotiation is TCP-like
    /// and never lossy).
    pub loss_probability: f64,
    /// Datagram duplication probability (same scope as loss).
    pub duplication_probability: f64,
    /// Seed for the channel impairment model, retry jitter, and supervisor
    /// target selection.
    pub seed: u64,
    /// Bound on each host's datagram inbox; overflow is shed and counted.
    pub mailbox_capacity: usize,
    /// Watchdog and recovery policy.
    pub supervisor: SupervisorConfig,
    /// Total wall-clock budget for [`Cluster::shutdown`]: hosts that have
    /// not ended by then are fenced and detached instead of joined.
    pub shutdown_timeout: Duration,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            hosts: 20,
            host: HostConfig::default(),
            time_scale: 1000.0,
            loss_probability: 0.0,
            duplication_probability: 0.0,
            seed: 0,
            mailbox_capacity: DEFAULT_MAILBOX_CAPACITY,
            supervisor: SupervisorConfig::default(),
            shutdown_timeout: Duration::from_secs(2),
        }
    }
}

/// How one host's final incarnation ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostExitStatus {
    /// Ended cleanly on `Stop`.
    Stopped,
    /// Died without cleanup and was not (or not yet) restarted.
    Crashed,
    /// Stopped responding and was fenced off, never joined.
    Wedged,
}

/// Per-host exit record in the [`ClusterReport`]: how the host ended,
/// plus its slot's [`HostStats`] counts at shutdown, summed over every
/// incarnation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostExit {
    /// Host id.
    pub host: usize,
    /// How the final incarnation ended.
    pub status: HostExitStatus,
    /// Amnesiac restarts the supervisor performed for this host.
    pub restarts: u64,
    /// Tasks admitted at this host on arrival ([`HostStats::admitted_local`]).
    pub admitted_local: u64,
    /// Tasks admitted at this host after migrating from another
    /// ([`HostStats::admitted_migrated`]).
    pub admitted_migrated: u64,
    /// Interrupted tasks re-admitted here ([`HostStats::recovered_in`]).
    pub recovered_in: u64,
    /// Queued tasks interrupted by this host's deaths
    /// ([`HostStats::interrupted`]).
    pub interrupted: u64,
    /// Kills aimed at this host ([`HostStats::kills`]).
    pub kills: u64,
}

/// Aggregated cluster statistics.
#[derive(Debug, Clone, Default)]
pub struct ClusterReport {
    /// Tasks submitted.
    pub offered: u64,
    /// Tasks admitted at their arrival host.
    pub admitted_local: u64,
    /// Tasks admitted after migration.
    pub admitted_migrated: u64,
    /// Tasks rejected.
    pub rejected: u64,
    /// Successful migrations.
    pub migrations: u64,
    /// Tasks submitted to attacked (down) hosts.
    pub lost_to_attacks: u64,
    /// Queued tasks interrupted by host deaths.
    pub interrupted: u64,
    /// Interrupted tasks re-admitted at another host.
    pub recovered: u64,
    /// Interrupted tasks whose recovery failed or was abandoned.
    pub destroyed: u64,
    /// Recovery negotiation attempts charged (successful or not).
    pub recovery_tries: u64,
    /// Amnesiac host restarts performed by the supervisor.
    pub restarts: u64,
    /// Negotiation attempts retried after transient failures.
    pub negotiation_retries: u64,
    /// Negotiations abandoned by the deadline budget.
    pub negotiation_abandoned: u64,
    /// HELP floods sent.
    pub helps_sent: u64,
    /// Unicast datagrams sent.
    pub datagrams_sent: u64,
    /// Datagrams dropped by the loss model.
    pub datagrams_dropped: u64,
    /// Extra datagram copies created by the duplication model.
    pub datagrams_duplicated: u64,
    /// Datagrams shed because the destination inbox was full.
    pub shed_datagrams: u64,
    /// Admission requests refused by a full server queue (backpressure).
    pub shed_admissions: u64,
    /// Mean wall-clock migration latency (seconds) and sample count.
    pub migration_latency_mean: f64,
    /// Number of migration-latency samples.
    pub migration_latency_count: u64,
    /// Components still registered in the naming service at shutdown.
    pub live_components: usize,
    /// Maximum observed datagram-inbox depth per host, across every
    /// incarnation (see [`Network::mailbox_high_water`]) — attributes
    /// shed-on-full datagrams to the depth that caused them.
    pub mailbox_high_water: Vec<u64>,
    /// Wall-clock admission latency (nanoseconds, submit → admitted),
    /// merged across every host's histogram.
    pub admission_latency_ns: LogHistogram,
    /// Wall-clock recovery latency (nanoseconds, pickup → settled) for
    /// every interrupted component, recovered or destroyed.
    pub recovery_latency_ns: LogHistogram,
    /// How each host's final incarnation ended.
    pub host_exits: Vec<HostExit>,
}

impl ClusterReport {
    /// Total admitted tasks.
    pub fn admitted(&self) -> u64 {
        self.admitted_local + self.admitted_migrated
    }

    /// The Figure-9 metric.
    pub fn admission_probability(&self) -> f64 {
        realtor_simcore::stats::ratio(self.admitted(), self.offered)
    }

    /// Check the runtime's accounting identities: every offered task was
    /// admitted (locally or after migration) or rejected, and every
    /// interrupted task was recovered or destroyed — the same ledger
    /// discipline the simulator enforces.
    pub fn validate(&self) -> Result<(), String> {
        let accounted = self.admitted_local + self.admitted_migrated + self.rejected;
        if self.offered != accounted {
            return Err(format!(
                "conservation violated: offered {} != admitted_local {} + admitted_migrated {} + rejected {}",
                self.offered, self.admitted_local, self.admitted_migrated, self.rejected
            ));
        }
        if self.interrupted != self.recovered + self.destroyed {
            return Err(format!(
                "ledger violated: interrupted {} != recovered {} + destroyed {}",
                self.interrupted, self.recovered, self.destroyed
            ));
        }
        Ok(())
    }
}

/// One incarnation's runtime handles; replaced wholesale on restart.
struct SlotRuntime {
    handle: Option<JoinHandle<()>>,
    exit: Arc<AtomicU8>,
    fenced: Arc<AtomicBool>,
    beat: Arc<AtomicU64>,
    /// Supervisor bookkeeping: last observed heartbeat and when it moved.
    last_beat: u64,
    last_change: Instant,
    core: Arc<Mutex<HostCore>>,
    dead: Arc<AtomicBool>,
    control_pending: Arc<AtomicU64>,
}

/// One host slot: counters survive restarts, the runtime does not.
struct Slot {
    stats: Arc<HostStats>,
    restarts: AtomicU64,
    /// The last dead incarnation was wedged (vs crashed) — the exit status
    /// to report when the slot is down at shutdown.
    wedged: AtomicBool,
    runtime: Mutex<SlotRuntime>,
}

struct ClusterInner {
    cfg: ClusterConfig,
    slots: Vec<Slot>,
    directory: AdmissionDirectory,
    naming: NameService,
    network: Network,
    clock: Clock,
    ledger: Arc<ClusterLedger>,
    recovery: Arc<Mutex<Vec<RecoveryItem>>>,
    tracer: Tracer,
}

/// Spawn one host incarnation into `slot`-shaped runtime handles. The
/// transport inbox (datagrams and control alike) is freshly reattached and
/// the admission client swapped into the shared directory, so peers and the
/// cluster immediately reach the new incarnation; `epoch` keeps
/// component-id spaces of successive incarnations disjoint.
#[allow(clippy::too_many_arguments)]
fn launch_host(
    id: usize,
    cfg: &ClusterConfig,
    clock: Clock,
    network: &Network,
    directory: &AdmissionDirectory,
    naming: &NameService,
    stats: Arc<HostStats>,
    recovery: Arc<Mutex<Vec<RecoveryItem>>>,
    ledger: Arc<ClusterLedger>,
    tracer: Tracer,
    epoch: u64,
) -> SlotRuntime {
    let endpoint = network.reattach(id);
    let (client, admission_server) = request_channel();
    directory.install(id, client);
    let core = Arc::new(Mutex::new(HostCore::new(cfg.host.capacity_secs)));
    let dead = Arc::new(AtomicBool::new(false));
    let beat = Arc::new(AtomicU64::new(0));
    let fenced = Arc::new(AtomicBool::new(false));
    let exit = Arc::new(AtomicU8::new(EXIT_RUNNING));
    let control_pending = Arc::new(AtomicU64::new(0));
    let host = Host {
        id,
        cfg: cfg.host.clone(),
        clock,
        endpoint,
        admission_server,
        directory: directory.clone(),
        naming: naming.clone(),
        stats,
        core: Arc::clone(&core),
        dead: Arc::clone(&dead),
        beat: Arc::clone(&beat),
        fenced: Arc::clone(&fenced),
        exit: Arc::clone(&exit),
        control_pending: Arc::clone(&control_pending),
        recovery,
        ledger,
        tracer,
        retry_rng: SimRng::indexed_stream(
            cfg.seed,
            "host-retry",
            ((epoch & 0xff) << 32) | id as u64,
        ),
        component_epoch: epoch,
    };
    let handle = std::thread::Builder::new()
        .name(format!("agile-host-{id}"))
        .spawn(move || host.run())
        .expect("spawn host");
    SlotRuntime {
        handle: Some(handle),
        exit,
        fenced,
        beat,
        last_beat: 0,
        last_change: Instant::now(),
        core,
        dead,
        control_pending,
    }
}

/// The supervisor: drain the recovery queue, then check every host for a
/// crash (thread finished without a clean stop) or a wedge (heartbeat
/// stale), recover its work, and restart it amnesiac.
fn supervise(inner: &ClusterInner, stop: &AtomicBool) {
    let sup = &inner.cfg.supervisor;
    let mut rng = SimRng::stream(inner.cfg.seed, "supervisor");
    while !stop.load(Relaxed) {
        let items: Vec<RecoveryItem> = {
            let mut q = inner.recovery.lock().expect("recovery queue lock");
            q.drain(..).collect()
        };
        for item in items {
            if stop.load(Relaxed) {
                // Shutdown raced in: hand the item back so shutdown can
                // settle it as destroyed instead of dropping it.
                inner
                    .recovery
                    .lock()
                    .expect("recovery queue lock")
                    .push(item);
                continue;
            }
            recover_item(
                &item,
                &inner.directory,
                &inner.naming,
                &inner.ledger,
                sup,
                &mut rng,
                &inner.tracer,
                inner.clock,
            );
        }
        for (id, slot) in inner.slots.iter().enumerate() {
            let mut rt = slot.runtime.lock().expect("slot runtime lock");
            let Some(handle) = &rt.handle else { continue };
            let died = if handle.is_finished() {
                let handle = rt.handle.take().expect("checked some");
                let _ = handle.join();
                if rt.exit.load(Relaxed) != EXIT_CRASHED {
                    continue; // clean stop (shutdown racing the watchdog)
                }
                true
            } else {
                let beat = rt.beat.load(Relaxed);
                if beat != rt.last_beat {
                    rt.last_beat = beat;
                    rt.last_change = Instant::now();
                    false
                } else if rt.last_change.elapsed() > sup.stall_timeout {
                    // Wedged: fence the incarnation (it must exit, untouched,
                    // whenever it wakes) and detach its thread — never join
                    // a thread that may never finish.
                    rt.fenced.store(true, Relaxed);
                    rt.dead.store(true, Relaxed);
                    drop(rt.handle.take());
                    slot.wedged.store(true, Relaxed);
                    true
                } else {
                    false
                }
            };
            if died {
                let now = inner.clock.now();
                let items =
                    rt.core
                        .lock()
                        .expect("core lock")
                        .drain_on_death(now, id, &inner.naming);
                file_interrupts(
                    items,
                    &inner.ledger,
                    &slot.stats,
                    &inner.tracer,
                    now,
                    &inner.recovery,
                );
                if sup.restart {
                    let epoch = slot.restarts.fetch_add(1, Relaxed) + 1;
                    *rt = launch_host(
                        id,
                        &inner.cfg,
                        inner.clock,
                        &inner.network,
                        &inner.directory,
                        &inner.naming,
                        Arc::clone(&slot.stats),
                        Arc::clone(&inner.recovery),
                        Arc::clone(&inner.ledger),
                        inner.tracer.clone(),
                        epoch,
                    );
                    inner.tracer.emit(
                        inner.clock.now(),
                        Some(id),
                        TraceKind::NodeRestore,
                        &[("epoch", TraceValue::U64(epoch))],
                    );
                }
            }
        }
        // Shutdown unparks the supervisor after raising `stop`.
        std::thread::park_timeout(sup.poll);
    }
}

/// A running cluster.
///
/// ```
/// use realtor_agile::{Cluster, ClusterConfig};
///
/// let cluster = Cluster::start(&ClusterConfig {
///     hosts: 3,
///     time_scale: 5_000.0, // 1 simulated second = 0.2 ms wall
///     ..Default::default()
/// });
/// cluster.submit(0, 2.5);
/// cluster.quiesce(std::time::Duration::from_millis(5), std::time::Duration::from_secs(2));
/// let report = cluster.shutdown();
/// assert_eq!(report.offered, 1);
/// assert_eq!(report.admitted(), 1);
/// assert!(report.validate().is_ok());
/// ```
pub struct Cluster {
    inner: Arc<ClusterInner>,
    supervisor: Mutex<Option<JoinHandle<()>>>,
    supervisor_stop: Arc<AtomicBool>,
    report: Mutex<Option<ClusterReport>>,
}

impl Cluster {
    /// Build and start a cluster with tracing disabled.
    pub fn start(cfg: &ClusterConfig) -> Cluster {
        Self::start_with(cfg, Tracer::disabled())
    }

    /// Build and start a cluster that emits survivability events and
    /// per-host counters into `tracer` (the A14 trace schema).
    pub fn start_with(cfg: &ClusterConfig, tracer: Tracer) -> Cluster {
        assert!(cfg.hosts > 0);
        let clock = Clock::start(cfg.time_scale);
        let quality = realtor_net::LinkQuality {
            loss: cfg.loss_probability,
            duplication: cfg.duplication_probability,
            ..realtor_net::LinkQuality::IDEAL
        };
        let (network, endpoints) =
            Network::with_options(cfg.hosts, quality, cfg.seed, cfg.mailbox_capacity);
        drop(endpoints); // each slot reattaches its own inbox in launch_host
        let naming = NameService::new();
        // Placeholder clients (their server halves are dropped, so they
        // answer Closed); launch_host installs the real ones.
        let directory =
            AdmissionDirectory::new((0..cfg.hosts).map(|_| request_channel().0).collect());
        let ledger = Arc::new(ClusterLedger::default());
        let recovery = Arc::new(Mutex::new(Vec::new()));
        let slots: Vec<Slot> = (0..cfg.hosts)
            .map(|id| {
                let stats = Arc::new(HostStats::default());
                let runtime = launch_host(
                    id,
                    cfg,
                    clock,
                    &network,
                    &directory,
                    &naming,
                    Arc::clone(&stats),
                    Arc::clone(&recovery),
                    Arc::clone(&ledger),
                    tracer.clone(),
                    0,
                );
                Slot {
                    stats,
                    restarts: AtomicU64::new(0),
                    wedged: AtomicBool::new(false),
                    runtime: Mutex::new(runtime),
                }
            })
            .collect();
        let inner = Arc::new(ClusterInner {
            cfg: cfg.clone(),
            slots,
            directory,
            naming,
            network,
            clock,
            ledger,
            recovery,
            tracer,
        });
        let supervisor_stop = Arc::new(AtomicBool::new(false));
        let supervisor = if cfg.supervisor.enabled {
            let sup_inner = Arc::clone(&inner);
            let sup_stop = Arc::clone(&supervisor_stop);
            Some(
                std::thread::Builder::new()
                    .name("agile-supervisor".into())
                    .spawn(move || supervise(&sup_inner, &sup_stop))
                    .expect("spawn supervisor"),
            )
        } else {
            None
        };
        Cluster {
            inner,
            supervisor: Mutex::new(supervisor),
            supervisor_stop,
            report: Mutex::new(None),
        }
    }

    /// The cluster clock.
    pub fn clock(&self) -> Clock {
        self.inner.clock
    }

    /// The shared naming service.
    pub fn naming(&self) -> &NameService {
        &self.inner.naming
    }

    /// The survivability ledger (live view; settled only after shutdown).
    pub fn ledger(&self) -> &ClusterLedger {
        &self.inner.ledger
    }

    /// Amnesiac restarts performed so far.
    pub fn restarts(&self) -> u64 {
        self.inner
            .slots
            .iter()
            .map(|s| s.restarts.load(Relaxed))
            .sum()
    }

    /// A point-in-time [`MetricsSnapshot`] of the running cluster: ledger
    /// and transport counters, per-host admission counters, live and
    /// high-water mailbox-depth gauges, and the admission/recovery latency
    /// histograms — ready to render with
    /// [`MetricsSnapshot::to_prometheus_text`]. Safe to call concurrently
    /// with submissions, faults, and recovery.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let inner = &*self.inner;
        let mut snap = MetricsSnapshot::new(inner.clock.now().as_secs_f64());
        let ledger = &inner.ledger;
        snap.push_counter(
            "agile_interrupted_total",
            None,
            ledger.interrupted.load(Relaxed),
        );
        snap.push_counter(
            "agile_recovered_total",
            None,
            ledger.recovered.load(Relaxed),
        );
        snap.push_counter(
            "agile_destroyed_total",
            None,
            ledger.destroyed.load(Relaxed),
        );
        snap.push_counter(
            "agile_recovery_tries_total",
            None,
            ledger.recovery_tries.load(Relaxed),
        );
        snap.push_counter(
            "agile_datagrams_dropped_total",
            None,
            inner.network.dropped_count(),
        );
        snap.push_counter(
            "agile_datagrams_shed_total",
            None,
            inner.network.shed_count(),
        );
        snap.push_counter(
            "agile_admissions_shed_total",
            None,
            inner.directory.shed_total(),
        );
        snap.push_gauge("agile_live_components", None, inner.naming.len() as f64);
        for (id, slot) in inner.slots.iter().enumerate() {
            let s = &slot.stats;
            snap.push_counter("agile_offered_total", Some(id), s.offered.load(Relaxed));
            snap.push_counter(
                "agile_admitted_total",
                Some(id),
                s.admitted_local.load(Relaxed) + s.admitted_migrated.load(Relaxed),
            );
            snap.push_counter("agile_rejected_total", Some(id), s.rejected.load(Relaxed));
            snap.push_counter(
                "agile_restarts_total",
                Some(id),
                slot.restarts.load(Relaxed),
            );
            snap.push_gauge(
                "agile_mailbox_depth",
                Some(id),
                inner.network.mailbox_depth(id) as f64,
            );
            snap.push_gauge(
                "agile_mailbox_high_water",
                Some(id),
                inner.network.mailbox_high_water(id) as f64,
            );
            snap.push_histogram(
                "agile_admission_latency_ns",
                Some(id),
                s.admission_latency_ns.lock().expect("latency lock").clone(),
            );
        }
        snap.push_histogram(
            "agile_recovery_latency_ns",
            None,
            ledger
                .recovery_latency_ns
                .lock()
                .expect("recovery latency lock")
                .clone(),
        );
        snap
    }

    /// Send a control message into the host's inbox, keeping the
    /// pending-control accounting that [`Cluster::quiesce`] relies on.
    /// Returns false if the inbox is closed (the host's thread ended and was
    /// not restarted).
    fn send_control(&self, host: usize, msg: HostControl) -> bool {
        let rt = self.inner.slots[host]
            .runtime
            .lock()
            .expect("slot runtime lock");
        rt.control_pending.fetch_add(1, Relaxed);
        if !self.inner.network.send_control(host, msg) {
            rt.control_pending.fetch_sub(1, Relaxed);
            return false;
        }
        true
    }

    /// Submit one task to `host` immediately (fire-and-forget).
    pub fn submit(&self, host: usize, size_secs: f64) {
        if !self.send_control(
            host,
            HostControl::Submit {
                size_secs,
                reply: None,
            },
        ) {
            let s = &self.inner.slots[host].stats;
            s.offered.fetch_add(1, Relaxed);
            s.rejected.fetch_add(1, Relaxed);
            s.lost_to_attacks.fetch_add(1, Relaxed);
        }
    }

    /// Submit one task and wait (up to `timeout`) for its admission outcome
    /// — the closed-loop client path. A task whose host thread is gone, or
    /// whose outcome does not arrive in time, reports [`SubmitOutcome::Lost`].
    pub fn submit_sync(&self, host: usize, size_secs: f64, timeout: Duration) -> SubmitOutcome {
        let (tx, rx) = channel();
        if !self.send_control(
            host,
            HostControl::Submit {
                size_secs,
                reply: Some(tx),
            },
        ) {
            let s = &self.inner.slots[host].stats;
            s.offered.fetch_add(1, Relaxed);
            s.rejected.fetch_add(1, Relaxed);
            s.lost_to_attacks.fetch_add(1, Relaxed);
            return SubmitOutcome::Lost;
        }
        rx.recv_timeout(timeout).unwrap_or(SubmitOutcome::Lost)
    }

    /// Simulate an external attack on `host`: it stops answering datagrams
    /// and admission requests; its queued work is interrupted and handed to
    /// the supervisor for recovery.
    pub fn kill_host(&self, host: usize) {
        self.inner.tracer.emit(
            self.inner.clock.now(),
            Some(host),
            TraceKind::NodeKill,
            &[("style", TraceValue::Str("cooperative"))],
        );
        self.inner.slots[host].stats.kills.fetch_add(1, Relaxed);
        self.send_control(host, HostControl::Kill);
    }

    /// Bring an attacked host back with fresh soft state.
    pub fn revive_host(&self, host: usize) {
        self.send_control(host, HostControl::Revive);
        self.inner.tracer.emit(
            self.inner.clock.now(),
            Some(host),
            TraceKind::NodeRestore,
            &[("style", TraceValue::Str("revive"))],
        );
    }

    /// Kill `host`'s thread outright — no cleanup, no farewell. Its queued
    /// work stays in the shared core until the supervisor recovers it and
    /// restarts the host amnesiac.
    pub fn crash_host(&self, host: usize) {
        self.inner.tracer.emit(
            self.inner.clock.now(),
            Some(host),
            TraceKind::NodeKill,
            &[("style", TraceValue::Str("crash"))],
        );
        self.inner.slots[host].stats.kills.fetch_add(1, Relaxed);
        self.send_control(host, HostControl::Crash);
    }

    /// Wedge `host` for `wall`: it stops heartbeating (and serving its
    /// control plane) until the stall elapses — from the supervisor's point
    /// of view, indistinguishable from a hung thread.
    pub fn stall_host(&self, host: usize, wall: Duration) {
        self.send_control(host, HostControl::Stall(wall));
    }

    /// Replay a workload trace in scaled time (blocks until the last arrival
    /// has been submitted).
    pub fn run_workload(&self, trace: &Trace) {
        for rec in &trace.records {
            self.inner.clock.sleep_until(rec.at);
            self.submit(rec.node % self.inner.slots.len(), rec.size_secs);
        }
    }

    /// Let in-flight work settle for `sim_secs` of simulated time.
    pub fn settle(&self, sim_secs: f64) {
        std::thread::sleep(
            self.inner
                .clock
                .to_wall(realtor_simcore::SimDuration::from_secs_f64(sim_secs)),
        );
    }

    /// Control messages sent but not yet processed by live hosts.
    fn pending_controls(&self) -> u64 {
        self.inner
            .slots
            .iter()
            .map(|s| {
                let rt = s.runtime.lock().expect("slot runtime lock");
                match &rt.handle {
                    // A dead, unrestarted host will never drain its queue;
                    // its leftovers must not block quiescence forever.
                    None => 0,
                    Some(h) if h.is_finished() => 0,
                    Some(_) => rt.control_pending.load(Relaxed),
                }
            })
            .sum()
    }

    /// Drain until the cluster is quiet — no datagram in any inbox, no
    /// admission request awaiting service, no unprocessed control message,
    /// no component awaiting recovery — continuously for `grace`, or give
    /// up after `max`. Returns whether quiescence was reached. This replaces
    /// fixed settle times: it is exact under light load and bounded under
    /// pathology (a wedged host pins its queues until the supervisor fences
    /// it).
    pub fn quiesce(&self, grace: Duration, max: Duration) -> bool {
        let deadline = Instant::now() + max;
        let mut quiet_since: Option<Instant> = None;
        loop {
            let busy = self.inner.network.in_flight() > 0
                || self.inner.directory.in_flight_total() > 0
                || self.pending_controls() > 0
                || !self
                    .inner
                    .recovery
                    .lock()
                    .expect("recovery queue lock")
                    .is_empty();
            if busy {
                quiet_since = None;
            } else if quiet_since.get_or_insert_with(Instant::now).elapsed() >= grace {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_micros(500));
        }
    }

    /// Stop every host and aggregate the statistics. Idempotent — the first
    /// call computes the report, later calls (and [`Drop`]) return it
    /// unchanged — and bounded by [`ClusterConfig::shutdown_timeout`]: a
    /// wedged host is fenced and detached, so shutdown can never hang.
    pub fn shutdown(&self) -> ClusterReport {
        let mut cached = self.report.lock().expect("report lock");
        if let Some(r) = cached.as_ref() {
            return r.clone();
        }
        // Stop the supervisor first so it cannot race restarts against
        // the teardown below.
        self.supervisor_stop.store(true, Relaxed);
        if let Some(h) = self.supervisor.lock().expect("supervisor lock").take() {
            h.thread().unpark();
            let _ = h.join();
        }
        let inner = &*self.inner;
        for host in 0..inner.slots.len() {
            self.send_control(host, HostControl::Stop);
        }
        let deadline = Instant::now() + inner.cfg.shutdown_timeout;
        let mut host_exits = Vec::with_capacity(inner.slots.len());
        for (id, slot) in inner.slots.iter().enumerate() {
            let mut rt = slot.runtime.lock().expect("slot runtime lock");
            let status = match rt.handle.take() {
                None => {
                    if slot.wedged.load(Relaxed) {
                        HostExitStatus::Wedged
                    } else {
                        HostExitStatus::Crashed
                    }
                }
                Some(handle) => {
                    while !handle.is_finished() && Instant::now() < deadline {
                        std::thread::sleep(Duration::from_micros(50));
                    }
                    if handle.is_finished() {
                        let _ = handle.join();
                        if rt.exit.load(Relaxed) == EXIT_CRASHED {
                            HostExitStatus::Crashed
                        } else {
                            HostExitStatus::Stopped
                        }
                    } else {
                        // Out of budget: fence and detach, never hang.
                        rt.fenced.store(true, Relaxed);
                        rt.dead.store(true, Relaxed);
                        HostExitStatus::Wedged
                    }
                }
            };
            if status != HostExitStatus::Stopped {
                // A host that did not stop cleanly never interrupted its own
                // queue; settle its resident work through the ledger.
                let now = inner.clock.now();
                let items =
                    rt.core
                        .lock()
                        .expect("core lock")
                        .drain_on_death(now, id, &inner.naming);
                file_interrupts(
                    items,
                    &inner.ledger,
                    &slot.stats,
                    &inner.tracer,
                    now,
                    &inner.recovery,
                );
            }
            let s = &slot.stats;
            host_exits.push(HostExit {
                host: id,
                status,
                restarts: slot.restarts.load(Relaxed),
                admitted_local: s.admitted_local.load(Relaxed),
                admitted_migrated: s.admitted_migrated.load(Relaxed),
                recovered_in: s.recovered_in.load(Relaxed),
                interrupted: s.interrupted.load(Relaxed),
                kills: s.kills.load(Relaxed),
            });
        }
        // Recovery ends with the run: whatever is still queued is destroyed,
        // closing the ledger identity.
        let leftovers: Vec<RecoveryItem> = {
            let mut q = inner.recovery.lock().expect("recovery queue lock");
            q.drain(..).collect()
        };
        let now = inner.clock.now();
        for item in leftovers {
            inner.ledger.destroyed.fetch_add(1, Relaxed);
            inner.naming.unregister(item.component.id);
            inner.tracer.emit(
                now,
                Some(item.from_host),
                TraceKind::TaskDestroy,
                &[("component", TraceValue::U64(item.component.id.0))],
            );
        }
        let mut report = ClusterReport {
            datagrams_dropped: inner.network.dropped_count(),
            datagrams_duplicated: inner.network.duplicated_count(),
            shed_datagrams: inner.network.shed_count(),
            shed_admissions: inner.directory.shed_total(),
            interrupted: inner.ledger.interrupted.load(Relaxed),
            recovered: inner.ledger.recovered.load(Relaxed),
            destroyed: inner.ledger.destroyed.load(Relaxed),
            recovery_tries: inner.ledger.recovery_tries.load(Relaxed),
            live_components: inner.naming.len(),
            mailbox_high_water: (0..inner.slots.len())
                .map(|h| inner.network.mailbox_high_water(h))
                .collect(),
            recovery_latency_ns: inner
                .ledger
                .recovery_latency_ns
                .lock()
                .expect("recovery latency lock")
                .clone(),
            host_exits,
            ..Default::default()
        };
        let mut latency = realtor_simcore::stats::Welford::new();
        for slot in &inner.slots {
            let s = &slot.stats;
            report.offered += s.offered.load(Relaxed);
            report.admitted_local += s.admitted_local.load(Relaxed);
            report.admitted_migrated += s.admitted_migrated.load(Relaxed);
            report.rejected += s.rejected.load(Relaxed);
            report.migrations += s.migrations_out.load(Relaxed);
            report.lost_to_attacks += s.lost_to_attacks.load(Relaxed);
            report.negotiation_retries += s.negotiation_retries.load(Relaxed);
            report.negotiation_abandoned += s.negotiation_abandoned.load(Relaxed);
            report.helps_sent += s.helps_sent.load(Relaxed);
            report.datagrams_sent += s.datagrams_sent.load(Relaxed);
            report.restarts += slot.restarts.load(Relaxed);
            latency.merge(&s.migration_latency.lock().expect("latency lock"));
            report
                .admission_latency_ns
                .merge(&s.admission_latency_ns.lock().expect("latency lock"));
        }
        report.migration_latency_mean = latency.mean();
        report.migration_latency_count = latency.count();
        *cached = Some(report.clone());
        report
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        let done = self.report.lock().map(|g| g.is_some()).unwrap_or(true);
        if !done {
            let _ = self.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use realtor_simcore::SimTime;
    use realtor_workload::WorkloadSpec;

    fn small_cfg() -> ClusterConfig {
        ClusterConfig {
            hosts: 4,
            time_scale: 2000.0,
            ..Default::default()
        }
    }

    fn drain(cluster: &Cluster) {
        assert!(
            cluster.quiesce(Duration::from_millis(10), Duration::from_secs(10)),
            "cluster failed to quiesce"
        );
    }

    #[test]
    fn light_load_admits_everything() {
        let cluster = Cluster::start(&small_cfg());
        let trace = WorkloadSpec::paper(0.5, 4, SimTime::from_secs(60), 5).generate();
        cluster.run_workload(&trace);
        drain(&cluster);
        let report = cluster.shutdown();
        assert_eq!(report.offered, trace.len() as u64);
        assert_eq!(report.rejected, 0, "light load must admit everything");
        assert_eq!(report.admitted(), report.offered);
        assert_eq!(report.interrupted, 0);
        assert_eq!(report.restarts, 0);
        report.validate().expect("identities hold");
        assert!(report
            .host_exits
            .iter()
            .all(|e| e.status == HostExitStatus::Stopped));
    }

    #[test]
    fn overload_rejects_and_migrates() {
        // 4 hosts × 50 s queues; λ=4 of mean-5s tasks = 20 work-s/s against
        // 4 work-s/s of capacity: heavy overload.
        let cluster = Cluster::start(&small_cfg());
        let trace = WorkloadSpec::paper(4.0, 4, SimTime::from_secs(120), 6).generate();
        cluster.run_workload(&trace);
        drain(&cluster);
        let report = cluster.shutdown();
        assert!(report.offered > 0);
        assert!(report.rejected > 0, "overload must reject some tasks");
        assert!(
            report.helps_sent > 0,
            "REALTOR must have solicited under overload"
        );
        let p = report.admission_probability();
        assert!(p > 0.1 && p < 0.95, "admission probability {p}");
        report.validate().expect("identities hold");
    }

    #[test]
    fn submissions_count_once() {
        let cluster = Cluster::start(&small_cfg());
        for _ in 0..10 {
            cluster.submit(0, 1.0);
        }
        drain(&cluster);
        let report = cluster.shutdown();
        assert_eq!(report.offered, 10);
        assert_eq!(report.admitted() + report.rejected, 10);
    }

    #[test]
    fn lossy_network_still_functions() {
        let mut cfg = small_cfg();
        cfg.loss_probability = 0.5;
        cfg.seed = 3;
        let cluster = Cluster::start(&cfg);
        let trace = WorkloadSpec::paper(3.0, 4, SimTime::from_secs(60), 7).generate();
        cluster.run_workload(&trace);
        drain(&cluster);
        let report = cluster.shutdown();
        assert_eq!(report.offered, trace.len() as u64);
        // Soft state degrades gracefully: the cluster keeps admitting.
        assert!(report.admission_probability() > 0.2);
        report.validate().expect("identities hold");
    }

    #[test]
    fn shutdown_is_idempotent() {
        let cluster = Cluster::start(&small_cfg());
        cluster.submit(0, 1.0);
        drain(&cluster);
        let a = cluster.shutdown();
        let b = cluster.shutdown();
        assert_eq!(a.offered, b.offered);
        assert_eq!(a.host_exits, b.host_exits);
    }

    #[test]
    fn metrics_snapshot_and_latency_histograms_are_populated() {
        let cluster = Cluster::start(&small_cfg());
        // Overload so discovery traffic (HELP floods) actually queues.
        let trace = WorkloadSpec::paper(4.0, 4, SimTime::from_secs(120), 6).generate();
        cluster.run_workload(&trace);
        drain(&cluster);
        let snap = cluster.metrics_snapshot();
        let text = snap.to_prometheus_text();
        assert!(text.contains("# TYPE agile_offered_total counter\n"));
        assert!(text.contains("agile_mailbox_high_water{host=\"0\"}"));
        assert!(text.contains("# TYPE agile_admission_latency_ns histogram\n"));
        assert!(text.contains("agile_recovery_latency_ns_count 0\n"));
        let report = cluster.shutdown();
        assert_eq!(report.mailbox_high_water.len(), 4);
        assert!(
            report.mailbox_high_water.iter().any(|&hw| hw > 0),
            "discovery traffic must have queued somewhere"
        );
        assert_eq!(
            report.admission_latency_ns.count(),
            report.admitted(),
            "every admission records one latency sample"
        );
        assert!(report.admission_latency_ns.max() > 0);
    }

    #[test]
    fn submit_sync_reports_the_outcome() {
        let cluster = Cluster::start(&small_cfg());
        let got = cluster.submit_sync(1, 2.0, Duration::from_secs(5));
        assert_eq!(got, SubmitOutcome::AdmittedLocal);
        cluster.kill_host(1);
        drain(&cluster);
        let got = cluster.submit_sync(1, 2.0, Duration::from_secs(5));
        assert_eq!(got, SubmitOutcome::Lost);
        let report = cluster.shutdown();
        report.validate().expect("identities hold");
    }
}
