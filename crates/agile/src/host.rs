//! The per-host runtime: one main thread driving the discovery agent, task
//! admission and migration, plus one admission-control thread serving
//! reliable negotiation requests — mirroring the component split of the
//! paper's Figure 1 (REALTOR, Admission Control, Job Scheduler, Migration
//! Subsystem).
//!
//! The main thread blocks on its host's one inbox, which carries discovery
//! datagrams and control messages alike: control and datagrams wake the
//! host at once, so a submitted task is noticed as promptly as a PLEDGE.
//! [`HostConfig::tick`] is only the longest idle wait before timers, usage
//! and completions are polled. The admission-control thread blocks on its
//! request queue and is woken by a stop message when the host ends.
//!
//! Survivability wiring: the host heartbeats every loop iteration and every
//! message so the cluster supervisor can detect a wedged thread, publishes
//! its exit status when the thread ends, and keeps its admission state in a
//! shared [`HostCore`] that the supervisor can drain for recovery when the
//! host dies without running its own cleanup (a crash). Admission negotiation
//! retries transient failures (timeout, backpressure, closed channel) under
//! a bounded, seeded, deadline-aware [`RetryPolicy`]; an explicit refusal is
//! final and never retried, so fault-free behaviour is unchanged.

use crate::clock::Clock;
use crate::codec::{
    decode_admission_reply, decode_admission_request, decode_message, encode_admission_reply,
    encode_admission_request, encode_message, AdmissionReply, AdmissionRequest,
};
use crate::component::AgileComponent;
use crate::naming::{ComponentId, NameService};
use crate::retry::RetryPolicy;
use crate::supervisor::{file_interrupts, AdmissionDirectory, ClusterLedger, RecoveryItem};
use crate::transport::{Endpoint, HostId, Inbound, RequestError, RequestServer};
use realtor_core::protocol::{Action, Actions, DiscoveryProtocol, LocalView, TimerToken};
use realtor_core::{ProtocolConfig, ProtocolKind};
use realtor_node::{ResourceMonitor, WorkQueue};
use realtor_simcore::stats::{LogHistogram, Welford};
use realtor_simcore::trace::Tracer;
use realtor_simcore::{SimRng, SimTime};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Exit status: the host thread is still running.
pub const EXIT_RUNNING: u8 = 0;
/// Exit status: the host thread ended cleanly (`Stop`, or fenced off).
pub const EXIT_STOPPED: u8 = 1;
/// Exit status: the host thread died without cleanup (`Crash`).
pub const EXIT_CRASHED: u8 = 2;

/// Host configuration.
#[derive(Debug, Clone)]
pub struct HostConfig {
    /// Queue capacity in simulated seconds (Figure 9 uses 50).
    pub capacity_secs: f64,
    /// Discovery protocol to run.
    pub protocol: ProtocolKind,
    /// Protocol parameters.
    pub protocol_config: ProtocolConfig,
    /// Longest idle wait of the host loop before it polls timers, usage
    /// and completions; control messages and datagrams wake the host at
    /// once.
    pub tick: Duration,
    /// Wall-clock admission-negotiation timeout (per attempt).
    pub negotiation_timeout: Duration,
    /// Retry policy for transient negotiation failures (timeout, Busy,
    /// Closed). Explicit refusals are final regardless of this policy.
    pub negotiation_retry: RetryPolicy,
    /// Total wall-clock budget for one migration negotiation: a retry whose
    /// backoff-plus-timeout cannot fit is abandoned and charged.
    pub negotiation_deadline: Duration,
    /// Ship the component state with the admission request (one round trip,
    /// §3's "speculative migration") instead of negotiating first and moving
    /// after (two round trips).
    pub speculative_migration: bool,
}

impl Default for HostConfig {
    fn default() -> Self {
        HostConfig {
            capacity_secs: 50.0,
            protocol: ProtocolKind::Realtor,
            protocol_config: ProtocolConfig::paper(),
            tick: Duration::from_micros(200),
            negotiation_timeout: Duration::from_millis(20),
            negotiation_retry: RetryPolicy::default(),
            negotiation_deadline: Duration::from_millis(100),
            speculative_migration: true,
        }
    }
}

/// How a submitted task fared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitOutcome {
    /// Admitted into the local queue.
    AdmittedLocal,
    /// Admitted at another host after migration.
    AdmittedMigrated,
    /// Refused everywhere (or nowhere to go).
    Rejected,
    /// The target host was dead; the arrival vanished.
    Lost,
}

/// Control-plane messages to a host, queued in its inbox behind the
/// datagrams already there (see [`crate::Network::send_control`]).
#[derive(Debug)]
pub enum HostControl {
    /// A task of the given size arrives at this host.
    Submit {
        /// Service demand in simulated seconds.
        size_secs: f64,
        /// Where to report the admission outcome (closed-loop clients);
        /// `None` for fire-and-forget submission.
        reply: Option<Sender<SubmitOutcome>>,
    },
    /// Simulate an external attack: the host stops answering datagrams and
    /// admissions; its queued work is interrupted and filed for recovery.
    Kill,
    /// Bring an attacked host back with fresh (soft) state.
    Revive,
    /// Die on the spot without any cleanup: the thread exits with
    /// [`EXIT_CRASHED`] and leaves its [`HostCore`] for the supervisor.
    Crash,
    /// Stop heartbeating for the given wall duration (a wedged host, from
    /// the supervisor's point of view).
    Stall(Duration),
    /// Shut the host down cleanly.
    Stop,
}

/// Per-host counters, shared with the cluster.
#[derive(Debug, Default)]
pub struct HostStats {
    /// Tasks submitted to this host.
    pub offered: AtomicU64,
    /// Tasks admitted locally.
    pub admitted_local: AtomicU64,
    /// Tasks admitted here after migrating in.
    pub admitted_migrated: AtomicU64,
    /// Tasks this host rejected outright.
    pub rejected: AtomicU64,
    /// Migrations this host initiated that succeeded.
    pub migrations_out: AtomicU64,
    /// Tasks submitted while this host was down (lost to the attack).
    pub lost_to_attacks: AtomicU64,
    /// Queued tasks interrupted by this host's death.
    pub interrupted: AtomicU64,
    /// Interrupted tasks from other hosts re-admitted here by recovery.
    pub recovered_in: AtomicU64,
    /// Kills (cooperative or crash) aimed at this host.
    pub kills: AtomicU64,
    /// Negotiation attempts retried after a transient failure.
    pub negotiation_retries: AtomicU64,
    /// Negotiations abandoned because the deadline budget could not cover
    /// another attempt.
    pub negotiation_abandoned: AtomicU64,
    /// HELP floods sent.
    pub helps_sent: AtomicU64,
    /// PLEDGE/ADVERT datagrams sent.
    pub datagrams_sent: AtomicU64,
    /// Wall-clock migration latencies (seconds).
    pub migration_latency: Mutex<Welford>,
    /// Wall-clock latency of every successful admission (nanoseconds, from
    /// submit to outcome, local and migrated alike), as a mergeable
    /// [`LogHistogram`] the cluster folds into its report and metrics
    /// snapshots.
    pub admission_latency_ns: Mutex<LogHistogram>,
}

/// One task resident in a host's queue.
#[derive(Debug, Clone)]
pub struct InflightTask {
    /// Component identity.
    pub id: ComponentId,
    /// Original service demand (simulated seconds).
    pub size_secs: f64,
    /// Simulated instant at which the fluid queue finishes it.
    pub drain_at: SimTime,
    /// Migration count at admission (the naming version of its binding).
    pub migrations: u64,
}

/// The shared admission state of one host: the fluid work queue plus the
/// identity of every resident task. Shared between the host main loop, the
/// admission-control thread, and the cluster supervisor — which drains it
/// with [`HostCore::drain_on_death`] when the host dies without running its
/// own cleanup.
#[derive(Debug)]
pub struct HostCore {
    /// The fluid work queue (admission bookkeeping).
    pub queue: WorkQueue,
    /// Resident tasks, in admission order.
    pub inflight: Vec<InflightTask>,
    capacity_secs: f64,
}

impl HostCore {
    /// An empty core with the given queue capacity.
    pub fn new(capacity_secs: f64) -> Self {
        HostCore {
            queue: WorkQueue::new(capacity_secs),
            inflight: Vec::new(),
            capacity_secs,
        }
    }

    /// Is `id` resident here? (Admission dedup for retried commits.)
    pub fn contains(&self, id: ComponentId) -> bool {
        self.inflight.iter().any(|t| t.id == id)
    }

    /// The host died: tasks that had already drained unbind from naming,
    /// unfinished ones become [`RecoveryItem`]s carrying their remaining
    /// work (fluid approximation: time until their drain instant). The
    /// queue is reset for the amnesiac successor.
    pub fn drain_on_death(
        &mut self,
        now: SimTime,
        from_host: HostId,
        naming: &NameService,
    ) -> Vec<RecoveryItem> {
        let mut items = Vec::new();
        for t in self.inflight.drain(..) {
            if t.drain_at <= now {
                naming.unregister(t.id);
                continue;
            }
            let remaining = (t.drain_at - now).as_secs_f64().min(t.size_secs);
            items.push(RecoveryItem {
                component: AgileComponent {
                    id: t.id,
                    remaining_secs: remaining,
                    migrations: t.migrations,
                },
                from_host,
            });
        }
        self.queue = WorkQueue::new(self.capacity_secs);
        items
    }
}

/// Everything a host thread needs; assembled by the cluster builder (fields
/// are public because the cluster wires replacements during amnesiac
/// restarts).
pub struct Host {
    /// This host's id.
    pub id: HostId,
    /// Configuration.
    pub cfg: HostConfig,
    /// The cluster clock.
    pub clock: Clock,
    /// Datagram/broadcast endpoint; its inbox also carries control messages.
    pub endpoint: Endpoint,
    /// Admission-negotiation server (codec bytes on the wire).
    pub admission_server: RequestServer<Vec<u8>, Vec<u8>>,
    /// Admission clients of every host, swappable under restart.
    pub directory: AdmissionDirectory,
    /// The shared naming service.
    pub naming: NameService,
    /// Shared counters.
    pub stats: Arc<HostStats>,
    /// Shared admission state (see [`HostCore`]).
    pub core: Arc<Mutex<HostCore>>,
    /// Attacked/dead flag (refuses admissions and drops datagrams).
    pub dead: Arc<AtomicBool>,
    /// Heartbeat counter, bumped every loop iteration.
    pub beat: Arc<AtomicU64>,
    /// Set by the supervisor to fence off a wedged incarnation: the thread
    /// exits as soon as it observes the flag and must touch nothing else.
    pub fenced: Arc<AtomicBool>,
    /// Exit status ([`EXIT_RUNNING`] until the thread ends).
    pub exit: Arc<AtomicU8>,
    /// Control messages sent but not yet processed (quiescence accounting).
    pub control_pending: Arc<AtomicU64>,
    /// Cluster-wide queue of interrupted components awaiting recovery.
    pub recovery: Arc<Mutex<Vec<RecoveryItem>>>,
    /// Cluster-wide survivability ledger.
    pub ledger: Arc<ClusterLedger>,
    /// Event/counter sink.
    pub tracer: Tracer,
    /// Seeded RNG for retry jitter (stream per host).
    pub retry_rng: SimRng,
    /// Incarnation number (0 = original, bumped per amnesiac restart).
    /// Keeps component-id spaces of successive incarnations disjoint, so a
    /// restarted host can never collide with components its predecessor
    /// created that are still alive elsewhere.
    pub component_epoch: u64,
}

impl Host {
    /// Run the host until a `Stop`/`Crash` control message arrives or the
    /// supervisor fences it off. Spawns the admission-control thread
    /// internally and joins it before returning.
    pub fn run(self) {
        let Host {
            id,
            cfg,
            clock,
            endpoint,
            admission_server,
            directory,
            naming,
            stats,
            core,
            dead,
            beat,
            fenced,
            exit,
            control_pending,
            recovery,
            ledger,
            tracer,
            retry_rng,
            component_epoch,
        } = self;

        // --- Admission Control thread (Figure 1) -----------------------
        let admission_stop = admission_server.stopper();
        let ac_core = Arc::clone(&core);
        let ac_stats = Arc::clone(&stats);
        let ac_dead = Arc::clone(&dead);
        let ac_naming = naming.clone();
        let ac_clock = clock;
        let admission_thread = std::thread::Builder::new()
            .name(format!("agile-ac-{id}"))
            .spawn(move || {
                let refuse = encode_admission_reply(&AdmissionReply { accepted: false });
                let accept = encode_admission_reply(&AdmissionReply { accepted: true });
                admission_server.serve_until_stopped(|bytes: Vec<u8>| {
                    // Malformed wire bytes are refused, never trusted.
                    let Ok(req) = decode_admission_request(&bytes) else {
                        return refuse.clone();
                    };
                    if ac_dead.load(Ordering::Relaxed) {
                        return refuse.clone(); // attacked hosts refuse everything
                    }
                    let now = ac_clock.now();
                    if !req.commit {
                        // Reserve-only probe (non-speculative first phase).
                        let ok = {
                            let c = ac_core.lock().expect("core lock");
                            c.queue.can_accept(now, req.size_secs)
                        };
                        return if ok { accept.clone() } else { refuse.clone() };
                    }
                    let Some(mut component) = AgileComponent::restore(&req.component) else {
                        return refuse.clone();
                    };
                    {
                        let mut c = ac_core.lock().expect("core lock");
                        if c.contains(component.id) {
                            // A retried commit whose first reply was lost:
                            // the component already lives here. Accepting
                            // again (without re-admitting) keeps the
                            // exchange idempotent.
                            return accept.clone();
                        }
                        if !c.queue.can_accept(now, req.size_secs) {
                            return refuse.clone();
                        }
                        c.queue
                            .admit(now, req.size_secs)
                            .expect("checked can_accept");
                        let drain_at = c.queue.drain_time(now);
                        component.migrated();
                        c.inflight.push(InflightTask {
                            id: component.id,
                            size_secs: req.size_secs,
                            drain_at,
                            migrations: component.migrations,
                        });
                    }
                    if req.recovery {
                        // Recovery re-admission: the task was already
                        // counted at its original admission, so only the
                        // per-host count moves (the cluster ledger's
                        // `recovered` is settled by the supervisor when
                        // the reply lands).
                        ac_stats.recovered_in.fetch_add(1, Ordering::Relaxed);
                    } else {
                        ac_stats.admitted_migrated.fetch_add(1, Ordering::Relaxed);
                    }
                    ac_naming.update(component.id, id, component.migrations);
                    accept.clone()
                });
            })
            .expect("spawn admission thread");

        // --- Main loop: REALTOR agent + Job Scheduler + Migration ------
        let mut driver = HostDriver::new(
            id,
            &cfg,
            clock,
            endpoint,
            directory,
            naming,
            Arc::clone(&stats),
            Arc::clone(&core),
            recovery,
            ledger,
            tracer,
            retry_rng,
            component_epoch,
        );
        driver.start();
        let status = 'main: loop {
            beat.fetch_add(1, Ordering::Relaxed);
            if fenced.load(Ordering::Relaxed) {
                // A wedged incarnation that wakes up after replacement must
                // vanish without touching shared state.
                break 'main EXIT_STOPPED;
            }
            // 1. The inbox: block up to one tick for the first message, then
            //    drain what is queued behind it. Beat per message so a long
            //    drain (each submit can negotiate for up to the deadline
            //    budget) is not mistaken for a wedge; stop draining the
            //    moment this incarnation is fenced.
            let mut stopped = false;
            let mut next = driver.endpoint.recv_timeout(cfg.tick);
            while let Some(msg) = next {
                if fenced.load(Ordering::Relaxed) {
                    break 'main EXIT_STOPPED;
                }
                beat.fetch_add(1, Ordering::Relaxed);
                match msg {
                    // Dead hosts drop their datagrams unprocessed.
                    Inbound::Datagram(dgram) => {
                        if !dead.load(Ordering::Relaxed) {
                            if let Ok(msg) = decode_message(&dgram.payload) {
                                driver.on_message(dgram.from, &msg);
                            }
                        }
                    }
                    Inbound::Control(msg) => {
                        control_pending.fetch_sub(1, Ordering::Relaxed);
                        match msg {
                            HostControl::Submit { size_secs, reply } => {
                                let outcome = if dead.load(Ordering::Relaxed) {
                                    // Arrivals addressed to an attacked host
                                    // vanish.
                                    let s = &driver.stats;
                                    s.offered.fetch_add(1, Ordering::Relaxed);
                                    s.rejected.fetch_add(1, Ordering::Relaxed);
                                    s.lost_to_attacks.fetch_add(1, Ordering::Relaxed);
                                    SubmitOutcome::Lost
                                } else {
                                    driver.submit(size_secs)
                                };
                                if let Some(tx) = reply {
                                    let _ = tx.send(outcome);
                                }
                            }
                            HostControl::Kill => {
                                dead.store(true, Ordering::Relaxed);
                                driver.on_killed();
                            }
                            HostControl::Revive => {
                                dead.store(false, Ordering::Relaxed);
                                driver.on_revived();
                            }
                            HostControl::Crash => {
                                // No cleanup whatsoever: queued work stays in
                                // the shared core for the supervisor to
                                // recover.
                                dead.store(true, Ordering::Relaxed);
                                break 'main EXIT_CRASHED;
                            }
                            HostControl::Stall(d) => std::thread::sleep(d),
                            HostControl::Stop => stopped = true,
                        }
                    }
                }
                next = driver.endpoint.try_recv();
            }
            if stopped {
                break 'main EXIT_STOPPED;
            }
            // 2. Timers, usage polling, completions.
            if !dead.load(Ordering::Relaxed) {
                driver.poll();
            }
        };
        admission_stop.stop();
        admission_thread.join().expect("admission thread join");
        exit.store(status, Ordering::Relaxed);
    }
}

/// The single-threaded protocol/migration driver inside the host main loop.
struct HostDriver {
    id: HostId,
    clock: Clock,
    endpoint: Endpoint,
    directory: AdmissionDirectory,
    naming: NameService,
    stats: Arc<HostStats>,
    core: Arc<Mutex<HostCore>>,
    recovery: Arc<Mutex<Vec<RecoveryItem>>>,
    ledger: Arc<ClusterLedger>,
    tracer: Tracer,
    protocol: Box<dyn DiscoveryProtocol>,
    actions: Actions,
    timers: Vec<(SimTime, TimerToken)>,
    monitor: ResourceMonitor,
    next_component: u64,
    capacity_secs: f64,
    negotiation_timeout: Duration,
    negotiation_deadline: Duration,
    retry: RetryPolicy,
    speculative: bool,
    rng: SimRng,
}

impl HostDriver {
    #[allow(clippy::too_many_arguments)]
    fn new(
        id: HostId,
        cfg: &HostConfig,
        clock: Clock,
        endpoint: Endpoint,
        directory: AdmissionDirectory,
        naming: NameService,
        stats: Arc<HostStats>,
        core: Arc<Mutex<HostCore>>,
        recovery: Arc<Mutex<Vec<RecoveryItem>>>,
        ledger: Arc<ClusterLedger>,
        tracer: Tracer,
        rng: SimRng,
        epoch: u64,
    ) -> Self {
        let peer_ids: Vec<usize> = (0..directory.len()).collect();
        let protocol = cfg
            .protocol
            .build(id, cfg.protocol_config, &peer_ids, cfg.capacity_secs);
        HostDriver {
            id,
            clock,
            endpoint,
            directory,
            naming,
            stats,
            core,
            recovery,
            ledger,
            tracer,
            protocol,
            actions: Actions::new(),
            timers: Vec::new(),
            monitor: ResourceMonitor::new(1.0, vec![cfg.protocol_config.pledge_threshold]),
            // Host-disjoint id spaces, incarnation-disjoint within a host.
            next_component: ((id as u64) << 40) | ((epoch & 0xff) << 32),
            capacity_secs: cfg.capacity_secs,
            negotiation_timeout: cfg.negotiation_timeout,
            negotiation_deadline: cfg.negotiation_deadline,
            retry: cfg.negotiation_retry,
            speculative: cfg.speculative_migration,
            rng,
        }
    }

    fn view(&self, now: SimTime) -> LocalView {
        let c = self.core.lock().expect("core lock");
        LocalView::new(c.queue.headroom_at(now), self.capacity_secs)
    }

    fn start(&mut self) {
        let now = self.clock.now();
        let view = self.view(now);
        self.protocol.on_start(now, view, &mut self.actions);
        self.dispatch_actions(now);
    }

    fn dispatch_actions(&mut self, now: SimTime) {
        let mut actions = std::mem::take(&mut self.actions);
        for action in actions.drain() {
            match action {
                Action::Flood(msg) => {
                    self.endpoint.broadcast(encode_message(&msg));
                    self.stats.helps_sent.fetch_add(1, Ordering::Relaxed);
                }
                Action::Unicast(to, msg) => {
                    self.endpoint.send(to, encode_message(&msg));
                    self.stats.datagrams_sent.fetch_add(1, Ordering::Relaxed);
                }
                Action::SetTimer(token, delay) => {
                    self.timers.push((now + delay, token));
                }
                Action::DeclareDead(_) => {
                    // The agile substrate has no orphan-recovery machinery;
                    // dead-peer declarations are local knowledge only.
                }
            }
        }
        self.actions = actions;
    }

    fn on_message(&mut self, from: HostId, msg: &realtor_core::Message) {
        let now = self.clock.now();
        let view = self.view(now);
        self.protocol
            .on_message(now, from, msg, view, &mut self.actions);
        self.dispatch_actions(now);
    }

    fn record_admission_latency(&self, started: std::time::Instant) {
        let ns = started.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        self.stats
            .admission_latency_ns
            .lock()
            .expect("latency lock")
            .record(ns);
    }

    fn submit(&mut self, size_secs: f64) -> SubmitOutcome {
        let now = self.clock.now();
        let submit_started = std::time::Instant::now();
        self.stats.offered.fetch_add(1, Ordering::Relaxed);

        let id = ComponentId(self.next_component);
        self.next_component += 1;

        // Check-and-admit must be atomic with respect to the admission
        // thread (which admits migrated-in components concurrently).
        let (frac_with, headroom, admitted_drain) = {
            let mut c = self.core.lock().expect("core lock");
            let f = c.queue.frac_with(now, size_secs);
            let h = c.queue.headroom_at(now);
            let d = c.queue.admit(now, size_secs).ok().map(|_| {
                let drain_at = c.queue.drain_time(now);
                c.inflight.push(InflightTask {
                    id,
                    size_secs,
                    drain_at,
                    migrations: 0,
                });
                drain_at
            });
            (f, h, d)
        };
        let view = LocalView {
            queue_frac: frac_with,
            headroom_secs: headroom,
            capacity_secs: self.capacity_secs,
        };
        self.protocol.on_task_arrival(now, view, &mut self.actions);
        self.dispatch_actions(now);

        if admitted_drain.is_some() {
            self.stats.admitted_local.fetch_add(1, Ordering::Relaxed);
            self.naming.register(id, self.id);
            self.record_admission_latency(submit_started);
            self.usage_change(now);
            return SubmitOutcome::AdmittedLocal;
        }

        // One-shot migration, as in the simulation experiments.
        let component = AgileComponent::new(id, size_secs);
        let Some(dest) = self.protocol.pick_candidate(now, size_secs) else {
            self.stats.rejected.fetch_add(1, Ordering::Relaxed);
            return SubmitOutcome::Rejected;
        };
        let started = std::time::Instant::now();
        let admitted = self.migrate(component, dest, size_secs);
        let outcome = if admitted {
            self.stats
                .migration_latency
                .lock()
                .expect("latency lock")
                .record(started.elapsed().as_secs_f64());
            self.stats.migrations_out.fetch_add(1, Ordering::Relaxed);
            self.record_admission_latency(submit_started);
            SubmitOutcome::AdmittedMigrated
        } else {
            self.stats.rejected.fetch_add(1, Ordering::Relaxed);
            SubmitOutcome::Rejected
        };
        self.protocol.on_migration_result(now, dest, admitted);
        outcome
    }

    /// Move `component` to `dest`; returns whether it was admitted there.
    fn migrate(&mut self, component: AgileComponent, dest: HostId, size_secs: f64) -> bool {
        self.naming.register(component.id, self.id);
        let ok = if self.speculative {
            // §3: "the migration of the component can happen concurrently to
            // the negotiation among the Admission Controls (speculative
            // migration)" — one round trip carrying the state; the receiver
            // bumps the migration count (naming version) on restore.
            let req = AdmissionRequest {
                size_secs,
                component: component.snapshot(),
                commit: true,
                recovery: false,
            };
            self.negotiate(dest, &req, Some(&component))
        } else {
            // Two phases: reserve, then transfer.
            let probe = AdmissionRequest {
                size_secs,
                component: Vec::new(),
                commit: false,
                recovery: false,
            };
            if !self.negotiate(dest, &probe, None) {
                false
            } else {
                let commit = AdmissionRequest {
                    size_secs,
                    component: component.snapshot(),
                    commit: true,
                    recovery: false,
                };
                self.negotiate(dest, &commit, Some(&component))
            }
        };
        if !ok {
            self.naming.unregister(component.id);
        }
        ok
    }

    /// One reliable exchange with `dest`'s Admission Control under the
    /// bounded-retry policy. Transient transport failures (timeout, a full
    /// server queue, a dead incarnation mid-restart) are retried with
    /// seeded backoff while the deadline budget allows; an explicit refusal
    /// is final. After a timed-out *commit*, the naming service is consulted
    /// first — if the binding moved, the commit landed and only the reply
    /// was lost, so retrying (and double-admitting) would be wrong.
    fn negotiate(
        &mut self,
        dest: HostId,
        req: &AdmissionRequest,
        committed: Option<&AgileComponent>,
    ) -> bool {
        let bytes = encode_admission_request(req);
        let started = std::time::Instant::now();
        for attempt in 0..self.retry.max_tries {
            if attempt > 0 {
                let backoff = self.retry.backoff(attempt - 1, &mut self.rng);
                if !self.retry.attempt_fits(
                    started.elapsed(),
                    backoff,
                    self.negotiation_timeout,
                    self.negotiation_deadline,
                ) {
                    self.stats
                        .negotiation_abandoned
                        .fetch_add(1, Ordering::Relaxed);
                    return false;
                }
                std::thread::sleep(backoff);
                self.stats
                    .negotiation_retries
                    .fetch_add(1, Ordering::Relaxed);
            }
            match self
                .directory
                .client(dest)
                .request(bytes.clone(), self.negotiation_timeout)
            {
                Ok(reply) => {
                    // A decoded refusal — or garbage — is final, not retried.
                    return decode_admission_reply(&reply)
                        .map(|r| r.accepted)
                        .unwrap_or(false);
                }
                Err(RequestError::Timeout) => {
                    if let Some(c) = committed {
                        if self
                            .naming
                            .await_binding(c.id, dest, 3, Duration::from_micros(200))
                        {
                            return true; // commit landed, reply lost
                        }
                    }
                }
                Err(RequestError::Busy) | Err(RequestError::Closed) => {}
            }
        }
        false
    }

    /// The host came under attack: unfinished queued work is interrupted
    /// and filed for supervised recovery; all soft state is lost.
    fn on_killed(&mut self) {
        let now = self.clock.now();
        let items = self
            .core
            .lock()
            .expect("core lock")
            .drain_on_death(now, self.id, &self.naming);
        file_interrupts(
            items,
            &self.ledger,
            &self.stats,
            &self.tracer,
            now,
            &self.recovery,
        );
        self.timers.clear();
        self.protocol.on_reset(now);
    }

    /// The host recovered: restart the protocol from scratch. The core is
    /// normally already empty (the kill drained it); anything still resident
    /// is interrupted rather than silently lost, keeping the ledger exact.
    fn on_revived(&mut self) {
        let now = self.clock.now();
        let items = self
            .core
            .lock()
            .expect("core lock")
            .drain_on_death(now, self.id, &self.naming);
        file_interrupts(
            items,
            &self.ledger,
            &self.stats,
            &self.tracer,
            now,
            &self.recovery,
        );
        self.protocol.on_reset(now);
        let view = self.view(now);
        self.protocol.on_start(now, view, &mut self.actions);
        self.dispatch_actions(now);
    }

    fn usage_change(&mut self, now: SimTime) {
        let view = self.view(now);
        if self.monitor.sample(view.queue_frac).is_some() {
            self.protocol.on_usage_change(now, view, &mut self.actions);
            self.dispatch_actions(now);
        }
    }

    fn poll(&mut self) {
        let now = self.clock.now();
        // Timers.
        let mut due = Vec::new();
        self.timers.retain(|&(at, token)| {
            if at <= now {
                due.push(token);
                false
            } else {
                true
            }
        });
        for token in due {
            let view = self.view(now);
            self.protocol.on_timer(now, token, view, &mut self.actions);
            self.dispatch_actions(now);
        }
        // Usage: the admission thread may have changed the queue, or it
        // drained across the watermark; the monitor debounces, so polling
        // is cheap.
        self.usage_change(now);
        // Completions (collect under the lock, unbind outside it).
        let completed: Vec<ComponentId> = {
            let mut c = self.core.lock().expect("core lock");
            let mut done = Vec::new();
            c.inflight.retain(|t| {
                if t.drain_at <= now {
                    done.push(t.id);
                    false
                } else {
                    true
                }
            });
            done
        };
        for id in completed {
            self.naming.unregister(id);
        }
    }
}
