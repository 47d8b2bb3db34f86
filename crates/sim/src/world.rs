//! The simulated world: 25 nodes (or any topology), one protocol instance
//! and one work queue per node, tasks arriving from a trace, messages
//! travelling over the overlay with per-hop latency and an unreliable
//! channel (loss, jitter, duplication), and the paper's one-shot migration
//! on queue overflow — negotiated over the same channel with a timeout and
//! a bounded retry.
//!
//! Refactor-safety property: under [`ChannelModel::ideal`] every delivery
//! keeps its legacy timing and the channel RNG stream is never drawn from,
//! so ideal-channel runs are bit-for-bit identical to the pre-channel
//! simulator (pinned by `tests/golden_figures.rs`).

use crate::config::{ChaosConfig, RecoveryConfig, Scenario};
use crate::metrics::{NodeStat, SimResult, WindowStat};
use realtor_core::protocol::{Action, Actions, DiscoveryProtocol, LocalView, TimerToken};
use realtor_core::Message;
use realtor_net::{ChannelModel, CostModel, FaultState, FloodCharge, NodeId, Sampled, Topology};
use realtor_simcore::prelude::*;
use realtor_simcore::trace::{attempt_span, TaskLineage};
use realtor_simcore::Tracer;
use realtor_workload::{AttackAction, ChurnProcess, Trace};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Simulation events.
#[derive(Debug, Clone)]
pub enum Ev {
    /// The `idx`-th trace record arrives.
    Arrival(usize),
    /// A flood from `from` reaches every node in its scope.
    FloodDeliver {
        /// Originating node.
        from: NodeId,
        /// The flooded message.
        msg: Message,
    },
    /// A unicast reaches `to`.
    Deliver {
        /// Sender.
        from: NodeId,
        /// Receiver.
        to: NodeId,
        /// The message.
        msg: Message,
    },
    /// A protocol timer fires on `node`.
    Timer {
        /// Owning node.
        node: NodeId,
        /// Correlation token minted by the protocol.
        token: TimerToken,
    },
    /// The decaying backlog of `node` crosses the pledge threshold downward.
    Drain {
        /// Node whose queue drains.
        node: NodeId,
        /// Generation guard (stale events are ignored).
        gen: u64,
    },
    /// The `idx`-th scripted attack event fires.
    Attack(usize),
    /// A warned attack strikes: kill the victims chosen when the warning
    /// fired (victims already dead by then are skipped).
    DelayedKill {
        /// Victims selected at warning time.
        victims: Vec<NodeId>,
    },
    /// A churn wave fires: the previous wave restarts (amnesiac) and a
    /// fresh fraction of the population goes down.
    ChurnTick,
    /// The adaptive adversary strikes the top-k nodes of its
    /// observed-traffic ranking.
    AdversaryStrike,
    /// The adversary's victims finish their downtime and restart amnesiac.
    AdversaryRestore {
        /// Victims of the strike this restore pairs with.
        victims: Vec<NodeId>,
    },
    /// Close the current statistics window.
    WindowTick,
    /// A migration-negotiation request reaches the destination.
    MigrateRequest {
        /// Attempt id (key into the pending-negotiation table).
        attempt: u64,
    },
    /// The destination's accept/refuse reply reaches the source.
    MigrateReply {
        /// Attempt id.
        attempt: u64,
        /// The destination's decision.
        admitted: bool,
    },
    /// The source's negotiation timer expires.
    MigrateTimeout {
        /// Attempt id.
        attempt: u64,
        /// Which try this timeout guards (stale ones are ignored).
        try_no: u32,
    },
}

/// One in-flight migration negotiation.
#[derive(Debug, Clone, Copy)]
struct MigrationAttempt {
    src: NodeId,
    dst: NodeId,
    size_secs: f64,
    /// Whether the attempt started inside the measurement period; all of
    /// its statistics are gated on this, not on the resolution time, so the
    /// `offered == admitted + rejected` invariant survives warm-up edges.
    counted: bool,
    tries_left: u32,
    try_no: u32,
    kind: AttemptKind,
    /// Causal lineage of the task this negotiation is about (A19).
    /// Observation-only: never read for a simulation decision, so traced
    /// and untraced runs stay bit-identical.
    lineage: Option<u64>,
}

/// Why a negotiation is running — the paper's one-shot overflow migration,
/// or one of the recovery flows layered on the same request/reply machinery.
#[derive(Debug, Clone, Copy)]
enum AttemptKind {
    /// Overflow migration of a newly arrived task.
    Arrival,
    /// Re-homing an orphaned checkpoint after its host was confirmed dead.
    Recovery {
        /// Discovery re-submissions still allowed after this one.
        submissions_left: u32,
    },
    /// Moving a task off a warned node before the attack strikes.
    Evacuation {
        /// The warned node the task is evacuating from.
        victim: NodeId,
        /// Task id in the victim's shadow log.
        task_id: u64,
        /// The victim was killed while this negotiation was in flight; its
        /// outcome now decides recovery vs destruction of the task.
        victim_crashed: bool,
    },
}

/// Checkpoints orphaned by a kill, awaiting either a failure-detector
/// confirmation (reactive recovery by the detecting peer) or the owner's
/// own restart (crash-restart recovery) — whichever comes first.
#[derive(Debug, Clone)]
struct OrphanSet {
    /// Counting status at kill time; gates every counter these tasks touch,
    /// so the interrupted-task ledger balances across warm-up edges.
    counted: bool,
    /// `(task id, checkpointed remaining seconds)`.
    tasks: Vec<(u64, f64)>,
}

/// Builds protocol instances for a world; lets experiments substitute
/// non-standard protocols (e.g. the inter-community extension).
pub type ProtocolBuilder<'a> = dyn FnMut(NodeId) -> Box<dyn DiscoveryProtocol> + 'a;

/// The simulation model (implements [`Handler`]).
pub struct World {
    topology: Topology,
    fault: FaultState,
    cost: CostModel,
    per_hop_latency: SimDuration,
    flood_latency: SimDuration,
    capacity_secs: f64,
    pledge_level_secs: f64,
    warmup: SimTime,
    trace: Trace,
    attack: realtor_workload::AttackScenario,
    targeting: realtor_net::TargetingStrategy,
    attack_rng: SimRng,
    protos: Vec<Box<dyn DiscoveryProtocol>>,
    queues: Vec<realtor_node::WorkQueue>,
    drain_gen: Vec<u64>,
    /// Explicit flood scope of each node (recipients, excluding the
    /// sender), set only by [`World::set_scopes`]. `None` is the default
    /// scope: every other node, in id order.
    scopes: Option<Vec<Vec<NodeId>>>,
    window: Option<SimDuration>,
    current_window: WindowStat,
    result: SimResult,
    actions: Actions,
    /// Per-node occupancy integrators: (integral of backlog over time,
    /// segment start, backlog at segment start). The backlog decays linearly
    /// between queue mutations, so each segment integrates in closed form.
    occ: Vec<(f64, SimTime, f64)>,
    channel: ChannelModel,
    channel_rng: SimRng,
    negotiation_timeout: SimDuration,
    negotiation_retries: u32,
    next_attempt: u64,
    pending: BTreeMap<u64, MigrationAttempt>,
    /// Destination-side decisions, kept until the attempt resolves so
    /// duplicated or retried requests replay the decision instead of
    /// admitting the task twice.
    dst_decisions: BTreeMap<u64, bool>,
    /// Crash-recovery knobs (disabled in the golden configuration).
    recovery: RecoveryConfig,
    /// Per-node shadow log of admitted tasks (empty while recovery is off).
    task_logs: Vec<realtor_node::TaskLog>,
    next_task_id: u64,
    /// When each currently-dead node was killed; consumed by the first
    /// failure-detector confirmation to measure detection latency.
    kill_times: Vec<Option<SimTime>>,
    /// Checkpoints of killed nodes, keyed by the dead owner.
    orphans: BTreeMap<NodeId, OrphanSet>,
    /// Structured-trace sink; disabled by default (a pure observer — see
    /// `tests/trace_parity.rs` for the on ≡ off guarantee).
    tracer: Tracer,
    /// Last queue high-water mark reported per node, so `queue_watermark`
    /// events fire only when the lifetime peak actually moves.
    watermarks: Vec<f64>,
    /// Shadow-log task id → causal lineage (A19), indexed by task id
    /// (`u64::MAX` = unknown) — task ids are assigned sequentially, so a
    /// flat vector beats a map on the admit path the overhead gate times.
    /// Populated only while tracing is enabled and read only to annotate
    /// trace events, so it can never perturb simulation behaviour.
    task_lineages: Vec<u64>,
    /// HELP and PLEDGE messages each node has sent since warm-up: the
    /// traffic the adaptive adversary observes to pick its victims.
    sent_traffic: Vec<u64>,
    /// Chaos processes (disabled in the golden configuration).
    chaos: ChaosConfig,
    /// The continuous-churn driver, when configured. Owns its own RNG
    /// stream (seed-split off the scenario seed), so churn draws never
    /// perturb targeting, channel or workload streams.
    churn: Option<ChurnProcess>,
}

/// Integral of a backlog that starts at `b` and drains at unit rate over
/// `dt` seconds (clamping at zero): a triangle capped by the drain time.
fn drain_integral(b: f64, dt: f64) -> f64 {
    if dt <= 0.0 {
        0.0
    } else if dt <= b {
        (b + (b - dt)) * 0.5 * dt
    } else {
        b * b * 0.5
    }
}

impl World {
    /// Build a world for `scenario` with the standard protocol factory.
    pub fn new(scenario: &Scenario) -> Self {
        // One peer list for the whole world, shared by every instance.
        let peers: Arc<[NodeId]> = scenario.topology.nodes().collect();
        let kind = scenario.protocol;
        let cfg = scenario.protocol_config;
        let capacity = scenario.capacity_secs;
        Self::with_protocols(scenario, &mut |node| {
            kind.build(node, cfg, &peers, capacity)
        })
    }

    /// Build a world with a custom per-node protocol factory.
    pub fn with_protocols(scenario: &Scenario, build: &mut ProtocolBuilder<'_>) -> Self {
        scenario.chaos.validate(scenario.workload.horizon);
        let topo = scenario.topology.clone();
        let n = topo.node_count();
        // One routing: the fault state owns it, and the cost model reads
        // the fault-free mean path from it once, for unicast charges and
        // the flood latency alike.
        let mut fault = FaultState::new(&topo);
        let routing = fault.routing(&topo);
        let (unicast, flood) = scenario.cost.charges();
        let cost = CostModel::new(&topo, routing, unicast, flood);
        let mean_path = cost.mean_path();
        let protos: Vec<_> = (0..n).map(&mut *build).collect();
        let queues = vec![realtor_node::WorkQueue::new(scenario.capacity_secs); n];
        World {
            fault,
            topology: topo,
            cost,
            per_hop_latency: scenario.per_hop_latency,
            flood_latency: scenario.per_hop_latency.mul_f64(mean_path),
            capacity_secs: scenario.capacity_secs,
            pledge_level_secs: scenario.protocol_config.pledge_threshold * scenario.capacity_secs,
            warmup: SimTime::ZERO + scenario.warmup,
            trace: scenario.workload.generate(),
            attack: scenario.attack.clone(),
            targeting: scenario.targeting.clone(),
            attack_rng: SimRng::stream(scenario.workload.seed, "attack-targeting"),
            protos,
            queues,
            drain_gen: vec![0; n],
            scopes: None,
            window: scenario.window,
            current_window: WindowStat::default(),
            result: SimResult {
                node_stats: vec![NodeStat::default(); n],
                ..Default::default()
            },
            actions: Actions::new(),
            occ: vec![(0.0, SimTime::ZERO, 0.0); n],
            channel: scenario.channel.clone(),
            // A named stream of its own: adding channel draws never perturbs
            // attack targeting or workload generation.
            channel_rng: SimRng::stream(scenario.workload.seed, "channel"),
            negotiation_timeout: scenario.negotiation_timeout,
            negotiation_retries: scenario.negotiation_retries,
            next_attempt: 0,
            pending: BTreeMap::new(),
            dst_decisions: BTreeMap::new(),
            recovery: scenario.recovery,
            task_logs: vec![realtor_node::TaskLog::new(); n],
            next_task_id: 0,
            kill_times: vec![None; n],
            orphans: BTreeMap::new(),
            tracer: Tracer::disabled(),
            watermarks: vec![0.0; n],
            task_lineages: Vec::new(),
            sent_traffic: vec![0; n],
            chaos: scenario.chaos,
            churn: scenario
                .chaos
                .churn
                .map(|c| ChurnProcess::new(c, scenario.workload.seed)),
        }
    }

    /// Install a structured-trace handle on the world and every protocol
    /// instance. Call before [`World::prime`]. The tracer observes; it never
    /// draws randomness or schedules events, so traced runs stay bit-exact.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        for proto in &mut self.protos {
            proto.set_tracer(tracer.clone());
        }
        self.tracer = tracer;
    }

    /// Sample the channel for one `src → dst` delivery. The ideal channel
    /// short-circuits without drawing randomness (and an explicitly
    /// configured all-zero quality draws nothing either), which is what
    /// makes ideal runs bit-identical to the legacy instant-delivery path.
    fn channel_sample(&mut self, now: SimTime, src: NodeId, dst: NodeId) -> Sampled {
        if self.channel.is_ideal() {
            return Sampled::Delivered {
                delay: SimDuration::ZERO,
                duplicate: None,
            };
        }
        let quality = {
            let routing = self.fault.routing(&self.topology);
            self.channel.effective_quality(routing, src, dst)
        };
        let sampled = quality.sample(&mut self.channel_rng);
        if self.counting(now) {
            match sampled {
                Sampled::Lost => {
                    self.result.ledger.count_lost();
                }
                Sampled::Delivered {
                    duplicate: Some(_), ..
                } => {
                    self.result.ledger.count_duplicated();
                }
                Sampled::Delivered { .. } => {}
            }
        }
        sampled
    }

    /// Close the current occupancy segment of `node` at `now`; call just
    /// before (or after) any queue mutation on that node.
    fn occ_sync(&mut self, node: NodeId, now: SimTime) {
        let (integral, start, b) = self.occ[node];
        let dt = now.since(start).as_secs_f64();
        let new_integral = integral + drain_integral(b, dt);
        self.occ[node] = (new_integral, now, self.queues[node].backlog_at(now));
    }

    /// Override the flood scope of every node (inter-community experiments).
    pub fn set_scopes(&mut self, scopes: Vec<Vec<NodeId>>) {
        assert_eq!(scopes.len(), self.topology.node_count());
        self.scopes = Some(scopes);
    }

    /// Number of recipients in `node`'s flood scope.
    fn scope_len(&self, node: NodeId) -> usize {
        match &self.scopes {
            Some(scopes) => scopes[node].len(),
            None => self.topology.node_count() - 1,
        }
    }

    /// The `i`-th recipient of `node`'s flood scope. Indexing (rather than
    /// an iterator borrowing `self`) lets the delivery loops call `&mut
    /// self` methods between recipients.
    #[inline]
    fn scope_member(&self, node: NodeId, i: usize) -> NodeId {
        match &self.scopes {
            Some(scopes) => scopes[node][i],
            // Every other node in id order: skip the sender's own id.
            None => i + usize::from(i >= node),
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.topology.node_count()
    }

    fn counting(&self, now: SimTime) -> bool {
        now >= self.warmup
    }

    /// Account one message that could not cross an active partition. A
    /// no-op when no partition is in force, so pre-partition behaviour
    /// (unreachability from kills or link cuts) stays byte-identical.
    fn note_partition_drop(&mut self, now: SimTime) {
        if self.fault.has_partition() && self.counting(now) {
            self.result.ledger.count_partition_dropped();
        }
    }

    fn view(&self, node: NodeId, now: SimTime) -> LocalView {
        LocalView::new(self.queues[node].headroom_at(now), self.capacity_secs)
    }

    /// Drain the protocol's queued actions into engine events and ledger
    /// charges.
    fn process_actions(&mut self, node: NodeId, now: SimTime, ctx: &mut Context<'_, Ev>) {
        // The common case by far on the hot path (most protocol callbacks
        // queue nothing): get out before touching the scope or the buffer.
        if self.actions.is_empty() {
            return;
        }
        let counting = self.counting(now);
        // Under the spanning-tree charge a flood costs one message per alive
        // recipient in the sender's scope; the paper's per-link charge is
        // scope-independent. The O(scope) liveness scan runs only under the
        // spanning-tree charge, only if a flood is actually charged, and at
        // most once per drain.
        let mut scope_alive: Option<usize> = None;
        // Move the buffer out to appease the borrow checker.
        let mut actions = std::mem::take(&mut self.actions);
        for action in actions.drain() {
            match action {
                Action::Flood(msg) => {
                    // The flood is charged once at send time; channel loss
                    // does not refund it (the datagrams went out).
                    if counting {
                        let alive = match self.cost.flood_mode() {
                            // `flood_cost` ignores the count here.
                            FloodCharge::PerLink => 0,
                            FloodCharge::SpanningTree => *scope_alive.get_or_insert_with(|| {
                                1 + (0..self.scope_len(node))
                                    .filter(|&i| self.fault.is_alive(self.scope_member(node, i)))
                                    .count()
                            }),
                        };
                        let c = self.cost.flood_cost(alive);
                        match msg {
                            Message::Help(_) => {
                                self.result.ledger.charge_help(c);
                                self.sent_traffic[node] += 1;
                            }
                            Message::Advert(_) => {
                                self.result.ledger.charge_push(c);
                            }
                            Message::Pledge(_) => {
                                self.result.ledger.charge_pledge(c);
                                self.sent_traffic[node] += 1;
                            }
                        }
                    }
                    if self.channel.is_ideal() {
                        // Legacy grouped delivery: one event fans out to the
                        // whole scope (bit-identical to the pre-channel path).
                        // Partition filtering happens at delivery time.
                        ctx.schedule_in(self.flood_latency, Ev::FloodDeliver { from: node, msg });
                    } else {
                        // Per-recipient copies, each sampled independently,
                        // in id order (scopes are id-sorted) so equal-delay
                        // copies process in the same order the grouped event
                        // would have used.
                        let partitioned = self.fault.has_partition();
                        // Index loop: the body needs `&mut self` for
                        // channel sampling.
                        for ri in 0..self.scope_len(node) {
                            let to = self.scope_member(node, ri);
                            // `reachable(to, node)` reads the sender's
                            // row alone, however many recipients there are.
                            if partitioned
                                && !self.fault.routing(&self.topology).reachable(to, node)
                            {
                                // The flood's datagrams die at the cut; the
                                // channel is never sampled for them (the
                                // partition state is deterministic, so this
                                // keeps the RNG stream partition-scripted).
                                self.note_partition_drop(now);
                                continue;
                            }
                            match self.channel_sample(now, node, to) {
                                Sampled::Lost => {}
                                Sampled::Delivered { delay, duplicate } => {
                                    ctx.schedule_in(
                                        self.flood_latency + delay,
                                        Ev::Deliver {
                                            from: node,
                                            to,
                                            msg,
                                        },
                                    );
                                    if let Some(dup) = duplicate {
                                        ctx.schedule_in(
                                            self.flood_latency + dup,
                                            Ev::Deliver {
                                                from: node,
                                                to,
                                                msg,
                                            },
                                        );
                                    }
                                }
                            }
                        }
                    }
                }
                Action::Unicast(to, msg) => {
                    if !self.fault.routing(&self.topology).reachable(node, to) {
                        // partitioned or severed: the message is lost
                        self.note_partition_drop(now);
                        continue;
                    }
                    let routing = self.fault.routing(&self.topology);
                    let hops = routing.hops(node, to);
                    if counting {
                        let c = self.cost.unicast_cost(routing, node, to);
                        match msg {
                            Message::Pledge(_) => {
                                self.result.ledger.charge_pledge(c);
                                self.sent_traffic[node] += 1;
                            }
                            Message::Advert(_) => {
                                self.result.ledger.charge_push(c);
                            }
                            Message::Help(_) => {
                                self.result.ledger.charge_help(c);
                                self.sent_traffic[node] += 1;
                            }
                        }
                    }
                    let latency = self.per_hop_latency * u64::from(hops);
                    match self.channel_sample(now, node, to) {
                        Sampled::Lost => {}
                        Sampled::Delivered { delay, duplicate } => {
                            ctx.schedule_in(
                                latency + delay,
                                Ev::Deliver {
                                    from: node,
                                    to,
                                    msg,
                                },
                            );
                            if let Some(dup) = duplicate {
                                ctx.schedule_in(
                                    latency + dup,
                                    Ev::Deliver {
                                        from: node,
                                        to,
                                        msg,
                                    },
                                );
                            }
                        }
                    }
                }
                Action::SetTimer(token, delay) => {
                    ctx.schedule_in(delay, Ev::Timer { node, token });
                }
                Action::DeclareDead(peer) => {
                    self.handle_declaration(node, peer, now, ctx);
                }
            }
        }
        self.actions = actions;
    }

    /// Queue state changed at `node`: notify the protocol and (re)arm the
    /// drain-crossing event.
    fn after_queue_change(&mut self, node: NodeId, now: SimTime, ctx: &mut Context<'_, Ev>) {
        let view = self.view(node, now);
        self.protos[node].on_usage_change(now, view, &mut self.actions);
        self.process_actions(node, now, ctx);
        // Arm the downward crossing of the pledge threshold. The level is a
        // hair below the threshold so occupancy is strictly under it when
        // the event fires (Algorithm P's `above` test is `frac >= th`).
        let level = (self.pledge_level_secs - 1e-6).max(0.0);
        if let Some(at) = self.queues[node].time_to_drain_to(now, level) {
            self.drain_gen[node] += 1;
            ctx.schedule_at(
                at,
                Ev::Drain {
                    node,
                    gen: self.drain_gen[node],
                },
            );
        }
    }

    fn record_offered(&mut self, now: SimTime) {
        if self.counting(now) {
            self.result.offered += 1;
            self.current_window.offered += 1;
        }
    }

    fn record_admitted(&mut self, now: SimTime, migrated: bool) {
        if self.counting(now) {
            if migrated {
                self.result.admitted_migrated += 1;
            } else {
                self.result.admitted_local += 1;
            }
            self.current_window.admitted += 1;
        }
    }

    fn record_rejected(&mut self, now: SimTime, dead_node: bool) {
        if self.counting(now) {
            self.result.rejected += 1;
            if dead_node {
                self.result.lost_to_attacks += 1;
            }
        }
    }

    /// Emit a `queue_watermark` event when `node`'s backlog just set a new
    /// lifetime peak. Trace-only bookkeeping: nothing here feeds back into
    /// the simulation, and the early return keeps disabled runs free.
    fn trace_watermark(&mut self, node: NodeId, now: SimTime) {
        if !self.tracer.is_enabled() {
            return;
        }
        let hw = self.queues[node].high_water_secs();
        if hw > self.watermarks[node] {
            self.watermarks[node] = hw;
            if self.tracer.records(TraceKind::QueueWatermark) {
                self.tracer.emit(
                    now,
                    Some(node),
                    TraceKind::QueueWatermark,
                    &[
                        ("backlog_secs", TraceValue::F64(hw)),
                        ("frac", TraceValue::F64(hw / self.capacity_secs)),
                    ],
                );
            }
        }
    }

    /// The task-level span id for an (optional) lineage.
    fn task_span(lineage: Option<u64>) -> Option<u64> {
        lineage.map(|l| TaskLineage(l).span())
    }

    /// Look up the lineage of a shadow-logged task. The map is populated
    /// only while tracing is enabled, so untraced runs always get `None`
    /// here — and the result only ever annotates trace events.
    fn lineage_of(&self, task_id: u64) -> Option<u64> {
        match self.task_lineages.get(task_id as usize) {
            Some(&l) if l != u64::MAX => Some(l),
            _ => None,
        }
    }

    fn handle_arrival(&mut self, idx: usize, now: SimTime, ctx: &mut Context<'_, Ev>) {
        if idx + 1 < self.trace.records.len() {
            ctx.schedule_at(self.trace.records[idx + 1].at, Ev::Arrival(idx + 1));
        }
        let rec = self.trace.records[idx];
        let node = rec.node;
        // A task's lineage is its arrival-trace index: deterministic,
        // globally unique, and identical in traced and untraced runs.
        let lineage = Some(idx as u64);
        let span = Self::task_span(lineage);
        self.record_offered(now);
        if self.counting(now) {
            self.result.node_stats[node].offered += 1;
        }

        if !self.fault.is_alive(node) {
            self.record_rejected(now, true);
            self.tracer.emit_spanned(
                now,
                Some(node),
                TraceKind::TaskReject,
                span,
                None,
                &[("reason", TraceValue::Str("dead_node"))],
            );
            return;
        }
        let size = rec.size_secs;
        if size > self.capacity_secs {
            // No queue in the system could ever hold this task.
            self.record_rejected(now, false);
            self.tracer.emit_spanned(
                now,
                Some(node),
                TraceKind::TaskReject,
                span,
                None,
                &[("reason", TraceValue::Str("oversize"))],
            );
            return;
        }

        // Algorithm H sees the occupancy *including* the new task.
        let view_incl = LocalView {
            queue_frac: self.queues[node].frac_with(now, size),
            headroom_secs: self.queues[node].headroom_at(now),
            capacity_secs: self.capacity_secs,
        };
        self.protos[node].on_task_arrival(now, view_incl, &mut self.actions);
        self.process_actions(node, now, ctx);

        if self.queues[node].can_accept(now, size) {
            self.queues[node]
                .admit(now, size)
                .expect("can_accept implies admit succeeds");
            self.occ_sync(node, now);
            self.log_admit(node, size, now, lineage);
            self.record_admitted(now, false);
            if self.counting(now) {
                self.result.node_stats[node].admitted_here += 1;
            }
            self.tracer.emit_spanned(
                now,
                Some(node),
                TraceKind::TaskAdmit,
                span,
                None,
                &[
                    ("size_secs", TraceValue::F64(size)),
                    ("migrated", TraceValue::Bool(false)),
                ],
            );
            self.trace_watermark(node, now);
            self.after_queue_change(node, now, ctx);
            return;
        }

        // Queue full: one-shot migration to the protocol's best candidate.
        // The negotiation is a real request/reply exchange over the channel:
        // either leg can be lost or delayed, guarded by a timeout and a
        // bounded retry budget.
        let Some(dest) = self.protos[node].pick_candidate(now, size) else {
            self.record_rejected(now, false);
            self.tracer.emit_spanned(
                now,
                Some(node),
                TraceKind::TaskReject,
                span,
                None,
                &[("reason", TraceValue::Str("no_candidate"))],
            );
            return;
        };
        let counted = self.counting(now);
        if counted {
            self.result.migration_attempts += 1;
        }
        let attempt = self.next_attempt;
        self.next_attempt += 1;
        self.tracer.emit_spanned(
            now,
            Some(node),
            TraceKind::MigrateStart,
            Some(attempt_span(attempt)),
            span,
            &[
                ("dst", TraceValue::U64(dest as u64)),
                ("size_secs", TraceValue::F64(size)),
                ("kind", TraceValue::Str("arrival")),
            ],
        );
        self.pending.insert(
            attempt,
            MigrationAttempt {
                src: node,
                dst: dest,
                size_secs: size,
                counted,
                tries_left: self.negotiation_retries,
                try_no: 1,
                kind: AttemptKind::Arrival,
                lineage,
            },
        );
        self.send_migrate_request(attempt, now, ctx);
    }

    /// Send (or re-send) the negotiation request of `attempt` and arm its
    /// timeout. Each send is charged: a retry really does cost another
    /// request/reply round on the wire. An unreachable destination is still
    /// charged (legacy behavior — the constant-cost paper accounting
    /// charges the attempt, not the delivery) but nothing is delivered, so
    /// the attempt resolves through its timeout.
    fn send_migrate_request(&mut self, attempt: u64, now: SimTime, ctx: &mut Context<'_, Ev>) {
        let a = self.pending[&attempt];
        if a.counted {
            let routing = self.fault.routing(&self.topology);
            let c = self.cost.negotiation_cost(routing, a.src, a.dst);
            self.result.ledger.charge_migration(c);
        }
        let reachable = {
            let routing = self.fault.routing(&self.topology);
            routing.reachable(a.src, a.dst)
        };
        if reachable {
            match self.channel_sample(now, a.src, a.dst) {
                Sampled::Lost => {}
                Sampled::Delivered { delay, duplicate } => {
                    // The negotiation rides only the channel's extra delay,
                    // not per-hop latency: under the ideal channel this
                    // preserves the paper's synchronous one-shot semantics
                    // (request, decision and reply at the arrival instant).
                    ctx.schedule_in(delay, Ev::MigrateRequest { attempt });
                    if let Some(dup) = duplicate {
                        ctx.schedule_in(dup, Ev::MigrateRequest { attempt });
                    }
                }
            }
        } else {
            self.note_partition_drop(now);
        }
        ctx.schedule_in(
            self.negotiation_timeout,
            Ev::MigrateTimeout {
                attempt,
                try_no: a.try_no,
            },
        );
    }

    /// The destination receives a negotiation request: decide once, replay
    /// the recorded decision for duplicates/retries, and send the reply back
    /// over the channel.
    fn handle_migrate_request(&mut self, attempt: u64, now: SimTime, ctx: &mut Context<'_, Ev>) {
        let Some(&a) = self.pending.get(&attempt) else {
            return; // already resolved
        };
        if !self.fault.is_alive(a.dst) {
            return; // dead destinations answer nothing; the timeout decides
        }
        let admitted = match self.dst_decisions.get(&attempt) {
            Some(&decision) => decision,
            None => {
                let admitted = self.queues[a.dst].can_accept(now, a.size_secs);
                if admitted {
                    self.queues[a.dst]
                        .admit(now, a.size_secs)
                        .expect("checked can_accept");
                    self.occ_sync(a.dst, now);
                    self.log_admit(a.dst, a.size_secs, now, a.lineage);
                    if a.counted && matches!(a.kind, AttemptKind::Arrival) {
                        self.result.node_stats[a.dst].admitted_here += 1;
                    }
                    self.tracer.emit_spanned(
                        now,
                        Some(a.dst),
                        TraceKind::TaskAdmit,
                        Self::task_span(a.lineage),
                        Some(attempt_span(attempt)),
                        &[
                            ("size_secs", TraceValue::F64(a.size_secs)),
                            ("migrated", TraceValue::Bool(true)),
                        ],
                    );
                    self.trace_watermark(a.dst, now);
                    self.after_queue_change(a.dst, now, ctx);
                }
                self.dst_decisions.insert(attempt, admitted);
                admitted
            }
        };
        let reachable = {
            let routing = self.fault.routing(&self.topology);
            routing.reachable(a.dst, a.src)
        };
        if reachable {
            match self.channel_sample(now, a.dst, a.src) {
                Sampled::Lost => {}
                Sampled::Delivered { delay, duplicate } => {
                    ctx.schedule_in(delay, Ev::MigrateReply { attempt, admitted });
                    if let Some(dup) = duplicate {
                        ctx.schedule_in(dup, Ev::MigrateReply { attempt, admitted });
                    }
                }
            }
        } else {
            self.note_partition_drop(now);
        }
    }

    /// The source's negotiation timer fired. Stale timeouts (a newer try is
    /// in flight, or the attempt already resolved) are ignored; otherwise
    /// spend a retry or give up.
    fn handle_migrate_timeout(
        &mut self,
        attempt: u64,
        try_no: u32,
        now: SimTime,
        ctx: &mut Context<'_, Ev>,
    ) {
        let Some(a) = self.pending.get_mut(&attempt) else {
            return;
        };
        if a.try_no != try_no {
            return;
        }
        if a.tries_left > 0 {
            a.tries_left -= 1;
            a.try_no += 1;
            self.send_migrate_request(attempt, now, ctx);
        } else {
            self.resolve_migration(attempt, now, false, Some(ctx));
        }
    }

    /// Resolve `attempt` at the source. Duplicated replies find the attempt
    /// gone and are ignored. Retries are only spent on silence (timeout) —
    /// an explicit refusal is definitive, per the paper's one-shot
    /// semantics. `ctx` is `None` only at the horizon (`finish`), where
    /// nothing further may be scheduled: recovery attempts then give up
    /// instead of re-submitting.
    fn resolve_migration(
        &mut self,
        attempt: u64,
        now: SimTime,
        admitted: bool,
        mut ctx: Option<&mut Context<'_, Ev>>,
    ) {
        let Some(a) = self.pending.remove(&attempt) else {
            return;
        };
        self.dst_decisions.remove(&attempt);
        if self.tracer.is_enabled() {
            let kind_label = match a.kind {
                AttemptKind::Arrival => "arrival",
                AttemptKind::Recovery { .. } => "recovery",
                AttemptKind::Evacuation { .. } => "evacuation",
            };
            self.tracer.emit_spanned(
                now,
                Some(a.src),
                TraceKind::MigrateResolve,
                Some(attempt_span(attempt)),
                Self::task_span(a.lineage),
                &[
                    ("dst", TraceValue::U64(a.dst as u64)),
                    ("admitted", TraceValue::Bool(admitted)),
                    ("kind", TraceValue::Str(kind_label)),
                ],
            );
        }
        match a.kind {
            AttemptKind::Arrival => {
                if admitted {
                    if a.counted {
                        self.result.migration_successes += 1;
                        self.result.admitted_migrated += 1;
                        self.current_window.admitted += 1;
                    }
                } else {
                    if a.counted {
                        self.result.rejected += 1;
                    }
                    // Terminal task-span event: without it a refused
                    // arrival's journey would end on the attempt span and
                    // the lineage graph would dangle.
                    self.tracer.emit_spanned(
                        now,
                        Some(a.src),
                        TraceKind::TaskReject,
                        Self::task_span(a.lineage),
                        Some(attempt_span(attempt)),
                        &[("reason", TraceValue::Str("migration_refused"))],
                    );
                }
                self.protos[a.src].on_migration_result(now, a.dst, admitted);
            }
            AttemptKind::Recovery { submissions_left } => {
                if self.fault.is_alive(a.src) {
                    self.protos[a.src].on_migration_result(now, a.dst, admitted);
                }
                if admitted {
                    if a.counted {
                        self.result.tasks_recovered += 1;
                        self.result.work_recovered += a.size_secs;
                    }
                    self.tracer.emit_spanned(
                        now,
                        Some(a.dst),
                        TraceKind::TaskRecover,
                        Self::task_span(a.lineage),
                        Some(attempt_span(attempt)),
                        &[("size_secs", TraceValue::F64(a.size_secs))],
                    );
                } else {
                    let retried = match ctx.as_deref_mut() {
                        Some(ctx) if self.fault.is_alive(a.src) => self.launch_recovery_attempt(
                            a.src,
                            a.size_secs,
                            a.counted,
                            a.lineage,
                            submissions_left,
                            now,
                            ctx,
                        ),
                        _ => false,
                    };
                    if !retried {
                        if a.counted {
                            self.result.tasks_destroyed += 1;
                            self.result.work_destroyed += a.size_secs;
                        }
                        self.tracer.emit_spanned(
                            now,
                            Some(a.src),
                            TraceKind::TaskDestroy,
                            Self::task_span(a.lineage),
                            Some(attempt_span(attempt)),
                            &[("size_secs", TraceValue::F64(a.size_secs))],
                        );
                    }
                }
            }
            AttemptKind::Evacuation {
                victim,
                task_id,
                victim_crashed,
            } => {
                if !victim_crashed {
                    self.protos[victim].on_migration_result(now, a.dst, admitted);
                    if admitted {
                        // The destination holds a copy: withdraw the task
                        // from the (still-alive) victim.
                        let remaining = self.task_logs[victim].remove(task_id, now).unwrap_or(0.0);
                        if remaining > 0.0 {
                            self.queues[victim].withdraw(now, remaining);
                            self.occ_sync(victim, now);
                            if let Some(ctx) = ctx {
                                self.after_queue_change(victim, now, ctx);
                            }
                        }
                        if a.counted {
                            self.result.evacuation_successes += 1;
                            self.result.work_evacuated += remaining;
                        }
                    } else {
                        // Refused: the task stays and keeps executing here.
                        self.task_logs[victim].clear_evacuating(task_id);
                    }
                } else if admitted {
                    // The evacuation outran the kill: the destination holds
                    // the work, so the interrupted task counts as recovered.
                    if a.counted {
                        self.result.tasks_recovered += 1;
                        self.result.work_recovered += a.size_secs;
                    }
                    self.tracer.emit_spanned(
                        now,
                        Some(a.dst),
                        TraceKind::TaskRecover,
                        Self::task_span(a.lineage),
                        Some(attempt_span(attempt)),
                        &[("size_secs", TraceValue::F64(a.size_secs))],
                    );
                } else {
                    if a.counted {
                        self.result.tasks_destroyed += 1;
                        self.result.work_destroyed += a.size_secs;
                    }
                    self.tracer.emit_spanned(
                        now,
                        Some(a.src),
                        TraceKind::TaskDestroy,
                        Self::task_span(a.lineage),
                        Some(attempt_span(attempt)),
                        &[("size_secs", TraceValue::F64(a.size_secs))],
                    );
                }
            }
        }
    }

    fn handle_attack(&mut self, idx: usize, now: SimTime, ctx: &mut Context<'_, Ev>) {
        let ev = self.attack.events()[idx];
        if self.tracer.is_enabled() {
            let (action, count) = match ev.action {
                AttackAction::Kill { count } => ("kill", count as u64),
                AttackAction::KillAfterWarning { count, .. } => {
                    ("kill_after_warning", count as u64)
                }
                AttackAction::RestoreAll => ("restore_all", 0),
                AttackAction::Restore { count } => ("restore", count as u64),
                AttackAction::CutLinks { count } => ("cut_links", count as u64),
                AttackAction::RestoreLinks => ("restore_links", 0),
                AttackAction::DegradeLinks { count } => ("degrade_links", count as u64),
                AttackAction::RestoreLinkQuality => ("restore_link_quality", 0),
                AttackAction::Partition { parts } => ("partition", parts as u64),
                AttackAction::Heal => ("heal", 0),
            };
            self.tracer.emit(
                now,
                None,
                TraceKind::AttackAction,
                &[
                    ("action", TraceValue::Str(action)),
                    ("count", TraceValue::U64(count)),
                ],
            );
        }
        match ev.action {
            AttackAction::Kill { count } => {
                let victims =
                    self.fault
                        .attack(&self.topology, &self.targeting, count, &mut self.attack_rng);
                for v in victims {
                    self.kill_node(v, now);
                }
            }
            AttackAction::KillAfterWarning { count, lead } => {
                // Victims are chosen now, from the same targeting stream an
                // unwarned kill would draw, but die only after `lead`.
                let victims = self.fault.choose_victims(
                    &self.topology,
                    &self.targeting,
                    count,
                    &mut self.attack_rng,
                );
                if self.recovery.enabled && self.recovery.proactive {
                    for &v in &victims {
                        self.evacuate_node(v, now, ctx);
                    }
                }
                ctx.schedule_in(lead, Ev::DelayedKill { victims });
            }
            AttackAction::RestoreAll => {
                let dead: Vec<NodeId> = (0..self.node_count())
                    .filter(|&n| !self.fault.is_alive(n))
                    .collect();
                for v in dead {
                    self.restore_node(v, now, ctx);
                }
            }
            AttackAction::Restore { count } => {
                let dead: Vec<NodeId> = (0..self.node_count())
                    .filter(|&n| !self.fault.is_alive(n))
                    .take(count)
                    .collect();
                for v in dead {
                    self.restore_node(v, now, ctx);
                }
            }
            AttackAction::CutLinks { count } => {
                let intact: Vec<(NodeId, NodeId)> = self
                    .topology
                    .edges()
                    .into_iter()
                    .filter(|&(a, b)| !self.fault.is_link_cut(a, b))
                    .collect();
                let count = count.min(intact.len());
                let picks = self.attack_rng.sample_indices(intact.len().max(1), count);
                for i in picks {
                    let (a, b) = intact[i];
                    self.fault.cut_link(&self.topology, a, b);
                }
            }
            AttackAction::RestoreLinks => {
                for (a, b) in self.topology.edges() {
                    self.fault.restore_link(a, b);
                }
            }
            AttackAction::DegradeLinks { count } => {
                let candidates: Vec<(NodeId, NodeId)> = self
                    .topology
                    .edges()
                    .into_iter()
                    .filter(|&(a, b)| !self.channel.is_link_degraded(a, b))
                    .collect();
                let count = count.min(candidates.len());
                let picks = self
                    .attack_rng
                    .sample_indices(candidates.len().max(1), count);
                for i in picks {
                    let (a, b) = candidates[i];
                    self.channel.degrade_link(a, b);
                }
            }
            AttackAction::RestoreLinkQuality => {
                self.channel.restore_all_quality();
            }
            AttackAction::Partition { parts } => {
                self.fault
                    .partition(&self.topology, parts, &mut self.attack_rng);
            }
            AttackAction::Heal => {
                self.fault.heal_partition();
            }
        }
    }

    /// Kill bookkeeping shared by immediate and warned kills. The queue-wipe
    /// order (`occ_sync` → fresh queue → occupancy reset → drain-generation
    /// bump) is the legacy sequence and must stay exact for golden parity.
    fn kill_node(&mut self, v: NodeId, now: SimTime) {
        self.occ_sync(v, now);
        let counted = self.counting(now);
        self.tracer.emit(
            now,
            Some(v),
            TraceKind::NodeKill,
            &[(
                "backlog_secs",
                TraceValue::F64(self.queues[v].backlog_at(now)),
            )],
        );
        if self.recovery.enabled {
            // In-flight evacuations from this node lose their source: their
            // negotiation outcome now decides the task's fate.
            for a in self.pending.values_mut() {
                if let AttemptKind::Evacuation {
                    victim,
                    victim_crashed,
                    ..
                } = &mut a.kind
                {
                    if *victim == v && !*victim_crashed {
                        *victim_crashed = true;
                        if a.counted {
                            self.result.tasks_interrupted += 1;
                        }
                    }
                }
            }
            let split = self.task_logs[v].split_at_kill(now, self.recovery.checkpoint_fraction);
            if counted {
                self.result.tasks_interrupted +=
                    split.recoverable.len() as u64 + split.destroyed_tasks;
                self.result.tasks_destroyed += split.destroyed_tasks;
                self.result.work_destroyed += split.destroyed_work;
            }
            if self.tracer.is_enabled()
                && (!split.recoverable.is_empty() || split.destroyed_tasks > 0)
            {
                self.tracer.emit(
                    now,
                    Some(v),
                    TraceKind::CheckpointSplit,
                    &[
                        (
                            "recoverable",
                            TraceValue::U64(split.recoverable.len() as u64),
                        ),
                        ("destroyed", TraceValue::U64(split.destroyed_tasks)),
                        ("destroyed_work_secs", TraceValue::F64(split.destroyed_work)),
                    ],
                );
                self.tracer.emit(
                    now,
                    Some(v),
                    TraceKind::TaskInterrupt,
                    &[(
                        "count",
                        TraceValue::U64(split.recoverable.len() as u64 + split.destroyed_tasks),
                    )],
                );
            }
            if !split.recoverable.is_empty() {
                self.orphans.insert(
                    v,
                    OrphanSet {
                        counted,
                        tasks: split.recoverable,
                    },
                );
            }
        } else if counted {
            // No task identity without recovery: the whole backlog is lost.
            self.result.work_destroyed += self.queues[v].backlog_at(now);
        }
        self.queues[v] = realtor_node::WorkQueue::new(self.capacity_secs);
        self.occ[v].2 = 0.0;
        self.drain_gen[v] += 1;
        self.kill_times[v] = Some(now);
    }

    /// A node's failure detector confirmed `peer` dead
    /// ([`Action::DeclareDead`]): measure detection latency on the first
    /// confirmation of the outage, and let the declaring node re-home any
    /// checkpoints the dead peer left behind.
    fn handle_declaration(
        &mut self,
        reporter: NodeId,
        peer: NodeId,
        now: SimTime,
        ctx: &mut Context<'_, Ev>,
    ) {
        if self.fault.is_alive(peer) {
            // The peer is up (it was restored, or was merely slow): the
            // declaration is wrong. Count it; the declarer's protocol state
            // heals on the peer's next message.
            if self.counting(now) {
                self.result.false_suspicions += 1;
            }
            return;
        }
        if let Some(killed_at) = self.kill_times[peer].take() {
            if self.counting(now) {
                let latency = now.since(killed_at).as_secs_f64();
                self.result.detections += 1;
                self.result.detection_latency_sum += latency;
                self.result.detection_latency_max = self.result.detection_latency_max.max(latency);
            }
        }
        let Some(set) = self.orphans.remove(&peer) else {
            return;
        };
        for (task_id, size) in set.tasks {
            let lineage = self.lineage_of(task_id);
            self.recover_task(reporter, size, set.counted, lineage, now, ctx);
        }
    }

    /// Re-home one orphaned checkpoint at `host` (the node that confirmed
    /// the death, or the restarted owner itself): admit locally when there
    /// is room, otherwise re-submit through the host's discovery view with
    /// a bounded retry budget. A checkpoint that finds no home is destroyed.
    fn recover_task(
        &mut self,
        host: NodeId,
        size: f64,
        counted: bool,
        lineage: Option<u64>,
        now: SimTime,
        ctx: &mut Context<'_, Ev>,
    ) {
        if self.fault.is_alive(host) && self.queues[host].can_accept(now, size) {
            self.queues[host]
                .admit(now, size)
                .expect("checked can_accept");
            self.occ_sync(host, now);
            self.log_admit(host, size, now, lineage);
            if counted {
                self.result.tasks_recovered += 1;
                self.result.work_recovered += size;
            }
            self.tracer.emit_spanned(
                now,
                Some(host),
                TraceKind::TaskRecover,
                Self::task_span(lineage),
                None,
                &[("size_secs", TraceValue::F64(size))],
            );
            self.trace_watermark(host, now);
            self.after_queue_change(host, now, ctx);
            return;
        }
        let launched = self.fault.is_alive(host)
            && self.launch_recovery_attempt(
                host,
                size,
                counted,
                lineage,
                self.recovery.recovery_tries,
                now,
                ctx,
            );
        if !launched {
            if counted {
                self.result.tasks_destroyed += 1;
                self.result.work_destroyed += size;
            }
            self.tracer.emit_spanned(
                now,
                Some(host),
                TraceKind::TaskDestroy,
                Self::task_span(lineage),
                None,
                &[("size_secs", TraceValue::F64(size))],
            );
        }
    }

    /// Spend one of `submissions_left` re-submissions of an orphaned
    /// checkpoint: ask `host`'s protocol for a candidate and start a
    /// negotiation (charged like any migration). Returns whether a
    /// negotiation was actually launched.
    #[allow(clippy::too_many_arguments)]
    fn launch_recovery_attempt(
        &mut self,
        host: NodeId,
        size: f64,
        counted: bool,
        lineage: Option<u64>,
        submissions_left: u32,
        now: SimTime,
        ctx: &mut Context<'_, Ev>,
    ) -> bool {
        if submissions_left == 0 {
            return false;
        }
        let Some(dest) = self.protos[host].pick_candidate(now, size) else {
            return false;
        };
        if counted {
            self.result.recovery_attempts += 1;
        }
        let attempt = self.next_attempt;
        self.next_attempt += 1;
        self.tracer.emit_spanned(
            now,
            Some(host),
            TraceKind::MigrateStart,
            Some(attempt_span(attempt)),
            Self::task_span(lineage),
            &[
                ("dst", TraceValue::U64(dest as u64)),
                ("size_secs", TraceValue::F64(size)),
                ("kind", TraceValue::Str("recovery")),
            ],
        );
        self.pending.insert(
            attempt,
            MigrationAttempt {
                src: host,
                dst: dest,
                size_secs: size,
                counted,
                tries_left: self.negotiation_retries,
                try_no: 1,
                kind: AttemptKind::Recovery {
                    submissions_left: submissions_left - 1,
                },
                lineage,
            },
        );
        self.send_migrate_request(attempt, now, ctx);
        true
    }

    /// An attack warning reached `victim`: try to move every pending task
    /// somewhere safer before the strike lands. Each task negotiates
    /// independently through the victim's own discovery view; tasks with no
    /// candidate simply stay and ride out the kill.
    fn evacuate_node(&mut self, victim: NodeId, now: SimTime, ctx: &mut Context<'_, Ev>) {
        if !self.fault.is_alive(victim) {
            return;
        }
        self.task_logs[victim].prune_finished(now);
        let pending = self.task_logs[victim].pending_newest_first(now);
        let counted = self.counting(now);
        for (task_id, remaining) in pending {
            let Some(dest) = self.protos[victim].pick_candidate(now, remaining) else {
                continue;
            };
            if counted {
                self.result.evacuation_attempts += 1;
            }
            let lineage = self.lineage_of(task_id);
            let attempt = self.next_attempt;
            self.next_attempt += 1;
            self.tracer.emit_spanned(
                now,
                Some(victim),
                TraceKind::EvacuationStart,
                Some(attempt_span(attempt)),
                Self::task_span(lineage),
                &[
                    ("dst", TraceValue::U64(dest as u64)),
                    ("size_secs", TraceValue::F64(remaining)),
                ],
            );
            self.task_logs[victim].mark_evacuating(task_id);
            self.pending.insert(
                attempt,
                MigrationAttempt {
                    src: victim,
                    dst: dest,
                    size_secs: remaining,
                    counted,
                    tries_left: self.negotiation_retries,
                    try_no: 1,
                    kind: AttemptKind::Evacuation {
                        victim,
                        task_id,
                        victim_crashed: false,
                    },
                    lineage,
                },
            );
            self.send_migrate_request(attempt, now, ctx);
        }
    }

    /// Shadow-log an admission for recovery. A no-op while recovery is off,
    /// so golden runs never touch the log. The task's causal `lineage` is
    /// remembered (tracing only) so later recovery events can link back to
    /// the original arrival.
    fn log_admit(&mut self, node: NodeId, size_secs: f64, now: SimTime, lineage: Option<u64>) {
        if !self.recovery.enabled {
            return;
        }
        let id = self.next_task_id;
        self.next_task_id += 1;
        self.task_logs[node].prune_finished(now);
        let finish = now + SimDuration::from_secs_f64(self.queues[node].backlog_at(now));
        self.task_logs[node].record_admit(id, size_secs, finish);
        if self.tracer.is_enabled() {
            if let Some(l) = lineage {
                if self.task_lineages.len() <= id as usize {
                    self.task_lineages.resize(id as usize + 1, u64::MAX);
                }
                self.task_lineages[id as usize] = l;
            }
        }
    }

    /// Introspect the protocol instance on `node` (tests and experiments).
    pub fn introspect_node(
        &self,
        node: NodeId,
        now: SimTime,
    ) -> realtor_core::protocol::Introspection {
        self.protos[node].introspect(now)
    }

    fn restore_node(&mut self, node: NodeId, now: SimTime, ctx: &mut Context<'_, Ev>) {
        self.tracer
            .emit(now, Some(node), TraceKind::NodeRestore, &[]);
        self.fault.restore(node);
        self.occ_sync(node, now);
        self.queues[node] = realtor_node::WorkQueue::new(self.capacity_secs);
        self.occ[node].2 = 0.0;
        self.drain_gen[node] += 1;
        self.kill_times[node] = None;
        self.task_logs[node].clear();
        self.protos[node].on_reset(now);
        let view = self.view(node, now);
        self.protos[node].on_start(now, view, &mut self.actions);
        self.process_actions(node, now, ctx);
        // Crash-restart recovery: if no peer claimed this node's checkpoints
        // while it was down, the restarted node re-admits them itself.
        if let Some(set) = self.orphans.remove(&node) {
            for (task_id, size) in set.tasks {
                let lineage = self.lineage_of(task_id);
                self.recover_task(node, size, set.counted, lineage, now, ctx);
            }
        }
    }

    /// One churn wave: restore the previous wave's victims, then (while the
    /// churn window is open) kill a fresh fraction of the alive population
    /// drawn from the dedicated churn RNG stream. A final restore-only tick
    /// fires exactly at the window's end so no churn victim stays dead
    /// forever.
    fn handle_churn_tick(&mut self, now: SimTime, ctx: &mut Context<'_, Ev>) {
        let Some(mut churn) = self.churn.take() else {
            return;
        };
        for v in churn.take_restores() {
            if !self.fault.is_alive(v) {
                self.restore_node(v, now, ctx);
            }
        }
        let cfg = *churn.config();
        if now >= cfg.end {
            // Window closed: the tick above restored the last wave; done.
            self.churn = Some(churn);
            return;
        }
        let victims = churn.tick(&self.fault.alive_nodes(), self.node_count());
        self.tracer.emit(
            now,
            None,
            TraceKind::AttackAction,
            &[
                ("action", TraceValue::Str("churn_wave")),
                ("count", TraceValue::U64(victims.len() as u64)),
            ],
        );
        for v in victims {
            if self.fault.is_alive(v) {
                self.fault.kill(v);
                self.kill_node(v, now);
            }
        }
        let next = churn.next_wave(now).unwrap_or(cfg.end);
        ctx.schedule_at(next, Ev::ChurnTick);
        self.churn = Some(churn);
    }

    /// The adaptive adversary strikes: rank alive nodes by the pledge/help
    /// traffic it has *observed* (messages sent — no oracle access to queue
    /// state or protocol internals) and kill the top talkers. Victims come
    /// back after the configured downtime.
    fn handle_adversary_strike(&mut self, now: SimTime, ctx: &mut Context<'_, Ev>) {
        let Some(adv) = self.chaos.adversary else {
            return;
        };
        let mut ranked: Vec<(std::cmp::Reverse<u64>, NodeId)> = (0..self.node_count())
            .filter(|&n| self.fault.is_alive(n))
            .map(|n| (std::cmp::Reverse(self.sent_traffic[n]), n))
            .collect();
        ranked.sort(); // most-observed first, stable id tie-break
        let victims: Vec<NodeId> = ranked.into_iter().take(adv.kills).map(|(_, n)| n).collect();
        self.tracer.emit(
            now,
            None,
            TraceKind::AttackAction,
            &[
                ("action", TraceValue::Str("adversary_strike")),
                ("count", TraceValue::U64(victims.len() as u64)),
            ],
        );
        for &v in &victims {
            self.fault.kill(v);
            self.kill_node(v, now);
        }
        if !victims.is_empty() {
            ctx.schedule_in(adv.downtime, Ev::AdversaryRestore { victims });
        }
        let next = now + adv.interval;
        if next < adv.end {
            ctx.schedule_at(next, Ev::AdversaryStrike);
        }
    }

    fn close_window(&mut self, now: SimTime, ctx: &mut Context<'_, Ev>) {
        let Some(w) = self.window else { return };
        let mut stat = std::mem::take(&mut self.current_window);
        stat.alive_nodes = self.fault.alive_count();
        self.result.windows.push(stat);
        self.current_window.start = now;
        // Sample Algorithm-H interval dynamics across alive nodes.
        let mut sum = 0.0;
        let mut max = 0.0f64;
        let mut n = 0u32;
        for node in 0..self.node_count() {
            if !self.fault.is_alive(node) {
                continue;
            }
            if let Some(iv) = self.protos[node].introspect(now).help_interval_secs {
                sum += iv;
                max = max.max(iv);
                n += 1;
            }
        }
        if n > 0 {
            self.result
                .interval_series
                .push((now, sum / f64::from(n), max));
        }
        ctx.schedule_in(w, Ev::WindowTick);
    }

    /// Seed the engine with the initial events and protocol start-up.
    pub fn prime(&mut self, engine: &mut Engine<Ev>) {
        struct Primer<'a>(&'a mut World);
        impl Handler for Primer<'_> {
            type Event = Ev;
            fn handle(&mut self, _ev: Ev, ctx: &mut Context<'_, Ev>) {
                let world = &mut *self.0;
                for node in 0..world.node_count() {
                    let view = world.view(node, ctx.now());
                    world.protos[node].on_start(ctx.now(), view, &mut world.actions);
                    world.process_actions(node, ctx.now(), ctx);
                }
                if let Some(first) = world.trace.records.first() {
                    ctx.schedule_at(first.at, Ev::Arrival(0));
                }
                for (i, a) in world.attack.events().iter().enumerate() {
                    ctx.schedule_at(a.at, Ev::Attack(i));
                }
                if let Some(churn) = &world.churn {
                    ctx.schedule_at(churn.first_wave(), Ev::ChurnTick);
                }
                if let Some(adv) = world.chaos.adversary {
                    ctx.schedule_at(adv.start, Ev::AdversaryStrike);
                }
                if let Some(w) = world.window {
                    ctx.schedule_in(w, Ev::WindowTick);
                }
            }
        }
        engine.schedule_at(SimTime::ZERO, Ev::WindowTick); // reused as a boot event
        let mut primer = Primer(self);
        engine.run(&mut primer, SimTime::ZERO, 1);
    }

    /// Finish the run: close the last window, validate and return metrics.
    /// The world is left drained of its result and should be discarded.
    pub fn finish(&mut self, engine: &Engine<Ev>) -> SimResult {
        // Negotiations still in flight at the horizon resolve as rejections
        // so `offered == admitted + rejected` holds for every run.
        let unresolved: Vec<u64> = self.pending.keys().copied().collect();
        for attempt in unresolved {
            self.resolve_migration(attempt, engine.now(), false, None);
        }
        // Checkpoints never claimed by the horizon are destroyed, keeping
        // the interrupted-task ledger balanced.
        let unclaimed: Vec<NodeId> = self.orphans.keys().copied().collect();
        for node in unclaimed {
            let set = self.orphans.remove(&node).expect("key just listed");
            if set.counted {
                self.result.tasks_destroyed += set.tasks.len() as u64;
                self.result.work_destroyed += set.tasks.iter().map(|&(_, s)| s).sum::<f64>();
            }
        }
        if self.window.is_some() && (self.current_window.offered > 0) {
            let mut stat = self.current_window;
            stat.alive_nodes = self.fault.alive_count();
            self.result.windows.push(stat);
            self.current_window = WindowStat::default();
        }
        let now = engine.now();
        let elapsed = now.as_secs_f64();
        for node in 0..self.node_count() {
            self.occ_sync(node, now);
            if elapsed > 0.0 {
                self.result.node_stats[node].mean_occupancy =
                    self.occ[node].0 / elapsed / self.capacity_secs;
            }
        }
        let mut result = std::mem::take(&mut self.result);
        result.events_processed = engine.processed();
        result.queue_high_water = engine.queue_high_water() as u64;
        result.validate();
        result
    }
}

impl Handler for World {
    type Event = Ev;

    fn handle(&mut self, ev: Ev, ctx: &mut Context<'_, Ev>) {
        let now = ctx.now();
        match ev {
            Ev::Arrival(idx) => self.handle_arrival(idx, now, ctx),
            Ev::FloodDeliver { from, msg } => {
                // Deliver to every alive node in the sender's scope, in id
                // order (deterministic). Under an active partition the flood
                // dies at the cut: recipients across it never hear it.
                let partitioned = self.fault.has_partition();
                for ri in 0..self.scope_len(from) {
                    let to = self.scope_member(from, ri);
                    if !self.fault.is_alive(to) {
                        continue;
                    }
                    // Distances are symmetric; `reachable(to, from)` reads
                    // the sender's row alone.
                    if partitioned && !self.fault.routing(&self.topology).reachable(to, from) {
                        self.note_partition_drop(now);
                        continue;
                    }
                    let view = self.view(to, now);
                    self.protos[to].on_message(now, from, &msg, view, &mut self.actions);
                    self.process_actions(to, now, ctx);
                }
            }
            Ev::Deliver { from, to, msg } => {
                if self.fault.is_alive(to) {
                    let view = self.view(to, now);
                    self.protos[to].on_message(now, from, &msg, view, &mut self.actions);
                    self.process_actions(to, now, ctx);
                }
            }
            Ev::Timer { node, token } => {
                if self.fault.is_alive(node) {
                    let view = self.view(node, now);
                    self.protos[node].on_timer(now, token, view, &mut self.actions);
                    self.process_actions(node, now, ctx);
                }
            }
            Ev::Drain { node, gen } => {
                if gen == self.drain_gen[node] && self.fault.is_alive(node) {
                    let view = self.view(node, now);
                    self.protos[node].on_usage_change(now, view, &mut self.actions);
                    self.process_actions(node, now, ctx);
                }
            }
            Ev::Attack(idx) => self.handle_attack(idx, now, ctx),
            Ev::DelayedKill { victims } => {
                for v in victims {
                    if self.fault.is_alive(v) {
                        self.fault.kill(v);
                        self.kill_node(v, now);
                    }
                }
            }
            Ev::ChurnTick => self.handle_churn_tick(now, ctx),
            Ev::AdversaryStrike => self.handle_adversary_strike(now, ctx),
            Ev::AdversaryRestore { victims } => {
                for v in victims {
                    if !self.fault.is_alive(v) {
                        self.restore_node(v, now, ctx);
                    }
                }
            }
            Ev::WindowTick => self.close_window(now, ctx),
            Ev::MigrateRequest { attempt } => self.handle_migrate_request(attempt, now, ctx),
            Ev::MigrateReply { attempt, admitted } => {
                self.resolve_migration(attempt, now, admitted, Some(ctx))
            }
            Ev::MigrateTimeout { attempt, try_no } => {
                self.handle_migrate_timeout(attempt, try_no, now, ctx)
            }
        }
    }
}

/// Run one scenario to completion and return its metrics.
///
/// ```
/// use realtor_core::ProtocolKind;
/// use realtor_sim::{run_scenario, Scenario};
///
/// let r = run_scenario(&Scenario::paper(ProtocolKind::Realtor, 2.0, 100, 1));
/// assert_eq!(r.offered, r.admitted() + r.rejected);
/// assert!(r.admission_probability() > 0.99); // light load admits everything
/// ```
pub fn run_scenario(scenario: &Scenario) -> SimResult {
    let mut world = World::new(scenario);
    run_world(&mut world, scenario)
}

/// Run a scenario with a custom protocol factory.
pub fn run_scenario_with(scenario: &Scenario, build: &mut ProtocolBuilder<'_>) -> SimResult {
    let mut world = World::with_protocols(scenario, build);
    run_world(&mut world, scenario)
}

fn run_world(world: &mut World, scenario: &Scenario) -> SimResult {
    let mut engine = Engine::new();
    world.prime(&mut engine);
    let outcome = engine.run_until(world, scenario.horizon());
    debug_assert!(matches!(outcome, RunOutcome::Drained | RunOutcome::Horizon));
    world.finish(&engine)
}

/// Run one scenario with the given tracer attached to the world and every
/// protocol instance. With a disabled tracer this is exactly
/// [`run_scenario`]; with an enabled one the simulation is unchanged
/// bit-for-bit (tracing is strictly observational) and the caller can pull
/// the events out of the tracer afterwards.
pub fn run_scenario_traced(scenario: &Scenario, tracer: Tracer) -> SimResult {
    let mut world = World::new(scenario);
    world.set_tracer(tracer);
    run_world(&mut world, scenario)
}

/// Events per timing chunk of the profiled main loop: small enough to
/// resolve latency spikes (GC-free, so spikes mean queue restructuring or
/// cache effects), large enough that `Instant::now` overhead stays noise.
const PROFILE_CHUNK_EVENTS: u64 = 4096;

/// Wall-clock and engine profile of one simulation run, for bench output.
/// Wall times live here — never in [`SimResult`] — so results stay
/// deterministic.
#[derive(Debug, Clone)]
pub struct RunProfile {
    /// Wall nanoseconds spent priming the world (start-up floods).
    pub prime_nanos: u128,
    /// Wall nanoseconds spent in the main event loop.
    pub run_nanos: u128,
    /// Wall nanoseconds spent finalizing metrics.
    pub finish_nanos: u128,
    /// Total events the engine processed.
    pub events_processed: u64,
    /// Deepest the event queue ever got.
    pub queue_high_water: u64,
    /// Wall nanoseconds of each 4096-event chunk of the main loop, as a
    /// mergeable histogram: the tail (p99/p999) exposes latency spikes
    /// that the aggregate events/sec hides.
    pub chunk_nanos: LogHistogram,
}

impl RunProfile {
    /// Events processed per wall-clock second of the main loop.
    pub fn events_per_sec(&self) -> f64 {
        if self.run_nanos == 0 {
            return 0.0;
        }
        self.events_processed as f64 / (self.run_nanos as f64 / 1e9)
    }
}

/// Run one scenario and measure where the wall time went. The returned
/// [`SimResult`] is identical to [`run_scenario`]'s for the same scenario.
pub fn run_scenario_profiled(scenario: &Scenario) -> (SimResult, RunProfile) {
    run_profiled_inner(scenario, Tracer::disabled())
}

/// [`run_scenario_profiled`] with a tracer attached (the CI overhead gate
/// compares this against the untraced profile). The [`SimResult`] is
/// bit-identical either way — tracing is strictly observational.
pub fn run_scenario_traced_profiled(
    scenario: &Scenario,
    tracer: Tracer,
) -> (SimResult, RunProfile) {
    run_profiled_inner(scenario, tracer)
}

fn run_profiled_inner(scenario: &Scenario, tracer: Tracer) -> (SimResult, RunProfile) {
    let mut world = World::new(scenario);
    world.set_tracer(tracer);
    let mut engine = Engine::new();
    let t0 = std::time::Instant::now();
    world.prime(&mut engine);
    let t1 = std::time::Instant::now();
    // Chunked main loop: each budget-bounded engine slice is timed into
    // the histogram. The engine processes the same events in the same
    // order as a single `run_until`, so results are unchanged.
    let mut chunk_nanos = LogHistogram::new();
    let outcome = loop {
        let c0 = std::time::Instant::now();
        let outcome = engine.run(&mut world, scenario.horizon(), PROFILE_CHUNK_EVENTS);
        chunk_nanos.record(c0.elapsed().as_nanos().min(u64::MAX as u128) as u64);
        if !matches!(outcome, RunOutcome::Budget) {
            break outcome;
        }
    };
    debug_assert!(matches!(outcome, RunOutcome::Drained | RunOutcome::Horizon));
    let t2 = std::time::Instant::now();
    let result = world.finish(&engine);
    let t3 = std::time::Instant::now();
    let profile = RunProfile {
        prime_nanos: (t1 - t0).as_nanos(),
        run_nanos: (t2 - t1).as_nanos(),
        finish_nanos: (t3 - t2).as_nanos(),
        events_processed: result.events_processed,
        queue_high_water: result.queue_high_water,
        chunk_nanos,
    };
    (result, profile)
}

#[cfg(test)]
mod tests {
    use super::*;
    use realtor_core::ProtocolKind;

    fn quick(protocol: ProtocolKind, lambda: f64, seed: u64) -> SimResult {
        run_scenario(&Scenario::paper(protocol, lambda, 300, seed))
    }

    #[test]
    fn light_load_admits_everything() {
        for kind in ProtocolKind::ALL {
            let r = quick(kind, 1.0, 1);
            assert!(r.offered > 200, "{kind}: offered {}", r.offered);
            assert!(
                r.admission_probability() > 0.99,
                "{kind}: admission {} at lambda=1",
                r.admission_probability()
            );
        }
    }

    #[test]
    fn heavy_load_rejects_some() {
        for kind in ProtocolKind::ALL {
            let r = quick(kind, 10.0, 2);
            let p = r.admission_probability();
            assert!(p < 0.95, "{kind}: admission {p} at lambda=10 is too high");
            assert!(p > 0.3, "{kind}: admission {p} at lambda=10 is too low");
        }
    }

    #[test]
    fn identical_seed_identical_result() {
        for kind in [ProtocolKind::Realtor, ProtocolKind::PurePush] {
            let a = quick(kind, 6.0, 7);
            let b = quick(kind, 6.0, 7);
            assert_eq!(a.offered, b.offered);
            assert_eq!(a.admitted(), b.admitted());
            assert_eq!(a.ledger, b.ledger);
            assert_eq!(a.migration_successes, b.migration_successes);
        }
    }

    #[test]
    fn pure_push_cost_is_load_independent() {
        let light = quick(ProtocolKind::PurePush, 1.0, 3);
        let heavy = quick(ProtocolKind::PurePush, 9.0, 3);
        // Periodic dissemination: push cost is the same regardless of load
        // (migration negotiation differs, so compare the push component).
        let rel = (light.ledger.push - heavy.ledger.push).abs() / light.ledger.push;
        assert!(rel < 0.01, "push cost varied with load by {rel}");
        assert!(light.ledger.push > 0.0);
    }

    #[test]
    fn realtor_quiet_when_idle() {
        let r = quick(ProtocolKind::Realtor, 0.5, 4);
        // Load is far below every threshold: no HELP should ever be sent.
        assert_eq!(r.ledger.help_count, 0, "helps: {}", r.ledger.help_count);
        assert_eq!(r.ledger.pledge_count, 0);
        assert_eq!(r.total_messages(), 0.0);
    }

    #[test]
    fn migrations_happen_under_overload() {
        let r = quick(ProtocolKind::Realtor, 8.0, 5);
        assert!(r.migration_successes > 0, "no migrations at lambda=8");
        assert!(r.admitted_migrated == r.migration_successes);
    }

    #[test]
    fn attacks_reduce_admission() {
        use realtor_net::TargetingStrategy;
        use realtor_workload::AttackScenario;
        let base = Scenario::paper(ProtocolKind::Realtor, 4.0, 300, 6);
        let calm = run_scenario(&base);
        let attacked = run_scenario(
            &Scenario::paper(ProtocolKind::Realtor, 4.0, 300, 6).with_attack(
                AttackScenario::strike_and_recover(
                    SimTime::from_secs(100),
                    SimTime::from_secs(200),
                    12,
                ),
                TargetingStrategy::Random,
            ),
        );
        assert!(attacked.lost_to_attacks > 0);
        assert!(attacked.admission_probability() < calm.admission_probability());
    }

    #[test]
    fn windows_partition_offered_tasks() {
        let s = Scenario::paper(ProtocolKind::Realtor, 5.0, 300, 8)
            .with_window(SimDuration::from_secs(50));
        let r = run_scenario(&s);
        let total: u64 = r.windows.iter().map(|w| w.offered).sum();
        assert_eq!(total, r.offered);
        assert!(r.windows.len() >= 5);
    }
}
