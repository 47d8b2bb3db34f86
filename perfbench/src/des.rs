//! The three simulator workloads: their scenarios, the timed passes that
//! run them, and the correctness gate on their results.
//!
//! One *pass* builds each scenario's world (set-up), then primes, runs and
//! finishes it (run), one scenario after another. The event loop advances
//! one step per `Engine::run_until` call (one simulated second, a tenth of
//! one on `mesh_scale`), and each call is timed: the host time to simulate
//! one step is the workload's latency sample. The engine handles
//! the same events in the same order however the horizon is split, so the
//! results equal `run_scenario`'s, which the stored digests check.
//!
//! Untraced passes stop between calls for a piece of the host speed gauge
//! (`calib`), outside the timed calls, and report gauged seconds.

use crate::calib::{self, Gauge};
use crate::probe::{self, Probed, TimedWorld};
use crate::report::{self, median, FineHist, Outcome, CALLBACKS, EVENT_KINDS};
use realtor_core::{FailureDetectorConfig, ProtocolConfig, ProtocolKind};
use realtor_net::{CostModel, FaultState, LinkQuality, NodeId, Routing, Topology};
use realtor_sim::world::Ev;
use realtor_sim::{run_scenario, ChaosConfig, RecoveryConfig, Scenario, SimResult, World};
use realtor_simcore::rng::indexed_child_seed;
use realtor_simcore::{Engine, Handler, SimDuration, SimTime};
use realtor_workload::ChurnConfig;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// The simulator workloads.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Des {
    /// Figures 5–8: 5×5 mesh, five protocols × λ ∈ {2, 4, 6, 8, 10}.
    PaperMesh,
    /// REALTOR on a 40×40 mesh at 0.24 tasks/s per node, 50 s queues.
    MeshScale,
    /// REALTOR on a 20×20 mesh with churn, a lossy channel, a failure
    /// detector and reactive recovery.
    ChurnRecovery,
}

/// Per-node arrival rate of the scaled workloads: the paper's λ = 6 on 25
/// nodes.
const PER_NODE_LAMBDA: f64 = 6.0 / 25.0;

/// The seed whose digests are stored: its pass runs first in every run, as
/// warm-up and as the oracle check.
pub const CANARY_SEED: u64 = 1;

/// `(workload, seed, digest)` of `run_scenario` on the workload's
/// scenarios; regenerate with `--print-digest <seed>`.
const EXPECTED: &[(&str, u64, u64)] = &[
    ("paper_mesh", 1, 0x256a0ae462668269),
    ("mesh_scale", 1, 0x5649b8d6215aaeb4),
    ("churn_recovery", 1, 0xc9e7095b4802261a),
    ("paper_mesh", 424242, 0xb77a1201e04c9ab2),
    ("mesh_scale", 424242, 0x1daeee40648c4fdd),
    ("churn_recovery", 424242, 0x8319905b40d72379),
];

impl Des {
    /// Independent replications a run cycles through, one per pass, so
    /// that no single seed's dynamics decide the run's figures. Pass times
    /// differ between replications by about 2 % on `paper_mesh`, 5 % on
    /// `mesh_scale` and 11 % on `churn_recovery`, whose short passes let a
    /// run cover many.
    fn replications(self) -> usize {
        match self {
            Des::PaperMesh => 4,
            Des::MeshScale => 8,
            Des::ChurnRecovery => 32,
        }
    }

    /// Simulated time per `Engine::run_until` call: one latency sample.
    /// `mesh_scale` takes tenths of a second, so that a run has thousands of
    /// samples, enough for a steady 99th percentile.
    fn step(self) -> SimDuration {
        match self {
            Des::PaperMesh | Des::ChurnRecovery => SimDuration::from_secs(1),
            Des::MeshScale => SimDuration::from_millis(100),
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Des::PaperMesh => "paper_mesh",
            Des::MeshScale => "mesh_scale",
            Des::ChurnRecovery => "churn_recovery",
        }
    }

    pub fn scenarios(self, seed: u64) -> Vec<Scenario> {
        match self {
            Des::PaperMesh => ProtocolKind::ALL
                .iter()
                .flat_map(|&p| {
                    [2.0, 4.0, 6.0, 8.0, 10.0]
                        .map(|lambda| Scenario::paper(p, lambda, 10_000, seed))
                })
                .collect(),
            // Half the paper's queue capacity: HELP floods then run as a
            // steady process within the 40 s horizon. With 100 s queues
            // they are rare threshold crossings of a filling queue, and
            // their number (and so the run time) swings ±15 % by seed.
            Des::MeshScale => vec![scaled(40, 40, seed).with_capacity(50.0)],
            Des::ChurnRecovery => {
                let detector = FailureDetectorConfig {
                    suspect_after: SimDuration::from_secs(5),
                    confirm_after: SimDuration::from_secs(2),
                    sweep_interval: SimDuration::from_secs(1),
                };
                let churn = ChurnConfig::new(
                    0.10,
                    SimDuration::from_secs(10),
                    SimTime::from_secs(60),
                    SimTime::from_secs(210),
                );
                vec![scaled(20, 300, seed)
                    .with_protocol_config(ProtocolConfig::paper().with_failure_detector(detector))
                    .with_channel(LinkQuality::lossy(0.05))
                    .with_recovery(RecoveryConfig::reactive())
                    .with_chaos(ChaosConfig::churn(churn))
                    .with_window(SimDuration::from_secs(10))]
            }
        }
    }
}

/// Seed of replication `r` of a run: the run's own seed first, then
/// children of it.
fn replication_seed(seed: u64, r: usize) -> u64 {
    if r == 0 {
        seed
    } else {
        indexed_child_seed(seed, "perfbench-replication", r as u64)
    }
}

/// A run's inputs: its replications' scenarios, and for each the digest
/// its passes must reproduce (stored, or else taken from its first pass).
struct Inputs {
    seeds: Vec<u64>,
    scenarios: Vec<Vec<Scenario>>,
    digests: Vec<Option<u64>>,
}

impl Inputs {
    fn new(w: Des, seed: u64) -> Self {
        let seeds: Vec<u64> = (0..w.replications())
            .map(|r| replication_seed(seed, r))
            .collect();
        Inputs {
            scenarios: seeds.iter().map(|&s| w.scenarios(s)).collect(),
            digests: seeds.iter().map(|&s| expected(w, s)).collect(),
            seeds,
        }
    }

    /// The scenarios of pass `i`.
    fn get(&self, i: usize) -> &[Scenario] {
        &self.scenarios[i % self.seeds.len()]
    }

    /// Check pass `i`'s results.
    fn check(&mut self, out: &mut Outcome, w: Des, i: usize, p: &Pass) {
        let r = i % self.seeds.len();
        check_pass(out, w, self.seeds[r], p, self.digests[r]);
        self.digests[r] = self.digests[r].or(p.digest());
    }
}

/// REALTOR on a `side × side` mesh at [`PER_NODE_LAMBDA`].
fn scaled(side: usize, horizon_secs: u64, seed: u64) -> Scenario {
    let n = side * side;
    Scenario::paper(
        ProtocolKind::Realtor,
        PER_NODE_LAMBDA * n as f64,
        horizon_secs,
        seed,
    )
    .with_topology(Topology::mesh(side, side))
}

/// FNV-1a over each result's offered/admitted/rejected/migration counts,
/// message totals, recovery ledger and event count.
pub fn digest(results: &[SimResult]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for r in results {
        let l = &r.ledger;
        for x in [
            r.offered,
            r.admitted_local,
            r.admitted_migrated,
            r.rejected,
            r.migration_attempts,
            r.migration_successes,
            l.help_count,
            l.pledge_count,
            l.push_count,
            l.migration_count,
            l.lost_count,
            r.total_messages().to_bits(),
            r.tasks_interrupted,
            r.tasks_recovered,
            r.tasks_destroyed,
            r.events_processed,
        ] {
            for b in x.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    h
}

fn expected(w: Des, seed: u64) -> Option<u64> {
    EXPECTED
        .iter()
        .find(|&&(name, s, _)| name == w.name() && s == seed)
        .map(|&(_, _, d)| d)
}

/// The reference digest, from the library's own `run_scenario`.
pub fn reference_digest(w: Des, seed: u64) -> u64 {
    let results: Vec<SimResult> = w.scenarios(seed).iter().map(run_scenario).collect();
    digest(&results)
}

/// What one pass measured. `results` is `None` for a scenario that
/// panicked (a failed `SimResult::validate`, say).
struct Pass {
    setup: Duration,
    run: Duration,
    prime: Duration,
    looped: Duration,
    finish: Duration,
    setup_rss_mb: f64,
    /// How much slower than nominal the gauge ran over this pass (1 when
    /// ungauged).
    slowdown: f64,
    results: Vec<Option<SimResult>>,
}

impl Pass {
    fn admitted(&self) -> u64 {
        self.results.iter().flatten().map(SimResult::admitted).sum()
    }

    fn digest(&self) -> Option<u64> {
        let all: Option<Vec<SimResult>> = self.results.iter().cloned().collect();
        all.map(|r| digest(&r))
    }
}

/// Advance `h` to `horizon` one `step` per call, and return the time spent
/// in those calls. `steps` collects each call's time; `gauge`
/// runs a piece of its work between calls whenever one is due.
fn drive<H: Handler<Event = Ev>>(
    h: &mut H,
    engine: &mut Engine<Ev>,
    horizon: SimTime,
    step: SimDuration,
    steps: &mut Option<&mut Vec<u32>>,
    gauge: &mut Option<&mut Gauge>,
) -> Duration {
    let mut t = SimTime::ZERO;
    let mut spent = Duration::ZERO;
    while t < horizon {
        t = (t + step).min(horizon);
        let t0 = Instant::now();
        engine.run_until(h, t);
        let dt = t0.elapsed();
        spent += dt;
        if let Some(samples) = steps.as_deref_mut() {
            samples.push(dt.as_nanos().min(u32::MAX.into()) as u32);
        }
        if let Some(g) = gauge.as_deref_mut() {
            g.tick();
        }
    }
    spent
}

/// One pass over the workload's scenarios, one world at a time, so that a
/// pass's working set is one world's. `traced` installs both probes;
/// `steps` (untraced passes only) collects the per-step latency samples;
/// `gauge` times a piece of its fixed work before each scenario and every
/// `calib::EVERY` of the event loop.
fn pass(
    scenarios: &[Scenario],
    step: SimDuration,
    traced: bool,
    mut steps: Option<&mut Vec<u32>>,
    mut gauge: Option<&mut Gauge>,
) -> Pass {
    let mark = gauge.as_ref().map(|g| g.mark());
    let mut setup = Duration::ZERO;
    let (mut prime, mut looped, mut finish) = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    let mut setup_rss_mb: f64 = 0.0;
    let mut results = Vec::with_capacity(scenarios.len());
    for s in scenarios {
        if let Some(g) = gauge.as_deref_mut() {
            g.piece();
        }
        let t = Instant::now();
        let mut world = if traced {
            let peers: Vec<NodeId> = s.topology.nodes().collect();
            World::with_protocols(s, &mut |node| {
                Box::new(Probed(s.protocol.build(
                    node,
                    s.protocol_config,
                    &peers,
                    s.capacity_secs,
                )))
            })
        } else {
            World::new(s)
        };
        setup += t.elapsed();
        setup_rss_mb = setup_rss_mb.max(report::status_mb("VmRSS"));
        let run = catch_unwind(AssertUnwindSafe(|| {
            let mut engine = Engine::new();
            let a = Instant::now();
            world.prime(&mut engine);
            let b = Instant::now();
            let looped = if traced {
                drive(
                    &mut TimedWorld(&mut world),
                    &mut engine,
                    s.horizon(),
                    step,
                    &mut None,
                    &mut None,
                )
            } else {
                drive(
                    &mut world,
                    &mut engine,
                    s.horizon(),
                    step,
                    &mut steps,
                    &mut gauge,
                )
            };
            let c = Instant::now();
            let r = world.finish(&engine);
            r.validate();
            let d = Instant::now();
            (r, b - a, looped, d - c)
        }));
        results.push(run.ok().map(|(r, p, l, f)| {
            prime += p;
            looped += l;
            finish += f;
            r
        }));
    }
    Pass {
        setup,
        run: prime + looped + finish,
        prime,
        looped,
        finish,
        setup_rss_mb,
        slowdown: match (&gauge, mark) {
            (Some(g), Some(m)) => g.slowdown(m),
            _ => 1.0,
        },
        results,
    }
}

/// Check a pass: every scenario finished and validated, and the digest
/// matches `want` (the stored oracle or the run's first pass).
fn check_pass(out: &mut Outcome, w: Des, seed: u64, p: &Pass, want: Option<u64>) {
    for (i, r) in p.results.iter().enumerate() {
        out.check(r.is_some(), || {
            format!(
                "{} seed {seed} scenario {i}: panicked or failed SimResult::validate",
                w.name()
            )
        });
    }
    if let (Some(want), Some(got)) = (want, p.digest()) {
        out.check(got == want, || {
            format!(
                "{} seed {seed}: digest {got:#018x}, expected {want:#018x}",
                w.name()
            )
        });
    }
}

/// The canary pass: warm-up, and the check against the stored digest.
fn canary(out: &mut Outcome, w: Des) -> Pass {
    let p = pass(&w.scenarios(CANARY_SEED), w.step(), false, None, None);
    let want = expected(w, CANARY_SEED);
    out.check(want.is_some(), || {
        format!("{}: no stored digest for seed {CANARY_SEED}", w.name())
    });
    check_pass(out, w, CANARY_SEED, &p, want);
    p
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Traced runs make at least this many pairs of passes, however short
/// `--seconds` is. Untraced runs cover every replication at least once.
const MIN_PASSES: usize = 3;

/// The mean over replications of each replication's median, where pass `i`
/// ran replication `i % reps`: every replication weighs the same however
/// many passes the run had time for.
fn balanced(per_pass: &[f64], reps: usize) -> f64 {
    let medians: Vec<f64> = (0..reps.min(per_pass.len()))
        .map(|r| {
            median(
                &per_pass
                    .iter()
                    .skip(r)
                    .step_by(reps)
                    .copied()
                    .collect::<Vec<_>>(),
            )
        })
        .collect();
    medians.iter().sum::<f64>() / medians.len().max(1) as f64
}

/// `--trace 0`: the end-to-end metrics, in gauged seconds (see `calib`):
/// each pass's host times are divided by the gauge's slowdown over it.
pub fn measure(w: Des, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    canary(&mut out, w);
    let mut inputs = Inputs::new(w, seed);
    let mut gauge = Gauge::new();
    let mut steps = FineHist::new();
    let mut samples = Vec::new();
    let (mut setup, mut run, mut rates) = (Vec::new(), Vec::new(), Vec::new());
    let (mut host_run, mut slowdown) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while run.len() < w.replications() || start.elapsed().as_secs_f64() < seconds {
        let i = run.len();
        samples.clear();
        let p = pass(
            inputs.get(i),
            w.step(),
            false,
            Some(&mut samples),
            Some(&mut gauge),
        );
        inputs.check(&mut out, w, i, &p);
        for &ns in &samples {
            steps.record((f64::from(ns) / p.slowdown) as u64);
        }
        setup.push(secs(p.setup) / p.slowdown);
        run.push(secs(p.run) / p.slowdown);
        rates.push(p.admitted() as f64 / run[i]);
        host_run.push(secs(p.run));
        slowdown.push(p.slowdown);
    }
    let reps = w.replications();
    out.set("setup_s", balanced(&setup, reps));
    out.set("run_s", balanced(&run, reps));
    out.set("peak_rss_mb", report::status_mb("VmHWM"));
    out.set("admitted_per_s", balanced(&rates, reps));
    out.set("latency_p50_ms", steps.quantile(0.50) / 1e6);
    out.set("latency_p99_ms", steps.quantile(0.99) / 1e6);
    out.note(format!(
        "{}: {} passes over {} replication(s) of {} scenario(s); latency = gauged time per {} simulated s, {} samples",
        w.name(),
        run.len(),
        w.replications(),
        inputs.get(0).len(),
        w.step().as_secs_f64(),
        steps.count()
    ));
    let list = |xs: &[f64]| {
        xs.iter()
            .map(|x| format!("{x:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    out.note(format!("  gauged set-up s per pass: {}", list(&setup)));
    out.note(format!("  gauged run s per pass: {}", list(&run)));
    out.note(format!(
        "  host run s per pass: {} (median {:.3})",
        list(&host_run),
        median(&host_run)
    ));
    out.note(format!(
        "  gauge slowdown per pass: {} ({} pieces, {:.1} us each on average, {:.0} us nominal)",
        list(&slowdown),
        gauge.pieces,
        gauge.spent.as_secs_f64() * 1e6 / f64::from(gauge.pieces.max(1)),
        calib::NOMINAL.as_secs_f64() * 1e6
    ));
    out
}

/// Set-up cost of the `net` and `workload` layers for the workload's
/// scenarios, timed by direct calls: (routing, fault state, cost model,
/// workload generation) seconds, each summed over the scenarios.
fn layer_setup(scenarios: &[Scenario]) -> [f64; 4] {
    let mut t = [0.0; 4];
    for s in scenarios {
        let a = Instant::now();
        let routing = Routing::new(&s.topology);
        let b = Instant::now();
        let fault = FaultState::new(&s.topology);
        let c = Instant::now();
        let (unicast, flood) = s.cost.charges();
        let cost = CostModel::new(&s.topology, &routing, unicast, flood);
        let d = Instant::now();
        let trace = s.workload.generate();
        let e = Instant::now();
        std::hint::black_box((&routing, &fault, &cost, &trace));
        for (slot, dt) in t.iter_mut().zip([b - a, c - b, d - c, e - d]) {
            *slot += secs(dt);
        }
    }
    t
}

/// `--trace 1`: untraced and traced passes alternate; the traced ones feed
/// the per-layer metrics and must reproduce the untraced results exactly.
///
/// Probe cost is taken out of every span with the [`probe::calibrate`]
/// figures, so a layer's time estimates what it costs untraced; what the
/// probes cost shows in `trace.overhead` and `trace.coverage` instead.
pub fn trace(w: Des, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let warm = canary(&mut out, w);
    out.set("mem.setup_rss_mb", warm.setup_rss_mb);
    let cal = probe::calibrate();
    let rate = probe::TickRate::start();
    let mut inputs = Inputs::new(w, seed);
    let (mut plain_run, mut traced_run) = (Vec::new(), Vec::new());
    let (mut prime, mut finish) = (Vec::new(), Vec::new());
    let (mut plain_loop, mut traced_loop) = (Duration::ZERO, Duration::ZERO);
    let mut high_water = 0;
    let start = Instant::now();
    while traced_run.len() < MIN_PASSES || start.elapsed().as_secs_f64() < seconds {
        let i = traced_run.len();
        let plain = pass(inputs.get(i), w.step(), false, None, None);
        inputs.check(&mut out, w, i, &plain);
        let traced = pass(inputs.get(i), w.step(), true, None, None);
        let same = plain
            .results
            .iter()
            .zip(&traced.results)
            .all(|(a, b)| a.is_some() && a == b);
        out.check(same, || {
            format!(
                "{} seed {seed}: traced results differ from untraced",
                w.name()
            )
        });
        plain_run.push(secs(plain.run));
        traced_run.push(secs(traced.run));
        prime.push(secs(traced.prime));
        finish.push(secs(traced.finish));
        plain_loop += plain.looped;
        traced_loop += traced.looped;
        high_water = traced
            .results
            .iter()
            .flatten()
            .map(|r| r.queue_high_water)
            .max()
            .unwrap_or(0);
    }
    let p = probe::take();
    let r = rate.ns_per_tick();
    let n = traced_run.len() as f64;
    let loop_ns = traced_loop.as_nanos() as f64;
    let ns = |ticks: f64| ticks.max(0.0) * r;

    let events: u64 = p.kinds.iter().map(|k| k.count).sum();
    let spans: f64 = p.kinds.iter().map(|k| k.ticks as f64).sum();
    let kind_self: Vec<f64> = p
        .kinds
        .iter()
        .map(|k| {
            let nested = k.nested_ticks as f64 + k.nested_calls as f64 * cal.call.around;
            ns(k.ticks as f64 - k.count as f64 * cal.event.floor - nested)
        })
        .collect();
    let call_ns = |c: &probe::CallStats| ns(c.ticks as f64 - c.count as f64 * cal.call.floor);
    let core_in_events: f64 = p
        .kinds
        .iter()
        .map(|k| ns(k.nested_ticks as f64 - k.nested_calls as f64 * cal.call.floor))
        .sum();
    let engine = (loop_ns - ns(spans + events as f64 * cal.event.around)).max(0.0);
    let sim_self: f64 = kind_self.iter().sum();
    let untraced_estimate = engine + sim_self + core_in_events;

    out.set("simcore.events", events as f64 / n);
    out.set("simcore.queue_high_water", high_water as f64);
    out.set(
        "simcore.self_ns_per_event",
        if events > 0 {
            engine / events as f64
        } else {
            0.0
        },
    );
    for ((kind, k), self_ns) in EVENT_KINDS.iter().zip(&p.kinds).zip(&kind_self) {
        out.set(format!("sim.{kind}.count"), k.count as f64 / n);
        out.set(format!("sim.{kind}.self_ns"), self_ns / n);
        let p99 = if k.count > 0 {
            ns(k.hist.quantile(0.99) as f64 - cal.event.floor)
        } else {
            0.0
        };
        out.set(format!("sim.{kind}.p99_ns"), p99);
    }
    let ratio = |a: u64, b: u64| if b > 0 { a as f64 / b as f64 } else { 0.0 };
    out.set(
        "sim.deliveries_per_flood",
        ratio(p.flood_deliveries, p.kinds[1].count),
    );
    out.set("sim.prime_s", median(&prime));
    out.set("sim.finish_s", median(&finish));
    for (cb, c) in CALLBACKS.iter().zip(&p.calls) {
        out.set(format!("core.{cb}.count"), c.count as f64 / n);
        out.set(format!("core.{cb}.ns"), call_ns(c) / n);
    }
    out.set("core.pick_candidate.hit_ratio", ratio(p.picks_hit, p.picks));
    out.set(
        "core.migration.accept_ratio",
        ratio(p.migrations_accepted, p.migration_results),
    );
    out.set("core.floods_emitted", p.floods_emitted as f64 / n);
    out.set("core.unicasts_emitted", p.unicasts_emitted as f64 / n);
    out.set("core.timers_armed", p.timers_armed as f64 / n);

    let reps: Vec<[f64; 4]> = (0..3).map(|_| layer_setup(inputs.get(0))).collect();
    for (i, name) in [
        "net.routing_build_s",
        "net.fault_state_build_s",
        "net.cost_model_build_s",
        "workload.generate_s",
    ]
    .into_iter()
    .enumerate()
    {
        out.set(name, median(&reps.iter().map(|r| r[i]).collect::<Vec<_>>()));
    }
    let overhead = median(&traced_run) / median(&plain_run);
    let coverage = (sim_self + core_in_events) / loop_ns;
    out.set("trace.overhead", overhead);
    out.set("trace.coverage", coverage);

    out.note(format!(
        "{}: {} untraced + {} traced passes; trace.overhead {overhead:.3}, trace.coverage {coverage:.3}",
        w.name(),
        plain_run.len(),
        traced_run.len(),
    ));
    out.note(format!(
        "  calibrated probe cost per call {:.1} ns, per event {:.1} ns; \
         untraced loop {:.3} s measured, {:.3} s estimated from the trace",
        ns(cal.call.floor + cal.call.around),
        ns(cal.event.floor + cal.event.around),
        plain_loop.as_secs_f64() / n,
        untraced_estimate / 1e9 / n
    ));
    let share = |x: f64| 100.0 * x / untraced_estimate;
    let mut sim: Vec<(&str, f64)> = EVENT_KINDS
        .iter()
        .copied()
        .zip(kind_self.iter().copied())
        .collect();
    sim.push(("(engine)", engine));
    let mut core: Vec<(&str, f64)> = CALLBACKS
        .iter()
        .zip(&p.calls)
        .map(|(c, s)| (*c, call_ns(s)))
        .collect();
    core.push(("(other callbacks)", call_ns(&p.other_calls)));
    for (layer, mut rows) in [("sim self", sim), ("core", core)] {
        rows.sort_by(|a, b| b.1.total_cmp(&a.1));
        let top: Vec<String> = rows
            .iter()
            .take(4)
            .filter(|r| r.1 > 0.0)
            .map(|(name, x)| format!("{name} {:.1}%", share(*x)))
            .collect();
        out.note(format!(
            "  top {layer} time (share of untraced loop): {}",
            top.join(", ")
        ));
    }
    out.note(format!(
        "  core {:.1}%, sim self {:.1}%, engine {:.1}% of the untraced loop",
        share(core_in_events),
        share(sim_self),
        share(engine)
    ));
    out
}
