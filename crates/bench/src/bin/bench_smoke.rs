//! Fast smoke benchmark used by `scripts/ci.sh`: exercises one hot kernel
//! per layer (codec, event queue, sampler, one scaled-down simulation run)
//! with a tiny sample count and writes `results/bench_smoke.json` as JSON
//! lines, proving the in-tree runner end to end in a few seconds.

use realtor_agile::codec::{decode_message, encode_message};
use realtor_bench::{bench_scenario, Runner};
use realtor_core::{Message, Pledge, ProtocolKind};
use realtor_sim::{run_scenario, run_scenario_profiled, run_scenario_traced_profiled};
use realtor_simcore::trace::{Severity, Tracer};
use realtor_simcore::{EventQueue, HeapQueue, SimRng, SimTime};
use std::io::Write as _;

/// Number of events kept pending during the deep-queue stress phase: the
/// regime a 200k-node mesh puts the queue in (one armed protocol timer
/// per node, expiries spread over roughly a second of simulated time,
/// plus ~1% long-TTL stragglers).
const STRESS_PENDING: usize = 200_000;

/// The payload both queue stresses schedule: exactly as large as the
/// simulator's event enum, so both queues move realistic freight.
type Freight = [u64; 8];
const _: () = assert!(size_of::<Freight>() == size_of::<realtor_sim::world::Ev>());

/// Deterministic deep-queue workload: fill to `STRESS_PENDING` events,
/// hold the depth steady across `2 * STRESS_PENDING` pop-then-reschedule
/// steps, then drain. Returns a checksum so the work cannot be optimized
/// away — and so the two queues can be asserted to have processed
/// identical streams.
macro_rules! stress_workload {
    ($queue:expr) => {{
        let mut q = $queue;
        let mut rng = SimRng::from_seed(0xDEE9);
        let mut check = 0u64;
        let mut now = 0u64;
        let sched_time = |rng: &mut SimRng, now: u64| -> u64 {
            if rng.u64() % 100 == 0 {
                now + 1_000_000_000 + rng.u64() % 1_000_000_000
            } else {
                now + 1_000 + rng.u64() % 1_000_000_000
            }
        };
        for i in 0..STRESS_PENDING as u64 {
            let t = sched_time(&mut rng, now);
            q.schedule(SimTime::from_ticks(t), [i, t, 0, 0, 0, 0, 0, 0] as Freight);
        }
        for i in 0..(2 * STRESS_PENDING) as u64 {
            let (t, ev) = q.pop().expect("queue holds events");
            now = t.ticks();
            check = check.wrapping_mul(31).wrapping_add(ev[0]).wrapping_add(now);
            let nt = sched_time(&mut rng, now);
            q.schedule(SimTime::from_ticks(nt), [i, nt, 1, 0, 0, 0, 0, 0]);
        }
        while let Some((t, ev)) = q.pop() {
            check = check
                .wrapping_mul(31)
                .wrapping_add(ev[0])
                .wrapping_add(t.ticks());
        }
        check
    }};
}

/// Background protocol timers in the burst stress, spread over 60 s.
const BURST_TIMERS: u64 = 4_000;

/// Copies of one flood: one per other node of a 400-node world.
const BURST_COPIES: u64 = 399;

/// Deterministic lossy-flood workload, the `churn_recovery` pattern:
/// `BURST_TIMERS` background timers over 60 s; every 64th timer to fire
/// floods `BURST_COPIES` per-recipient copies at one instant 13 ms later
/// (inside the band being drained), and every other copy replies 1–40 ms
/// after it arrives. Each popped event feeds the checksum, as in
/// `stress_workload`.
macro_rules! burst_workload {
    ($queue:expr) => {{
        const MS: u64 = 1_000_000;
        let mut q = $queue;
        let mut rng = SimRng::from_seed(0xB0257);
        let mut check = 0u64;
        for i in 0..BURST_TIMERS {
            let t = rng.u64() % (60_000 * MS);
            q.schedule(SimTime::from_ticks(t), [0, i, t, 0, 0, 0, 0, 0] as Freight);
        }
        let mut timers = 0u64;
        while let Some((t, ev)) = q.pop() {
            let now = t.ticks();
            check = check.wrapping_mul(31).wrapping_add(ev[1]).wrapping_add(now);
            match ev[0] {
                0 => {
                    timers += 1;
                    if timers % 64 == 0 {
                        let at = SimTime::from_ticks(now + 13 * MS);
                        for c in 0..BURST_COPIES {
                            q.schedule(at, [1, c, now, 0, 0, 0, 0, 0]);
                        }
                    }
                }
                1 if ev[1] % 2 == 0 => {
                    let reply = now + (1 + rng.u64() % 40) * MS;
                    q.schedule(SimTime::from_ticks(reply), [2, ev[1], now, 0, 0, 0, 0, 0]);
                }
                _ => {}
            }
        }
        check
    }};
}

/// Time `ladder` and `heap` in five interleaved pairs (ladder first),
/// asserting equal checksums, and return the medians of the per-pair
/// heap/ladder ratio, the ladder's ns and the heap's ns. Back-to-back
/// pairing cancels the slow clock drift of a shared runner (frequency
/// scaling, noisy neighbours) where two separate median-of-N blocks
/// would not.
fn paired_speedup(
    mut ladder: impl FnMut() -> u64,
    mut heap: impl FnMut() -> u64,
) -> (f64, u64, u64) {
    let mut ratios = Vec::with_capacity(5);
    let mut ladder_med = Vec::with_capacity(5);
    let mut heap_med = Vec::with_capacity(5);
    for _ in 0..5 {
        let t0 = std::time::Instant::now();
        let ladder_check = ladder();
        let ladder_ns = t0.elapsed().as_nanos() as u64;
        let t0 = std::time::Instant::now();
        let heap_check = heap();
        let heap_ns = t0.elapsed().as_nanos() as u64;
        assert_eq!(
            ladder_check, heap_check,
            "ladder and heap popped different event streams"
        );
        ratios.push(heap_ns as f64 / ladder_ns as f64);
        ladder_med.push(ladder_ns);
        heap_med.push(heap_ns);
    }
    ratios.sort_unstable_by(|a, b| a.partial_cmp(b).expect("ratios are finite"));
    ladder_med.sort_unstable();
    heap_med.sort_unstable();
    (ratios[2], ladder_med[2], heap_med[2])
}

fn main() {
    let out = std::env::var("BENCH_OUT").unwrap_or_else(|_| "results/bench_smoke.json".into());
    let mut runner = Runner::from_env().with_out(&out).with_samples(5);

    {
        let mut group = runner.group("smoke/codec");
        let pledge = Message::Pledge(Pledge {
            pledger: 12,
            headroom_secs: 42.5,
            community_count: 3,
            grant_probability: 0.425,
            sent_at: SimTime::from_secs(12),
        });
        group.bench_function("encode_decode_pledge", || {
            let bytes = encode_message(&pledge);
            decode_message(&bytes).unwrap()
        });
        group.finish();
    }

    {
        let mut group = runner.group("smoke/event_queue");
        let mut rng = SimRng::from_seed(1);
        group.bench_function("schedule_pop_1k", || {
            let mut q = EventQueue::with_capacity(1_000);
            for i in 0..1_000u64 {
                q.schedule(SimTime::from_ticks(rng.u64() % 1_000_000), i);
            }
            let mut sum = 0u64;
            while let Some((_, e)) = q.pop() {
                sum = sum.wrapping_add(e);
            }
            sum
        });
        group.finish();
    }

    {
        let mut group = runner.group("smoke/rng");
        let mut rng = SimRng::from_seed(7);
        group.bench_function("exp_samples_10k", || {
            let mut acc = 0.0;
            for _ in 0..10_000 {
                acc += rng.exp(5.0);
            }
            acc
        });
        group.finish();
    }

    {
        let mut group = runner.group("smoke/sim");
        group.sample_size(3);
        group.bench_function("realtor_lambda6", || {
            run_scenario(&bench_scenario(ProtocolKind::Realtor, 6.0)).admission_probability()
        });
        group.finish();
    }

    runner.finish();

    // DES engine profile of one representative run, appended to the same
    // JSON-lines file: where the wall time went (prime / event loop /
    // finalize), the engine's throughput, and how deep the event queue got.
    // The run is repeated and the *fastest* repetition recorded: on a
    // shared single-core runner, scheduling noise is strictly one-sided
    // (a noisy neighbour can only slow a measurement down, never speed it
    // up), so the minimum wall time is the unbiased estimator of the
    // engine's actual throughput — the same reasoning that has
    // benchmarking harnesses report min-time in noisy environments.
    // Every repetition must process the identical event count and queue
    // high-water: the run is deterministic, only the clock varies.
    let mut profiles: Vec<_> = (0..7)
        .map(|_| run_scenario_profiled(&bench_scenario(ProtocolKind::Realtor, 6.0)).1)
        .collect();
    for p in &profiles[1..] {
        assert_eq!(
            (p.events_processed, p.queue_high_water),
            (profiles[0].events_processed, profiles[0].queue_high_water),
            "profiled run is deterministic; only timing may vary"
        );
    }
    profiles.sort_by_key(|p| p.run_nanos);
    let profile = profiles.swap_remove(0);
    // The per-chunk histogram (A19) localizes event-loop stalls: each
    // sample is the wall time of one PROFILE_CHUNK_EVENTS slice of the run.
    let line = format!(
        "{{\"group\":\"smoke/profile\",\"name\":\"realtor_lambda6\",\
         \"events_processed\":{},\"events_per_sec\":{:.1},\"queue_high_water\":{},\
         \"prime_ns\":{},\"run_ns\":{},\"finish_ns\":{},\
         \"chunks\":{},\"chunk_p50_ns\":{},\"chunk_p99_ns\":{},\"chunk_max_ns\":{}}}",
        profile.events_processed,
        profile.events_per_sec(),
        profile.queue_high_water,
        profile.prime_nanos,
        profile.run_nanos,
        profile.finish_nanos,
        profile.chunk_nanos.count(),
        profile.chunk_nanos.quantile(0.5),
        profile.chunk_nanos.quantile(0.99),
        profile.chunk_nanos.max(),
    );
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&out)
        .expect("open bench results file");
    writeln!(f, "{line}").expect("write profile record");
    println!(
        "smoke/profile: {} events at {:.0} events/s, queue high-water {}",
        profile.events_processed,
        profile.events_per_sec(),
        profile.queue_high_water
    );

    // Deep-queue stress: the same deep-pending workload through the ladder
    // queue and through the retained BinaryHeap oracle. The checksums must
    // match (identical pop streams — determinism is load-bearing, not just
    // speed); the median pair ratio is the gated speedup.
    let (ratio, ladder_ns, heap_ns) = paired_speedup(
        || stress_workload!(EventQueue::with_capacity(STRESS_PENDING)),
        || stress_workload!(HeapQueue::with_capacity(STRESS_PENDING)),
    );
    let line = format!(
        "{{\"group\":\"smoke/queue_stress\",\"name\":\"deep_{STRESS_PENDING}\",\
         \"pending\":{STRESS_PENDING},\"ladder_ns\":{ladder_ns},\"heap_ns\":{heap_ns},\
         \"speedup_vs_heap\":{ratio:.3}}}"
    );
    writeln!(f, "{line}").expect("write queue stress record");
    println!(
        "smoke/queue_stress: ladder {ladder_ns} ns vs heap {heap_ns} ns (median pair ratio {ratio:.2}x) at {STRESS_PENDING} pending"
    );

    // Burst stress: lossy floods scheduled into the band being drained,
    // through both queues the same way. ci.sh gates the ladder at >= 1.2x
    // the heap.
    let (ratio, ladder_ns, heap_ns) = paired_speedup(
        || burst_workload!(EventQueue::new()),
        || burst_workload!(HeapQueue::new()),
    );
    let line = format!(
        "{{\"group\":\"smoke/queue_burst\",\"name\":\"lossy_flood_{BURST_COPIES}\",\
         \"timers\":{BURST_TIMERS},\"ladder_ns\":{ladder_ns},\"heap_ns\":{heap_ns},\
         \"speedup_vs_heap\":{ratio:.3}}}"
    );
    writeln!(f, "{line}").expect("write queue burst record");
    println!(
        "smoke/queue_burst: ladder {ladder_ns} ns vs heap {heap_ns} ns (median pair ratio {ratio:.2}x), {BURST_COPIES}-copy floods"
    );

    // Tracing-overhead gate (A19): the same deterministic run untraced,
    // traced at Info severity (the live-exposition configuration the
    // cluster sampler runs — lineage spans, admissions, recoveries), and
    // traced at full Debug fidelity (the forensic `trace` subcommand
    // configuration, which additionally records every pledge/refresh
    // message). All three SimResults must be bit-identical (tracing is
    // observational). ci.sh gates the Info ratio at >= 0.70x; the Debug
    // ratio is recorded ungated — capturing 2+ events per engine event
    // honestly costs more, and the number being visible here keeps that
    // cost from silently regressing. Triples are interleaved (so slow
    // clock drift hits all three configs equally) and each config's
    // throughput is estimated from its fastest of twenty-five runs: external
    // interference — preemption, frequency ramps, page-cache misses —
    // only ever slows a run down, so min-time is the lowest-variance
    // estimator of intrinsic cost and the fairest basis for a ratio
    // gate. A median of per-pair ratios was tried first and fluctuated
    // +/-0.07 run to run, because a spike in either member skews the
    // pair.
    let overhead_scenario = bench_scenario(ProtocolKind::Realtor, 6.0);
    const OVERHEAD_REPS: usize = 25;
    let mut untraced_eps = Vec::with_capacity(OVERHEAD_REPS);
    let mut traced_eps = Vec::with_capacity(OVERHEAD_REPS);
    let mut debug_eps = Vec::with_capacity(OVERHEAD_REPS);
    for _ in 0..OVERHEAD_REPS {
        let (plain, plain_profile) = run_scenario_profiled(&overhead_scenario);
        let tracer = Tracer::bounded(100_000).with_min_severity(Severity::Info);
        let (traced, traced_profile) = run_scenario_traced_profiled(&overhead_scenario, tracer);
        assert_eq!(plain, traced, "tracing perturbed the simulation");
        let tracer = Tracer::bounded(100_000);
        let (debug_traced, debug_profile) =
            run_scenario_traced_profiled(&overhead_scenario, tracer);
        assert_eq!(
            plain, debug_traced,
            "debug tracing perturbed the simulation"
        );
        untraced_eps.push(plain_profile.events_per_sec());
        traced_eps.push(traced_profile.events_per_sec());
        debug_eps.push(debug_profile.events_per_sec());
    }
    for v in [&mut untraced_eps, &mut traced_eps, &mut debug_eps] {
        v.sort_unstable_by(|a, b| a.partial_cmp(b).expect("rates are finite"));
    }
    let best = OVERHEAD_REPS - 1;
    let info_ratio = traced_eps[best] / untraced_eps[best];
    let debug_ratio = debug_eps[best] / untraced_eps[best];
    let line = format!(
        "{{\"group\":\"smoke/trace_overhead\",\"name\":\"realtor_lambda6\",\
         \"untraced_events_per_sec\":{:.1},\"traced_events_per_sec\":{:.1},\
         \"traced_over_untraced\":{:.3},\"traced_debug_events_per_sec\":{:.1},\
         \"traced_debug_over_untraced\":{:.3}}}",
        untraced_eps[best], traced_eps[best], info_ratio, debug_eps[best], debug_ratio
    );
    writeln!(f, "{line}").expect("write trace overhead record");
    println!(
        "smoke/trace_overhead: {:.0} untraced vs {:.0} traced events/s \
         (best-of-{OVERHEAD_REPS} ratio {:.2}x at Info, {:.2}x at full Debug)",
        untraced_eps[best], traced_eps[best], info_ratio, debug_ratio
    );
}
