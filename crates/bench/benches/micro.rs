//! Micro-benchmarks of the hot kernels beneath the experiments: the event
//! queue, protocol message handling, routing computation and workload
//! sampling.

use realtor_bench::Runner;
use realtor_core::protocol::{Actions, LocalView};
use realtor_core::{Message, Pledge, ProtocolConfig, ProtocolKind};
use realtor_net::{Routing, Topology};
use realtor_simcore::{EventQueue, SimRng, SimTime};

fn event_queue(runner: &mut Runner) {
    let mut group = runner.group("micro/event_queue");
    let mut rng = SimRng::from_seed(1);
    group.bench_function("schedule_pop_10k", || {
        let mut q = EventQueue::with_capacity(10_000);
        for i in 0..10_000u64 {
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

fn protocol_step(runner: &mut Runner) {
    let mut group = runner.group("micro/protocol");
    group.bench_function("realtor_pledge_handling_1k", || {
        let mut r = ProtocolKind::Realtor.build(0, ProtocolConfig::paper(), &Vec::new(), 0.0);
        let mut out = Actions::new();
        let view = LocalView::new(5.0, 100.0);
        for i in 1..=1_000usize {
            let pledge = Message::Pledge(Pledge {
                pledger: i % 25,
                headroom_secs: (i % 100) as f64,
                community_count: 1,
                grant_probability: 0.5,
                sent_at: SimTime::from_ticks(i as u64),
            });
            r.on_message(
                SimTime::from_ticks(i as u64),
                i % 25,
                &pledge,
                view,
                &mut out,
            );
            out.drain().for_each(drop);
        }
        r.pick_candidate(SimTime::from_ticks(2_000), 5.0)
    });
    group.finish();
}

fn routing(runner: &mut Runner) {
    let mut group = runner.group("micro/routing");
    for side in [5usize, 10, 20] {
        let topo = Topology::mesh(side, side);
        group.bench_function(format!("all_pairs_bfs_mesh_{side}x{side}"), || {
            Routing::new(&topo).mean_path_length()
        });
    }
    group.finish();
}

fn sampling(runner: &mut Runner) {
    let mut group = runner.group("micro/rng");
    let mut rng = SimRng::from_seed(7);
    group.bench_function("exp_samples_100k", || {
        let mut acc = 0.0;
        for _ in 0..100_000 {
            acc += rng.exp(5.0);
        }
        acc
    });
    group.finish();
}

fn main() {
    let mut runner = Runner::from_env();
    event_queue(&mut runner);
    protocol_step(&mut runner);
    routing(&mut runner);
    sampling(&mut runner);
    runner.finish();
}
