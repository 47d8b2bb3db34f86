//! Micro-benchmarks of the Agile Objects runtime substrate: wire codec,
//! datagram fabric and reliable request channels.

use realtor_agile::codec::{decode_message, encode_message};
use realtor_agile::transport::{request_channel, Network};
use realtor_bench::Runner;
use realtor_core::{Help, Message, Pledge};
use realtor_simcore::SimTime;
use std::time::Duration;

fn codec(runner: &mut Runner) {
    let mut group = runner.group("transport/codec");
    let help = Message::Help(Help {
        organizer: 7,
        member_count: 24,
        urgency: 0.66,
        relay_ttl: 1,
    });
    let pledge = Message::Pledge(Pledge {
        pledger: 12,
        headroom_secs: 42.5,
        community_count: 3,
        grant_probability: 0.425,
        sent_at: SimTime::from_secs(12),
    });
    group.bench_function("encode_decode_help", || {
        let bytes = encode_message(&help);
        decode_message(&bytes).unwrap()
    });
    group.bench_function("encode_decode_pledge", || {
        let bytes = encode_message(&pledge);
        decode_message(&bytes).unwrap()
    });
    group.finish();
}

fn fabric(runner: &mut Runner) {
    let mut group = runner.group("transport/fabric");
    {
        let (_net, eps) = Network::new(2, 0.0, 1);
        let payload = encode_message(&Message::Pledge(Pledge {
            pledger: 0,
            headroom_secs: 1.0,
            community_count: 0,
            grant_probability: 0.01,
            sent_at: SimTime::ZERO,
        }));
        group.bench_function("unicast_round_trip", || {
            eps[0].send(1, payload.clone());
            eps[1].recv_timeout(Duration::from_millis(100)).unwrap()
        });
    }
    {
        let (_net, eps) = Network::new(20, 0.0, 1);
        let payload = encode_message(&Message::Help(Help {
            organizer: 0,
            member_count: 0,
            urgency: 1.0,
            relay_ttl: 0,
        }));
        group.bench_function("broadcast_to_19", || {
            eps[0].broadcast(payload.clone());
            for ep in &eps[1..] {
                ep.recv_timeout(Duration::from_millis(100)).unwrap();
            }
        });
    }
    {
        let (client, server) = request_channel::<u64, u64>();
        let handle =
            std::thread::spawn(
                move || {
                    while server.serve_one(Duration::from_millis(200), |x| x + 1) {}
                },
            );
        group.bench_function("request_reply", || {
            client.request(41, Duration::from_millis(100)).unwrap()
        });
        drop(client);
        let _ = handle.join();
    }
    group.finish();
}

fn main() {
    let mut runner = Runner::from_env();
    codec(&mut runner);
    fabric(&mut runner);
    runner.finish();
}
