//! REALTOR benchmark: four workloads, end-to-end metrics from untraced runs
//! and per-layer metrics from traced ones, with a correctness gate on every
//! output. See `perfbench/README.md` for the metrics and what each one is
//! expected to move.
//!
//! ```text
//! perfbench --workload <paper_mesh|mesh_scale|churn_recovery|cluster_steady|all>
//!           --seed <n> --seconds <s> --trace <0|1>
//! perfbench --print-digest <seed>
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
//! The exit code is 0 only when every check passed.

mod calib;
mod cluster;
mod des;
mod probe;
mod report;

use des::Des;
use realtor_agile::codec::{decode_message, encode_message};
use realtor_core::{Advert, Help, Message, Pledge};
use realtor_simcore::SimTime;
use report::{median, Outcome};
use std::process::ExitCode;
use std::time::Instant;

const WORKLOADS: [&str; 4] = [
    "paper_mesh",
    "mesh_scale",
    "churn_recovery",
    "cluster_steady",
];

/// A seed kept out of every run made while tuning: later claims are
/// checked on it too.
const HELD_OUT_SEED: u64 = 424_242;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--print-digest" => {
                let seed: u64 = value.parse().map_err(|_| bad())?;
                for w in [Des::PaperMesh, Des::MeshScale, Des::ChurnRecovery] {
                    println!(
                        "(\"{}\", {seed}, {:#018x}),",
                        w.name(),
                        des::reference_digest(w, seed)
                    );
                }
                std::process::exit(0);
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?} or all"));
    }
    Ok(args)
}

/// Nanoseconds per `encode_message` + `decode_message` round trip over the
/// three wire types, checking that each decodes to what was encoded.
fn codec_roundtrip(out: &mut Outcome) {
    let msgs = [
        Message::Help(Help {
            organizer: 7,
            member_count: 12,
            urgency: 0.75,
            relay_ttl: 2,
        }),
        Message::Pledge(Pledge {
            pledger: 3,
            headroom_secs: 41.5,
            community_count: 2,
            grant_probability: 0.9,
            sent_at: SimTime::from_secs(12),
        }),
        Message::Advert(Advert {
            advertiser: 19,
            headroom_secs: 8.25,
            sent_at: SimTime::from_secs(99),
        }),
    ];
    const ROUNDS: u32 = 20_000;
    let mut ok = true;
    let reps: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..ROUNDS {
                for m in &msgs {
                    let back = decode_message(&encode_message(std::hint::black_box(m)));
                    ok &= back.as_ref() == Ok(m);
                }
            }
            t.elapsed().as_nanos() as f64 / f64::from(ROUNDS * msgs.len() as u32)
        })
        .collect();
    out.check(ok, || "codec round trip changed a message".into());
    out.set("agile.codec.roundtrip_ns", median(&reps));
}

/// Run one workload in this process.
fn run_one(args: &Args) -> Outcome {
    let des = match args.workload.as_str() {
        "paper_mesh" => Some(Des::PaperMesh),
        "mesh_scale" => Some(Des::MeshScale),
        "churn_recovery" => Some(Des::ChurnRecovery),
        _ => None,
    };
    let mut out = match (des, args.trace) {
        (Some(w), false) => des::measure(w, args.seed, args.seconds),
        (Some(w), true) => des::trace(w, args.seed, args.seconds),
        (None, false) => cluster::measure(args.seed, args.seconds),
        (None, true) => cluster::trace(args.seed, args.seconds),
    };
    if args.trace {
        codec_roundtrip(&mut out);
        // A layer the workload never calls reads zero.
        let unused: &[&str] = if des.is_some() {
            &["agile."]
        } else {
            &["simcore.", "sim.", "core.", "net."]
        };
        for s in report::per_layer() {
            if unused.iter().any(|p| s.name.starts_with(p)) {
                out.metrics.entry(s.name).or_insert(0.0);
            }
        }
    }
    out
}

/// `--workload all`: each workload in a child process of its own, so that
/// `peak_rss_mb` belongs to that workload alone.
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("own executable path");
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut lines = Vec::new();
    for w in WORKLOADS {
        let child = std::process::Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args([
                "--seconds",
                &args.seconds.to_string(),
                "--trace",
                if args.trace { "1" } else { "0" },
            ])
            .stderr(std::process::Stdio::inherit())
            .output()
            .expect("run a workload child process");
        let stdout = String::from_utf8_lossy(&child.stdout);
        let mut body: Vec<&str> = stdout.lines().collect();
        let last = body.pop().unwrap_or("");
        for line in body {
            println!("{line}");
        }
        let field = |key: &str| -> Option<u64> {
            let rest = last.split_once(&format!("\"{key}\": "))?.1;
            rest.split(|c: char| !c.is_ascii_digit())
                .next()?
                .parse()
                .ok()
        };
        let ok = child.status.success() && last.starts_with("{\"correct\": true");
        correct &= ok;
        attempted += field("attempted").unwrap_or(1);
        failed += field("failed").unwrap_or(1).max(u64::from(!ok));
        lines.push(format!(
            "\"{w}\": {}",
            if last.starts_with('{') { last } else { "null" }
        ));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"workloads\": {{{}}}}}",
        lines.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    println!(
        "perfbench workload={} seed={} held_out_seed={HELD_OUT_SEED} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let mut out = run_one(&args);
    let specs = if args.trace {
        report::per_layer()
    } else {
        report::end_to_end()
    };
    for line in &out.notes {
        println!("{line}");
    }
    for s in &specs {
        if let Some(v) = out.metrics.get(&s.name) {
            let better = if s.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            println!(
                "  {:<34} {v:>18.6} {:<6} ({better} is better)",
                s.name, s.unit
            );
        }
    }
    let line = out.result_line(&specs);
    for f in &out.failures {
        println!("FAILED: {f}");
    }
    println!(
        "failed_share {:.6} ({} of {} checks)",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    );
    println!("{line}");
    if out.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
