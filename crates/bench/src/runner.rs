//! Minimal wall-clock benchmark runner (the workspace builds with zero
//! external crates, so Criterion is out).
//!
//! Protocol per benchmark: a few warmup batches, then `samples` timed
//! batches; the reported figure is the **median** per-iteration time, which
//! is robust against the occasional scheduler hiccup that would wreck a
//! mean. Sub-millisecond bodies are auto-batched until one batch takes at
//! least [`TARGET_BATCH_NANOS`], so timer granularity never dominates.
//!
//! Results go two places: a human-readable table on stdout, and one JSON
//! object per line appended to a results file (default
//! `results/bench.jsonl`, overridable via the `BENCH_OUT` env var) so runs
//! can be diffed across commits. `BENCH_SAMPLES` overrides the per-group
//! sample count for quick smoke runs.

use std::fs;
use std::hint::black_box;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// A batch should take at least this long before we trust the timer (5 ms).
pub const TARGET_BATCH_NANOS: u128 = 5_000_000;

/// Default number of timed samples per benchmark.
pub const DEFAULT_SAMPLES: usize = 15;

/// Default number of discarded warmup batches per benchmark.
pub const DEFAULT_WARMUP: usize = 3;

/// One finished measurement.
#[derive(Debug, Clone)]
pub struct Record {
    /// Benchmark group (e.g. `micro/event_queue`).
    pub group: String,
    /// Benchmark name within the group.
    pub name: String,
    /// Median per-iteration wall-clock time, nanoseconds.
    pub median_ns: u128,
    /// Fastest sample, nanoseconds per iteration.
    pub min_ns: u128,
    /// Slowest sample, nanoseconds per iteration.
    pub max_ns: u128,
    /// Number of timed samples taken.
    pub samples: usize,
    /// Iterations per sample batch (1 unless auto-batched).
    pub iters: u64,
}

impl Record {
    /// Hand-formatted JSON object (no serde in the workspace).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"group\":\"{}\",\"name\":\"{}\",\"median_ns\":{},\"min_ns\":{},\"max_ns\":{},\"samples\":{},\"iters\":{}}}",
            escape(&self.group),
            escape(&self.name),
            self.median_ns,
            self.min_ns,
            self.max_ns,
            self.samples,
            self.iters
        )
    }
}

fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

/// Top-level runner: owns the collected records and the output path.
pub struct Runner {
    samples: usize,
    warmup: usize,
    out: PathBuf,
    records: Vec<Record>,
}

impl Runner {
    /// A runner configured from the environment (`BENCH_SAMPLES`,
    /// `BENCH_OUT`), falling back to the defaults above.
    pub fn from_env() -> Self {
        let samples = std::env::var("BENCH_SAMPLES")
            .ok()
            .and_then(|v| v.parse().ok())
            .filter(|&n| n > 0)
            .unwrap_or(DEFAULT_SAMPLES);
        let out = std::env::var("BENCH_OUT")
            .map(PathBuf::from)
            .unwrap_or_else(|_| PathBuf::from("results/bench.jsonl"));
        Runner {
            samples,
            warmup: DEFAULT_WARMUP,
            out,
            records: Vec::new(),
        }
    }

    /// Override the output file.
    pub fn with_out(mut self, path: impl AsRef<Path>) -> Self {
        self.out = path.as_ref().to_path_buf();
        self
    }

    /// Override the per-benchmark sample count.
    pub fn with_samples(mut self, samples: usize) -> Self {
        assert!(samples > 0);
        self.samples = samples;
        self
    }

    /// Start a named benchmark group.
    pub fn group(&mut self, name: &str) -> Group<'_> {
        Group {
            runner: self,
            name: name.to_string(),
            samples_override: None,
        }
    }

    /// Records measured so far.
    pub fn records(&self) -> &[Record] {
        &self.records
    }

    /// Write all records as JSON lines and print the output path.
    ///
    /// Appends, so several bench binaries invoked by one `cargo bench` run
    /// accumulate into a single file.
    pub fn finish(self) {
        if self.records.is_empty() {
            return;
        }
        if let Some(dir) = self.out.parent() {
            if !dir.as_os_str().is_empty() {
                fs::create_dir_all(dir).expect("create results dir");
            }
        }
        let mut f = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.out)
            .expect("open bench results file");
        for r in &self.records {
            writeln!(f, "{}", r.to_json()).expect("write bench record");
        }
        println!(
            "\nwrote {} result(s) to {}",
            self.records.len(),
            self.out.display()
        );
    }
}

/// A group of related benchmarks sharing a name prefix.
pub struct Group<'a> {
    runner: &'a mut Runner,
    name: String,
    samples_override: Option<usize>,
}

impl Group<'_> {
    /// Override the sample count for this group (kept for parity with the
    /// Criterion API the benches were ported from).
    pub fn sample_size(&mut self, n: usize) {
        assert!(n > 0);
        self.samples_override = Some(n);
    }

    /// Measure `body` and record the median per-iteration time.
    ///
    /// `body`'s return value is passed through [`black_box`] so the work
    /// cannot be optimized away.
    pub fn bench_function<T>(&mut self, name: impl AsRef<str>, mut body: impl FnMut() -> T) {
        let name = name.as_ref();
        let samples = self.samples_override.unwrap_or(self.runner.samples);
        let warmup = self.runner.warmup;

        // Calibrate: time one iteration, then pick a batch size that makes
        // a batch long enough for the timer to be meaningful.
        let t0 = Instant::now();
        black_box(body());
        let single = t0.elapsed().as_nanos().max(1);
        let iters = if single >= TARGET_BATCH_NANOS {
            1
        } else {
            (TARGET_BATCH_NANOS / single).clamp(1, 1_000_000) as u64
        };

        for _ in 0..warmup {
            for _ in 0..iters {
                black_box(body());
            }
        }

        let mut per_iter: Vec<u128> = Vec::with_capacity(samples);
        for _ in 0..samples {
            let t = Instant::now();
            for _ in 0..iters {
                black_box(body());
            }
            per_iter.push(t.elapsed().as_nanos() / iters as u128);
        }
        per_iter.sort_unstable();
        let median = per_iter[per_iter.len() / 2];
        let rec = Record {
            group: self.name.clone(),
            name: name.to_string(),
            median_ns: median,
            min_ns: per_iter[0],
            max_ns: per_iter[per_iter.len() - 1],
            samples,
            iters,
        };
        println!(
            "{}/{:<32} median {:>12}  (min {}, max {}, {} samples x {} iters)",
            rec.group,
            rec.name,
            fmt_ns(rec.median_ns),
            fmt_ns(rec.min_ns),
            fmt_ns(rec.max_ns),
            rec.samples,
            rec.iters
        );
        self.runner.records.push(rec);
    }

    /// No-op, kept for call-site parity with Criterion.
    pub fn finish(self) {}
}

/// Render nanoseconds with a human-friendly unit.
pub fn fmt_ns(ns: u128) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3} us", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_json_shape() {
        let tmp =
            std::env::temp_dir().join(format!("bench_runner_test_{}.jsonl", std::process::id()));
        let _ = fs::remove_file(&tmp);
        let mut runner = Runner::from_env().with_out(&tmp).with_samples(3);
        {
            let mut g = runner.group("unit/test");
            g.bench_function("noop", || 1 + 1);
        }
        assert_eq!(runner.records().len(), 1);
        let r = &runner.records()[0];
        assert_eq!(r.group, "unit/test");
        assert!(r.min_ns <= r.median_ns && r.median_ns <= r.max_ns);
        let json = r.to_json();
        assert!(json.starts_with("{\"group\":\"unit/test\""), "{json}");
        assert!(json.ends_with('}'), "{json}");
        runner.finish();
        let written = fs::read_to_string(&tmp).unwrap();
        assert_eq!(written.lines().count(), 1);
        let _ = fs::remove_file(&tmp);
    }

    #[test]
    fn json_escaping() {
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape("x\ny"), "x\\u000ay");
    }

    #[test]
    fn sample_size_override() {
        let mut runner = Runner::from_env().with_samples(5).with_out("/dev/null");
        {
            let mut g = runner.group("unit/override");
            g.sample_size(2);
            g.bench_function("noop", || ());
        }
        assert_eq!(runner.records()[0].samples, 2);
    }

    #[test]
    fn fmt_ns_units() {
        assert_eq!(fmt_ns(12), "12 ns");
        assert_eq!(fmt_ns(1_500), "1.500 us");
        assert_eq!(fmt_ns(2_500_000), "2.500 ms");
        assert_eq!(fmt_ns(3_000_000_000), "3.000 s");
    }
}
