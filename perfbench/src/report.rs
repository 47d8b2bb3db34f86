//! Metric names, the result line, and the small measuring helpers shared by
//! every workload: `/proc` readings, medians, and a fine-grained latency
//! histogram.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One metric the benchmark can print: name, unit, and which way is better.
pub struct Spec {
    pub name: String,
    pub unit: &'static str,
    pub higher_is_better: bool,
}

fn lower(name: impl Into<String>, unit: &'static str) -> Spec {
    Spec {
        name: name.into(),
        unit,
        higher_is_better: false,
    }
}

fn higher(name: impl Into<String>, unit: &'static str) -> Spec {
    Spec {
        name: name.into(),
        unit,
        higher_is_better: true,
    }
}

/// End-to-end metrics, printed by every untraced run (`--trace 0`).
pub fn end_to_end() -> Vec<Spec> {
    vec![
        lower("setup_s", "s"),
        lower("run_s", "s"),
        lower("peak_rss_mb", "MB"),
        higher("admitted_per_s", "1/s"),
        lower("latency_p50_ms", "ms"),
        lower("latency_p99_ms", "ms"),
    ]
}

/// The simulator's event kinds, as the `sim` layer groups them.
pub const EVENT_KINDS: [&str; 8] = [
    "arrival", "flood", "deliver", "timer", "drain", "migrate", "fault", "window",
];

/// The protocol callbacks the `core` layer times.
pub const CALLBACKS: [&str; 7] = [
    "on_task_arrival",
    "on_usage_change",
    "on_message.help",
    "on_message.pledge",
    "on_message.advert",
    "on_timer",
    "pick_candidate",
];

/// Per-layer metrics, printed by every traced run (`--trace 1`).
pub fn per_layer() -> Vec<Spec> {
    let mut out = vec![
        lower("simcore.events", "count"),
        lower("simcore.queue_high_water", "count"),
        lower("simcore.self_ns_per_event", "ns"),
    ];
    for kind in EVENT_KINDS {
        out.push(lower(format!("sim.{kind}.count"), "count"));
        out.push(lower(format!("sim.{kind}.self_ns"), "ns"));
        out.push(lower(format!("sim.{kind}.p99_ns"), "ns"));
    }
    out.extend([
        lower("sim.deliveries_per_flood", "count"),
        lower("sim.prime_s", "s"),
        lower("sim.finish_s", "s"),
    ]);
    for cb in CALLBACKS {
        out.push(lower(format!("core.{cb}.count"), "count"));
        out.push(lower(format!("core.{cb}.ns"), "ns"));
    }
    out.extend([
        higher("core.pick_candidate.hit_ratio", "ratio"),
        higher("core.migration.accept_ratio", "ratio"),
        lower("core.floods_emitted", "count"),
        lower("core.unicasts_emitted", "count"),
        lower("core.timers_armed", "count"),
        lower("net.routing_build_s", "s"),
        lower("net.fault_state_build_s", "s"),
        lower("net.cost_model_build_s", "s"),
        lower("workload.generate_s", "s"),
        lower("mem.setup_rss_mb", "MB"),
        lower("agile.host_admit_p50_us", "us"),
        lower("agile.host_admit_p99_us", "us"),
        lower("agile.control_wait_p50_us", "us"),
        lower("agile.cpu_us_per_admitted", "us"),
        lower("agile.datagrams_per_admitted", "count"),
        lower("agile.helps_sent", "count"),
        lower("agile.migrations", "count"),
        lower("agile.migration_latency_ms", "ms"),
        lower("agile.mailbox_high_water_max", "count"),
        lower("agile.shed_datagrams", "count"),
        lower("agile.shed_admissions", "count"),
        lower("agile.negotiation_retries", "count"),
        lower("agile.codec.roundtrip_ns", "ns"),
        lower("agile.quiesce_s", "s"),
        lower("agile.shutdown_s", "s"),
        lower("trace.overhead", "ratio"),
        higher("trace.coverage", "ratio"),
    ]);
    out
}

/// Metric names are restricted to `[A-Za-z0-9_.-]+`.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// What one run measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Checked operations whose output was wrong.
    pub failed: u64,
    /// Why each failed operation failed (printed before the result line).
    pub failures: Vec<String>,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
    /// Human-readable report lines, printed before the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Record one checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value);
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Keep exactly the metrics of `specs`. A spec metric the workload did
    /// not measure, or a value that is not finite, is a failure.
    pub fn result_line(&mut self, specs: &[Spec]) -> String {
        let mut body = String::new();
        for (i, Spec { name, unit, .. }) in specs.iter().enumerate() {
            let value = self.metrics.get(name).copied();
            let ok = valid_name(name) && value.is_some_and(f64::is_finite);
            self.check(ok, || {
                format!("metric {name} missing, misnamed or not finite")
            });
            let value = value.filter(|v| v.is_finite()).unwrap_or(0.0);
            if i > 0 {
                body.push_str(", ");
            }
            let _ = write!(
                body,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed
        )
    }
}

/// A field of `/proc/self/status` in kibibytes (`VmHWM`, `VmRSS`), as MB.
pub fn status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// This process's user + system CPU time in seconds, from `/proc/self/stat`
/// (fields 14 and 15, in clock ticks of 1/100 s, Linux's fixed `USER_HZ`).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may hold spaces; fields resume after ')'.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    // `rest` starts at field 3, so fields 14 and 15 sit at indexes 11 and 12.
    (tick(11) + tick(12)) / 100.0
}

/// Median of `xs` (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Log-bucketed latency histogram, 256 buckets per doubling (0.27 % wide),
/// with linear interpolation inside a bucket. Bounded memory however many
/// samples a run takes, and quantiles within a fraction of a percent.
pub struct FineHist {
    counts: Vec<u64>,
    total: u64,
}

const SUBS: f64 = 256.0;

impl FineHist {
    pub fn new() -> Self {
        FineHist {
            counts: vec![0; 64 * SUBS as usize],
            total: 0,
        }
    }

    pub fn record(&mut self, ns: u64) {
        let last = self.counts.len() - 1;
        let i = ((ns.max(1) as f64).log2() * SUBS) as usize;
        self.counts[i.min(last)] += 1;
        self.total += 1;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    pub fn merge(&mut self, other: &FineHist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    /// The `q`-quantile in nanoseconds (0 when empty).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = (q * self.total as f64).clamp(0.0, self.total as f64 - 1.0);
        let mut seen = 0.0;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c as f64 > rank {
                let lo = (i as f64 / SUBS).exp2();
                let hi = ((i + 1) as f64 / SUBS).exp2();
                return lo + (hi - lo) * ((rank - seen + 0.5) / c as f64);
            }
            seen += c as f64;
        }
        unreachable!("rank below total")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_metric_name_is_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for Spec { name, .. } in end_to_end().into_iter().chain(per_layer()) {
            assert!(valid_name(&name), "bad metric name {name:?}");
            assert!(name.len() <= 64, "metric name too long: {name}");
            assert!(seen.insert(name.clone()), "duplicate metric name {name}");
        }
        assert!(!valid_name("a b") && !valid_name("") && !valid_name("p99%"));
    }

    /// `BENCHMARK.json` at the repository root lists exactly the metrics
    /// this program prints, with the same units and directions.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let mut listed = 0;
        for Spec {
            name,
            unit,
            higher_is_better,
        } in end_to_end().into_iter().chain(per_layer())
        {
            let better = if higher_is_better { "higher" } else { "lower" };
            let entry =
                format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
            listed += 1;
        }
        assert_eq!(
            json.matches("\"better\"").count(),
            listed,
            "BENCHMARK.json lists extra metrics"
        );
    }

    #[test]
    fn result_line_is_flagged_when_a_metric_is_missing() {
        let mut out = Outcome::default();
        out.set("run_s", 1.5);
        let line = out.result_line(&[lower("run_s", "s"), lower("setup_s", "s")]);
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1"));
        assert!(line.contains("\"run_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
    }

    #[test]
    fn fine_hist_quantiles_are_close() {
        let mut h = FineHist::new();
        for ns in 1..=100_000u64 {
            h.record(ns);
        }
        for q in [0.5, 0.99] {
            let exact = q * 100_000.0;
            let got = h.quantile(q);
            assert!(
                (got - exact).abs() / exact < 0.005,
                "q{q}: {got} vs {exact}"
            );
        }
    }

    #[test]
    fn proc_readings_are_positive() {
        assert!(status_mb("VmHWM") > 0.0);
        assert!(status_mb("VmRSS") > 0.0);
        // Spin until the process has used at least one clock tick.
        let start = std::time::Instant::now();
        while cpu_seconds() == 0.0 && start.elapsed().as_secs() < 5 {
            std::hint::black_box((0..10_000u64).sum::<u64>());
        }
        assert!(cpu_seconds() > 0.0);
    }
}
