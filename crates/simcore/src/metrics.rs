//! Live metrics exposition (A19): point-in-time [`MetricsSnapshot`]s of
//! counters, gauges and [`LogHistogram`]s, rendered in the Prometheus
//! text exposition format by a hand-rolled zero-dependency writer.
//!
//! The snapshot is the bridge between the in-process observability state
//! (the live cluster's per-host counts and the A19 latency histograms)
//! and anything outside the process: the threaded cluster
//! periodically renders one to `results/cluster_metrics.prom`, and the CI
//! smoke lints the output against the format rules.
//!
//! Format notes (the subset of the Prometheus text format we emit):
//!
//! * every series is preceded (once per metric name) by a
//!   `# HELP <name> <text>` line and a
//!   `# TYPE <name> counter|gauge|histogram` header;
//! * labels are rendered as `name{host="3"} value`;
//! * histograms expand to cumulative `<name>_bucket{le="..."}` series
//!   over the non-empty [`LogHistogram`] buckets plus the mandatory
//!   `le="+Inf"` bucket, and the `<name>_sum` / `<name>_count` pair.

use crate::stats::LogHistogram;

/// One sample of a labelled series.
#[derive(Debug, Clone)]
struct Series<T> {
    name: String,
    host: Option<usize>,
    value: T,
}

/// A point-in-time copy of a host's (or the whole cluster's) metrics:
/// monotonic counters, gauges, and mergeable latency histograms.
///
/// Build one with the `push_*` methods (insertion order is preserved
/// within a metric name; series of the same name are grouped in the
/// rendered output), then render with
/// [`MetricsSnapshot::to_prometheus_text`].
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Capture time in seconds since the process/cluster epoch.
    pub at_secs: f64,
    counters: Vec<Series<u64>>,
    gauges: Vec<Series<f64>>,
    histograms: Vec<Series<LogHistogram>>,
}

/// Sanitize an arbitrary name into a valid Prometheus metric name:
/// `[a-zA-Z_:][a-zA-Z0-9_:]*`, mapping every other byte to `_`.
fn sanitize(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        out.push(if ok { c } else { '_' });
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

impl MetricsSnapshot {
    /// An empty snapshot captured at `at_secs`.
    pub fn new(at_secs: f64) -> Self {
        MetricsSnapshot {
            at_secs,
            ..Default::default()
        }
    }

    /// Add a counter sample (`host = None` for cluster-level series).
    pub fn push_counter(&mut self, name: &str, host: Option<usize>, value: u64) {
        self.counters.push(Series {
            name: sanitize(name),
            host,
            value,
        });
    }

    /// Add a gauge sample.
    pub fn push_gauge(&mut self, name: &str, host: Option<usize>, value: f64) {
        self.gauges.push(Series {
            name: sanitize(name),
            host,
            value,
        });
    }

    /// Add a histogram sample. Empty histograms still render (a lone
    /// `+Inf` bucket with count 0) so a scrape always sees the series.
    pub fn push_histogram(&mut self, name: &str, host: Option<usize>, hist: LogHistogram) {
        self.histograms.push(Series {
            name: sanitize(name),
            host,
            value: hist,
        });
    }

    /// True when nothing has been pushed.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Render the snapshot in the Prometheus text exposition format. One
    /// `# HELP` / `# TYPE` header pair per metric name, samples grouped
    /// under it, and a trailing newline after every line.
    pub fn to_prometheus_text(&self) -> String {
        let mut out = String::new();
        render_group(
            &mut out,
            "counter",
            "Monotonic event count exported by the realtor runtime.",
            &self.counters,
            |out, s| {
                render_sample(out, &s.name, s.host, None, &s.value.to_string());
            },
        );
        render_group(
            &mut out,
            "gauge",
            "Instantaneous value exported by the realtor runtime.",
            &self.gauges,
            |out, s| {
                render_sample(out, &s.name, s.host, None, &fmt_value(s.value));
            },
        );
        render_group(
            &mut out,
            "histogram",
            "Log-bucketed distribution exported by the realtor runtime.",
            &self.histograms,
            |out, s| {
                let mut cumulative = 0u64;
                let bucket_name = format!("{}_bucket", s.name);
                for (bound, count) in s.value.nonzero_buckets() {
                    cumulative += count;
                    render_sample(
                        out,
                        &bucket_name,
                        s.host,
                        Some(&bound.to_string()),
                        &cumulative.to_string(),
                    );
                }
                render_sample(
                    out,
                    &bucket_name,
                    s.host,
                    Some("+Inf"),
                    &s.value.count().to_string(),
                );
                render_sample(
                    out,
                    &format!("{}_sum", s.name),
                    s.host,
                    None,
                    &s.value.sum().to_string(),
                );
                render_sample(
                    out,
                    &format!("{}_count", s.name),
                    s.host,
                    None,
                    &s.value.count().to_string(),
                );
            },
        );
        out
    }
}

/// Render one value as a Prometheus sample value (floats keep their Rust
/// `Display` form, which Prometheus accepts; non-finite values use the
/// spelled-out forms).
fn fmt_value(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

fn render_sample(out: &mut String, name: &str, host: Option<usize>, le: Option<&str>, value: &str) {
    out.push_str(name);
    match (host, le) {
        (None, None) => {}
        (host, le) => {
            out.push('{');
            let mut first = true;
            if let Some(h) = host {
                out.push_str(&format!("host=\"{h}\""));
                first = false;
            }
            if let Some(le) = le {
                if !first {
                    out.push(',');
                }
                out.push_str(&format!("le=\"{le}\""));
            }
            out.push('}');
        }
    }
    out.push(' ');
    out.push_str(value);
    out.push('\n');
}

/// Emit `# HELP` / `# TYPE` headers and samples for all series of one
/// kind, grouped by metric name (first-appearance order) so each name
/// gets exactly one header pair.
fn render_group<T>(
    out: &mut String,
    type_label: &str,
    help: &str,
    series: &[Series<T>],
    mut render: impl FnMut(&mut String, &Series<T>),
) {
    let mut names: Vec<&str> = Vec::new();
    for s in series {
        if !names.contains(&s.name.as_str()) {
            names.push(&s.name);
        }
    }
    for name in names {
        out.push_str(&format!("# HELP {name} {help}\n"));
        out.push_str(&format!("# TYPE {name} {type_label}\n"));
        for s in series.iter().filter(|s| s.name == name) {
            render(out, s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sanitize_maps_invalid_bytes() {
        assert_eq!(sanitize("runtime_admitted"), "runtime_admitted");
        assert_eq!(sanitize("a/b c-d"), "a_b_c_d");
        assert_eq!(sanitize("9lives"), "_lives");
        assert_eq!(sanitize(""), "_");
    }

    #[test]
    fn counters_and_gauges_render_with_type_headers() {
        let mut snap = MetricsSnapshot::new(1.5);
        snap.push_counter("jobs_total", None, 7);
        snap.push_counter("admitted", Some(0), 3);
        snap.push_counter("admitted", Some(1), 4);
        snap.push_gauge("mailbox_depth", Some(1), 2.0);
        let text = snap.to_prometheus_text();
        let expected = "# HELP jobs_total Monotonic event count exported by the realtor runtime.\n\
                        # TYPE jobs_total counter\n\
                        jobs_total 7\n\
                        # HELP admitted Monotonic event count exported by the realtor runtime.\n\
                        # TYPE admitted counter\n\
                        admitted{host=\"0\"} 3\n\
                        admitted{host=\"1\"} 4\n\
                        # HELP mailbox_depth Instantaneous value exported by the realtor runtime.\n\
                        # TYPE mailbox_depth gauge\n\
                        mailbox_depth{host=\"1\"} 2\n";
        assert_eq!(text, expected);
    }

    #[test]
    fn histograms_render_cumulative_buckets() {
        let mut h = LogHistogram::new();
        h.record_n(3, 2);
        h.record(50);
        let mut snap = MetricsSnapshot::new(0.0);
        snap.push_histogram("lat_ns", Some(2), h);
        let text = snap.to_prometheus_text();
        let expected = "# HELP lat_ns Log-bucketed distribution exported by the realtor runtime.\n\
                        # TYPE lat_ns histogram\n\
                        lat_ns_bucket{host=\"2\",le=\"3\"} 2\n\
                        lat_ns_bucket{host=\"2\",le=\"50\"} 3\n\
                        lat_ns_bucket{host=\"2\",le=\"+Inf\"} 3\n\
                        lat_ns_sum{host=\"2\"} 56\n\
                        lat_ns_count{host=\"2\"} 3\n";
        assert_eq!(text, expected);
    }

    #[test]
    fn empty_histogram_still_exposes_the_series() {
        let mut snap = MetricsSnapshot::new(0.0);
        snap.push_histogram("lat_ns", None, LogHistogram::new());
        let text = snap.to_prometheus_text();
        assert!(text.contains("lat_ns_bucket{le=\"+Inf\"} 0\n"));
        assert!(text.contains("lat_ns_count 0\n"));
    }
}
