//! The `analyze` subcommand (A19) — offline causal analysis of any trace
//! JSONL produced by the A14 trace layer (the DES `trace` command or the
//! live cluster's `cluster_run.jsonl`).
//!
//! Each line is parsed by the workspace's JSON reader (`simcore::json`) and
//! must be a flat object, the shape the trace writer emits. From
//! the `(span, parent)` causal links the analyzer reconstructs the
//! discovery → admission → recovery lineage of every task and reports:
//!
//! * **per-phase latency breakdowns** — admission (arrival → admit),
//!   negotiation (attempt span open → resolve), recovery (interrupt →
//!   re-admission), as [`LogHistogram`] quantiles,
//! * **the recovery critical path** — the causal chain from the first
//!   `node_kill` to the last `task_recover`, as telescoping segments whose
//!   durations sum exactly to the time-to-recovery,
//! * **events per admitted task by phase** — discovery, admission,
//!   negotiation, recovery, fault,
//! * **a flame-style self-time table per event kind** — within each span,
//!   the gap to the span's next event is the earlier event's self time.
//!
//! Lineage must be *complete*: an event whose `parent` names a span with no
//! events is an orphan reference, and any orphan (or an admitted/recovered
//! task whose chain does not reach a root) fails the run with exit 1 — the
//! CI gate behind the A19 acceptance criterion.

use realtor_simcore::json::{self, JsonValue};
use realtor_simcore::stats::LogHistogram;
use realtor_simcore::time::TICKS_PER_SEC;
use std::collections::BTreeMap;
use std::io::Read;

/// Parse one flat JSON object line (`{"k":v,...}`, no member an object or
/// an array) into its key/value pairs, preserving order.
pub fn parse_flat_object(line: &str) -> Result<Vec<(String, JsonValue)>, String> {
    let JsonValue::Object(members) = json::parse(line)? else {
        return Err("expected a JSON object".into());
    };
    if let Some((key, _)) = members
        .iter()
        .find(|(_, v)| matches!(v, JsonValue::Object(_) | JsonValue::Array(_)))
    {
        return Err(format!("member \"{key}\" is not a flat value"));
    }
    Ok(members)
}

/// One trace record, reduced to the fields the analysis needs.
struct Rec {
    t: u64,
    kind: String,
    span: Option<u64>,
    parent: Option<u64>,
}

/// One telescoping segment of the recovery critical path.
#[derive(Debug, Clone)]
pub struct PathSegment {
    /// What this leg of the chain is.
    pub label: String,
    /// Segment start (ticks).
    pub from_ticks: u64,
    /// Segment end (ticks).
    pub to_ticks: u64,
}

/// The structured result of analyzing one trace.
pub struct Analysis {
    /// Total parsed events.
    pub events: usize,
    /// Events carrying a span id.
    pub spanned_events: usize,
    /// Distinct spans observed.
    pub spans: usize,
    /// `task_admit` events (tasks admitted, counting re-admissions).
    pub admitted: u64,
    /// Admitted tasks whose parent chain resolves to a root.
    pub admitted_complete: u64,
    /// `task_recover` events.
    pub recovered: u64,
    /// Recovered tasks whose parent chain resolves to a root.
    pub recovered_complete: u64,
    /// Events whose `parent` names a span with no events.
    pub orphan_refs: u64,
    /// Last `task_recover` minus first `node_kill`, when both exist.
    pub time_to_recovery_secs: Option<f64>,
    /// The causal chain from first kill to last recovery; consecutive
    /// segments telescope, so their durations sum exactly to
    /// [`Analysis::time_to_recovery_secs`].
    pub critical_path: Vec<PathSegment>,
    /// Per-phase latency histograms (ticks).
    pub phase_latencies: Vec<(&'static str, LogHistogram)>,
    /// Event counts per phase.
    pub phase_events: Vec<(&'static str, u64)>,
    /// Flame-style (kind, events, self-time ticks), widest first.
    pub self_time: Vec<(String, u64, u64)>,
    /// The rendered text report.
    pub text: String,
}

fn phase_of(kind: &str) -> &'static str {
    match kind {
        "help_flood" | "pledge_send" | "pledge_accept" | "pledge_stale_drop" | "interval_adapt"
        | "community_join" | "community_refresh" | "community_expire" => "discovery",
        "task_admit" | "task_reject" => "admission",
        "migrate_start" | "migrate_resolve" => "negotiation",
        "task_interrupt" | "task_recover" | "task_destroy" | "evacuation_start"
        | "checkpoint_split" => "recovery",
        "node_kill" | "node_restore" | "attack_action" | "peer_suspect" | "peer_confirmed"
        | "peer_revived" => "fault",
        _ => "other",
    }
}

const PHASES: &[&str] = &[
    "discovery",
    "admission",
    "negotiation",
    "recovery",
    "fault",
    "other",
];

fn secs(ticks: u64) -> f64 {
    ticks as f64 / TICKS_PER_SEC as f64
}

/// Walk the parent chain of `rec`; complete means every hop resolves to a
/// span that has events, ending either at a root (no parent) or back at an
/// already-visited span — a task span and its attempt span legitimately
/// reference each other (admit -> attempt -> task), so closing that loop
/// over observed spans is complete. Only a parent naming a span with no
/// events breaks the chain.
fn chain_complete(rec: &Rec, span_first: &BTreeMap<u64, usize>, recs: &[Rec]) -> bool {
    let mut visited = std::collections::BTreeSet::new();
    if let Some(s) = rec.span {
        visited.insert(s);
    }
    let mut parent = rec.parent;
    while let Some(p) = parent {
        let Some(&idx) = span_first.get(&p) else {
            return false;
        };
        if !visited.insert(p) {
            return true;
        }
        parent = recs[idx].parent;
    }
    true
}

/// Analyze a whole trace given as JSONL text.
pub fn analyze_str(input: &str) -> Result<Analysis, String> {
    let mut recs: Vec<Rec> = Vec::new();
    for (lineno, line) in input.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let obj = parse_flat_object(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        let mut t = None;
        let mut kind = None;
        let mut span = None;
        let mut parent = None;
        // First occurrence wins: the writer emits the header fields
        // (t, kind, span, parent) before the payload, and a payload field
        // may legitimately reuse a header name (migrate_start carries a
        // "kind" payload field describing the attempt).
        for (k, v) in obj {
            match (k.as_str(), v) {
                ("t", JsonValue::U64(x)) if t.is_none() => t = Some(x),
                ("kind", JsonValue::Str(s)) if kind.is_none() => kind = Some(s),
                ("span", JsonValue::U64(x)) if span.is_none() => span = Some(x),
                ("parent", JsonValue::U64(x)) if parent.is_none() => parent = Some(x),
                _ => {}
            }
        }
        recs.push(Rec {
            t: t.ok_or_else(|| format!("line {}: missing \"t\"", lineno + 1))?,
            kind: kind.ok_or_else(|| format!("line {}: missing \"kind\"", lineno + 1))?,
            span,
            parent,
        });
    }

    // Span indexes: first event of each span (its opener) and the events of
    // each span in input order.
    let mut span_first: BTreeMap<u64, usize> = BTreeMap::new();
    let mut span_events: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    let mut span_interrupt_first: BTreeMap<u64, u64> = BTreeMap::new();
    for (i, r) in recs.iter().enumerate() {
        if let Some(s) = r.span {
            span_first.entry(s).or_insert(i);
            span_events.entry(s).or_default().push(i);
            if r.kind == "task_interrupt" {
                span_interrupt_first.entry(s).or_insert(r.t);
            }
        }
    }

    // Lineage completeness and orphan references.
    let mut orphan_refs = 0u64;
    for r in &recs {
        if let Some(p) = r.parent {
            if !span_first.contains_key(&p) {
                orphan_refs += 1;
            }
        }
    }
    let (mut admitted, mut admitted_complete) = (0u64, 0u64);
    let (mut recovered, mut recovered_complete) = (0u64, 0u64);
    for r in &recs {
        match r.kind.as_str() {
            "task_admit" => {
                admitted += 1;
                if r.span.is_some() && chain_complete(r, &span_first, &recs) {
                    admitted_complete += 1;
                }
            }
            "task_recover" => {
                recovered += 1;
                if r.span.is_some() && chain_complete(r, &span_first, &recs) {
                    recovered_complete += 1;
                }
            }
            _ => {}
        }
    }

    // Per-phase latency histograms.
    let mut admission_lat = LogHistogram::new();
    let mut negotiation_lat = LogHistogram::new();
    let mut recovery_lat = LogHistogram::new();
    for r in &recs {
        match r.kind.as_str() {
            "task_admit" => {
                if let Some(s) = r.span {
                    // A migrated admit's clock starts when its attempt span
                    // opened (the migrate_start); a local admit is instant.
                    let mut open = recs[span_first[&s]].t;
                    if let Some(p) = r.parent {
                        if let Some(&idx) = span_first.get(&p) {
                            open = open.min(recs[idx].t);
                        }
                    }
                    admission_lat.record(r.t.saturating_sub(open));
                }
            }
            "task_recover" => {
                if let Some(s) = r.span {
                    let start = span_interrupt_first
                        .get(&s)
                        .copied()
                        .or_else(|| {
                            r.parent
                                .and_then(|p| span_first.get(&p).map(|&i| recs[i].t))
                        })
                        .unwrap_or(r.t);
                    recovery_lat.record(r.t.saturating_sub(start));
                }
            }
            _ => {}
        }
    }
    for (&s, idxs) in &span_events {
        if s & 1 == 1 {
            // Attempt (negotiation) span: open to last event.
            let first = recs[idxs[0]].t;
            let last = recs[*idxs.last().unwrap()].t;
            negotiation_lat.record(last.saturating_sub(first));
        }
    }

    // Events per phase.
    let mut phase_counts: BTreeMap<&'static str, u64> = BTreeMap::new();
    for r in &recs {
        *phase_counts.entry(phase_of(&r.kind)).or_default() += 1;
    }
    let phase_events: Vec<(&'static str, u64)> = PHASES
        .iter()
        .map(|&p| (p, phase_counts.get(p).copied().unwrap_or(0)))
        .collect();

    // Recovery critical path: first kill -> (interrupt) -> (attempt open)
    // -> last recover, clamped monotone so segments telescope exactly.
    let first_kill = recs.iter().find(|r| r.kind == "node_kill");
    let last_recover = recs.iter().rev().find(|r| r.kind == "task_recover");
    let mut critical_path = Vec::new();
    let mut time_to_recovery_secs = None;
    if let (Some(kill), Some(rec)) = (first_kill, last_recover) {
        let mut points: Vec<(String, u64)> = vec![("first fault (node_kill)".into(), kill.t)];
        let clamp = |points: &[(String, u64)], t: u64| t.max(points.last().unwrap().1);
        if let Some(s) = rec.span {
            if let Some(&it) = span_interrupt_first.get(&s) {
                let t = clamp(&points, it);
                points.push(("task interrupted".into(), t));
            }
        }
        if let Some(p) = rec.parent {
            if let Some(&idx) = span_first.get(&p) {
                let t = clamp(&points, recs[idx].t);
                points.push(("recovery attempt opened".into(), t));
            }
        }
        let t = clamp(&points, rec.t);
        points.push(("task re-admitted (last task_recover)".into(), t));
        for w in points.windows(2) {
            critical_path.push(PathSegment {
                label: format!("{} -> {}", w[0].0, w[1].0),
                from_ticks: w[0].1,
                to_ticks: w[1].1,
            });
        }
        time_to_recovery_secs = Some(secs(rec.t.saturating_sub(kill.t)));
    }

    // Flame-style self time: within a span, an event owns the gap to the
    // span's next event; the span's last event owns zero.
    let mut flame: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for idxs in span_events.values() {
        for w in idxs.windows(2) {
            let gap = recs[w[1]].t.saturating_sub(recs[w[0]].t);
            let e = flame.entry(recs[w[0]].kind.as_str()).or_default();
            e.0 += 1;
            e.1 += gap;
        }
        if let Some(&last) = idxs.last() {
            let e = flame.entry(recs[last].kind.as_str()).or_default();
            e.0 += 1;
        }
    }
    let mut self_time: Vec<(String, u64, u64)> = flame
        .into_iter()
        .map(|(k, (n, t))| (k.to_string(), n, t))
        .collect();
    self_time.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(&b.0)));

    let mut a = Analysis {
        events: recs.len(),
        spanned_events: recs.iter().filter(|r| r.span.is_some()).count(),
        spans: span_events.len(),
        admitted,
        admitted_complete,
        recovered,
        recovered_complete,
        orphan_refs,
        time_to_recovery_secs,
        critical_path,
        phase_latencies: vec![
            ("admission", admission_lat),
            ("negotiation", negotiation_lat),
            ("recovery", recovery_lat),
        ],
        phase_events,
        self_time,
        text: String::new(),
    };
    a.text = render(&a);
    Ok(a)
}

fn render(a: &Analysis) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let w = &mut out;
    let _ = writeln!(w, "## Trace analysis (A19)");
    let _ = writeln!(w);
    let _ = writeln!(
        w,
        "{} events ({} spanned, {} spans)",
        a.events, a.spanned_events, a.spans
    );
    let _ = writeln!(
        w,
        "admitted: {} ({} lineage-complete), recovered: {} ({} lineage-complete), orphan parent refs: {}",
        a.admitted, a.admitted_complete, a.recovered, a.recovered_complete, a.orphan_refs
    );
    let _ = writeln!(w);
    let _ = writeln!(w, "### Per-phase latency (seconds)");
    let _ = writeln!(
        w,
        "{:<14} {:>8} {:>12} {:>12} {:>12} {:>12}",
        "phase", "count", "p50", "p90", "p99", "max"
    );
    for (name, h) in &a.phase_latencies {
        let _ = writeln!(
            w,
            "{:<14} {:>8} {:>12.6} {:>12.6} {:>12.6} {:>12.6}",
            name,
            h.count(),
            secs(h.quantile(0.5)),
            secs(h.quantile(0.9)),
            secs(h.quantile(0.99)),
            secs(h.max()),
        );
    }
    let _ = writeln!(w);
    let _ = writeln!(w, "### Recovery critical path");
    if a.critical_path.is_empty() {
        let _ = writeln!(w, "no kill/recovery pair in this trace");
    } else {
        let mut total = 0u64;
        for seg in &a.critical_path {
            let d = seg.to_ticks - seg.from_ticks;
            total += d;
            let _ = writeln!(
                w,
                "  {:<58} t={:>12.6}s  +{:.6}s",
                seg.label,
                secs(seg.from_ticks),
                secs(d)
            );
        }
        let _ = writeln!(
            w,
            "  total: {:.6}s (time-to-recovery {:.6}s)",
            secs(total),
            a.time_to_recovery_secs.unwrap_or(0.0)
        );
    }
    let _ = writeln!(w);
    let _ = writeln!(w, "### Events per admitted task by phase");
    let _ = writeln!(w, "{:<14} {:>10} {:>14}", "phase", "events", "per-admitted");
    for (phase, n) in &a.phase_events {
        let per = if a.admitted > 0 {
            format!("{:.4}", *n as f64 / a.admitted as f64)
        } else {
            "n/a".to_string()
        };
        let _ = writeln!(w, "{:<14} {:>10} {:>14}", phase, n, per);
    }
    let _ = writeln!(w);
    let _ = writeln!(w, "### Self time by event kind (flame)");
    let _ = writeln!(
        w,
        "{:<22} {:>10} {:>14} {:>14}",
        "kind", "events", "self-secs", "mean-ms"
    );
    for (kind, n, ticks) in &a.self_time {
        let mean_ms = if *n > 0 {
            secs(*ticks) * 1e3 / *n as f64
        } else {
            0.0
        };
        let _ = writeln!(
            w,
            "{:<22} {:>10} {:>14.6} {:>14.6}",
            kind,
            n,
            secs(*ticks),
            mean_ms
        );
    }
    out
}

/// CLI entry: read JSONL from `--input <path>` (or stdin when absent or
/// `-`), print the report, and exit nonzero on parse errors, orphan span
/// references, or incomplete lineages.
pub fn run(input: Option<&str>) {
    let data = match input {
        Some(path) if path != "-" => match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: cannot read {path}: {e}");
                std::process::exit(2);
            }
        },
        _ => {
            let mut s = String::new();
            if let Err(e) = std::io::stdin().read_to_string(&mut s) {
                eprintln!("error: cannot read stdin: {e}");
                std::process::exit(2);
            }
            s
        }
    };
    match analyze_str(&data) {
        Ok(a) => {
            print!("{}", a.text);
            if a.orphan_refs > 0 {
                eprintln!("FAIL: {} orphan span references", a.orphan_refs);
                std::process::exit(1);
            }
            if a.admitted_complete < a.admitted || a.recovered_complete < a.recovered {
                eprintln!(
                    "FAIL: incomplete lineage ({}/{} admitted, {}/{} recovered)",
                    a.admitted_complete, a.admitted, a.recovered_complete, a.recovered
                );
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_flat_objects() {
        let obj = parse_flat_object(
            r#"{"t":12,"t_secs":0.5,"node":null,"kind":"task_admit","ok":true,"s":"a\"b"}"#,
        )
        .unwrap();
        assert_eq!(obj[0], ("t".into(), JsonValue::U64(12)));
        assert_eq!(obj[1], ("t_secs".into(), JsonValue::F64(0.5)));
        assert_eq!(obj[2], ("node".into(), JsonValue::Null));
        assert_eq!(obj[3], ("kind".into(), JsonValue::Str("task_admit".into())));
        assert_eq!(obj[4], ("ok".into(), JsonValue::Bool(true)));
        assert_eq!(obj[5], ("s".into(), JsonValue::Str("a\"b".into())));
        assert!(parse_flat_object("{\"a\":1} x").is_err());
        assert!(parse_flat_object("{\"a\"").is_err());
        // The number and string grammar is the validator's.
        assert!(parse_flat_object("{\"a\":1.}").is_err());
        assert!(parse_flat_object("{\"a\":\"x\u{1}y\"}").is_err());
        assert!(parse_flat_object("[1]").is_err());
    }

    #[test]
    fn nested_lines_fail_with_their_line_number() {
        let trace = [
            r#"{"t":10,"node":0,"kind":"task_admit","sev":"info","span":0}"#,
            r#"{"t":20,"node":0,"kind":"task_admit","sev":"info","f":{"span":2}}"#,
        ]
        .join("\n");
        let err = analyze_str(&trace)
            .err()
            .expect("a nested object is rejected");
        assert!(err.starts_with("line 2: "), "{err}");
        let err = analyze_str(r#"{"t":1,"kind":"x","a":[1]}"#).err().unwrap();
        assert!(err.starts_with("line 1: "), "{err}");
    }

    #[test]
    fn reconstructs_lineage_and_critical_path() {
        // Arrival 0 (task span 0) admitted locally; arrival 1 (task span 2)
        // migrates via attempt 0 (span 1); a kill interrupts it and attempt
        // 1 (span 3) recovers it.
        let trace = [
            r#"{"t":1000,"node":0,"kind":"task_admit","sev":"info","span":0}"#,
            r#"{"t":2000,"node":0,"kind":"migrate_start","sev":"info","span":1,"parent":2}"#,
            r#"{"t":3000,"node":1,"kind":"task_admit","sev":"info","span":2,"parent":1}"#,
            r#"{"t":3500,"node":1,"kind":"migrate_resolve","sev":"info","span":1,"parent":2}"#,
            r#"{"t":4000,"node":1,"kind":"node_kill","sev":"warn"}"#,
            r#"{"t":4100,"node":1,"kind":"task_interrupt","sev":"warn","span":2}"#,
            r#"{"t":4200,"node":1,"kind":"migrate_start","sev":"info","span":3,"parent":2}"#,
            r#"{"t":5000,"node":2,"kind":"task_recover","sev":"info","span":2,"parent":3}"#,
        ]
        .join("\n");
        let a = analyze_str(&trace).unwrap();
        assert_eq!(a.events, 8);
        assert_eq!(a.admitted, 2);
        assert_eq!(a.admitted_complete, 2);
        assert_eq!(a.recovered, 1);
        assert_eq!(a.recovered_complete, 1);
        assert_eq!(a.orphan_refs, 0);
        // Critical path telescopes to exactly last recover - first kill.
        let total: u64 = a
            .critical_path
            .iter()
            .map(|s| s.to_ticks - s.from_ticks)
            .sum();
        assert_eq!(total, 5000 - 4000);
        assert_eq!(a.critical_path.len(), 3); // kill->interrupt->attempt->recover
                                              // Admission latency: local admit 0, migrated admit 3000-2000... the
                                              // task span opens at the migrate_start parented to it? No: span 2's
                                              // first event is the admit at t=3000 itself -> latency 0; span 0 -> 0.
        let (_, adm) = &a.phase_latencies[0];
        assert_eq!(adm.count(), 2);
        let (_, rec) = &a.phase_latencies[2];
        assert_eq!(rec.count(), 1);
        assert_eq!(rec.max(), 5000 - 4100);
        assert!(a.text.contains("### Recovery critical path"));
    }

    #[test]
    fn orphan_parent_refs_are_counted() {
        let trace = r#"{"t":10,"node":0,"kind":"task_admit","sev":"info","span":4,"parent":99}"#;
        let a = analyze_str(trace).unwrap();
        assert_eq!(a.orphan_refs, 1);
        assert_eq!(a.admitted, 1);
        assert_eq!(a.admitted_complete, 0, "a dangling parent is incomplete");
    }
}
