#!/usr/bin/env bash
# Offline CI gate for the hermetic workspace.
#
# Everything here must pass on a machine with no network access and no cargo
# cache beyond the toolchain: the workspace has zero external dependencies
# by policy (enforced by tests/hermetic.rs).
#
# Steps:
#   1. format check (`cargo fmt --all --check`; gated like clippy), then
#      release build, all targets, offline. perfbench/ is a workspace of
#      its own and is not covered by the format check
#   2. full test suite, offline
#   3. perfbench unit tests (perfbench/ is a workspace of its own)
#   4. perfbench correctness smokes on the held-out seed: mesh_scale
#      (N = 1600) must match its stored digests — the golden figures only
#      pin 5x5 meshes, so this is the bit-exactness check at scale — and
#      its peak RSS must stay within 45 MB (the dense per-node tables at
#      their payload size, community memberships sized to the communities
#      a node is in, routing rows only for the destinations asked for, the
#      event queue holding capacity for its pending events only);
#      churn_recovery must match its digests too, the only workload that
#      runs FaultState rebuilds, per-recipient lossy floods and the
#      failure-detector table, and its peak RSS must stay within 17 MB;
#      paper_mesh must match its digests too, the only workload that runs
#      all five protocol presets, and its peak RSS must stay within 15 MB;
#      cluster_steady (the live 20-host runtime under closed-loop
#      submit_sync clients) must pass its checks (ledger identities, no
#      Lost outcome) and its client-side latency_p50_ms must stay within
#      0.08 ms — a control message that waits out the host's idle tick
#      instead of waking it reads ~0.15 ms
#   5. clippy (gated: skipped with a notice if the component is absent)
#   6. bench smoke run -> results/bench_smoke.json, gated against the
#      committed results/bench_baseline.json: engine events/sec must not
#      regress >25%, the deep-queue stress must stay >= 3x the
#      BinaryHeap oracle, the burst stress (lossy floods scheduled into
#      the band being drained) must stay >= 1.2x it, and the
#      tracing-overhead gate must hold — a run traced at Info severity
#      (the live-exposition configuration) must keep >= 0.70x the
#      untraced events/sec (one retry absorbs shared-runner noise); the
#      file must also carry the engine profile fields (queue_high_water)
#   7. quickstart determinism: two runs, byte-identical stdout
#   8. lossy-chaos smoke: 10% datagram loss + node strike + link jamming;
#      asserts graceful degradation, determinism, and finite recovery
#   9. failover smoke: failure detection + evacuation + crash recovery;
#      asserts detection, re-homed checkpoints, landed evacuations and
#      determinism, and emits results/failover_summary.csv
#  10. trace smoke: traced Figure-5 cell -> results/trace_paper.jsonl;
#      the subcommand itself validates every JSON line and re-proves
#      tracing-on == tracing-off
#  11. analyze smoke: a traced failover cell -> results/trace_failover.jsonl,
#      piped through `experiments analyze`; the causal report must show
#      a recovery critical path and zero lineage-incomplete admissions
#  12. println guard: library code in crates/simcore, crates/net,
#      crates/node, crates/core, crates/sim, crates/agile, crates/runner
#      and crates/workload must go through the trace layer, never
#      stdout/stderr
#  13. sweep smoke: the figures sweep at --jobs 1 and --jobs 2 must emit
#      byte-identical CSV artifacts (the runner's determinism contract,
#      end-to-end through the CLI), with wall-clock timings appended to
#      results/bench_smoke.json and the jobs-2 run asserted no slower
#      than serial (speedup >= 0.95, single-core jitter tolerance)
#  14. churn smoke: the A16 continuous-churn cell at --jobs 1 and --jobs 2
#      must emit byte-identical churn_summary.csv (the subcommand itself
#      asserts interruptions, recoveries and the task ledger); timings
#      appended to results/bench_smoke.json
#  15. cluster smoke: the A18 live-runtime survivability cell — a crash
#      wave mid-load on the thread-per-host cluster must be supervised
#      back to the pre-kill admission rate with the ledger identity
#      `interrupted == recovered + destroyed` intact, and the A14 JSONL
#      event log emitted; timing appended to results/bench_smoke.json.
#      The live exposition file results/cluster_metrics.prom is then
#      linted against the Prometheus text format (every sample parses,
#      every family carries # HELP and # TYPE headers)
#  16. golden-figure re-check: the pinned paper-baseline cells must be
#      bit-exact with chaos code merged (chaos off = zero new events,
#      and the tracing layer off = zero overhead and zero new events)

set -euo pipefail
cd "$(dirname "$0")/.."

say() { printf '\n==> %s\n' "$*"; }

say "format check"
if cargo fmt --version >/dev/null 2>&1; then
    cargo fmt --all --check
else
    echo "rustfmt not installed; skipping (install with: rustup component add rustfmt)"
fi

say "build (release, all targets, offline)"
cargo build --release --workspace --all-targets --offline

say "test (offline)"
cargo test --workspace --offline --quiet

say "perfbench unit tests (offline)"
cargo test --release --offline --manifest-path perfbench/Cargo.toml

# Run one perfbench workload ($1) on the held-out seed untimed, failing
# unless it reports "correct": true and its metric $2 within the budget $3.
perfbench_smoke() {
    local out last value
    out=$(cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
        --workload "$1" --seed 424242 --seconds 0 --trace 0) || {
        printf '%s\n' "$out" | tail -5 >&2
        echo "perfbench $1 smoke exited nonzero" >&2
        return 1
    }
    last=$(printf '%s\n' "$out" | tail -1)
    case "$last" in
        *'"correct": true'*) ;;
        *) echo "perfbench $1 smoke did not report \"correct\": true" >&2; return 1 ;;
    esac
    value=$(printf '%s\n' "$last" | grep -o "\"$2\": {\"value\": [0-9.e-]*" | grep -o '[0-9.e-]*$') || value=""
    awk -v w="$1" -v m="$2" -v v="$value" -v cap="$3" 'BEGIN {
        if (v == "" || v + 0 > cap + 0) {
            printf "perfbench %s %s \"%s\" is missing or above the budget of %s\n", w, m, v, cap
            exit 1
        }
        printf "perfbench smoke ok: %s correct, %s %.3f <= %s\n", w, m, v, cap
    }'
}

say "perfbench correctness smoke (mesh_scale, N = 1600, stored digests, RSS budget)"
perfbench_smoke mesh_scale peak_rss_mb 45

say "perfbench correctness smoke (churn_recovery, stored digests, RSS budget)"
perfbench_smoke churn_recovery peak_rss_mb 17

say "perfbench correctness smoke (paper_mesh, all five protocols, stored digests, RSS budget)"
perfbench_smoke paper_mesh peak_rss_mb 15

say "perfbench cluster smoke (cluster_steady, ledger checks, admission latency budget)"
perfbench_smoke cluster_steady latency_p50_ms 0.08

say "clippy"
if cargo clippy --version >/dev/null 2>&1; then
    cargo clippy --workspace --all-targets --offline -- -D warnings
else
    echo "clippy not installed; skipping (install with: rustup component add clippy)"
fi

say "bench smoke -> results/bench_smoke.json (with engine gates)"
# Pull one numeric field out of the first JSON line of a group. The bench
# file is JSON-lines written by our own tools, so grep/cut is enough —
# no jq dependency (offline-CI policy).
bench_field() {
    grep "\"group\":\"$2\"" "$1" | grep -o "\"$3\":[0-9.]*" | head -1 | cut -d: -f2
}
run_bench_smoke() {
    rm -f results/bench_smoke.json
    cargo run --release --offline -p realtor-bench --bin bench_smoke
    test -s results/bench_smoke.json || { echo "bench_smoke.json missing or empty" >&2; return 1; }
}
# Engine gates against the committed baseline (results/bench_baseline.json):
#   - events/sec must not regress more than 25%
#   - the deep-queue stress must stay >= 3x the BinaryHeap oracle
#   - the burst stress must stay >= 1.2x the BinaryHeap oracle: 399-copy
#     floods landing below the sweep frontier go to the late run's heap,
#     where splicing them into the sorted head run was quadratic
#   - tracing-overhead gate (A19): the same deterministic run traced at
#     Info severity (the live-exposition configuration the cluster
#     sampler uses) must keep >= 0.70x the untraced events/sec. The
#     full-Debug ratio rides along in bench_smoke.json ungated.
check_bench_gates() {
    local eps base_eps ratio burst trace_ratio
    eps=$(bench_field results/bench_smoke.json smoke/profile events_per_sec)
    base_eps=$(bench_field results/bench_baseline.json smoke/profile events_per_sec)
    ratio=$(bench_field results/bench_smoke.json smoke/queue_stress speedup_vs_heap)
    burst=$(bench_field results/bench_smoke.json smoke/queue_burst speedup_vs_heap)
    trace_ratio=$(bench_field results/bench_smoke.json smoke/trace_overhead traced_over_untraced)
    awk -v eps="$eps" -v base="$base_eps" -v ratio="$ratio" -v burst="$burst" -v tr="$trace_ratio" 'BEGIN {
        ok = 1
        if (eps + 0 < 0.75 * base) {
            printf "engine throughput regressed >25%%: %.0f events/s vs committed baseline %.0f\n", eps, base
            ok = 0
        }
        if (ratio + 0 < 3.0) {
            printf "deep-queue stress speedup %.2fx is below the 3x floor\n", ratio
            ok = 0
        }
        if (burst == "" || burst + 0 < 1.2) {
            printf "burst stress speedup \"%s\" is missing or below the 1.2x floor\n", burst
            ok = 0
        }
        if (tr == "" || tr + 0 < 0.70) {
            printf "tracing overhead gate: Info-traced run at %.2fx untraced events/sec is below the 0.70x floor\n", tr
            ok = 0
        }
        exit ok ? 0 : 1
    }'
}
# One retry: on a shared runner a noisy neighbour can depress a whole
# measurement window. A real regression fails both attempts.
if ! { run_bench_smoke && check_bench_gates; }; then
    echo "bench gates failed; retrying once (shared-runner noise)" >&2
    run_bench_smoke
    check_bench_gates || { echo "bench gates failed twice: treat as a real regression" >&2; exit 1; }
fi
grep -q queue_high_water results/bench_smoke.json \
    || { echo "bench_smoke.json lacks engine profile fields" >&2; exit 1; }

say "quickstart determinism (two runs must be byte-identical)"
a=$(mktemp); b=$(mktemp)
sweep1=$(mktemp -d); sweep2=$(mktemp -d)
churn1=$(mktemp -d); churn2=$(mktemp -d)
trap 'rm -f "$a" "$b"; rm -rf "$sweep1" "$sweep2" "$churn1" "$churn2"' EXIT
cargo run --release --offline --example quickstart >"$a"
cargo run --release --offline --example quickstart >"$b"
if ! cmp -s "$a" "$b"; then
    echo "quickstart output differs between identical-seed runs:" >&2
    diff "$a" "$b" | head -20 >&2
    exit 1
fi

say "lossy-chaos smoke (unreliable network + attack must degrade gracefully)"
cargo run --release --offline -p experiments -- lossy --smoke true

say "failover smoke (detection + evacuation + recovery must actually survive kills)"
rm -f results/failover_summary.csv
cargo run --release --offline -p experiments -- failover --smoke true
test -s results/failover_summary.csv || { echo "failover_summary.csv missing or empty" >&2; exit 1; }

say "trace smoke (structured event log must parse; tracing must not perturb the run)"
rm -f results/trace_paper.jsonl
cargo run --release --offline -p experiments -- trace --scenario paper --lambda 8 --horizon 300
test -s results/trace_paper.jsonl || { echo "trace_paper.jsonl missing or empty" >&2; exit 1; }

say "analyze smoke (causal report over a traced failover cell)"
rm -f results/trace_failover.jsonl
cargo run --release --offline -p experiments -- trace --scenario failover --lambda 6 --horizon 120
test -s results/trace_failover.jsonl || { echo "trace_failover.jsonl missing or empty" >&2; exit 1; }
analysis=$(cargo run --release --offline -p experiments -- analyze --input results/trace_failover.jsonl)
echo "$analysis" | grep -q '^## Trace analysis (A19)' \
    || { echo "analyze output lacks the A19 report header" >&2; exit 1; }
echo "$analysis" | grep -q 'time-to-recovery' \
    || { echo "analyze found no recovery critical path in the failover trace" >&2; exit 1; }
# Every admitted and every recovered task in the trace must carry a
# complete lineage chain: "admitted: N (N lineage-complete)".
echo "$analysis" | awk '
    # Line shape: admitted: N (N lineage-complete), recovered: M (M lineage-complete), ...
    /^admitted:/ {
        if ($2 != substr($3, 2)) { print "incomplete admission lineage: " $0; bad = 1 }
        if ($6 != substr($7, 2)) { print "incomplete recovery lineage: " $0; bad = 1 }
        seen = 1
    }
    END { exit (seen && !bad) ? 0 : 1 }
' || { echo "analyze lineage check failed" >&2; exit 1; }
echo "analyze smoke ok: critical path present, lineage complete"

say "println guard (simcore/net/node/core/sim/agile/runner/workload library code must use the trace layer)"
if grep -rn 'println!\|eprintln!\|dbg!' \
        crates/simcore/src crates/net/src crates/node/src crates/core/src crates/sim/src \
        crates/agile/src crates/runner/src crates/workload/src; then
    echo "stray stdout/stderr in library code: route it through simcore::trace" >&2
    exit 1
fi

say "sweep smoke (--jobs 1 and --jobs 2 must emit byte-identical artifacts)"
ns_now() { date +%s%N; }
# Five interleaved timed pairs; the per-arm minimum is the noise-robust
# wall-time estimator (contention on a shared runner only ever slows a
# run down, so the minimum is the least-contended measurement, and
# interleaving means a slow window hits both arms alike).
serial_min=0; jobs2_min=0
for rep in 1 2 3 4 5; do
    t0=$(ns_now)
    cargo run --release --offline -p experiments -- \
        figures --quick true --lambdas 2,5,8 --seed 42 --jobs 1 --out "$sweep1" >/dev/null
    t1=$(ns_now)
    cargo run --release --offline -p experiments -- \
        figures --quick true --lambdas 2,5,8 --seed 42 --jobs 2 --out "$sweep2" >/dev/null
    t2=$(ns_now)
    s=$((t1 - t0)); j=$((t2 - t1))
    if [ "$serial_min" -eq 0 ] || [ "$s" -lt "$serial_min" ]; then serial_min=$s; fi
    if [ "$jobs2_min" -eq 0 ] || [ "$j" -lt "$jobs2_min" ]; then jobs2_min=$j; fi
done
for stem in fig5_admission_probability fig6_number_of_messages \
            fig7_cost_per_admitted_task fig8_migration_rate; do
    test -s "$sweep1/$stem.csv" || { echo "$stem.csv missing from --jobs 1 run" >&2; exit 1; }
    if ! cmp -s "$sweep1/$stem.csv" "$sweep2/$stem.csv"; then
        echo "sweep artifact $stem.csv differs between --jobs 1 and --jobs 2:" >&2
        diff "$sweep1/$stem.csv" "$sweep2/$stem.csv" | head -20 >&2
        exit 1
    fi
done
awk -v serial="$serial_min" -v jobs2="$jobs2_min" 'BEGIN {
    printf "{\"group\":\"smoke/sweep\",\"name\":\"figures_quick_grid\",\"cells\":15,"
    printf "\"serial_ns\":%d,\"jobs2_ns\":%d,\"speedup_jobs2\":%.3f}\n", serial, jobs2, serial / jobs2
}' >> results/bench_smoke.json
echo "sweep smoke ok: jobs 1 vs 2 byte-identical; timings appended to results/bench_smoke.json"
# The --jobs 2 sweep must be no slower than serial (the PR-8 pool fix:
# workers clamp to real hardware, so on a single core jobs-2 takes the
# serial fast path). Tolerance 0.95 absorbs residual startup jitter on a
# shared single-core runner; a structural slowdown lands well below it.
awk -v s="$(bench_field results/bench_smoke.json smoke/sweep speedup_jobs2)" 'BEGIN {
    if (s + 0 < 0.95) {
        printf "--jobs 2 figures sweep slower than serial: speedup %.3f < 0.95\n", s
        exit 1
    }
}' || exit 1

say "churn smoke (continuous churn must interrupt, recover, and balance the ledger)"
t0=$(ns_now)
cargo run --release --offline -p experiments -- \
    churn --smoke true --seed 42 --jobs 1 --out "$churn1" >/dev/null
t1=$(ns_now)
cargo run --release --offline -p experiments -- \
    churn --smoke true --seed 42 --jobs 2 --out "$churn2" >/dev/null
t2=$(ns_now)
test -s "$churn1/churn_summary.csv" || { echo "churn_summary.csv missing from --jobs 1 run" >&2; exit 1; }
if ! cmp -s "$churn1/churn_summary.csv" "$churn2/churn_summary.csv"; then
    echo "churn_summary.csv differs between --jobs 1 and --jobs 2:" >&2
    diff "$churn1/churn_summary.csv" "$churn2/churn_summary.csv" | head -20 >&2
    exit 1
fi
awk -v serial=$((t1 - t0)) -v jobs2=$((t2 - t1)) 'BEGIN {
    printf "{\"group\":\"smoke/churn\",\"name\":\"churn_smoke_cell\",\"cells\":2,"
    printf "\"serial_ns\":%d,\"jobs2_ns\":%d,\"speedup_jobs2\":%.3f}\n", serial, jobs2, serial / jobs2
}' >> results/bench_smoke.json
echo "churn smoke ok: jobs 1 vs 2 byte-identical; timings appended to results/bench_smoke.json"

say "cluster smoke (crash wave on the live runtime must recover and balance the ledger)"
rm -f results/cluster_run.jsonl
t0=$(ns_now)
cargo run --release --offline -p experiments -- cluster --smoke true --seed 42 >/dev/null
t1=$(ns_now)
test -s results/cluster_run.jsonl || { echo "cluster_run.jsonl missing or empty" >&2; exit 1; }
awk -v wall=$((t1 - t0)) 'BEGIN {
    printf "{\"group\":\"smoke/cluster\",\"name\":\"cluster_smoke_crash_wave\",\"hosts\":5,"
    printf "\"wall_ns\":%d}\n", wall
}' >> results/bench_smoke.json
echo "cluster smoke ok: recovery + ledger asserted; timing appended to results/bench_smoke.json"

say "prometheus lint (live exposition snapshot must be valid text format)"
test -s results/cluster_metrics.prom || { echo "cluster_metrics.prom missing or empty" >&2; exit 1; }
# Offline lint of the Prometheus text exposition format: every line is a
# # HELP / # TYPE header or a sample `name{labels} value`; sample names
# are valid metric identifiers; values parse as numbers (or +/-Inf/NaN);
# and every sample's family was announced by # HELP and # TYPE first.
awk '
    /^# HELP [a-zA-Z_:][a-zA-Z0-9_:]* / { help[$3] = 1; next }
    /^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram|summary|untyped)$/ { type[$3] = 1; next }
    /^#/ { print "malformed comment line " NR ": " $0; bad = 1; next }
    /^$/ { next }
    {
        if (!match($0, /^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?([0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?|\+?Inf|NaN)$/)) {
            print "malformed sample line " NR ": " $0; bad = 1; next
        }
        name = $1; sub(/\{.*/, "", name)
        # histogram/summary series carry the family name plus a suffix
        fam = name
        sub(/_(bucket|sum|count)$/, "", fam)
        if (!(name in help) && !(fam in help)) { print "sample without # HELP at line " NR ": " name; bad = 1 }
        if (!(name in type) && !(fam in type)) { print "sample without # TYPE at line " NR ": " name; bad = 1 }
        samples++
    }
    END {
        if (!samples) { print "no samples in exposition"; bad = 1 }
        exit bad ? 1 : 0
    }
' results/cluster_metrics.prom || { echo "prometheus lint failed on results/cluster_metrics.prom" >&2; exit 1; }
echo "prometheus lint ok: $(grep -c '^# TYPE' results/cluster_metrics.prom) metric families in results/cluster_metrics.prom"

say "golden-figure re-check (chaos off must leave the paper baseline bit-exact)"
cargo test --release --offline -p realtor --test golden_figures --quiet

say "invalid-input guard (unknown scenario / bad --jobs / bad attack script must exit nonzero)"
if cargo run --release --offline -p experiments -- no-such-scenario 2>/dev/null; then
    echo "unknown scenario must exit nonzero" >&2; exit 1
fi
if cargo run --release --offline -p experiments -- figures --jobs 0 2>/dev/null; then
    echo "--jobs 0 must exit nonzero" >&2; exit 1
fi
if cargo run --release --offline -p experiments -- attack --kill-fraction 99 2>/dev/null; then
    echo "an impossible attack script (kill 99x the cluster) must exit nonzero" >&2; exit 1
fi

say "CI green"
