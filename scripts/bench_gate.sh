#!/bin/sh
# Bench regression gate: run the --smoke benchmarks and fail if any
# packed-vs-reference aggregate speedup dropped below parity, i.e. the
# packed SLCA kernels became slower than the list-based reference
# engines they are measured against.
#
# Usage:
#   scripts/bench_gate.sh
#
# Environment:
#   FRESH_SLCA=path      use a pre-made slca bench JSON instead of running
#   FRESH_REFINE=path    use a pre-made refine bench JSON instead of running
#   FRESH_BATCH=path     use a pre-made batch bench JSON instead of running
#   (these are how an injected regression is demonstrated / tested)
#   BENCH_OUT_DIR=dir    also copy the fresh smoke JSONs there (created if
#                        missing) — CI uploads them as workflow artifacts
#
# The slca bench is checked twice:
#   1. the committed baseline (BENCH_slca.json) parses and shows every
#      `speedup_*_total` >= 1.0 — the committed numbers must never claim
#      a regression;
#   2. the fresh --smoke run shows every `speedup_*_total` >= 0.90 — the
#      tree being tested must not have regressed packed below parity.
#      Fresh runs get a noise floor rather than strict parity because the
#      smallest corpus (figure1, 33 nodes) times in nanoseconds and swings
#      several percent run to run; a genuine regression is systematic and
#      clears 10% easily.
# The refine bench (BENCH_refine.json) reports absolute packed times
# only — the boxed reference it was once divided by is gone — so it is
# checked for shape, committed and fresh alike: the file parses, records
# `host_cores` and `mode`, and every corpus lists 4 workloads x 3
# algorithms, each with a finite positive `packed_ns` (warm memo) and
# `cold_ns` (empty co-occurrence memo). Refinement speed
# is bounded end to end by BENCHMARK.json's refine_cold workload.
# The batch bench (BENCH_batch.json) is gated at the 0.90 noise floor for
# every `speedup_batch_c*_total` (c1 measures the batch layer's constant
# cost on an uncontended server — expected ~1.0, so only the noise floor
# applies) and additionally requires the concurrency-8 speedup >= 1.3 and
# `byte_identical` = true (batching must never change a response body).
# The slca bench additionally records `tracing_off_overhead_pct` — the
# cost of the observability instrumentation with tracing disabled,
# measured against the bare kernel in the same run — and
# `analyze_off_overhead_pct` — the cost of the ANALYZE collection
# machinery (pool-task wrapper + guarded stage notes) with no report
# active. Each is the median over interleaved (instrumented, bare)
# pairs of the dblp query set, so one disturbed sample cannot fail the
# gate; both are gated at <= 2.0 in the committed and the fresh file.
#
# Every check runs even after one fails; the gate prints each failure as
# it happens, names the failed checks again at the end, and then exits 1.
set -eu

cd "$(dirname "$0")/.."

fail() { echo "bench-gate: FAIL - $*" >&2; exit 1; }

command -v python3 >/dev/null || fail "python3 not found"

TMP=""
cleanup() { [ -n "$TMP" ] && rm -rf "$TMP"; }
trap cleanup EXIT INT TERM
TMP="$(mktemp -d)"

# gate LABEL CHECK ARGS...: run one check and record, not propagate, its
# failure, so a red run names every failing gate instead of the first.
FAILED=""
gate() {
  label="$1"
  shift
  if ! "$@"; then FAILED="$FAILED
  $label"; fi
}

# check_speedups FILE LABEL [MIN]: every key named speedup_*_total,
# anywhere in the JSON, must be >= MIN (default 1.0; fresh runs pass
# 0.90 as a noise floor for the nanosecond-scale corpora).
check_speedups() {
  python3 - "$1" "$2" "${3:-1.0}" <<'EOF'
import json, sys

path, label, floor = sys.argv[1], sys.argv[2], float(sys.argv[3])
try:
    with open(path) as f:
        doc = json.load(f)
except (OSError, ValueError) as e:
    print(f"bench-gate: FAIL - {label}: cannot read {path}: {e}", file=sys.stderr)
    sys.exit(1)

found, bad = [], []
def walk(node, ctx):
    if isinstance(node, dict):
        name = node.get("name", ctx)
        for k, v in node.items():
            if k.startswith("speedup_") and k.endswith("_total"):
                found.append((name, k, v))
                if not (isinstance(v, (int, float)) and v >= floor):
                    bad.append((name, k, v))
            else:
                walk(v, name)
    elif isinstance(node, list):
        for v in node:
            walk(v, ctx)

walk(doc, "?")
if not found:
    print(f"bench-gate: FAIL - {label}: no speedup_*_total keys in {path}", file=sys.stderr)
    sys.exit(1)
for name, k, v in found:
    print(f"bench-gate: {label}: {name}.{k} = {v:.2f}")
if bad:
    for name, k, v in bad:
        print(f"bench-gate: FAIL - {label}: {name}.{k} = {v} < {floor}", file=sys.stderr)
    sys.exit(1)
EOF
}

# check_refine_shape FILE LABEL: the refine bench's shape (see header
# comment) — it times absolute packed runs, so there is no ratio to gate.
check_refine_shape() {
  python3 - "$1" "$2" <<'EOF'
import json, math, sys

path, label = sys.argv[1], sys.argv[2]
try:
    with open(path) as f:
        doc = json.load(f)
except (OSError, ValueError) as e:
    print(f"bench-gate: FAIL - {label}: cannot read {path}: {e}", file=sys.stderr)
    sys.exit(1)

bad = []
for key in ("host_cores", "mode"):
    if key not in doc:
        bad.append(f"no {key}")
corpora = doc.get("corpora")
if not isinstance(corpora, list) or not corpora:
    bad.append("no corpora")
    corpora = []
for c in corpora:
    name = c.get("name", "?")
    workloads = c.get("workloads")
    if not isinstance(workloads, list) or len(workloads) != 4:
        bad.append(f"{name}: want 4 workloads")
        continue
    for w in workloads:
        wname = w.get("name", "?")
        algs = w.get("algorithms")
        if not isinstance(algs, list) or len(algs) != 3:
            bad.append(f"{name}/{wname}: want 3 algorithms")
            continue
        for a in algs:
            for key in ("packed_ns", "cold_ns"):
                ns = a.get(key)
                if not (isinstance(ns, (int, float)) and math.isfinite(ns) and ns > 0):
                    bad.append(f"{name}/{wname}/{a.get('algorithm', '?')}: {key} = {ns}")
    print(f"bench-gate: {label}: {name}.packed_ns_total = {c.get('packed_ns_total')}"
          f" cold_ns_total = {c.get('cold_ns_total')}")
print(f"bench-gate: {label}: mode={doc.get('mode')} host_cores={doc.get('host_cores')}")
if bad:
    for b in bad:
        print(f"bench-gate: FAIL - {label}: {b}", file=sys.stderr)
    sys.exit(1)
EOF
}

# check_batch FILE LABEL: every speedup_batch_c*_total >= 0.90 (noise
# floor; c1 is a parity check on the uncontended path), the c8 speedup
# >= 1.3 (the headline aggregate-QPS win batching exists for), and
# byte_identical must be true.
check_batch() {
  python3 - "$1" "$2" <<'EOF'
import json, sys

path, label = sys.argv[1], sys.argv[2]
try:
    with open(path) as f:
        doc = json.load(f)
except (OSError, ValueError) as e:
    print(f"bench-gate: FAIL - {label}: cannot read {path}: {e}", file=sys.stderr)
    sys.exit(1)

found = {}
def walk(node):
    if isinstance(node, dict):
        for k, v in node.items():
            if k.startswith("speedup_batch_c") and k.endswith("_total"):
                found[k] = v
            else:
                walk(v)
    elif isinstance(node, list):
        for v in node:
            walk(v)

walk(doc)
if not found:
    print(f"bench-gate: FAIL - {label}: no speedup_batch_c*_total keys in {path}", file=sys.stderr)
    sys.exit(1)
mode = doc.get("mode")
cores = doc.get("host_cores")
print(f"bench-gate: {label}: mode={mode} host_cores={cores}")
if isinstance(cores, int) and cores < 2 and mode != "degraded":
    print(f"bench-gate: FAIL - {label}: single-core numbers not tagged "
          f"\"mode\": \"degraded\"", file=sys.stderr)
    sys.exit(1)
if mode == "degraded":
    print(f"bench-gate: {label}: degraded (single-core) file - coalescing wins are "
          f"still real (blocked followers, one render), so the QPS floors stay gated")
bad = []
for k, v in sorted(found.items()):
    print(f"bench-gate: {label}: {k} = {v:.2f}")
    if not (isinstance(v, (int, float)) and v >= 0.90):
        bad.append((k, v, 0.90))
c8 = found.get("speedup_batch_c8_total")
if not isinstance(c8, (int, float)):
    print(f"bench-gate: FAIL - {label}: no speedup_batch_c8_total in {path}", file=sys.stderr)
    sys.exit(1)
if c8 < 1.3:
    bad.append(("speedup_batch_c8_total", c8, 1.3))
if doc.get("byte_identical") is not True:
    print(f"bench-gate: FAIL - {label}: byte_identical is not true", file=sys.stderr)
    sys.exit(1)
if bad:
    for k, v, floor in bad:
        print(f"bench-gate: FAIL - {label}: {k} = {v} < {floor}", file=sys.stderr)
    sys.exit(1)
EOF
}

# check_overhead FILE LABEL: tracing_off_overhead_pct and
# analyze_off_overhead_pct must be present and <= 2.0 — instrumentation
# with tracing disabled, and the ANALYZE machinery with no report
# active, must each stay within 2% of the bare kernel.
check_overhead() {
  python3 - "$1" "$2" <<'EOF'
import json, sys

path, label = sys.argv[1], sys.argv[2]
try:
    with open(path) as f:
        doc = json.load(f)
except (OSError, ValueError) as e:
    print(f"bench-gate: FAIL - {label}: cannot read {path}: {e}", file=sys.stderr)
    sys.exit(1)

bad = False
for key in ("tracing_off_overhead_pct", "analyze_off_overhead_pct"):
    pct = doc.get(key)
    if not isinstance(pct, (int, float)):
        print(f"bench-gate: FAIL - {label}: no {key} in {path}", file=sys.stderr)
        sys.exit(1)
    q = doc.get(key.replace("_pct", "_quartiles_pct"))
    spread = f" (quartiles {q[0]:+.2f}% .. {q[1]:+.2f}%)" if isinstance(q, list) and len(q) == 2 else ""
    print(f"bench-gate: {label}: {key} = {pct:+.2f}%{spread}")
    if pct > 2.0:
        print(f"bench-gate: FAIL - {label}: {key} {pct:.2f}% > 2.0%", file=sys.stderr)
        bad = True
if bad:
    sys.exit(1)
EOF
}

# 1. committed baselines
gate "committed slca speedups" check_speedups BENCH_slca.json "committed slca"
gate "committed slca overhead" check_overhead BENCH_slca.json "committed slca"
gate "committed refine shape" check_refine_shape BENCH_refine.json "committed refine"
gate "committed batch" check_batch BENCH_batch.json "committed batch"

# 2. fresh smoke runs (or injected substitutes)
if [ -n "${FRESH_SLCA:-}" ]; then
  cp "$FRESH_SLCA" "$TMP/slca.json"
else
  echo "bench-gate: running slca_bench --smoke"
  gate "fresh slca run" \
    dune exec bench/slca_bench.exe -- --smoke --out "$TMP/slca.json" >/dev/null
fi
if [ -n "${FRESH_REFINE:-}" ]; then
  cp "$FRESH_REFINE" "$TMP/refine.json"
else
  echo "bench-gate: running refine_bench --smoke"
  gate "fresh refine run" \
    dune exec bench/refine_bench.exe -- --smoke --out "$TMP/refine.json" >/dev/null
fi

if [ -n "${FRESH_BATCH:-}" ]; then
  cp "$FRESH_BATCH" "$TMP/batch.json"
else
  echo "bench-gate: running batch_bench --smoke (asserts batched = unbatched bytes)"
  gate "fresh batch run" \
    dune exec bench/batch_bench.exe -- --smoke --out "$TMP/batch.json" >/dev/null
fi

if [ -n "${BENCH_OUT_DIR:-}" ]; then
  mkdir -p "$BENCH_OUT_DIR"
  for b in slca refine batch; do
    if [ -f "$TMP/$b.json" ]; then
      cp "$TMP/$b.json" "$BENCH_OUT_DIR/BENCH_${b}_smoke.json"
    fi
  done
  echo "bench-gate: fresh smoke JSONs copied to $BENCH_OUT_DIR"
fi

gate "fresh slca speedups" check_speedups "$TMP/slca.json" "fresh slca" 0.90
gate "fresh slca overhead" check_overhead "$TMP/slca.json" "fresh slca"
gate "fresh refine shape" check_refine_shape "$TMP/refine.json" "fresh refine"
gate "fresh batch" check_batch "$TMP/batch.json" "fresh batch"

if [ -n "$FAILED" ]; then
  echo "bench-gate: FAIL - failed checks:$FAILED" >&2
  exit 1
fi
echo "bench-gate: PASS"
