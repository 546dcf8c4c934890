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
#   FRESH_PARALLEL=path  use a pre-made parallel bench JSON instead of running
#   FRESH_BATCH=path     use a pre-made batch bench JSON instead of running
#   FRESH_DAG=path       use a pre-made dag bench JSON instead of running
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
# algorithms, each with a finite positive `packed_ns`. Refinement speed
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
# active. Both are gated at <= 2.0 in the committed and the fresh file.
# The dag bench (BENCH_dag.json) gates the compression claim: the dblp
# `bytes_per_node_ratio` (dag/flat) must stay <= 0.5 in the committed
# full-size baseline and <= 0.6 in the fresh --smoke run (the 300-pub
# smoke corpus has proportionally less subtree repetition, so its floor
# is looser), and `speedup_dag_total` (flat-vs-dag query time on the
# serving mix) must stay >= 0.90 for every corpus of >= 1000 nodes —
# compression must not cost query throughput beyond the noise floor.
# Sub-1000-node corpora (figure1, 33 nodes) are reported but not
# speedup-gated: their scans take hundreds of ns, so the ratio measures
# timer and scheduling noise, not serving cost.
set -eu

cd "$(dirname "$0")/.."

fail() { echo "bench-gate: FAIL - $*" >&2; exit 1; }

command -v python3 >/dev/null || fail "python3 not found"

TMP=""
cleanup() { [ -n "$TMP" ] && rm -rf "$TMP"; }
trap cleanup EXIT INT TERM
TMP="$(mktemp -d)"

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
            ns = a.get("packed_ns")
            if not (isinstance(ns, (int, float)) and math.isfinite(ns) and ns > 0):
                bad.append(f"{name}/{wname}/{a.get('algorithm', '?')}: packed_ns = {ns}")
    print(f"bench-gate: {label}: {name}.packed_ns_total = {c.get('packed_ns_total')}")
print(f"bench-gate: {label}: mode={doc.get('mode')} host_cores={doc.get('host_cores')}")
if bad:
    for b in bad:
        print(f"bench-gate: FAIL - {label}: {b}", file=sys.stderr)
    sys.exit(1)
EOF
}

# check_parallel FILE LABEL SKEWFLOOR: the parallel bench byte-compares
# against the sequential kernel before timing, so a parseable file
# already certifies correctness. Scaling is gated only on genuinely
# multicore numbers:
#   - a file produced on a single-core host MUST be tagged
#     "mode": "degraded" (untagged single-core numbers fail the gate —
#     they must never pass as a baseline) and its speedups are printed
#     but not enforced;
#   - a degraded tag always disables the speedup gates, whatever the
#     host count says — the tag is the bench's own honesty marker;
#   - on a multicore, non-degraded file: every corpus must carry the
#     full p1/p2/p4/p8 scaling curve, the dblp P=4 aggregate must be
#     >= 1.0 (>= 1.5 for a full-size run on >= 4 cores — the headline
#     serving-mix claim), and the skewed 4-keyword dblp query must be
#     >= SKEWFLOOR (1.0 committed, 0.90 fresh smoke noise floor).
check_parallel() {
  python3 - "$1" "$2" "$3" <<'EOF'
import json, sys

path, label, skew_floor = sys.argv[1], sys.argv[2], float(sys.argv[3])
try:
    with open(path) as f:
        doc = json.load(f)
except (OSError, ValueError) as e:
    print(f"bench-gate: FAIL - {label}: cannot read {path}: {e}", file=sys.stderr)
    sys.exit(1)

mode = doc.get("mode")
cores = doc.get("host_cores")
speedup = doc.get("speedup_dblp_p4_total")
skew = doc.get("speedup_dblp_p4_skew4")
if not isinstance(speedup, (int, float)):
    print(f"bench-gate: FAIL - {label}: no speedup_dblp_p4_total in {path}", file=sys.stderr)
    sys.exit(1)
skew_str = f"{skew:.2f}" if isinstance(skew, (int, float)) else str(skew)
print(f"bench-gate: {label}: mode={mode} host_cores={cores} "
      f"speedup_dblp_p4_total={speedup:.2f} speedup_dblp_p4_skew4={skew_str}")
if isinstance(cores, int) and cores < 2 and mode != "degraded":
    print(f"bench-gate: FAIL - {label}: single-core numbers not tagged "
          f"\"mode\": \"degraded\" - refusing them as a baseline", file=sys.stderr)
    sys.exit(1)
if mode == "degraded":
    print(f"bench-gate: {label}: degraded (single-core) file - speedups recorded, "
          f"NOT a scaling baseline, not gated")
    sys.exit(0)
if not (isinstance(cores, int) and cores >= 2):
    print(f"bench-gate: FAIL - {label}: no usable host_cores in {path}", file=sys.stderr)
    sys.exit(1)

bad = []
for c in doc.get("corpora", []):
    name = c.get("name", "?")
    curve = []
    for p in (1, 2, 4, 8):
        v = c.get(f"speedup_p{p}")
        if not isinstance(v, (int, float)):
            bad.append((f"{name}.speedup_p{p}", v, "present (full scaling curve)"))
        else:
            curve.append(f"p{p}={v:.2f}")
    print(f"bench-gate: {label}: {name} curve: {' '.join(curve)}")
if speedup < 1.0:
    bad.append(("speedup_dblp_p4_total", speedup, ">= 1.0"))
if doc.get("run") == "full" and cores >= 4 and speedup < 1.5:
    bad.append(("speedup_dblp_p4_total", speedup, ">= 1.5 (full run, >= 4 cores)"))
if not (isinstance(skew, (int, float)) and skew >= skew_floor):
    bad.append(("speedup_dblp_p4_skew4", skew, f">= {skew_floor}"))
if bad:
    for k, v, want in bad:
        print(f"bench-gate: FAIL - {label}: {k} = {v} (want {want})", file=sys.stderr)
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
    print(f"bench-gate: {label}: {key} = {pct:+.2f}%")
    if pct > 2.0:
        print(f"bench-gate: FAIL - {label}: {key} {pct:.2f}% > 2.0%", file=sys.stderr)
        bad = True
if bad:
    sys.exit(1)
EOF
}

# check_dag FILE LABEL MAXRATIO: the dblp bytes_per_node_ratio (dag
# bytes over flat bytes, same document) must be <= MAXRATIO, and
# speedup_dag_total (flat/dag query time on the serving mix) >= 0.90
# for every corpus of >= 1000 nodes — the compression claim and the
# it-costs-nothing-at-query-time claim. Toy corpora below 1000 nodes
# time ns-scale scans, so their speedups are printed but not enforced
# (see header comment).
check_dag() {
  python3 - "$1" "$2" "$3" <<'EOF'
import json, sys

path, label, maxratio = sys.argv[1], sys.argv[2], float(sys.argv[3])
try:
    with open(path) as f:
        doc = json.load(f)
except (OSError, ValueError) as e:
    print(f"bench-gate: FAIL - {label}: cannot read {path}: {e}", file=sys.stderr)
    sys.exit(1)

print(f"bench-gate: {label}: host_cores = {doc.get('host_cores')}")
corpora = doc.get("corpora")
if not isinstance(corpora, list) or not corpora:
    print(f"bench-gate: FAIL - {label}: no corpora in {path}", file=sys.stderr)
    sys.exit(1)
bad = []
dblp_ratio = None
for c in corpora:
    name = c.get("name", "?")
    nodes = c.get("nodes", 0)
    ratio = c.get("bytes_per_node_ratio")
    speedup = c.get("speedup_dag_total")
    gated = isinstance(nodes, int) and nodes >= 1000
    print(f"bench-gate: {label}: {name}.bytes_per_node_ratio = {ratio:.3f}, "
          f"{name}.speedup_dag_total = {speedup:.2f}"
          + ("" if gated else f" (toy corpus, {nodes} nodes - not gated)"))
    if name == "dblp":
        dblp_ratio = ratio
    if gated and not (isinstance(speedup, (int, float)) and speedup >= 0.90):
        bad.append((f"{name}.speedup_dag_total", speedup, ">= 0.90"))
if dblp_ratio is None:
    print(f"bench-gate: FAIL - {label}: no dblp corpus in {path}", file=sys.stderr)
    sys.exit(1)
if not (isinstance(dblp_ratio, (int, float)) and dblp_ratio <= maxratio):
    bad.append(("dblp.bytes_per_node_ratio", dblp_ratio, f"<= {maxratio}"))
if bad:
    for k, v, want in bad:
        print(f"bench-gate: FAIL - {label}: {k} = {v} (want {want})", file=sys.stderr)
    sys.exit(1)
EOF
}

# 1. committed baselines
check_speedups BENCH_slca.json "committed slca"
check_overhead BENCH_slca.json "committed slca"
check_refine_shape BENCH_refine.json "committed refine"
check_parallel BENCH_parallel.json "committed parallel" 1.0
check_batch BENCH_batch.json "committed batch"
check_dag BENCH_dag.json "committed dag" 0.5

# 2. fresh smoke runs (or injected substitutes)
if [ -n "${FRESH_SLCA:-}" ]; then
  cp "$FRESH_SLCA" "$TMP/slca.json"
else
  echo "bench-gate: running slca_bench --smoke"
  dune exec bench/slca_bench.exe -- --smoke --out "$TMP/slca.json" >/dev/null
fi
if [ -n "${FRESH_REFINE:-}" ]; then
  cp "$FRESH_REFINE" "$TMP/refine.json"
else
  echo "bench-gate: running refine_bench --smoke"
  dune exec bench/refine_bench.exe -- --smoke --out "$TMP/refine.json" >/dev/null
fi

if [ -n "${FRESH_PARALLEL:-}" ]; then
  cp "$FRESH_PARALLEL" "$TMP/parallel.json"
else
  echo "bench-gate: running parallel_bench --smoke (asserts parallel = sequential)"
  dune exec bench/parallel_bench.exe -- --smoke --out "$TMP/parallel.json" >/dev/null
fi

if [ -n "${FRESH_BATCH:-}" ]; then
  cp "$FRESH_BATCH" "$TMP/batch.json"
else
  echo "bench-gate: running batch_bench --smoke (asserts batched = unbatched bytes)"
  dune exec bench/batch_bench.exe -- --smoke --out "$TMP/batch.json" >/dev/null
fi

if [ -n "${FRESH_DAG:-}" ]; then
  cp "$FRESH_DAG" "$TMP/dag.json"
else
  echo "bench-gate: running dag_bench --smoke (asserts dag = flat results)"
  dune exec bench/dag_bench.exe -- --smoke --out "$TMP/dag.json" >/dev/null
fi

if [ -n "${BENCH_OUT_DIR:-}" ]; then
  mkdir -p "$BENCH_OUT_DIR"
  for b in slca refine parallel batch dag; do
    cp "$TMP/$b.json" "$BENCH_OUT_DIR/BENCH_${b}_smoke.json"
  done
  echo "bench-gate: fresh smoke JSONs copied to $BENCH_OUT_DIR"
fi

check_speedups "$TMP/slca.json" "fresh slca" 0.90
check_overhead "$TMP/slca.json" "fresh slca"
check_refine_shape "$TMP/refine.json" "fresh refine"
check_parallel "$TMP/parallel.json" "fresh parallel" 0.90
check_batch "$TMP/batch.json" "fresh batch"
check_dag "$TMP/dag.json" "fresh dag" 0.6

echo "bench-gate: PASS"
