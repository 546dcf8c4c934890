#!/bin/sh
# Multicore scaling gate: run the batch bench smoke on a host with real
# cores and enforce the claim that the ordinary bench gate cannot read
# from single-core hardware: the file must NOT be degraded,
# byte_identical must hold and the concurrency-8 QPS win must be >= 1.3.
#
# CI invokes this behind an nproc guard; invoked on a single-core host
# it skips (exit 0) rather than producing meaningless time-sliced
# numbers.
#
# Usage: scripts/scaling_gate.sh
# Environment:
#   FRESH_BATCH=path     use a pre-made batch bench JSON (testing)
set -eu

cd "$(dirname "$0")/.."

fail() { echo "scaling-gate: FAIL - $*" >&2; exit 1; }

command -v python3 >/dev/null || fail "python3 not found"

cores="$( (command -v nproc >/dev/null 2>&1 && nproc) || getconf _NPROCESSORS_ONLN || echo 1 )"
if [ "$cores" -lt 2 ]; then
  echo "scaling-gate: SKIP - host has $cores core(s); scaling needs >= 2"
  exit 0
fi
echo "scaling-gate: host_cores=$cores"

TMP=""
cleanup() { [ -n "$TMP" ] && rm -rf "$TMP"; }
trap cleanup EXIT INT TERM
TMP="$(mktemp -d)"

if [ -n "${FRESH_BATCH:-}" ]; then
  cp "$FRESH_BATCH" "$TMP/batch.json"
else
  echo "scaling-gate: running batch_bench --smoke"
  dune exec bench/batch_bench.exe -- --smoke --out "$TMP/batch.json" >/dev/null
fi

python3 - "$TMP/batch.json" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    doc = json.load(f)
bad = []
if doc.get("mode") == "degraded":
    bad.append(("mode", "degraded", "a real multicore run"))
if doc.get("byte_identical") is not True:
    bad.append(("byte_identical", doc.get("byte_identical"), "true"))
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
for k, v in sorted(found.items()):
    print(f"scaling-gate: batch: {k} = {v:.2f}")
c8 = found.get("speedup_batch_c8_total")
if not (isinstance(c8, (int, float)) and c8 >= 1.3):
    bad.append(("speedup_batch_c8_total", c8, ">= 1.3"))
if bad:
    for k, v, want in bad:
        print(f"scaling-gate: FAIL - batch: {k} = {v} (want {want})", file=sys.stderr)
    sys.exit(1)
EOF

echo "scaling-gate: PASS"
