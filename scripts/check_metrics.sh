#!/bin/sh
# Prometheus exposition smoke check: generate a scratch corpus, start
# `xrefine serve`, drive a few requests, then fetch /metrics and validate
# the text exposition with a small parser — content type, line grammar
# (including the trace-id exemplar suffix on histogram buckets),
# TYPE-before-samples ordering, histogram bucket monotonicity, and the
# presence of the core xr_* families (request, cache, pool, GC, and
# cost-model-drift), and that the scraped xr_* families match the
# metric tables of doc/OBSERVABILITY.md both ways: every family in the
# scrape has a row, and every row names a family in the scrape. Also
# asserts /metrics.json still parses as JSON with an application/json
# content type.
#
# Usage:
#   scripts/check_metrics.sh            # builds with dune, random-ish port
#   CHECK_METRICS_PORT=18990 scripts/check_metrics.sh
set -eu

cd "$(dirname "$0")/.."

PORT="${CHECK_METRICS_PORT:-18990}"
TMP=""
SERVER_PID=""

cleanup() {
  [ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null || true
  [ -n "$SERVER_PID" ] && wait "$SERVER_PID" 2>/dev/null || true
  [ -n "$TMP" ] && rm -rf "$TMP"
}
trap cleanup EXIT INT TERM

TMP="$(mktemp -d)"

fail() { echo "check-metrics: FAIL - $*" >&2; exit 1; }

command -v curl >/dev/null || fail "curl not found"
command -v python3 >/dev/null || fail "python3 not found"

echo "check-metrics: generating scratch corpus"
dune exec xrefine -- generate dblp -n 200 -o "$TMP/corpus.xml" >/dev/null

tries=0
while :; do
  echo "check-metrics: starting xrefine serve on port $PORT"
  dune exec --no-build xrefine -- serve -d "$TMP/corpus.xml" -p "$PORT" \
    --domains 2 --quiet >"$TMP/server.log" 2>&1 &
  SERVER_PID=$!

  BASE="http://127.0.0.1:$PORT"
  i=0
  up=1
  until curl -sf "$BASE/health" >/dev/null 2>&1; do
    i=$((i + 1))
    [ "$i" -gt 50 ] && { up=0; break; }
    kill -0 "$SERVER_PID" 2>/dev/null || { up=0; break; }
    sleep 0.1
  done
  [ "$up" = 1 ] && break

  if grep -qi 'address already in use\|EADDRINUSE' "$TMP/server.log" \
     && [ "$tries" -lt 9 ]; then
    kill "$SERVER_PID" 2>/dev/null || true
    wait "$SERVER_PID" 2>/dev/null || true
    SERVER_PID=""
    tries=$((tries + 1))
    PORT=$((PORT + 1))
    echo "check-metrics: port occupied, retrying on $PORT"
    continue
  fi
  cat "$TMP/server.log" >&2
  fail "server did not come up"
done

# Drive enough traffic to populate every request-path family (including a
# repeated query for a cache hit).
for target in \
  '/search?q=database+title' \
  '/search?q=database+title' \
  '/refine?q=data+base&k=2' \
  '/stats' \
  '/health'
do
  curl -sf "$BASE$target" >/dev/null || fail "warm-up GET $target failed"
done

ct=$(curl -s -o "$TMP/metrics.txt" -w '%{content_type}' "$BASE/metrics")
[ "$ct" = "text/plain; version=0.0.4" ] \
  || fail "/metrics content-type is '$ct' (want 'text/plain; version=0.0.4')"

python3 - "$TMP/metrics.txt" doc/OBSERVABILITY.md <<'EOF'
import re, sys

path, doc_path = sys.argv[1], sys.argv[2]
with open(path) as f:
    lines = f.read().split("\n")

# name{labels} value [exemplar] — labels optional; value is a
# prometheus float; the optional exemplar (' # {trace_id="N"} value')
# is only legal on _bucket samples (0.0.4 scrapers read it as a
# comment; OpenMetrics scrapers resolve the trace id).
FLOAT = r'-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?'
SAMPLE = re.compile(
    r'^([a-zA-Z_:][a-zA-Z0-9_:]*)'
    r'(\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"'
    r'(?:,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*")*\})?'
    r' (' + FLOAT + r'|[+-]Inf|NaN)'
    r'( # \{trace_id="[1-9]\d*"\} ' + FLOAT + r')?$')
HELP = re.compile(r'^# HELP ([a-zA-Z_:][a-zA-Z0-9_:]*) .*$')
TYPE = re.compile(r'^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|histogram|summary|untyped)$')

def fail(msg):
    print(f"check-metrics: FAIL - {msg}", file=sys.stderr)
    sys.exit(1)

types = {}          # family -> declared type
samples = {}        # family -> [(labels, value)]
base_of = lambda n: re.sub(r'_(bucket|sum|count)$', '', n)

for i, line in enumerate(lines):
    if line == "":
        continue
    if line.startswith("#"):
        if HELP.match(line) or TYPE.match(line):
            m = TYPE.match(line)
            if m:
                if m.group(1) in types:
                    fail(f"line {i+1}: duplicate TYPE for {m.group(1)}")
                types[m.group(1)] = m.group(2)
            continue
        fail(f"line {i+1}: malformed comment line: {line!r}")
    m = SAMPLE.match(line)
    if not m:
        fail(f"line {i+1}: malformed sample line: {line!r}")
    name, labels, value = m.group(1), m.group(2) or "", m.group(3)
    if m.group(4) and not name.endswith("_bucket"):
        fail(f"line {i+1}: exemplar on a non-bucket sample: {line!r}")
    family = base_of(name)
    if family not in types and name not in types:
        fail(f"line {i+1}: sample {name} has no preceding TYPE line")
    samples.setdefault(family if family in types else name, []).append((name, labels, value))

if not samples:
    fail("no samples at all")

# Histogram invariants: cumulative buckets monotone, end at +Inf == _count,
# and a _sum sample present, per label set.
def check_histograms():
    for family, typ in types.items():
        if typ != "histogram":
            continue
        groups = {}
        for name, labels, value in samples.get(family, []):
            # Strip the le label, then the brace wrapping, so a bucket of
            # an empty-label histogram ('{le="2"}' -> '') groups with its
            # bare-named _sum/_count samples ('' -> '').
            key = re.sub(r'le="(?:[^"\\]|\\.)*",?', "", labels).rstrip(",}").lstrip("{")
            g = groups.setdefault(key, {"buckets": [], "sum": None, "count": None})
            if name.endswith("_bucket"):
                le = re.search(r'le="([^"]*)"', labels)
                if not le:
                    fail(f"{family}: _bucket sample without le label")
                g["buckets"].append((le.group(1), float(value)))
            elif name.endswith("_sum"):
                g["sum"] = float(value)
            elif name.endswith("_count"):
                g["count"] = float(value)
        if not groups:
            # A labeled family with no observed label sets yet exposes
            # just its HELP/TYPE header — legal, nothing to check.
            continue
        for key, g in groups.items():
            if not g["buckets"]:
                fail(f"{family}{key}: no _bucket samples")
            if g["buckets"][-1][0] != "+Inf":
                fail(f"{family}{key}: last bucket le={g['buckets'][-1][0]}, want +Inf")
            prev = -1.0
            for le, c in g["buckets"]:
                if c < prev:
                    fail(f"{family}{key}: cumulative bucket counts not monotone at le={le}")
                prev = c
            if g["count"] is None or g["sum"] is None:
                fail(f"{family}{key}: missing _sum or _count")
            if g["buckets"][-1][1] != g["count"]:
                fail(f"{family}{key}: +Inf bucket {g['buckets'][-1][1]} != _count {g['count']}")

check_histograms()

required = [
    "xr_http_requests_total",
    "xr_http_request_duration_ms",
    "xr_cache_hits_total",
    "xr_queue_depth",
    "xr_index_postings",
    "xr_pool_tasks_total",
    "xr_gc_heap_words",
    "xr_gc_major_heap_words",
    "xr_gc_minor_collections_total",
    "xr_gc_major_collections_total",
    "xr_gc_compactions_total",
    "xr_gc_minor_words_total",
    "xr_gc_promoted_words_total",
    "xr_gc_allocated_words_total",
    "xr_cost_model_drift_ratio",
]
for fam in required:
    if fam not in types:
        fail(f"required family {fam} missing from /metrics")

# The metric catalog: the backticked xr_* names in the first cell of
# every table row of the docs must be exactly the scraped families.
documented = set()
with open(doc_path) as f:
    for line in f:
        cells = line.strip().split("|")
        if line.startswith("|") and len(cells) > 2:
            documented.update(re.findall(r'`(xr_[a-zA-Z0-9_]+)`', cells[1]))
scraped = {fam for fam in types if fam.startswith("xr_")}
for fam in sorted(scraped - documented):
    print(f"check-metrics: FAIL - family {fam} has no row in {doc_path}", file=sys.stderr)
for fam in sorted(documented - scraped):
    print(f"check-metrics: FAIL - {doc_path} documents {fam}, absent from /metrics",
          file=sys.stderr)
if scraped != documented:
    sys.exit(1)

# The request-latency histogram must carry at least one exemplar after
# the warm-up traffic (every non-zero trace id is recorded
# last-writer-wins into its landing bucket).
with open(path) as f:
    text = f.read()
if not re.search(r'^xr_http_request_duration_ms_bucket\{[^}]*\} \d+ # \{trace_id="\d+"\}',
                 text, re.M):
    fail("no exemplar on any xr_http_request_duration_ms bucket")

print(f"check-metrics: exposition ok ({len(types)} families, "
      f"{sum(len(v) for v in samples.values())} samples)")
EOF

ct=$(curl -s -o "$TMP/metrics.json" -w '%{content_type}' "$BASE/metrics.json")
[ "$ct" = "application/json" ] \
  || fail "/metrics.json content-type is '$ct' (want application/json)"
python3 -c 'import json,sys; json.load(open(sys.argv[1]))' "$TMP/metrics.json" \
  || fail "/metrics.json is not well-formed JSON"
echo "check-metrics: /metrics.json ok"

echo "check-metrics: PASS"
