.PHONY: all build test check smoke checkmetrics bench benchgate slcabench refinebench parallelbench batchbench dagbench paperbench examples quickbench clean fmt

all: build

build:
	dune build @all

test:
	dune runtest

check:
	dune build @all && dune runtest
	scripts/bench_gate.sh

smoke: build
	scripts/smoke.sh

# Prometheus exposition check (the /metrics CI smoke step).
checkmetrics: build
	scripts/check_metrics.sh

# Smoke-size benchmarks (SLCA kernels + refinement pipeline + domain
# parallelism + batched execution + dag compression).
bench:
	dune exec bench/slca_bench.exe -- --smoke
	dune exec bench/refine_bench.exe -- --smoke
	dune exec bench/parallel_bench.exe -- --smoke
	dune exec bench/batch_bench.exe -- --smoke
	dune exec bench/dag_bench.exe -- --smoke

# Regression gate: committed BENCH files and a fresh smoke run must both
# keep every packed-vs-reference SLCA aggregate speedup at >= 1.0 (the
# refinement bench is shape-checked; see scripts/bench_gate.sh).
benchgate: build
	scripts/bench_gate.sh

# Full-size SLCA kernel benchmark (the committed BENCH_slca.json).
slcabench:
	dune exec bench/slca_bench.exe

# Full-size refinement benchmark (the committed BENCH_refine.json).
refinebench:
	dune exec bench/refine_bench.exe

# Full-size parallel SLCA benchmark (the committed BENCH_parallel.json).
parallelbench:
	dune exec bench/parallel_bench.exe

# Full-size batched-execution benchmark (the committed BENCH_batch.json).
batchbench:
	dune exec bench/batch_bench.exe

# Full-size dag-vs-flat index benchmark (the committed BENCH_dag.json).
dagbench:
	dune exec bench/dag_bench.exe

fmt:
	dune build @fmt --auto-promote

# The paper's full evaluation suite (tables and figures).
paperbench:
	dune exec bench/main.exe

quickbench:
	dune exec bench/main.exe -- --quick

examples:
	@for e in quickstart bibliography_search sponsored_search baseball_explore live_catalog paper_walkthrough; do \
	  echo "== examples/$$e"; dune exec examples/$$e.exe; echo; done

clean:
	dune clean
