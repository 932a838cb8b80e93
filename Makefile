# Developer task runner for the repro library.

PYTHON ?= python3

.PHONY: install test bench bench-suite-test bench-quick bench-smoke bench-dataflow calibrate experiments verify trace-demo sanitize-demo plan-demo lint check-bench examples coverage clean

install:
	$(PYTHON) -m pip install -e . --no-build-isolation

test:
	$(PYTHON) -m pytest tests/

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Self-test of the end-to-end benchmark (benchmarks/suite): quick-size
# runs of every workload through solve()/solve_batch() under its
# forest-oracle and self-score correctness gate.  About a minute; the
# suite sits outside the tier-1 testpaths.
bench-suite-test:
	$(PYTHON) -m pytest benchmarks/suite -q

# Machine-readable engine comparison: writes BENCH_slices.json at the repo
# root (batched vs vectorized stage one, SRNA2 sweep, PRNA row vs dataflow).
bench-quick:
	$(PYTHON) benchmarks/bench_quick.py

# Non-gating miniature of bench-quick: small sizes, never fails the build.
bench-smoke:
	-$(PYTHON) benchmarks/bench_quick.py --length 120 --repeat 1 \
		--skip-prna --out BENCH_smoke.json
	@rm -f BENCH_smoke.json

# Row-barrier vs dataflow schedule counters only (non-gating in verify:
# the counters are deterministic, but a non-POSIX host skips it).  The
# gated full version runs inside bench-quick.
bench-dataflow:
	-$(PYTHON) benchmarks/bench_quick.py --only-schedules \
		--out BENCH_dataflow.json
	@rm -f BENCH_dataflow.json

# Measure on-node communication/compute costs over the real process
# backend and write CALIBRATION.json — the spec the planner prefers over
# its built-in defaults when pricing schedules (git-ignored: the record
# is machine-specific by construction).  Invoked via -c rather than -m:
# repro.perf re-exports this module, so runpy would warn about the
# double import.
calibrate:
	PYTHONPATH=src $(PYTHON) -c "from repro.perf.calibrate import main; raise SystemExit(main())"

experiments:
	$(PYTHON) -m repro.experiments all --scale quick --json results.json

# Static analysis: ruff + mypy when installed (pip install -e '.[lint]'),
# plus the in-tree SPMD checker, which has no dependencies and always runs
# in full: per-module rules, protocol verifier and numeric dataflow
# verifier must prove the shipped tree clean (exit 0).
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests; \
	else echo "lint: ruff not installed, skipping (pip install -e '.[lint]')"; fi
	@if command -v mypy >/dev/null 2>&1; then \
		mypy src/repro; \
	else echo "lint: mypy not installed, skipping (pip install -e '.[lint]')"; fi
	PYTHONPATH=src $(PYTHON) -m repro.check src/repro

# Analyzer benchmark: the cold/warm wall time of the full checker lands
# in BENCH_check.json so incremental-cache regressions are visible (warm
# must be <5% of cold, and must replay the cold findings exactly).
check-bench:
	$(PYTHON) benchmarks/bench_check.py

# Runtime-sanitizer transparency check: sanitized 2-rank PRNA on the
# process backend must be bit-identical to the plain run.
sanitize-demo:
	PYTHONPATH=src $(PYTHON) -m repro.check.demo

# Planner transparency check: prints plan.explain() for the contrived
# worst case (must route to multi-rank PRNA) and a small pair (must stay
# sequential SRNA2).
plan-demo:
	PYTHONPATH=src $(PYTHON) -m repro.runtime.demo

verify: lint check-bench trace-demo bench-smoke bench-dataflow calibrate sanitize-demo plan-demo
	PYTHONPATH=src $(PYTHON) -m repro.experiments verify

# Tiny traced PRNA runs on process ranks: a 4-rank simulate run and the
# planned compare --algorithm prna run on the n=120 worst case.  Each
# emits a Chrome trace (one track per rank), validates the JSON schema on
# load, and prints the Figure 8 breakdown.
trace-demo:
	PYTHONPATH=src $(PYTHON) -m repro.cli simulate --length 120 \
		--procs 1,2,4 --trace trace-demo.json --trace-ranks 4
	PYTHONPATH=src $(PYTHON) -m repro.cli trace-report trace-demo.json
	PYTHONPATH=src $(PYTHON) -m repro.cli generate worst-case --length 120 \
		--output trace-demo.vienna
	PYTHONPATH=src $(PYTHON) -m repro.cli compare trace-demo.vienna \
		trace-demo.vienna --algorithm prna --trace trace-demo-compare.json
	PYTHONPATH=src $(PYTHON) -m repro.cli trace-report trace-demo-compare.json
	@rm -f trace-demo.json trace-demo.vienna trace-demo-compare.json
	@echo "trace-demo: trace schema valid"

examples:
	@for script in examples/*.py; do \
		echo "== $$script =="; \
		$(PYTHON) $$script > /dev/null || exit 1; \
	done; echo "all examples ran"

coverage:
	$(PYTHON) -m pytest tests/ --cov=repro --cov-report=term-missing

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
