# Developer entry points.  The tier-1 suite must pass under BOTH execution
# backends (see src/repro/core/backend.py); `make test` enforces that, and
# finishes with a tiny-config smoke run of the benchmark ratio guards.
# Served throughput and latency are measured by the benchmark of record,
# `python3 yardstick/run.py` (see BENCHMARK.json).

PYTHON ?= python
PYTEST = PYTHONPATH=src $(PYTHON) -m pytest

.PHONY: test lint test-unpacked test-packed test-faulty \
	test-serving bench-smoke bench-backend bench-apps bench-faults bench

test: lint test-unpacked test-packed bench-smoke

# Lint gate.  repro-lint (tools/repro_lint/, dependency-free) always
# runs the whole tree: the project-invariant rules (RL001-RL006 and
# RL008; `--list-rules` prints them) plus a stdlib mirror of the
# pyproject ruff selection, so a host without ruff enforces the same
# floor.  When ruff is installed it runs first, for the richer
# diagnostics on the shared hygiene rules (and `ruff check --fix` for
# the mechanical fixes).
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		echo "ruff check"; ruff check .; \
	fi
	PYTHONPATH=tools $(PYTHON) -m repro_lint

test-unpacked:
	REPRO_BACKEND=unpacked $(PYTEST) -x -q

test-packed:
	REPRO_BACKEND=packed $(PYTEST) -x -q

# Faulty-mode focus run: the fault-sampling conformance/golden suite under
# both backends (a subset of the tier-1 suite, for quick iteration on the
# fault model).
test-faulty:
	REPRO_BACKEND=unpacked $(PYTEST) -x -q tests/test_fault_sampling.py
	REPRO_BACKEND=packed $(PYTEST) -x -q tests/test_fault_sampling.py

# Serving-layer focus run (a subset of the tier-1 suite, for quick
# iteration on the scheduler/pool, its chunked dispatch, metrics and
# scene transport).
SERVING_TESTS = tests/test_serving.py tests/test_serve_metrics.py \
	tests/test_transport.py
test-serving:
	REPRO_BACKEND=unpacked $(PYTEST) -x -q $(SERVING_TESTS)
	REPRO_BACKEND=packed $(PYTEST) -x -q $(SERVING_TESTS)

# Quick throughput checks (~seconds): packed-vs-unpacked word chain,
# column-vs-per-bit S-to-B, a tiny-config end-to-end app run (bench_apps
# pins each configuration's backend itself, so one invocation covers
# both) and sparse-vs-dense fault sampling.  Tiny workloads are
# overhead-dominated — this is a does-it-run smoke, not the >=4x guards
# (those are bench-backend / bench-apps at full scale).  The scripts write
# their BENCH_*.json records into the working directory, so the smoke runs
# them from a throwaway directory and leaves the committed records alone.
bench-smoke:
	tmp=$$(mktemp -d) && cd $$tmp && \
	export PYTHONPATH=$(CURDIR)/src && \
	$(PYTHON) $(CURDIR)/benchmarks/bench_backend.py \
		--length 131072 --batch 128 --repeats 2 && \
	$(PYTHON) $(CURDIR)/benchmarks/bench_stob.py \
		--streams 8192 --length 256 --repeats 2 && \
	$(PYTHON) $(CURDIR)/benchmarks/bench_apps.py \
		--length 64 --size 24 --tile 12 --jobs 2 --repeats 1 \
		--apps matting && \
	$(PYTHON) $(CURDIR)/benchmarks/bench_faults.py \
		--length 64 --size 16 --repeats 1 --min-speedup 2; \
	rc=$$?; rm -rf $$tmp; exit $$rc

# Full acceptance-scale backend benchmark (1e6-bit x 1024-stream chain).
bench-backend:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_backend.py

# Full acceptance-scale faulty-path benchmark (sparse vs dense sampling).
bench-faults:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_faults.py

# Full acceptance-scale application benchmark (seed path vs packed+sharded).
bench-apps:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_apps.py

# Full reproduction report (all tables/figures + perf guards).  The old
# `pytest benchmarks/ --benchmark-only` form collected nothing (bench_*.py
# is outside pytest's test_*.py pattern -> exit 5, no report); the driver
# runs the CLI and the bench scripts directly, from the repo root, so it
# rewrites the committed BENCH_*.json records.
bench:
	PYTHONPATH=src $(PYTHON) benchmarks/run_report.py --fresh
