# Local mirror of .github/workflows/ci.yml — same jobs, same order,
# same commands. Tools the environment lacks (ruff, mypy, pytest-cov)
# are skipped with a notice instead of failing, so `make ci` works in
# offline containers where only the python toolchain is baked in; on a
# developer machine with the tools installed it is the full pipeline.

PYTHON ?= python
PYTHONPATH := src
export PYTHONPATH

.PHONY: ci test ruff repro-lint repro-verify repro-det repro-hot \
	repro-analyze hot-profile-smoke perturb-smoke \
	parallel-smoke sanitize perfbench-check backend-matrix \
	compiled-backend mypy perf-guard backend-perf-guard \
	heavy-traffic-smoke

ci: test ruff repro-lint repro-verify repro-det repro-hot \
	hot-profile-smoke perturb-smoke \
	parallel-smoke sanitize perfbench-check backend-matrix mypy \
	perf-guard backend-perf-guard heavy-traffic-smoke
	@echo "== ci: all jobs done =="

test:
	@echo "== ci job: tests =="
	@if $(PYTHON) -c "import pytest_cov" 2>/dev/null; then \
		$(PYTHON) -m pytest -x -q --cov=repro --cov-report=term-missing; \
	else \
		echo "-- pytest-cov not installed: running without coverage --"; \
		$(PYTHON) -m pytest -x -q; \
	fi

ruff:
	@echo "== ci job: ruff =="
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests; \
	else \
		echo "-- ruff not installed: skipped (runs in GitHub Actions) --"; \
	fi

repro-lint:
	@echo "== ci job: repro-lint =="
	$(PYTHON) -m repro.analysis.lint.cli src

repro-verify:
	@echo "== ci job: repro-verify =="
	$(PYTHON) -m repro.analysis.verify src

repro-det:
	@echo "== ci job: repro-det =="
	$(PYTHON) -m repro.analysis.det src

repro-hot:
	@echo "== ci job: repro-hot =="
	$(PYTHON) -m repro.analysis.hot src

# Not a CI job of its own — the four analyzer jobs gate individually —
# but the one-process front door the pre-commit hook uses; handy for a
# local whole-tree sweep with one shared Program assembly.
repro-analyze:
	@echo "== repro-analyze (lint + verify + det + hot) =="
	$(PYTHON) -m repro.analysis.front src

hot-profile-smoke:
	@echo "== ci job: hot-profile-smoke =="
	$(PYTHON) -m repro.analysis.hot src --profile fig07 \
		--budget 5 --bench-dir /tmp/repro-hotprof

perturb-smoke:
	@echo "== ci job: perturb-smoke =="
	$(PYTHON) -m repro.analysis.det --perturb --scenario fig07 \
		--horizon 0.15 --rounds 1 --bench-dir /tmp/repro-perturb

parallel-smoke:
	@echo "== ci job: parallel-smoke =="
	$(PYTHON) -m repro space_parallel --duration 0.5 \
		--bench-dir /tmp/repro-parallel

sanitize:
	@echo "== ci job: sanitize =="
	$(PYTHON) -m repro figure07 --duration 1 --workers 1 --sanitize --bench-dir /tmp/repro-sanitize
	$(PYTHON) -m repro fault_sweep --duration 5 --workers 2 --sanitize --bench-dir /tmp/repro-sanitize
	$(PYTHON) -m repro call_churn --duration 60 --workers 2 --sanitize --bench-dir /tmp/repro-sanitize

# The benchmark's output checks as a gate: fails unless the last line
# of perfbench/run.py reports "correct": true.
perfbench-check:
	@echo "== ci job: perfbench-check =="
	$(PYTHON) perfbench/run.py --workload all --seed 0 --seconds 0 \
		> /tmp/repro-perfbench.log; status=$$?; \
		cat /tmp/repro-perfbench.log; test $$status -eq 0
	@tail -n 1 /tmp/repro-perfbench.log | $(PYTHON) -c "import json, sys; \
		sys.exit(0 if json.load(sys.stdin)['correct'] \
		else 'perfbench: output checks failed')"

compiled-backend:
	@echo "== build: compiled kernel backend (_ckernel) =="
	@REPRO_BUILD_CKERNEL=1 $(PYTHON) setup.py build_ext --inplace \
		|| echo "-- _ckernel build failed: compiled backend unavailable (graceful) --"

backend-matrix: compiled-backend
	@echo "== ci job: backend-matrix =="
	@for b in python compiled; do \
		echo "-- backend: $$b --"; \
		$(PYTHON) -m pytest -q \
			tests/sim/test_dispatch_digest.py \
			tests/sim/test_kernel_backends.py \
			tests/properties/test_kernel_dispatch_properties.py \
			-k "$$b" || exit 1; \
	done
	@echo "-- cross-backend digest equality --"
	$(PYTHON) -m pytest -q tests/sim/test_kernel_backends.py \
		-k "across_backends"

mypy:
	@echo "== ci job: mypy =="
	@if command -v mypy >/dev/null 2>&1; then \
		mypy src/repro/sim src/repro/analysis; \
	else \
		echo "-- mypy not installed: skipped (runs in GitHub Actions) --"; \
	fi

perf-guard:
	@echo "== ci job: perf-guard (soft-fail) =="
	@$(PYTHON) -m repro.analysis.throughput --best-of 5 --out /tmp/repro-perf \
		&& $(PYTHON) -m repro.analysis.bench compare \
			benchmarks/baselines/BENCH_throughput.json \
			/tmp/repro-perf/BENCH_throughput.json \
			--max-regression 25 \
		|| echo "-- perf-guard: regression or error (soft-fail, not blocking) --"

backend-perf-guard: compiled-backend
	@echo "== ci job: backend-perf-guard (soft-fail) =="
	@for b in python compiled; do \
		$(PYTHON) -m repro.analysis.throughput --kernel-backend $$b \
				--best-of 5 --out /tmp/repro-perf \
			&& $(PYTHON) -m repro.analysis.bench compare \
				benchmarks/baselines/BENCH_throughput_$$b.json \
				/tmp/repro-perf/BENCH_throughput_$$b.json \
				--max-regression 30 \
			|| echo "-- backend-perf-guard[$$b]: regression or error (soft-fail, not blocking) --"; \
	done

heavy-traffic-smoke:
	@echo "== ci job: heavy-traffic-smoke =="
	$(PYTHON) -m repro heavy_traffic --duration 0.5 \
		--state-backend objects --bench-dir /tmp/repro-heavy
	$(PYTHON) -m repro heavy_traffic --duration 0.5 \
		--state-backend soa --bench-dir /tmp/repro-heavy
	@echo "-- peak-RSS guard (soft-fail) --"
	@$(PYTHON) -m repro.analysis.throughput --sessions 10000 \
			--horizon 0.5 --out /tmp/repro-heavy \
		&& $(PYTHON) -m repro.analysis.bench compare \
			benchmarks/baselines/BENCH_throughput_scaling.json \
			/tmp/repro-heavy/BENCH_throughput_scaling.json \
			--max-regression 60 --max-rss-regression 50 \
		|| echo "-- rss-guard: regression or error (soft-fail, not blocking) --"
