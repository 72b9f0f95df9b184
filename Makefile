# Convenience targets for the XEMEM reproduction.

PYTHON ?= python

.PHONY: install test audit chaos soak lint lint-repro bench bench-compare serve-report figures examples clean diagnose perf-diff

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

audit:
	REPRO_AUDIT=1 $(PYTHON) -m pytest tests/

# The CI chaos matrix, locally: the fault-injection suite under the
# invariant auditor, across three fault schedules.
chaos:
	for seed in 0 1 2; do \
		REPRO_AUDIT=1 REPRO_CHAOS_SEED=$$seed \
			$(PYTHON) -m pytest tests/faults -q || exit 1; \
	done

# The CI soak pair, locally: ramp open-loop load through saturation,
# protected vs baseline, two seeds; exits 4 (with an incident bundle
# under soak-out/) if the protected run breaches its SLOs. Seed 0 is
# then gated against the committed baseline (p99 at the pre-saturation
# step must not regress).
soak:
	for seed in 0 1; do \
		PYTHONPATH=src $(PYTHON) -m repro soak --seed $$seed \
			--out soak-out/BENCH_serving_seed$$seed.json \
			--bundle-dir soak-out || exit $$?; \
	done
	PYTHONPATH=src $(PYTHON) -m repro.obs.bench \
		benchmarks/baselines/BENCH_serving.json \
		soak-out/BENCH_serving_seed0.json --tolerance 0.15

# Both linters: ruff (style) and the project's determinism &
# simulation-safety analyzer (docs/LINT.md). Both gate CI.
lint:
	ruff check src tests
	PYTHONPATH=src $(PYTHON) -m repro lint

lint-repro:
	PYTHONPATH=src $(PYTHON) -m repro lint

test-output:
	$(PYTHON) -m pytest tests/ 2>&1 | tee test_output.txt

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-output:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

# Both speed gates (the 1 GiB Fig. 5 run on the detailed store, timed
# as fastpath_seconds, and the 16 GiB columnar win) merge-write one
# results file, so run them together before the comparison. The
# trace-capture test writes the deterministic sibling capture the
# comparator feeds to perf-diff when a gate fails.
bench-compare:
	$(PYTHON) -m pytest \
		benchmarks/test_simulator_speed.py::test_speed_fig5_1gib_attach \
		benchmarks/test_simulator_speed.py::test_speed_columnar_16gib_pipeline_speedup \
		benchmarks/test_simulator_speed.py::test_speed_trace_capture_sibling -q
	$(PYTHON) -m repro.obs.bench benchmarks/baselines/BENCH_speed.json benchmarks/results/BENCH_speed.json --tolerance 0.15
	$(PYTHON) -m pytest benchmarks/test_obs_overhead.py -q
	$(PYTHON) -m repro.obs.bench benchmarks/baselines/BENCH_obs_overhead.json benchmarks/results/BENCH_obs_overhead.json --tolerance 0.15

# Render an incident bundle as a causal timeline:
#   make diagnose BUNDLE=incident-chaos
BUNDLE ?= incident-chaos
diagnose:
	PYTHONPATH=src $(PYTHON) -m repro diagnose $(BUNDLE)

# Attribute the virtual-time delta between two captures (trace exports
# or incident bundles):
#   make perf-diff BASELINE=a.trace.json CURRENT=b.trace.json
BASELINE ?= benchmarks/baselines/BENCH_speed.trace.json
CURRENT ?= benchmarks/results/BENCH_speed.trace.json
perf-diff:
	PYTHONPATH=src $(PYTHON) -m repro perf-diff $(BASELINE) $(CURRENT)

# The full serving-telemetry pipeline: closed-loop sessions, time-series,
# SLO verdicts, journeys, and every exporter under serve-report/.
serve-report:
	$(PYTHON) -m repro serve-report --seed 0 --out-dir serve-report

figures:
	$(PYTHON) -m repro all

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/xpmem_c_port.py
	$(PYTHON) examples/enclave_topology_tour.py
	$(PYTHON) examples/insitu_composed_workload.py
	$(PYTHON) examples/noise_and_isolation.py

clean:
	rm -rf build *.egg-info src/*.egg-info .pytest_cache .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +
