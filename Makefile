# Common development targets.

.PHONY: install test lint lock-audit gradcheck bench bench-perf bench-train bench-quant bench-history serve-obs examples report compare baseline clean

install:
	pip install -e . || python setup.py develop

test:
	python -m pytest tests/

test-slow:
	python -m pytest tests/ -m slow

# Framework-invariant linter: autograd rules RN001-RN006 plus the
# concurrency tier RN007-RN012, gated against the committed baseline
# (analysis/baseline.json); must exit 0 on new findings only.
lint:
	PYTHONPATH=src python -m repro.analysis.lint src/ tests/ benchmarks/ \
		--baseline analysis/baseline.json

# Runtime lock-order sanitizer ("tsan-lite") over the threaded suites;
# exits 1 on any lock-order cycle.  Writes lock_audit_report.json.
lock-audit:
	PYTHONPATH=src python -m repro.analysis.lock_audit tests/obs \
		--json-out lock_audit_report.json

# Numerical-gradient sweep over every differentiable nn op.
gradcheck:
	PYTHONPATH=src python -m repro.analysis.gradcheck

bench: bench-perf
	python -m pytest benchmarks/ --benchmark-only

# Batched-inference perf benchmark; writes BENCH_block_inference.json.
bench-perf:
	python -m pytest benchmarks/test_perf_inference.py -q -s

# Batched-training perf benchmark; writes BENCH_training.json.
# BENCH_TRAIN_SMOKE=1 shrinks it to a CI-sized smoke run.
bench-train:
	python -m pytest benchmarks/test_perf_training.py -q -s

# int8-vs-float parity + latency benchmark; writes
# BENCH_quantized_inference.json (fails on an F1 parity regression —
# this is the CI quantization-parity gate).
bench-quant:
	python -m pytest benchmarks/test_perf_quantized.py -q -s

# Benchmark trajectory gate: render the committed perf history and exit 1
# when any bench's latest full record regresses against the trailing
# median (this is the CI obs-serve gate's second half).
bench-history:
	PYTHONPATH=src python -m repro.obs.bench_history
	PYTHONPATH=src python -m repro.obs.bench_history --check

# Live observability plane: train the tiny example model with alerts,
# SLOs and the profiler armed, then serve /metrics /health /ready
# /alerts /trace /profile on PORT (default 9099) until Ctrl-C.
PORT ?= 9099
serve-obs:
	PYTHONPATH=src python examples/serve_obs.py --port $(PORT)

examples:
	python examples/quickstart.py
	python examples/pretraining_objectives.py
	python examples/distant_ner.py
	python examples/talent_screening.py
	python examples/error_analysis.py

# Instrumented training run + human-readable summary of its JSONL log.
# Override the log path with RUN=path/to/run.jsonl (skips the training
# step when the file already exists).
RUN ?= run_telemetry.jsonl
report:
	@test -f $(RUN) || PYTHONPATH=src python examples/telemetry_run.py $(RUN)
	PYTHONPATH=src python -m repro.obs.report $(RUN)

# Regression gate: diff a fresh instrumented run against the committed
# baseline log.  --no-timing because the baseline ran on another machine;
# exits non-zero on a loss or validation regression (this is the CI
# obs-gate).  Override the candidate with RUN=..., the baseline with
# BASELINE=...
BASELINE ?= baselines/run_telemetry_baseline.jsonl
compare:
	@test -f $(RUN) || PYTHONPATH=src python examples/telemetry_run.py $(RUN)
	PYTHONPATH=src python -m repro.obs.compare $(BASELINE) $(RUN) \
		--no-timing --require-complete --json-out obs_gate_diff.json

# Refresh the committed baseline after an intentional training change.
baseline:
	PYTHONPATH=src python examples/telemetry_run.py $(BASELINE)
	PYTHONPATH=src python -m repro.obs.report $(BASELINE)

clean:
	rm -rf .pytest_cache .benchmarks .hypothesis benchmarks/results
	rm -f run_telemetry.jsonl obs_gate_diff.json lock_audit_report.json
	find . -name __pycache__ -type d -exec rm -rf {} +
