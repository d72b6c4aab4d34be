"""End-to-end benchmark of the shipped parser and the training recipe.

Run from the repository root::

    python3 e2ebench/run.py --workload parse_stream --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs half the
time untraced and half with per-layer timers, and prints the per-layer
metrics.  The last line of stdout is one JSON object; the exit code is 1
when any output check fails.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# One BLAS thread, fixed before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, os.path.join(ROOT, "src"))

# These import repro, so the run fails here outside a checkout of the repository.
import layers  # noqa: E402
import measure  # noqa: E402
import prepare  # noqa: E402
import workloads  # noqa: E402


def end_to_end(outcome: workloads.Outcome, workload: str) -> dict:
    log = outcome.log
    if workload == "train":
        docs_per_s = outcome.trained_docs / outcome.train_seconds
    else:
        docs_per_s = log.docs_per_s
    p90 = measure.tail_percentile(log.doc_latencies, 90)
    if p90 is None:
        raise RuntimeError(f"only {len(log.doc_latencies)} latency samples")
    return {
        "docs_per_s": (docs_per_s, "docs/s"),
        "latency_p50_ms": (1e3 * statistics.median(log.call_latencies), "ms"),
        "latency_p90_ms": (1e3 * p90, "ms"),
        "setup_s": (statistics.median(outcome.setup_seconds), "s"),
        "peak_rss_mb": (measure.peak_rss_mb(), "MB"),
        "block_f1": (outcome.scores.block_f1, "ratio"),
        "entity_f1": (outcome.scores.entity_f1, "ratio"),
    }


def per_layer(outcome: workloads.Outcome, tracer: layers.LayerTracer) -> dict:
    metrics = layers.layer_metrics(tracer.tracer.finished())
    untraced, traced = outcome.phase_rates
    metrics["trace_overhead_frac"] = ((untraced - traced) / untraced, "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    machine = measure.machine_fingerprint()
    prepared = prepare.ensure_prepared(ROOT)
    tracer = layers.LayerTracer() if args.trace else None
    gc.collect()
    outcome = workloads.WORKLOADS[args.workload](
        prepared, args.seed, args.seconds, tracer
    )
    metrics = per_layer(outcome, tracer) if tracer else end_to_end(outcome, args.workload)

    log = outcome.log
    print(f"# e2ebench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(f"machine  {json.dumps(machine, sort_keys=True)}")
    traffic = {name: t.summary() for name, t in outcome.traffic.items()}
    print(f"traffic  sent={log.sent} {json.dumps(traffic, sort_keys=True)}")
    print(f"calls    sent={log.sent} succeeded={log.succeeded} failed={log.failed} "
          f"errors={dict(log.errors)} latency_samples(call/doc)="
          f"{len(log.call_latencies)}/{len(log.doc_latencies)}")
    if outcome.scored:
        print(f"quality  {outcome.scored} scored documents, "
              f"{outcome.scored_failed} failed")
    print(f"host     slowdown={outcome.host.slowdown:.4f} over "
          f"{len(outcome.host.samples)} samples (times below are divided by it)")
    print(f"blank    {sum(outcome.blank_probe.values())} blank resumes probed untimed, "
          f"not in attempted/failed: {dict(outcome.blank_probe)}")
    for problem in outcome.problems[:20]:
        print(f"BROKEN   {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<36} {value:.6g} {unit}")

    # Untraced train runs report the held-out parses in ``log``; the training
    # document-epochs count as attempted operations too.
    held_out = args.workload == "train" and not args.trace
    attempted = log.sent + (outcome.trained_docs if held_out else 0)
    correct = not outcome.problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": log.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
