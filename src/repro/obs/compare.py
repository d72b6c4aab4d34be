"""Run-log differ and regression gate.

Reduces a run log (or any ``BENCH_*.json`` report) to a flat numeric
summary — final losses per series, step timing and throughput, span
totals and percentiles, validation scores, final metric values — aligns
two summaries, and gates the deltas against configurable tolerances::

    python -m repro.obs.compare baseline.jsonl candidate.jsonl

exits ``0`` when every gate holds, ``1`` on any regression (CI fails the
build), ``2`` on unreadable inputs.  The default gates are dimensionless,
so a baseline recorded on another machine gates as well as a local one:
a final loss may worsen by at most 5% and a best validation score may
fall by at most 5%.  Wall-clock series are summarized and shown but
never gated.  A candidate run log without ``run_end`` (a crashed or
truncated run) always fails; its surviving series are still diffed.

Options:

``--json-out PATH``
    Also write the machine-readable diff (the same structure
    ``repro.obs.report --json`` builds its ``summary`` section from).
``--tolerance PATTERN=VALUE`` (repeatable)
    Override the tolerance of every default gate whose pattern matches,
    or add a ``rel_increase`` gate for a new pattern.

Like :mod:`repro.obs.report`, this module reads plain dicts and never
imports the model stack.
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ._render import format_seconds, table
from .runlog import read_run_log

__all__ = [
    "DEFAULT_GATES",
    "Gate",
    "compare_summaries",
    "load_summary",
    "main",
    "render_text",
    "run_summary",
]

def _percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile of raw values (q in [0, 100])."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    if len(ordered) == 1:
        return ordered[0]
    position = (q / 100.0) * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    return ordered[low] + (ordered[high] - ordered[low]) * fraction


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


# ----------------------------------------------------------------------
# Summaries
# ----------------------------------------------------------------------
def run_summary(events: List[Dict]) -> Dict[str, float]:
    """Flatten a run-log event list into ``{series_key: value}``.

    Keys: ``run.*`` lifecycle, ``loss.{phase}.{name}.final/min``,
    ``steps.{phase}.count/mean_step_seconds``,
    ``throughput.{phase}.steps_per_s``, ``val.{phase}.{key}.last/best``,
    ``span.{name}.total_seconds/calls/p50_seconds/p95_seconds``,
    ``metric.{name}{labels}[.count/.mean/.p95]``.
    """
    summary: Dict[str, float] = {}
    by_kind: Dict[str, List[Dict]] = {}
    for event in events:
        by_kind.setdefault(str(event.get("event", "?")), []).append(event)

    ends = by_kind.get("run_end", [])
    summary["run.complete"] = 1.0 if ends else 0.0
    summary["run.status_ok"] = (
        1.0 if ends and ends[-1].get("status") == "ok" else 0.0
    )
    if ends and isinstance(ends[-1].get("total_seconds"), (int, float)):
        summary["run.total_seconds"] = float(ends[-1]["total_seconds"])

    # -- steps ----------------------------------------------------------
    by_phase: Dict[str, List[Dict]] = {}
    for event in by_kind.get("step", []):
        by_phase.setdefault(str(event.get("phase") or "run"), []).append(event)
    for phase, steps in by_phase.items():
        summary[f"steps.{phase}.count"] = float(len(steps))
        elapsed = [
            float(e["elapsed"]) for e in steps
            if isinstance(e.get("elapsed"), (int, float))
        ]
        gaps = [b - a for a, b in zip(elapsed, elapsed[1:]) if b > a]
        if gaps:
            summary[f"steps.{phase}.mean_step_seconds"] = _mean(gaps)
            summary[f"throughput.{phase}.steps_per_s"] = 1.0 / _mean(gaps)
        series: Dict[str, List[float]] = {}
        for event in steps:
            for name, value in (event.get("losses") or {}).items():
                if isinstance(value, (int, float)):
                    series.setdefault(name, []).append(float(value))
        for name, values in series.items():
            tail = values[-min(5, len(values)):]
            summary[f"loss.{phase}.{name}.final"] = _mean(tail)
            summary[f"loss.{phase}.{name}.min"] = min(values)

    # -- validation -----------------------------------------------------
    val_series: Dict[Tuple[str, str], List[float]] = {}
    for event in by_kind.get("eval", []):
        phase = str(event.get("phase") or "run")
        for key, value in event.items():
            if key.startswith("val_") and isinstance(value, (int, float)):
                val_series.setdefault((phase, key), []).append(float(value))
    for (phase, key), values in val_series.items():
        summary[f"val.{phase}.{key}.last"] = values[-1]
        summary[f"val.{phase}.{key}.best"] = max(values)

    # -- spans ----------------------------------------------------------
    durations: Dict[str, List[float]] = {}
    for event in by_kind.get("span", []):
        duration = event.get("duration")
        if isinstance(duration, (int, float)):
            durations.setdefault(str(event.get("name")), []).append(
                float(duration)
            )
    for name, values in durations.items():
        summary[f"span.{name}.total_seconds"] = sum(values)
        summary[f"span.{name}.calls"] = float(len(values))
        summary[f"span.{name}.p50_seconds"] = _percentile(values, 50)
        summary[f"span.{name}.p95_seconds"] = _percentile(values, 95)

    # -- metrics (final snapshot) ---------------------------------------
    snapshots = by_kind.get("metric_snapshot", [])
    if snapshots:
        for name, dump in (snapshots[-1].get("metrics") or {}).items():
            for entry in dump.get("series", []):
                labels = entry.get("labels") or {}
                label_text = ",".join(
                    f"{k}={v}" for k, v in sorted(labels.items())
                )
                key = f"metric.{name}" + (
                    f"{{{label_text}}}" if label_text else ""
                )
                value = entry.get("value")
                if isinstance(value, (int, float)):
                    summary[key] = float(value)
                elif isinstance(value, dict):
                    for stat in ("count", "mean", "p50", "p95", "p99"):
                        if isinstance(value.get(stat), (int, float)):
                            summary[f"{key}.{stat}"] = float(value[stat])
    return summary


def _flatten(payload: Dict, prefix: str = "") -> Dict[str, float]:
    """Numeric leaves of a nested JSON document, dot-joined keys."""
    flat: Dict[str, float] = {}
    for key, value in payload.items():
        path = f"{prefix}.{key}" if prefix else str(key)
        if isinstance(value, bool):
            flat[path] = 1.0 if value else 0.0
        elif isinstance(value, (int, float)):
            flat[path] = float(value)
        elif isinstance(value, dict):
            flat.update(_flatten(value, path))
    return flat


def load_summary(path: str) -> Tuple[Dict[str, float], Dict[str, object]]:
    """Summarize a run-log JSONL file or a JSON document (``BENCH_*.json``).

    Returns ``(summary, meta)`` where ``meta`` carries the source path,
    detected format, run id/status, and completeness.
    """
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    lines = [line for line in text.splitlines() if line.strip()]
    meta: Dict[str, object] = {"path": path}
    if len(lines) == 1:
        document = json.loads(lines[0])
        if isinstance(document, dict) and "event" not in document:
            meta["format"] = "json"
            return _flatten(document), meta
    events = read_run_log(path)
    meta["format"] = "run_log"
    starts = [e for e in events if e.get("event") == "run_start"]
    ends = [e for e in events if e.get("event") == "run_end"]
    meta["run_id"] = starts[0].get("run_id") if starts else None
    meta["status"] = ends[-1].get("status") if ends else "incomplete"
    meta["complete"] = bool(ends)
    meta["events"] = len(events)
    return run_summary(events), meta


# ----------------------------------------------------------------------
# Gates
# ----------------------------------------------------------------------
@dataclass
class Gate:
    """One tolerance over every summary key matching ``pattern``.

    ``kind``: ``rel_increase`` fails when the candidate exceeds the
    baseline by more than ``tolerance`` relative (lower-is-better
    series); ``rel_decrease`` fails when the candidate *falls* more than
    ``tolerance`` relative (higher-is-better series).
    """

    pattern: str
    tolerance: float
    kind: str = "rel_increase"

    def evaluate(
        self, baseline: float, candidate: float
    ) -> Tuple[bool, float]:
        """``(regressed, measured_value)`` for one aligned key."""
        denominator = max(abs(baseline), 1e-12)
        if self.kind == "rel_decrease":
            fall = (baseline - candidate) / denominator
            return fall > self.tolerance, fall
        if self.kind != "rel_increase":
            raise ValueError(f"unknown gate kind {self.kind!r}")
        rise = (candidate - baseline) / denominator
        return rise > self.tolerance, rise


#: The standing regression gates: final losses may worsen by at most 5%,
#: validation scores may fall by at most 5%.
DEFAULT_GATES: Tuple[Gate, ...] = (
    Gate("loss.*.final", 0.05, "rel_increase"),
    Gate("val.*.best", 0.05, "rel_decrease"),
)


def compare_summaries(
    baseline: Dict[str, float],
    candidate: Dict[str, float],
    gates: Sequence[Gate] = DEFAULT_GATES,
    baseline_meta: Optional[Dict[str, object]] = None,
    candidate_meta: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """Align two summaries and evaluate every gate; JSON-ready result.

    A ``candidate_meta`` whose ``complete`` is false (a run log without
    ``run_end``) is a regression whatever the gates say.
    """
    keys = sorted(set(baseline) | set(candidate))
    series: Dict[str, Dict[str, Optional[float]]] = {}
    for key in keys:
        base = baseline.get(key)
        cand = candidate.get(key)
        entry: Dict[str, Optional[float]] = {
            "baseline": base, "candidate": cand,
        }
        if base is not None and cand is not None:
            entry["delta"] = cand - base
        series[key] = entry

    regressions: List[Dict[str, object]] = []
    checked: List[Dict[str, object]] = []
    for gate in gates:
        for key in keys:
            if not fnmatch.fnmatchcase(key, gate.pattern):
                continue
            base = baseline.get(key)
            cand = candidate.get(key)
            if base is None or cand is None:
                continue
            regressed, measured = gate.evaluate(base, cand)
            record = {
                "key": key,
                "gate": gate.pattern,
                "kind": gate.kind,
                "tolerance": gate.tolerance,
                "baseline": base,
                "candidate": cand,
                "measured": measured,
                "regressed": regressed,
            }
            checked.append(record)
            if regressed:
                regressions.append(record)

    candidate_meta = dict(candidate_meta or {})
    if not candidate_meta.get("complete", True):
        regressions.append(
            {
                "key": "run.complete",
                "gate": "run_end",
                "kind": "presence",
                "tolerance": 0.0,
                "baseline": 1.0,
                "candidate": 0.0,
                "measured": 0.0,
                "regressed": True,
            }
        )
    return {
        "baseline": dict(baseline_meta or {}),
        "candidate": candidate_meta,
        "series": series,
        "checked": checked,
        "regressions": regressions,
        "only_baseline": sorted(set(baseline) - set(candidate)),
        "only_candidate": sorted(set(candidate) - set(baseline)),
        "ok": not regressions,
    }


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def _format_value(key: str, value: Optional[float]) -> str:
    if value is None:
        return "-"
    if "seconds" in key:
        return format_seconds(value)
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.6g}"


def render_text(comparison: Dict[str, object]) -> str:
    """Human-readable diff: gates first, then notable ungated changes."""
    lines: List[str] = []
    base_meta = comparison.get("baseline") or {}
    cand_meta = comparison.get("candidate") or {}
    lines.append(
        f"baseline:  {base_meta.get('path', '?')} "
        f"(status={base_meta.get('status', '?')})"
    )
    lines.append(
        f"candidate: {cand_meta.get('path', '?')} "
        f"(status={cand_meta.get('status', '?')})"
    )

    checked = comparison.get("checked") or []
    if checked:
        rows = []
        for record in checked:
            rows.append(
                (
                    record["key"],
                    _format_value(record["key"], record["baseline"]),
                    _format_value(record["key"], record["candidate"]),
                    f"{record['measured']:+.3f}",
                    "FAIL" if record["regressed"] else "ok",
                )
            )
        lines.append("")
        lines.append("gated series:")
        lines.extend(
            "  " + line
            for line in table(
                rows, ("series", "baseline", "candidate", "change", "gate")
            )
        )

    regressions = comparison.get("regressions") or []
    lines.append("")
    if regressions:
        lines.append(f"REGRESSIONS ({len(regressions)}):")
        for record in regressions:
            lines.append(
                f"  {record['key']}: {_format_value(record['key'], record['baseline'])}"
                f" -> {_format_value(record['key'], record['candidate'])}"
                f" (gate {record['gate']}, {record['kind']}"
                f" tolerance {record['tolerance']})"
            )
    else:
        lines.append("no regressions: every gate holds")

    only_base = comparison.get("only_baseline") or []
    only_cand = comparison.get("only_candidate") or []
    if only_base:
        lines.append(f"series only in baseline: {len(only_base)}")
    if only_cand:
        lines.append(f"series only in candidate: {len(only_cand)}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def _parse_tolerances(
    entries: Sequence[str], gates: Sequence[Gate]
) -> List[Gate]:
    """Apply ``PATTERN=VALUE`` overrides to the gate list."""
    result = list(gates)
    for entry in entries:
        pattern, _, raw = entry.partition("=")
        if not _ or not pattern:
            raise ValueError(f"--tolerance expects PATTERN=VALUE, got {entry!r}")
        value = float(raw)
        matched = False
        for index, gate in enumerate(result):
            if gate.pattern == pattern:
                result[index] = Gate(gate.pattern, value, gate.kind)
                matched = True
        if not matched:
            result.append(Gate(pattern, value, "rel_increase"))
    return result


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry: ``python -m repro.obs.compare baseline candidate``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.compare",
        description="Diff two run logs (or BENCH json reports) and gate "
        "regressions.",
    )
    parser.add_argument("baseline", help="trusted run log / JSON report")
    parser.add_argument("candidate", help="fresh run log / JSON report")
    parser.add_argument(
        "--json-out", metavar="PATH", help="also write the JSON diff to PATH"
    )
    parser.add_argument(
        "--tolerance", action="append", default=[], metavar="PATTERN=VALUE",
        help="override a gate tolerance (repeatable)",
    )
    options = parser.parse_args(argv)

    try:
        baseline, baseline_meta = load_summary(options.baseline)
        candidate, candidate_meta = load_summary(options.candidate)
    except (OSError, json.JSONDecodeError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    try:
        gates = _parse_tolerances(options.tolerance, DEFAULT_GATES)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    comparison = compare_summaries(
        baseline,
        candidate,
        gates=gates,
        baseline_meta=baseline_meta,
        candidate_meta=candidate_meta,
    )
    if options.json_out:
        with open(options.json_out, "w", encoding="utf-8") as handle:
            json.dump(comparison, handle, indent=2, sort_keys=True)
            handle.write("\n")
    print(render_text(comparison))
    return 0 if comparison["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
