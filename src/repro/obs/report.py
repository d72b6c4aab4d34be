"""Render a run-log JSONL file as a human-readable summary.

Usage::

    python -m repro.obs.report run.jsonl            # text
    python -m repro.obs.report run.jsonl --json     # machine-readable
    python -m repro.obs.report run.jsonl --profile  # + profiler section

Sections: run header (id, status, wall time, config/seeds), step
throughput, loss curves as text sparklines (one per loss series, grouped
by phase), fired alerts and drift checks, the aggregated span breakdown
(with bucket p50/p95 columns) sorted by total time, the slowest
individual spans, and the final metric snapshot.

``--json`` emits the same flat series summary the regression gate uses
(:func:`repro.obs.compare.run_summary`) plus the alert and drift events,
so dashboards and the gate read one shape.

Everything here reads plain dicts produced by
:func:`repro.obs.read_run_log` — the module never imports the model
stack, so it can render logs from any machine.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

from ._render import format_seconds as _format_seconds
from ._render import table as _table
from .compare import _percentile, run_summary
from .runlog import read_run_log, tail_events

__all__ = ["sparkline", "aggregate_profile", "follow", "summarize",
           "summarize_json", "main"]

_BLOCKS = "▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float], width: int = 48) -> str:
    """Compress a numeric series into a one-line block-character chart.

    Longer series are bucket-averaged down to ``width`` columns; constant
    series render as a flat mid-height line.
    """
    values = [float(v) for v in values]
    if not values:
        return ""
    if len(values) > width:
        # Average each bucket so long runs keep their envelope shape.
        bucketed = []
        for i in range(width):
            lo = i * len(values) // width
            hi = max((i + 1) * len(values) // width, lo + 1)
            chunk = values[lo:hi]
            bucketed.append(sum(chunk) / len(chunk))
        values = bucketed
    low, high = min(values), max(values)
    if high - low < 1e-12:
        return _BLOCKS[3] * len(values)
    scale = (len(_BLOCKS) - 1) / (high - low)
    return "".join(_BLOCKS[int((v - low) * scale + 0.5)] for v in values)


def _format_bytes(value: float) -> str:
    value = float(value)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if abs(value) < 1024.0 or unit == "GiB":
            return f"{value:.0f}{unit}" if unit == "B" else f"{value:.1f}{unit}"
        value /= 1024.0
    return f"{value:.1f}GiB"


def aggregate_profile(events: List[Dict]) -> Optional[Dict[str, object]]:
    """Fold every ``profile`` event back into one cumulative aggregate.

    ``profile`` events are *deltas* (per flush), so summation is exact.
    Seconds are estimated per event from its own ``hz``; memory
    watermarks are maxed across events.
    """
    profiles = [e for e in events if e.get("event") == "profile"]
    if not profiles:
        return None
    samples = 0
    seconds = 0.0
    functions: Dict[str, Dict[str, float]] = {}
    spans: Dict[str, Dict[str, float]] = {}
    stacks: Dict[Tuple[str, str], int] = {}
    stacks_dropped = 0
    memory: Dict[str, object] = {}
    for event in profiles:
        hz = float(event.get("hz") or 0.0)
        per_sample = 1.0 / hz if hz > 0 else 0.0
        delta = int(event.get("samples") or 0)
        samples += delta
        seconds += delta * per_sample
        stacks_dropped += int(event.get("stacks_dropped") or 0)
        for entry in event.get("functions") or ():
            name = str(entry.get("function"))
            count = int(entry.get("samples") or 0)
            slot = functions.setdefault(name, {"samples": 0, "seconds": 0.0})
            slot["samples"] += count
            slot["seconds"] += count * per_sample
        for entry in event.get("spans") or ():
            name = str(entry.get("span"))
            count = int(entry.get("samples") or 0)
            slot = spans.setdefault(name, {"samples": 0, "seconds": 0.0})
            slot["samples"] += count
            slot["seconds"] += count * per_sample
        for entry in event.get("stacks") or ():
            key = (str(entry.get("thread")), str(entry.get("stack")))
            stacks[key] = stacks.get(key, 0) + int(entry.get("count") or 0)
        event_memory = event.get("memory") or {}
        for kind in ("peak_rss_bytes", "tracemalloc_peak_bytes"):
            if event_memory.get(kind) is not None:
                memory[kind] = max(
                    int(memory.get(kind, 0)), int(event_memory[kind])
                )
        for kind in ("span_peak_rss_bytes", "span_tracemalloc_peak_bytes"):
            for span_name, peak in (event_memory.get(kind) or {}).items():
                per_span = memory.setdefault(kind, {})
                per_span[span_name] = max(
                    int(per_span.get(span_name, 0)), int(peak)
                )
    return {
        "samples": samples,
        "estimated_seconds": seconds,
        "flushes": len(profiles),
        "stacks_dropped": stacks_dropped,
        "hot_functions": [
            {
                "function": name,
                "samples": int(slot["samples"]),
                "seconds": slot["seconds"],
                "share": slot["samples"] / samples if samples else 0.0,
            }
            for name, slot in sorted(
                functions.items(), key=lambda item: (-item[1]["samples"], item[0])
            )
        ],
        "span_self_time": {
            name: {"samples": int(slot["samples"]), "seconds": slot["seconds"]}
            for name, slot in sorted(
                spans.items(), key=lambda item: (-item[1]["samples"], item[0])
            )
        },
        "stacks": [
            {"thread": thread, "stack": stack, "count": count}
            for (thread, stack), count in sorted(
                stacks.items(), key=lambda item: (-item[1], item[0])
            )
        ],
        "memory": memory,
    }


def _profile_section(profile: Dict[str, object], top_n: int = 15) -> List[str]:
    """Text lines of the ``--profile`` report section."""
    lines: List[str] = ["", "profile:"]
    lines.append(
        f"  samples: {profile['samples']}, "
        f"~{_format_seconds(float(profile['estimated_seconds']))} on-CPU"
    )
    if profile.get("stacks_dropped"):
        lines.append(
            f"  stacks dropped by per-flush cap: {profile['stacks_dropped']}"
        )
    hot = profile.get("hot_functions") or []
    if hot:
        rows = [
            (
                str(entry["function"]),
                str(entry["samples"]),
                _format_seconds(float(entry["seconds"])),
                f"{100.0 * float(entry['share']):.1f}%",
            )
            for entry in hot[:top_n]
        ]
        lines.append("")
        lines.append("  hot functions (leaf self-time):")
        lines.extend(
            "    " + line
            for line in _table(rows, ("function", "samples", "est", "share"))
        )
    span_self = profile.get("span_self_time") or {}
    if span_self:
        rows = [
            (name, str(slot["samples"]), _format_seconds(float(slot["seconds"])))
            for name, slot in list(span_self.items())[:top_n]
        ]
        lines.append("")
        lines.append("  span self-time (innermost open span per sample):")
        lines.extend(
            "    " + line
            for line in _table(rows, ("span", "samples", "est"))
        )
    top_stacks = (profile.get("stacks") or [])[:5]
    if top_stacks:
        lines.append("")
        lines.append("  top stacks (collapsed, root first):")
        for entry in top_stacks:
            lines.append(
                f"    {entry['count']:>6}  [{entry['thread']}]"
            )
            lines.append(f"            {entry['stack']}")
    memory = profile.get("memory") or {}
    rss = memory.get("peak_rss_bytes")
    if rss:
        lines.append("")
        lines.append(f"  peak RSS: {_format_bytes(rss)}")
    traced = memory.get("tracemalloc_peak_bytes")
    if traced:
        lines.append(f"  tracemalloc peak: {_format_bytes(traced)}")
    return lines


def _loss_series(steps: List[Dict]) -> Dict[Tuple[str, str], List[float]]:
    """``{(phase, loss_name): [values in step order]}``."""
    series: Dict[Tuple[str, str], List[float]] = {}
    for event in steps:
        phase = str(event.get("phase", ""))
        for name, value in (event.get("losses") or {}).items():
            if isinstance(value, (int, float)):
                series.setdefault((phase, name), []).append(float(value))
    return series


def summarize(events: List[Dict], width: int = 48,
              profile: bool = False) -> str:
    """Build the full multi-section text summary for a run's events.

    ``profile=True`` appends the sampling-profiler section (hot functions,
    span self-time, top collapsed stacks, memory watermarks) aggregated
    from the log's ``profile`` events.
    """
    by_kind: Dict[str, List[Dict]] = {}
    for event in events:
        by_kind.setdefault(str(event.get("event", "?")), []).append(event)

    lines: List[str] = []

    # -- run header -----------------------------------------------------
    start = by_kind.get("run_start", [{}])[0]
    end = by_kind.get("run_end", [{}])[-1] if "run_end" in by_kind else {}
    run_id = start.get("run_id") or end.get("run_id") or "<unknown>"
    lines.append(f"run {run_id}  status={end.get('status', 'in-flight')}")
    if end.get("total_seconds") is not None:
        lines.append(f"wall time: {_format_seconds(float(end['total_seconds']))}")
    if start.get("seeds"):
        seeds = ", ".join(f"{k}={v}" for k, v in sorted(start["seeds"].items()))
        lines.append(f"seeds: {seeds}")
    if start.get("config"):
        config = start["config"]
        shown = ", ".join(f"{k}={config[k]}" for k in sorted(config)[:8])
        more = f" (+{len(config) - 8} more)" if len(config) > 8 else ""
        lines.append(f"config: {shown}{more}")

    # -- steps & throughput ---------------------------------------------
    steps = by_kind.get("step", [])
    if steps:
        lines.append("")
        lines.append(f"steps: {len(steps)}")
        elapsed = [float(e["elapsed"]) for e in steps if "elapsed" in e]
        if len(elapsed) >= 2 and elapsed[-1] > elapsed[0]:
            rate = (len(elapsed) - 1) / (elapsed[-1] - elapsed[0])
            lines.append(f"throughput: {rate:.2f} steps/s")
        documents = sum(int(e.get("documents", 0)) for e in steps)
        if documents and len(elapsed) >= 2 and elapsed[-1] > elapsed[0]:
            lines.append(
                f"            {documents / (elapsed[-1] - elapsed[0]):.2f} docs/s"
                f" ({documents} documents)"
            )
        grad_norms = [
            float(e["grad_norm"]) for e in steps
            if isinstance(e.get("grad_norm"), (int, float))
        ]
        if grad_norms:
            lines.append(
                f"grad norm: last={grad_norms[-1]:.4f} "
                f"max={max(grad_norms):.4f}"
            )

        series = _loss_series(steps)
        if series:
            lines.append("")
            lines.append("loss curves:")
            for (phase, name), values in sorted(series.items()):
                label = f"{phase}/{name}" if phase else name
                lines.append(
                    f"  {label:<24} {sparkline(values, width)}  "
                    f"first={values[0]:.4f} last={values[-1]:.4f}"
                )

    # -- epochs / evals -------------------------------------------------
    evals = by_kind.get("eval", []) + [
        e for e in by_kind.get("epoch", []) if any(
            k for k in e if k.startswith("val_")
        )
    ]
    scores = [
        (k, float(v))
        for e in evals
        for k, v in e.items()
        if k.startswith("val_") and isinstance(v, (int, float))
    ]
    if scores:
        lines.append("")
        best: Dict[str, float] = {}
        last: Dict[str, float] = {}
        for key, value in scores:
            best[key] = max(best.get(key, float("-inf")), value)
            last[key] = value
        parts = [f"{k} last={last[k]:.4f} best={best[k]:.4f}" for k in sorted(best)]
        lines.append("validation: " + "; ".join(parts))

    # -- alerts & drift -------------------------------------------------
    alerts = by_kind.get("alert", [])
    if alerts:
        lines.append("")
        lines.append(f"alerts ({len(alerts)}):")
        for alert in alerts:
            where = f" step {alert['step']}" if alert.get("step") is not None else ""
            lines.append(
                f"  [{alert.get('severity', '?')}] {alert.get('rule', '?')} on "
                f"{alert.get('series', '?')}{where}: {alert.get('message', '')}"
            )
    drift_events = by_kind.get("drift", [])
    if drift_events:
        flagged = sorted(
            {name for e in drift_events for name in (e.get("drifted") or ())}
        )
        lines.append("")
        lines.append(
            f"drift checks: {len(drift_events)}"
            + (f"  drifted features: {', '.join(flagged)}" if flagged
               else "  (all stable)")
        )

    # -- span breakdown -------------------------------------------------
    spans = by_kind.get("span", [])
    if spans:
        durations: Dict[str, List[float]] = {}
        for span in spans:
            durations.setdefault(str(span.get("name")), []).append(
                float(span.get("duration") or 0.0)
            )
        grand = sum(sum(values) for values in durations.values())
        rows = [
            (
                name,
                str(len(values)),
                _format_seconds(sum(values)),
                _format_seconds(sum(values) / len(values)),
                _format_seconds(_percentile(values, 50)),
                _format_seconds(_percentile(values, 95)),
                f"{100.0 * sum(values) / grand:.1f}%" if grand > 0 else "-",
            )
            for name, values in sorted(
                durations.items(), key=lambda item: -sum(item[1])
            )
        ]
        lines.append("")
        lines.append("span breakdown:")
        lines.extend(
            "  " + line
            for line in _table(
                rows, ("name", "calls", "total", "mean", "p50", "p95", "share")
            )
        )

        slowest = sorted(
            spans, key=lambda s: -float(s.get("duration") or 0.0)
        )[:5]
        lines.append("")
        lines.append("slowest spans:")
        for span in slowest:
            status = "" if span.get("status") == "ok" else f"  [{span.get('status')}]"
            lines.append(
                f"  {_format_seconds(float(span.get('duration') or 0.0)):>9}  "
                f"{span.get('name')}{status}"
            )

    # -- metrics --------------------------------------------------------
    snapshots = by_kind.get("metric_snapshot", [])
    if snapshots:
        metrics = snapshots[-1].get("metrics", {})
        rows = []
        for name in sorted(metrics):
            dump = metrics[name]
            for entry in dump.get("series", []):
                labels = entry.get("labels") or {}
                label_text = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
                value = entry.get("value")
                if isinstance(value, dict):  # histogram/timer series
                    # Only timers are known to hold seconds; plain
                    # histograms may count anything (batch sizes, ratios).
                    if dump.get("kind") == "timer":
                        mean = _format_seconds(float(value.get("mean", 0.0)))
                        peak = _format_seconds(float(value.get("max", 0.0)))
                        p95 = _format_seconds(float(value.get("p95", 0.0)))
                    else:
                        mean = f"{float(value.get('mean', 0.0)):.4g}"
                        peak = f"{float(value.get('max', 0.0)):.4g}"
                        p95 = f"{float(value.get('p95', 0.0)):.4g}"
                    text = (
                        f"count={value.get('count')} mean={mean} "
                        f"p95={p95} max={peak}"
                    )
                elif isinstance(value, float) and value != int(value):
                    text = f"{value:.4f}"
                else:
                    text = str(int(value)) if isinstance(value, float) else str(value)
                rows.append(
                    (f"{name}{{{label_text}}}" if label_text else name,
                     dump.get("kind", "?"), text)
                )
        if rows:
            lines.append("")
            lines.append("metrics (final snapshot):")
            lines.extend(
                "  " + line for line in _table(rows, ("metric", "kind", "value"))
            )

    if profile:
        aggregated = aggregate_profile(events)
        if aggregated is None:
            lines.append("")
            lines.append("profile: no profile events in this log "
                         "(run with profile_hz set)")
        else:
            lines.extend(_profile_section(aggregated))

    lines.append("")
    lines.append(f"events: {len(events)} total "
                 + " ".join(f"{k}={len(v)}" for k, v in sorted(by_kind.items())))
    return "\n".join(lines)


def summarize_json(events: List[Dict]) -> Dict[str, object]:
    """Machine-readable summary sharing the regression gate's shape.

    ``summary`` is exactly :func:`repro.obs.compare.run_summary`, so a
    dashboard and ``python -m repro.obs.compare`` read the same keys;
    ``alerts``/``drift`` carry those events verbatim.
    """
    starts = [e for e in events if e.get("event") == "run_start"]
    ends = [e for e in events if e.get("event") == "run_end"]
    counts: Dict[str, int] = {}
    for event in events:
        kind = str(event.get("event", "?"))
        counts[kind] = counts.get(kind, 0) + 1
    return {
        "run_id": starts[0].get("run_id") if starts else None,
        "status": ends[-1].get("status") if ends else "in-flight",
        "summary": run_summary(events),
        "alerts": [e for e in events if e.get("event") == "alert"],
        "drift": [e for e in events if e.get("event") == "drift"],
        "profile": aggregate_profile(events),
        "event_counts": counts,
    }


def follow(
    path: str,
    interval: float = 2.0,
    width: int = 48,
    profile: bool = False,
    as_json: bool = False,
    max_polls: Optional[int] = None,
    stream=None,
) -> int:
    """Poll a live run-log JSONL and re-render on every batch of events.

    Uses :func:`repro.obs.tail_events`, so a half-written trailing line
    is left for the next poll and a not-yet-created log reads as "no
    events yet" — start following before the run starts if you like.
    Returns once ``run_end`` arrives (or after ``max_polls`` polls);
    Ctrl-C also exits cleanly.
    """
    stream = stream or sys.stdout
    events: List[Dict] = []
    offset = 0
    polls = 0
    try:
        while True:
            fresh, offset = tail_events(path, offset)
            if fresh:
                events.extend(fresh)
                if as_json:
                    body = json.dumps(
                        summarize_json(events), indent=2, sort_keys=True
                    )
                else:
                    body = summarize(events, width=width, profile=profile)
                print(body, file=stream)
                print(
                    f"--- following {path}: {len(events)} event(s), "
                    f"polling every {interval:g}s (Ctrl-C to stop) ---",
                    file=stream, flush=True,
                )
                if any(e.get("event") == "run_end" for e in fresh):
                    return 0
            polls += 1
            if max_polls is not None and polls >= max_polls:
                return 0
            time.sleep(interval)
    except KeyboardInterrupt:
        return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point: ``python -m repro.obs.report run.jsonl``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.report",
        description="Summarize a repro.obs run-log JSONL file.",
    )
    parser.add_argument("path", help="path to the run log (JSONL)")
    parser.add_argument(
        "--width", type=int, default=48, help="sparkline width in columns"
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit the flat series summary (the regression gate's shape) "
        "plus alert/drift events and the aggregated profile as JSON",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="append the sampling-profiler section (hot functions, span "
        "self-time, collapsed stacks, memory watermarks)",
    )
    parser.add_argument(
        "--follow", action="store_true",
        help="poll a live log and re-render as events stream in; exits on "
        "run_end or Ctrl-C (the log need not exist yet)",
    )
    parser.add_argument(
        "--interval", type=float, default=2.0,
        help="seconds between --follow polls (default: 2)",
    )
    options = parser.parse_args(argv)
    if options.follow:
        return follow(
            options.path,
            interval=options.interval,
            width=options.width,
            profile=options.profile,
            as_json=options.json,
        )
    try:
        events = read_run_log(options.path)
    except OSError as error:
        print(f"error: cannot read {options.path}: {error}", file=sys.stderr)
        return 1
    if not events:
        print(f"error: {options.path} holds no events", file=sys.stderr)
        return 1
    try:
        if options.json:
            print(json.dumps(summarize_json(events), indent=2, sort_keys=True))
        else:
            print(summarize(events, width=options.width,
                            profile=options.profile))
    except BrokenPipeError:
        # Downstream pager/head closed the pipe — not an error.
        sys.stderr.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
