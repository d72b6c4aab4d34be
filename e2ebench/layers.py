"""Per-layer timers for the traced run, recorded from the benchmark's side.

:class:`LayerTracer` wraps public calls into each layer in spans of a
standalone in-memory :class:`repro.obs.Tracer`; no telemetry session is
active, so the program's own ``obs.trace`` points stay no-ops.  Calls are
wrapped at per-document or per-call granularity only; per-word calls such
as ``tokenize_word`` are left alone so the tracing overhead stays small.

The benchmark opens one root span (``bench.*``) around every timed region;
the traced wall time is the sum of the root spans, and root self time is
the part no timer covers (``unattributed.share``).
"""

from __future__ import annotations

import functools
import statistics
import sys
from collections import defaultdict
from typing import Dict, List, Tuple

from repro.obs import Tracer

#: Root span of the benchmark's measured calls (set-up roots are ``bench.setup``).
MEASURED = "bench.call"


def _targets():
    """``timer name -> [(owner, attribute), ...]`` of the wrapped public calls.

    The keys, in order, are the timers every traced run reports.
    """
    from repro import persistence
    from repro.core import BlockClassifier, Featurizer, Pretrainer, batching
    from repro.ner import NerTagger
    from repro.ner.encoding import NerFeaturizer
    from repro.nn import AdamW, LinearChainCrf, Tensor
    from repro.pipeline import ResumeParser

    return {
        "persistence.load_parser": [(persistence, "load_parser")],
        "nn.quantize.calibrate": [(BlockClassifier, "quantize_for_inference"),
                                  (NerTagger, "quantize_for_inference")],
        "pipeline.segment": [(ResumeParser, "segment")],
        "pipeline.extract_entities": [(ResumeParser, "extract_entities")],
        "core.featurize": [(Featurizer, "featurize")],
        "core.encode": [(BlockClassifier, "emissions"),
                        (BlockClassifier, "emissions_batch")],
        "nn.crf.decode": [(LinearChainCrf, "decode")],
        "ner.featurize": [(NerFeaturizer, "featurize")],
        "ner.predict": [(NerTagger, "predict"), (NerTagger, "predict_batch")],
        "core.collate": [(batching, "collate_documents")],
        # Pretrainer.fit runs each step as pretrain_losses plus the gradient
        # engine; pretrain_step is a separate single-step entry it never calls.
        "core.pretrain.step": [(Pretrainer, "pretrain_losses")],
        "core.loss_batch": [(BlockClassifier, "loss_batch")],
        "nn.backward": [(Tensor, "backward")],
        "nn.optim.step": [(AdamW, "step")],
    }


def _annotate(name, args, result, span) -> None:
    """Record the counts a timer's ratio metrics are built from."""
    if name == "core.encode":
        batch = args[1]
        span.set_attribute("docs", getattr(batch, "batch_size", 1))
    elif name == "ner.predict":
        span.set_attribute("examples", len(args[1]))
    elif name == "core.collate":
        span.set_attribute("slots", int(result.sentence_mask.size))
        span.set_attribute("used", int(result.lengths.sum()))


def _wrap(tracer: Tracer, name: str, fn):
    if name == "core.featurize":
        @functools.wraps(fn)
        def featurize(featurizer, document):
            cache = featurizer.cache
            hits = cache.hits if cache is not None else 0
            with tracer.span(name) as span:
                result = fn(featurizer, document)
            if cache is not None:
                span.set_attribute("hit", cache.hits > hits)
            return result
        return featurize

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name) as span:
            result = fn(*args, **kwargs)
            _annotate(name, args, result, span)
        return result
    return wrapper


class LayerTracer:
    """Installs the timers on entry and restores every original on exit."""

    def __init__(self):
        self.tracer = Tracer()
        self._saved: List[Tuple[object, str, object, bool]] = []

    def __enter__(self) -> "LayerTracer":
        for name, targets in _targets().items():
            for owner, attribute in targets:
                original = getattr(owner, attribute)
                wrapper = _wrap(self.tracer, name, original)
                if isinstance(owner, type):
                    self._patch(owner, attribute, wrapper)
                    continue
                # A module function is called through every module that
                # imported it by name; patch each such binding.
                for module in list(sys.modules.values()):
                    if (getattr(module, "__name__", "").startswith("repro")
                            and getattr(module, attribute, None) is original):
                        self._patch(module, attribute, wrapper)
        return self

    def _patch(self, owner, attribute, wrapper) -> None:
        own = attribute in vars(owner)
        self._saved.append((owner, attribute, vars(owner).get(attribute), own))
        setattr(owner, attribute, wrapper)

    def __exit__(self, *exc) -> None:
        for owner, attribute, original, own in reversed(self._saved):
            if own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)
        self._saved.clear()

    def span(self, name: str):
        return self.tracer.span(name)


def self_times(spans) -> Dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    children = defaultdict(float)
    for span in spans:
        if span.parent_id is not None:
            children[span.parent_id] += span.duration
    return {span.span_id: span.duration - children[span.span_id] for span in spans}


def _roots(spans) -> Dict[int, str]:
    """Span id -> name of the root span it ran under."""
    parents = {span.span_id: span.parent_id for span in spans}
    names = {span.span_id: span.name for span in spans}
    roots = {}
    for span in spans:
        node = span.span_id
        while parents.get(node) in parents:
            node = parents[node]
        roots[span.span_id] = names[node]
    return roots


def layer_metrics(spans) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric, ``name -> (value, unit)``; absent timers read 0."""
    own = self_times(spans)
    roots = _roots(spans)
    ids = {s.span_id for s in spans}
    top = [s for s in spans if s.parent_id not in ids]
    wall = sum(s.duration for s in top)
    metrics: Dict[str, Tuple[float, str]] = {}
    by_name = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)
    for timer in _targets():
        timed = by_name.get(timer, [])
        busy = sum((own[s.span_id] for s in timed), 0.0)
        metrics[f"{timer}.calls"] = (len(timed), "count")
        metrics[f"{timer}.busy_s"] = (busy, "s")
        metrics[f"{timer}.p50_ms"] = (
            1e3 * statistics.median(s.duration for s in timed) if timed else 0.0, "ms"
        )
        metrics[f"{timer}.share"] = (busy / wall if wall else 0.0, "ratio")

    # Ratios describe the measured calls, not the set-up that precedes them.
    def measured(name):
        return [s for s in by_name.get(name, []) if roots[s.span_id] == MEASURED]

    encodes = measured("core.encode")
    metrics["core.encode.docs_per_call"] = (
        statistics.fmean(s.attributes["docs"] for s in encodes) if encodes else 0.0,
        "docs",
    )
    predicts = measured("ner.predict")
    metrics["ner.examples_per_call"] = (
        statistics.fmean(s.attributes["examples"] for s in predicts)
        if predicts else 0.0,
        "examples",
    )
    collates = measured("core.collate")
    slots = sum(s.attributes["slots"] for s in collates)
    used = sum(s.attributes["used"] for s in collates)
    metrics["core.padding_waste"] = (1.0 - used / slots if slots else 0.0, "ratio")
    lookups = [s for s in measured("core.featurize") if "hit" in s.attributes]
    metrics["core.featurize.lookups"] = (len(lookups), "count")
    metrics["core.featurize.hit_ratio"] = (
        sum(s.attributes["hit"] for s in lookups) / len(lookups) if lookups else 0.0,
        "ratio",
    )
    uncovered = sum(own[s.span_id] for s in top)
    metrics["unattributed.share"] = (uncovered / wall if wall else 0.0, "ratio")
    return metrics
