"""``repro.eval`` — the paper's evaluation metrics and reporting.

* Area-based per-tag P/R/F1 for block classification (Eq. 13–15).
* Entity-level IOB P/R/F1 for information extraction (Eq. 16–18).
* Inference timing (Time/Resume) and paper-style table formatting.
"""

from .confusion import confusion_matrix, format_confusion, most_confused_pairs
from .area_metrics import AreaEvaluation, area_prf_by_tag, area_prf_micro
from .reporting import format_prf_table, format_stats_table, format_table
from .seq_metrics import PrfScore, entity_prf, entity_prf_by_tag, token_accuracy
from .timing import LatencyStats, measure_latency, time_per_resume

__all__ = [
    "PrfScore",
    "entity_prf",
    "entity_prf_by_tag",
    "token_accuracy",
    "AreaEvaluation",
    "area_prf_by_tag",
    "area_prf_micro",
    "time_per_resume",
    "LatencyStats",
    "measure_latency",
    "format_table",
    "format_prf_table",
    "format_stats_table",
    "confusion_matrix",
    "format_confusion",
    "most_confused_pairs",
]
