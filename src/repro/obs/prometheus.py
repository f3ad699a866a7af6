"""Prometheus text exposition (version 0.0.4) for metrics snapshots.

Renders a :meth:`repro.service.metrics.MetricsRegistry.snapshot` — plus
optional gauges — in the plain-text scrape format. Counters become
``<ns>_<name>_total``; observation series become a summary family (the
quantiles are the registry's window estimates — nearest rank within 1 %
relative error over the last 1024–2048 samples — while ``_sum`` and
``_count`` are lifetime) and, when bucket counts are present, a sibling
``<name>_histogram`` family with cumulative ``_bucket`` lines.

Zero dependencies and no scrape server: the HTTP gateway serves it at
``GET /v1/metrics?format=prometheus``.
"""

from __future__ import annotations

import math
import re
from typing import Any, Dict, List, Mapping, Optional

__all__ = [
    "render_prometheus", "sanitize_metric_name", "escape_label_value",
    "escape_help",
]

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")
_QUANTILES = (("0.5", "window_p50"), ("0.95", "window_p95"), ("0.99", "window_p99"))


def sanitize_metric_name(name: str) -> str:
    """Coerce an arbitrary registry name into a legal Prometheus name."""
    cleaned = _NAME_RE.sub("_", name)
    if not cleaned or cleaned[0].isdigit():
        cleaned = f"_{cleaned}"
    return cleaned


def escape_label_value(value: str) -> str:
    """Escape a label value per the text exposition format.

    Backslash, double-quote and newline are the only characters the
    format requires escaping inside ``label="…"``.
    """
    return (str(value)
            .replace("\\", r"\\")
            .replace('"', r"\"")
            .replace("\n", r"\n"))


def escape_help(text: str) -> str:
    """Escape a ``# HELP`` docstring (backslash and newline only)."""
    return str(text).replace("\\", r"\\").replace("\n", r"\n")


def _fmt(value: Any) -> str:
    number = float(value)
    if math.isinf(number):
        return "+Inf" if number > 0 else "-Inf"
    if math.isnan(number):
        return "NaN"
    if number == int(number) and abs(number) < 1e15:
        return str(int(number))
    return repr(number)


def render_prometheus(
    snapshot: Mapping[str, Any],
    *,
    namespace: str = "repro",
    gauges: Optional[Mapping[str, float]] = None,
) -> str:
    """The full exposition document (ends with a newline)."""
    lines: List[str] = []

    counters: Mapping[str, Any] = snapshot.get("counters", {})
    for name in sorted(counters):
        metric = f"{namespace}_{sanitize_metric_name(name)}_total"
        lines.append(f"# HELP {metric} Monotonic event counter {name!r}.")
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {_fmt(counters[name])}")

    series: Mapping[str, Any] = snapshot.get("series", {})
    for name in sorted(series):
        summary: Mapping[str, Any] = series[name]
        metric = f"{namespace}_{sanitize_metric_name(name)}"
        lines.append(
            f"# HELP {metric} Observation series {name!r} "
            "(window quantiles within 1% relative error over the last "
            "1024-2048 samples)."
        )
        lines.append(f"# TYPE {metric} summary")
        for label, key in _QUANTILES:
            if key in summary:
                lines.append(
                    f'{metric}{{quantile="{label}"}} {_fmt(summary[key])}'
                )
        lines.append(f"{metric}_sum {_fmt(summary.get('sum', 0.0))}")
        lines.append(f"{metric}_count {_fmt(summary.get('count', 0))}")

        buckets: Mapping[str, Any] = summary.get("buckets") or {}
        if buckets:
            hist = f"{metric}_histogram"
            lines.append(
                f"# HELP {hist} Cumulative histogram of series {name!r}."
            )
            lines.append(f"# TYPE {hist} histogram")
            for upper, count in buckets.items():
                lines.append(
                    f'{hist}_bucket{{le="{escape_label_value(upper)}"}} '
                    f"{_fmt(count)}"
                )
            lines.append(f"{hist}_sum {_fmt(summary.get('sum', 0.0))}")
            lines.append(f"{hist}_count {_fmt(summary.get('count', 0))}")

    # Gauge names may carry a literal label set after the metric name
    # (``queue_depth{class="batch"}``): the base name is sanitized, the
    # label block passes through verbatim, and samples sharing one base
    # emit a single HELP/TYPE header per family as the format requires.
    families: Dict[str, List[Any]] = {}
    for name in sorted(gauges or {}):
        base, brace, label = name.partition("{")
        metric = f"{namespace}_{sanitize_metric_name(base)}"
        families.setdefault(metric, []).append(
            (f"{brace}{label}", gauges[name])  # type: ignore[index]
        )
    for metric, samples in families.items():
        lines.append(f"# HELP {metric} Gauge {metric!r}.")
        lines.append(f"# TYPE {metric} gauge")
        for label_block, value in samples:
            lines.append(f"{metric}{label_block} {_fmt(value)}")

    return "\n".join(lines) + "\n"
