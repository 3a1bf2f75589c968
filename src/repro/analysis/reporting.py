"""Text rendering of experiment results.

The CLI prints these tables, and ``repro claims`` renders them into
EXPERIMENTS.md: each figure panel as rows (configuration value → attempt
distribution) next to the paper claims checked against it.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.analysis.stats import box_stats


def render_distribution_table(
    title: str,
    column: str,
    samples: Mapping,
) -> str:
    """Render per-configuration attempt distributions as an ASCII table.

    Args:
        title: table caption.
        column: name of the configuration column (e.g. ``hop interval``).
        samples: mapping of configuration value → list of attempt counts.
    """
    lines = [title, "=" * len(title)]
    header = (f"{column:>16} | {'n':>3} | {'min':>4} | {'q1':>5} | "
              f"{'med':>5} | {'q3':>5} | {'max':>4} | {'var':>8}")
    lines.append(header)
    lines.append("-" * len(header))
    for key in samples:
        stats = box_stats(list(samples[key]))
        lines.append(
            f"{str(key):>16} | {stats.count:>3} | {stats.minimum:>4.0f} | "
            f"{stats.q1:>5.1f} | {stats.median:>5.1f} | {stats.q3:>5.1f} | "
            f"{stats.maximum:>4.0f} | {stats.variance:>8.2f}"
        )
    return "\n".join(lines)


def render_series(title: str, rows: Sequence[tuple]) -> str:
    """Render simple key/value result rows."""
    lines = [title, "=" * len(title)]
    for row in rows:
        key, *rest = row
        lines.append(f"{str(key):>24} : " + "  ".join(str(v) for v in rest))
    return "\n".join(lines)


def render_roc_table(title: str, rows: Sequence[Mapping]) -> str:
    """Render defense-bench ROC rows as an ASCII table.

    Args:
        title: table caption.
        rows: dicts from
            :func:`repro.experiments.defense.summarize_defense` —
            ``detector``/``traffic`` keys plus ``auc``, ``tpr``, ``fpr``,
            ``detected``/``n_pos``/``n_neg`` counts and first-alert
            latency quantiles in µs (``None`` renders as ``-``).
    """

    def num(value, spec: str) -> str:
        return "-" if value is None else format(value, spec)

    def ms(value_us) -> str:
        return "-" if value_us is None else f"{value_us / 1_000.0:.1f}"

    lines = [title, "=" * len(title)]
    header = (f"{'detector':>18} | {'traffic':<18} | {'AUC':>5} | "
              f"{'TPR':>5} | {'FPR':>5} | {'det':>5} | "
              f"{'p50 lat ms':>10} | {'p90 lat ms':>10}")
    lines.append(header)
    lines.append("-" * len(header))
    for row in rows:
        detected = f"{row['detected']}/{row['n_pos']}"
        lines.append(
            f"{row['detector']:>18} | {row['traffic']:<18} | "
            f"{num(row['auc'], '.3f'):>5} | {num(row['tpr'], '.2f'):>5} | "
            f"{num(row['fpr'], '.2f'):>5} | {detected:>5} | "
            f"{ms(row['latency_p50_us']):>10} | "
            f"{ms(row['latency_p90_us']):>10}"
        )
    if not rows:
        lines.append("(no completed monitored trials)")
    return "\n".join(lines)


def render_failure_taxonomy(title: str, failures: Mapping) -> str:
    """Render campaign failures grouped by kind.

    Args:
        title: table caption.
        failures: mapping of failure kind (``timeout``/``crash``/
            ``error``) → list of failed unit ids.
    """
    lines = [title, "=" * len(title)]
    if not failures:
        lines.append("(no failures)")
        return "\n".join(lines)
    for kind in sorted(failures):
        unit_ids = list(failures[kind])
        shown = ", ".join(unit_ids[:6])
        if len(unit_ids) > 6:
            shown += f", … ({len(unit_ids) - 6} more)"
        lines.append(f"{kind:>16} : {len(unit_ids):>3}  {shown}")
    return "\n".join(lines)


def render_metrics_table(title: str, snapshot: Mapping) -> str:
    """Render a telemetry snapshot (or merge of snapshots) as text.

    Args:
        title: table caption.
        snapshot: a :meth:`~repro.telemetry.metrics.MetricsRegistry.snapshot`
            dict — ``counters`` name → value, ``gauges`` name → value,
            ``histograms`` name → ``{"buckets", "counts", "sum", "count"}``.
    """
    lines = [title, "=" * len(title)]
    counters = snapshot.get("counters", {})
    gauges = snapshot.get("gauges", {})
    histograms = snapshot.get("histograms", {})
    for name in sorted(counters):
        lines.append(f"{name:>32} : {counters[name]}")
    for name in sorted(gauges):
        lines.append(f"{name:>32} : {gauges[name]:g} (gauge)")
    for name in sorted(histograms):
        hist = histograms[name]
        count = hist["count"]
        mean = hist["sum"] / count if count else 0.0
        lines.append(
            f"{name:>32} : n={count} mean={mean:.2f} "
            f"sum={hist['sum']:g}"
        )
    if len(lines) == 2:
        lines.append("(no metrics recorded)")
    return "\n".join(lines)
