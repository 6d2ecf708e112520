"""Pearson and Spearman correlation with tie handling and significance flags.

Spearman is computed as Pearson on fractional (mean-of-positions) ranks,
which is the tie-correct estimator; assessment data are full of tied
values, so the naive 1 - 6*sum(d^2)/(n(n^2-1)) shortcut is only valid for
tie-free inputs and is kept to the tests as a cross-check.

Significance uses the t approximation t = r * sqrt((n-2)/(1-r^2)) with
n-2 degrees of freedom for both coefficients, two-sided, at alpha = 0.05.
"""

from __future__ import annotations

import logging
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from refh.corpus import normalize_label, write_csv
from refh.metrics import GroupMetrics, ScoreSet, _fmt6

ALPHA = 0.05

CORRELATIONS_HEADER = [
    "discipline", "x", "y", "n",
    "pearson_r", "p_pearson", "sig_pearson",
    "spearman_rho", "p_spearman", "sig_spearman",
]
CORR_SERIES_HEADER = CORRELATIONS_HEADER + ["measurement_year"]
FIG_POINTS_HEADER = ["x_value", "y_value", "institution"]

_H_LABEL = re.compile(r"^h(?:_hat)?_(\d{4})$")
# profile-side measure label -> ScoreSet field
_PROFILE_MEASURES = {"s": "s", "s_prime": "s_prime", "s_output": "s_output",
                     "strength": "strength", "i": "nci"}

log = logging.getLogger(__name__)


class InsufficientDataError(ValueError):
    """Raised when a correlation is requested over fewer than 3 joined pairs."""


def _as_vector(x, name: str) -> np.ndarray:
    # imported here, as in significance, so only correlate loads numpy
    import numpy as np

    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains a non-finite value")
    return arr


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    """Sample Pearson correlation, clamped to [-1, 1] against rounding."""
    xv = _as_vector(x, "x")
    yv = _as_vector(y, "y")
    if xv.size != yv.size:
        raise ValueError(f"length mismatch: {xv.size} vs {yv.size}")
    if xv.size < 3:
        raise ValueError(f"need at least 3 observations, got {xv.size}")
    xc = xv - xv.mean()
    yc = yv - yv.mean()
    dx = float(xc @ xc)
    dy = float(yc @ yc)
    if dx == 0.0 or dy == 0.0:
        raise ValueError("correlation undefined for a constant vector")
    # single sqrt of the product keeps r exactly 1 for identical vectors
    r = float(xc @ yc) / math.sqrt(dx * dy)
    return max(-1.0, min(1.0, r))


def fractional_ranks(x: Sequence[float]) -> np.ndarray:
    """Ranks 1..n with tied values sharing the mean of their positions."""
    import numpy as np

    a = _as_vector(x, "x")
    n = a.size
    if n == 0:
        raise ValueError("cannot rank an empty vector")
    order = np.argsort(a, kind="mergesort")
    ranks = np.empty(n, dtype=float)
    i = 0
    while i < n:
        j = i
        while j + 1 < n and a[order[j + 1]] == a[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def spearman(x: Sequence[float], y: Sequence[float]) -> float:
    """Rank correlation: Pearson applied to fractional ranks of both vectors."""
    xv = _as_vector(x, "x")
    yv = _as_vector(y, "y")
    if xv.size != yv.size:
        raise ValueError(f"length mismatch: {xv.size} vs {yv.size}")
    if xv.size < 3:
        raise ValueError(f"need at least 3 observations, got {xv.size}")
    return pearson(fractional_ranks(xv), fractional_ranks(yv))


def significance(r: float, n: int, kind: str = "pearson") -> tuple[float, bool]:
    """Two-sided p-value and alpha = 0.05 flag for a correlation of r over n pairs.

    The same t approximation is used for both coefficient kinds.  |r| = 1
    yields p = 0 by convention.  Requires n >= 3 so that the t statistic
    has at least one degree of freedom.
    """
    if kind not in ("pearson", "spearman"):
        raise ValueError(f"kind must be 'pearson' or 'spearman', got {kind!r}")
    if n < 3:
        raise ValueError(f"need at least 3 observations, got {n}")
    if not -1.0 <= r <= 1.0:
        raise ValueError(f"correlation {r} outside [-1, 1]")
    if abs(r) == 1.0:
        return 0.0, True
    # imported here so only commands that compute a p-value load it;
    # stdtr(df, -|t|) is the Student-t upper tail at |t|
    from scipy.special import stdtr

    df = n - 2
    t_stat = r * math.sqrt(df / (1.0 - r * r))
    p = 2.0 * float(stdtr(df, -abs(t_stat)))
    p = max(0.0, min(1.0, p))
    return p, p < ALPHA


@dataclass(frozen=True)
class CorrelationReport:
    """Correlation of one measure pair over the joined sample."""

    discipline: str
    measure_x: str
    measure_y: str
    n: int
    pearson_r: float
    spearman_rho: float
    p_pearson: float
    p_spearman: float
    significant_pearson: bool
    significant_spearman: bool
    n_dropped: int = 0

    def __post_init__(self):
        if self.n < 3:
            raise ValueError(f"report requires n >= 3, got {self.n}")
        for name in ("pearson_r", "spearman_rho"):
            if abs(getattr(self, name)) > 1.0:
                raise ValueError(f"{name} outside [-1, 1]")


@dataclass(frozen=True)
class CorrelationSeries:
    """One measure correlated against h over successive measurement years,
    with the optional x-vs-nci report as a fixed comparison line."""

    measure_x: str
    baseline: CorrelationReport | None = None
    by_year: Mapping[int, CorrelationReport] = field(default_factory=dict)

    def __post_init__(self):
        years = sorted(self.by_year)
        if years and years != list(range(years[0], years[-1] + 1)):
            raise ValueError(f"measurement years must be contiguous, got {years}")
        object.__setattr__(self, "by_year", dict(sorted(self.by_year.items())))


def h_label_year(label: str) -> int | None:
    """Measurement year of an ``h_YYYY`` / ``h_hat_YYYY`` label, else None."""
    m = _H_LABEL.match(label)
    return int(m.group(1)) if m else None


def measure_values(
    label: str, scores: Iterable[ScoreSet], metrics: Iterable[GroupMetrics]
) -> dict[str, float]:
    """``{institution: value}`` for one measure label; the only place labels
    are resolved.

    ``s``, ``s_prime``, ``s_output``, ``strength`` and ``i`` (the nci) are
    read from ``scores``; ``h_YYYY`` and ``h_hat_YYYY`` from ``metrics``.
    Groups without a value are left out.
    """
    if label in _PROFILE_MEASURES:
        pairs = ((s.institution, getattr(s, _PROFILE_MEASURES[label])) for s in scores)
    elif (year := h_label_year(label)) is not None:
        pairs = ((g.institution, g.h_by_year.get(year)) for g in metrics)
    else:
        raise ValueError(f"unknown measure label: {label!r}")
    return {inst: float(v) for inst, v in pairs if v is not None}


def _universe(scores: list[ScoreSet], metrics: list[GroupMetrics]) -> list[str]:
    """Sorted institutions with both a score set and metrics; all of the
    input must belong to one discipline."""
    disciplines = {normalize_label(g.discipline) for g in [*scores, *metrics]}
    if len(disciplines) > 1:
        raise ValueError(f"scores and metrics span more than one discipline: {sorted(disciplines)}")
    return sorted({s.institution for s in scores} & {g.institution for g in metrics})


def _pair(
    universe: list[str], xs: Mapping[str, float], ys: Mapping[str, float]
) -> tuple[list[tuple[str, float, float]], int]:
    points = [(inst, xs[inst], ys[inst]) for inst in universe if inst in xs and inst in ys]
    return points, len(universe) - len(points)


def joined_points(
    scores: Iterable[ScoreSet],
    metrics: Iterable[GroupMetrics],
    x_label: str,
    y_label: str,
) -> tuple[list[tuple[str, float, float]], int]:
    """Join scores and metrics on institution for one pair.

    The join universe is the institutions with both a score set and
    metrics; all of them must belong to one discipline.  Returns (points,
    dropped) where points are (institution, x, y) rows, in institution
    order, for the members carrying both values and dropped counts the
    other members.
    """
    scores, metrics = list(scores), list(metrics)
    universe = _universe(scores, metrics)
    return _pair(
        universe, measure_values(x_label, scores, metrics), measure_values(y_label, scores, metrics)
    )


def _report(
    metrics: list[GroupMetrics],
    x_label: str,
    y_label: str,
    points: list[tuple[str, float, float]],
    dropped: int,
) -> CorrelationReport:
    """Correlate one pair's joined points; fewer than 3 raises
    :class:`InsufficientDataError` naming the pair."""
    if len(points) < 3:
        raise InsufficientDataError(
            f"pair ({x_label}, {y_label}): only {len(points)} complete "
            f"joined pairs ({dropped} dropped); need at least 3"
        )
    if dropped:
        log.info("pair (%s, %s): dropped %d incomplete rows", x_label, y_label, dropped)
    xs = [p[1] for p in points]
    ys = [p[2] for p in points]
    r = pearson(xs, ys)
    rho = spearman(xs, ys)
    p_r, sig_r = significance(r, len(points), "pearson")
    p_rho, sig_rho = significance(rho, len(points), "spearman")
    return CorrelationReport(
        discipline=metrics[0].discipline,
        measure_x=x_label,
        measure_y=y_label,
        n=len(points),
        pearson_r=r,
        spearman_rho=rho,
        p_pearson=p_r,
        p_spearman=p_rho,
        significant_pearson=sig_r,
        significant_spearman=sig_rho,
        n_dropped=dropped,
    )


def correlation_table(
    scores: Iterable[ScoreSet],
    metrics: Iterable[GroupMetrics],
    pairs: Sequence[tuple[str, str]],
) -> list[CorrelationReport]:
    """One report per requested (x, y) measure pair.

    Groups missing either value are dropped pairwise; the drop count is
    carried on the report and logged.  Fewer than 3 complete pairs raises
    :class:`InsufficientDataError` naming the pair.
    """
    scores = list(scores)
    metrics = list(metrics)
    return [
        _report(metrics, x_label, y_label, *joined_points(scores, metrics, x_label, y_label))
        for x_label, y_label in pairs
    ]


def correlation_series(
    scores: Iterable[ScoreSet],
    metrics: Iterable[GroupMetrics],
    x_label: str,
    years: Sequence[int],
) -> CorrelationSeries:
    """Correlate ``x_label`` against h for each measurement year in ``years``,
    plus against nci once, when any group carries one.

    The join universe and the x values are resolved once for the series.
    """
    scores = list(scores)
    metrics = list(metrics)
    universe = _universe(scores, metrics)
    xs = measure_values(x_label, scores, metrics)

    def report(y_label: str) -> CorrelationReport:
        ys = measure_values(y_label, scores, metrics)
        return _report(metrics, x_label, y_label, *_pair(universe, xs, ys))

    by_year = {year: report(f"h_{year}") for year in years}
    baseline = None
    roster = {m.institution for m in metrics}
    if any(s.nci is not None and s.institution in roster for s in scores):
        baseline = report("i")
    return CorrelationSeries(measure_x=x_label, baseline=baseline, by_year=by_year)


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------


def _report_row(report: CorrelationReport) -> list[str]:
    return [
        report.discipline,
        report.measure_x,
        report.measure_y,
        str(report.n),
        _fmt6(report.pearson_r),
        _fmt6(report.p_pearson),
        "true" if report.significant_pearson else "false",
        _fmt6(report.spearman_rho),
        _fmt6(report.p_spearman),
        "true" if report.significant_spearman else "false",
    ]


def write_correlations_csv(reports: Iterable[CorrelationReport], path: str | Path) -> None:
    write_csv(path, CORRELATIONS_HEADER, (_report_row(report) for report in reports))


def write_corr_series_csv(series: Iterable[CorrelationSeries], path: str | Path) -> None:
    """Per-year rows plus one year-less baseline row per series when present."""
    rows = []
    for s in series:
        if s.baseline is not None:
            rows.append(_report_row(s.baseline) + [""])
        rows.extend(_report_row(report) + [str(year)] for year, report in sorted(s.by_year.items()))
    write_csv(path, CORR_SERIES_HEADER, rows)


def write_fig_points_csv(points: Iterable[tuple[str, float, float]], path: str | Path) -> None:
    """Scatter-plot export: one (x, y) point per institution."""
    write_csv(path, FIG_POINTS_HEADER, ([_fmt6(x), _fmt6(y), inst] for inst, x, y in points))
