"""Pearson and Spearman correlation with tie handling and significance flags.

Spearman is computed as Pearson on fractional (mean-of-positions) ranks,
which is the tie-correct estimator; assessment data are full of tied
values, so the naive 1 - 6*sum(d^2)/(n(n^2-1)) shortcut is only valid for
tie-free inputs and is kept to the tests as a cross-check.

Significance uses the t approximation t = r * sqrt((n-2)/(1-r^2)) with
n-2 degrees of freedom for both coefficients, two-sided, at alpha = 0.05.
The Student-t upper tail is computed from ``math`` alone, as cephes
``stdtr`` does for integer degrees of freedom: for |t| <= 2 by the finite
sums of Abramowitz & Stegun 26.7.3 (odd df) and 26.7.4 (even df), and for
|t| > 2 as 0.5 * I_x(df/2, 1/2) with x = df/(df+t^2), the regularized
incomplete beta function evaluated by its continued fraction (modified
Lentz).  The tail is computed directly rather than as 1 - CDF, so small
p-values keep their relative accuracy.
"""

from __future__ import annotations

import logging
import math
import re
from dataclasses import dataclass, field
from itertools import groupby
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
# the tail's series stops once a term no longer moves the sum (cephes
# MACHEP), its continued fraction within 3 of them as in cephes; _TINY stands
# in for a vanishing Lentz denominator
_EPS = 2.0 ** -53
_TINY = 1e-300

log = logging.getLogger(__name__)


class InsufficientDataError(ValueError):
    """Raised when a correlation is requested over fewer than 3 joined pairs."""


def _as_vector(x, name: str) -> list[float]:
    try:
        if getattr(x, "ndim", 1) != 1 or isinstance(x, str):
            raise TypeError
        vec = [float(v) for v in x]
    except TypeError:  # a scalar or string, or a nested sequence whose rows float() refuses
        raise ValueError(f"{name} must be one-dimensional") from None
    if not all(map(math.isfinite, vec)):
        raise ValueError(f"{name} contains a non-finite value")
    return vec


def _vectors(x: Sequence[float], y: Sequence[float]) -> tuple[list[float], list[float]]:
    """Both vectors checked as a pair: equal lengths, at least 3 each."""
    xv = _as_vector(x, "x")
    yv = _as_vector(y, "y")
    if len(xv) != len(yv):
        raise ValueError(f"length mismatch: {len(xv)} vs {len(yv)}")
    if len(xv) < 3:
        raise ValueError(f"need at least 3 observations, got {len(xv)}")
    return xv, yv


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    """Sample Pearson correlation, clamped to [-1, 1] against rounding."""
    xv, yv = _vectors(x, y)
    mx = math.fsum(xv) / len(xv)
    my = math.fsum(yv) / len(yv)
    xc = [v - mx for v in xv]
    yc = [v - my for v in yv]
    dx = math.fsum(v * v for v in xc)
    dy = math.fsum(v * v for v in yc)
    # equal values are tested as such: their float mean can round off them,
    # leaving equal nonzero deviations and an r near 0
    if dx == 0.0 or dy == 0.0 or min(xv) == max(xv) or min(yv) == max(yv):
        raise ValueError("correlation undefined for a constant vector")
    # single sqrt of the product keeps r exactly 1 for identical vectors
    r = math.fsum(u * v for u, v in zip(xc, yc)) / math.sqrt(dx * dy)
    return max(-1.0, min(1.0, r))


def fractional_ranks(x: Sequence[float]) -> list[float]:
    """Ranks 1..n with tied values sharing the mean of their positions."""
    a = _as_vector(x, "x")
    if not a:
        raise ValueError("cannot rank an empty vector")
    ranks = [0.0] * len(a)
    start = 0
    # a stable sort of the indices, grouped into runs of equal values
    for _, run in groupby(sorted(range(len(a)), key=a.__getitem__), key=a.__getitem__):
        tied = list(run)
        rank = start + 0.5 * (len(tied) + 1)
        for i in tied:
            ranks[i] = rank
        start += len(tied)
    return ranks


def spearman(x: Sequence[float], y: Sequence[float]) -> float:
    """Rank correlation: Pearson applied to fractional ranks of both vectors."""
    xv, yv = _vectors(x, y)
    return pearson(fractional_ranks(xv), fractional_ranks(yv))


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    """The continued fraction of I_x(a, b) * a * B(a, b) / (x^a (1-x)^b),
    by the modified Lentz method; converges fast for x < (a+1)/(a+b+2)."""
    c = 1.0
    d = 1.0 / max(1.0 - (a + b) * x / (a + 1.0), _TINY)
    h = d
    # at most 63 rounds were needed for df from 1 to 10^7 and t > 2; cephes
    # stops at 300
    for m in range(1, 300):
        for coef in (m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)),
                     -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0))):
            d = 1.0 + coef * d
            d = 1.0 / (d if abs(d) > _TINY else _TINY)
            c = 1.0 + coef / c
            c = c if abs(c) > _TINY else _TINY
            h *= d * c
        if abs(d * c - 1.0) <= 3.0 * _EPS:
            return h
    raise ArithmeticError(f"incomplete beta continued fraction did not converge at x = {x}")


def _t_tail(t: float, df: int) -> float:
    """Upper tail P(T > t) of Student's t with ``df`` >= 1 degrees of freedom, t >= 0."""
    if t > 2.0:
        # 0.5 * I_x(df/2, 1/2); here x < df/(df+4), inside the fraction's
        # fast region, so no symmetry swap is needed
        a = 0.5 * df
        t2 = t * t
        # log of x^a (1-x)^(1/2) / B(a, 1/2), with log x and 1 - x formed
        # from t so neither loses digits when x is near 0 or 1
        log_front = (math.lgamma(a + 0.5) - math.lgamma(a) - math.lgamma(0.5)
                     - a * math.log1p(t2 / df) + 0.5 * math.log(t2 / (df + t2)))
        return 0.5 * math.exp(log_front) * _beta_continued_fraction(a, 0.5, df / (df + t2)) / a
    # central = P(|T| <= t), from the finite cos^2 sums of A&S 26.7.3-4
    z = 1.0 + t * t / df
    f = term = 1.0
    j = 3 if df % 2 else 2
    while j <= df - 2 and term / f > _EPS:
        term *= (j - 1) / (z * j)
        f += term
        j += 2
    if df % 2:
        u = t / math.sqrt(df)
        central = 2.0 / math.pi * (math.atan(u) + (f * u / z if df > 1 else 0.0))
    else:
        central = f * t / math.sqrt(z * df)
    return 0.5 - 0.5 * central


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
    df = n - 2
    t_stat = r * math.sqrt(df / (1.0 - r * r))
    p = 2.0 * _t_tail(abs(t_stat), df)
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
