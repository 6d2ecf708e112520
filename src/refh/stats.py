"""Pearson and Spearman correlation with tie handling and significance flags.

Spearman is computed as Pearson on fractional (mean-of-positions) ranks,
which is the tie-correct estimator; assessment data are full of tied
values, so the naive 1 - 6*sum(d^2)/(n(n^2-1)) shortcut is only valid for
tie-free inputs and is kept to the tests as a cross-check.

Significance uses the t approximation t = r * sqrt((n-2)/(1-r^2)) with
n-2 degrees of freedom for both coefficients, two-sided, at alpha = 0.05.
The Student-t upper tail is computed from ``math`` alone as 0.5 *
I_x(df/2, 1/2) with x = df/(df+t^2), the regularized incomplete beta
function evaluated by its continued fraction (modified Lentz), as cephes
``incbet`` does.  The tail is computed directly rather than as 1 - CDF, so
small p-values keep their relative accuracy.  Below t^2 = 3 df / (df + 2),
where that fraction converges slowly, it is taken through I_x's symmetry,
as 0.5 - 0.5 * I_(1-x)(1/2, df/2).
"""

from __future__ import annotations

import math
import re
from itertools import groupby
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

from refh.corpus import _EMPTY, _Frozen, log_info, normalize_label, write_csv
from refh.metrics import GroupMetrics, ScoreSet, _fmt6

ALPHA = 0.05

CORRELATIONS_HEADER = [
    "discipline", "x", "y", "n",
    "pearson_r", "p_pearson", "sig_pearson",
    "spearman_rho", "p_spearman", "sig_spearman",
]
CORR_SERIES_HEADER = CORRELATIONS_HEADER + ["measurement_year"]
FIG_POINTS_HEADER = ["x_value", "y_value", "institution"]

_H_LABEL = re.compile(r"h(?:_hat)?_([0-9]{4})")  # fullmatch: no trailing newline, ASCII digits
# profile-side measure label -> ScoreSet field
_PROFILE_MEASURES = {"s": "s", "s_prime": "s_prime", "s_output": "s_output",
                     "strength": "strength", "i": "nci"}
# (institution, x, y) rows of one joined pair, in institution order
_Points = list[tuple[str, float, float]]
# the continued fraction stops within 3 MACHEP (2^-53) of its limit, as
# cephes does; _TINY stands in for a vanishing Lentz denominator
_EPS = 2.0 ** -53
_TINY = 1e-300
# up to this a, log(Gamma(a + 1/2) / Gamma(a)) is a difference of lgammas
_LGAMMA_MAX_A = 50


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
    # equal values are tested as such: their float mean can round off them,
    # leaving equal nonzero deviations and an r near 0
    if min(xv) == max(xv) or min(yv) == max(yv):
        raise ValueError("correlation undefined for a constant vector")
    # r is scale-free; dividing by the largest magnitude keeps the squared
    # deviations of tiny values (say 1e-170) from underflowing to 0
    tx, ty = max(map(abs, xv)), max(map(abs, yv))
    xv, yv = [v / tx for v in xv], [v / ty for v in yv]
    mx = math.fsum(xv) / len(xv)
    my = math.fsum(yv) / len(yv)
    xc = [v - mx for v in xv]
    yc = [v - my for v in yv]
    dx = math.fsum(v * v for v in xc)
    dy = math.fsum(v * v for v in yc)
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
    # at most 96 rounds were needed on a grid of df from 1 to 10^7 and t from
    # 1e-8 to 1e8, the most next to t^2 = 3 df / (df + 2); cephes stops at 300
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


def _log_gamma_ratio(a: float) -> float:
    """log(Gamma(a + 1/2) / Gamma(a)).  For a above _LGAMMA_MAX_A it is the
    asymptotic series of DLMF 5.11.8, within 1e-16 there; the difference of
    two lgammas loses digits as they grow (5e-12 at a = 5e4)."""
    if a <= _LGAMMA_MAX_A:
        return math.lgamma(a + 0.5) - math.lgamma(a)
    a2 = a * a
    series = -1.0 / 8.0 + (1.0 / 192.0 + (-1.0 / 640.0 + 17.0 / (14336.0 * a2)) / a2) / a2
    return 0.5 * math.log(a) + series / a


def _t_tail(t: float, df: int) -> float:
    """Upper tail P(T > t) of Student's t with ``df`` >= 1 degrees of freedom, t >= 0."""
    if t == 0.0:
        return 0.5
    a = 0.5 * df
    t2 = t * t
    # log of x^a (1-x)^(1/2) / B(a, 1/2), with log x and log(1 - x) formed
    # from t, so neither loses digits when x is near 0 or 1, nor fails when
    # t^2 underflows to 0
    log_front = (_log_gamma_ratio(a) - math.lgamma(0.5)
                 - a * math.log1p(t2 / df) + math.log(t) - 0.5 * math.log(df + t2))
    front = math.exp(log_front)
    # 0.5 * I_x(df/2, 1/2) while x = df/(df+t^2) lies in the fraction's fast
    # region x < (a+1)/(a+b+2); below that, 0.5 - 0.5 * I_(1-x)(1/2, df/2),
    # where 1 - x lies in it
    if t2 * (df + 2) > 3.0 * df:
        return 0.5 * front * _beta_continued_fraction(a, 0.5, df / (df + t2)) / a
    return 0.5 - front * _beta_continued_fraction(0.5, a, t2 / (df + t2))


def significance(r: float, n: int) -> tuple[float, bool]:
    """Two-sided p-value and alpha = 0.05 flag for a correlation of r over n pairs.

    Pearson's r and Spearman's rho share the same t approximation.  |r| = 1
    yields p = 0 by convention.  Requires n >= 3 so that the t statistic
    has at least one degree of freedom.
    """
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


class CorrelationReport(_Frozen):
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


class CorrelationSeries(_Frozen):
    """One measure correlated against h over successive measurement years,
    with the optional x-vs-nci report as a fixed comparison line."""

    measure_x: str
    baseline: CorrelationReport | None = None
    by_year: Mapping[int, CorrelationReport] = _EMPTY

    def __post_init__(self):
        years = sorted(self.by_year)
        if years and years != list(range(years[0], years[-1] + 1)):
            raise ValueError(f"measurement years must be contiguous, got {years}")
        object.__setattr__(self, "by_year", dict(sorted(self.by_year.items())))


def h_label_year(label: str) -> int | None:
    """Measurement year of an ``h_YYYY`` / ``h_hat_YYYY`` label, None for a
    profile label; a ValueError for any other label."""
    if label in _PROFILE_MEASURES:
        return None
    if m := _H_LABEL.fullmatch(label):
        return int(m.group(1))
    raise ValueError(f"unknown measure label {label!r} (s, s_prime, s_output, strength, i, "
                     "h_YYYY or h_hat_YYYY)")


def measure_values(
    label: str, scores: Iterable[ScoreSet], metrics: Iterable[GroupMetrics]
) -> dict[str, float]:
    """``{institution: value}`` for one measure label; with :func:`h_label_year`,
    which classifies labels, the only place labels are resolved.

    ``s``, ``s_prime``, ``s_output``, ``strength`` and ``i`` (the nci) are
    read from ``scores``; ``h_YYYY`` and ``h_hat_YYYY`` from ``metrics``.
    Groups without a value are left out.
    """
    if (year := h_label_year(label)) is None:
        pairs = ((s.institution, getattr(s, _PROFILE_MEASURES[label])) for s in scores)
    else:
        pairs = ((g.institution, g.h_by_year.get(year)) for g in metrics)
    return {inst: float(v) for inst, v in pairs if v is not None}


def _join(
    scores: Iterable[ScoreSet], metrics: Iterable[GroupMetrics]
) -> tuple[Callable[[str, str], tuple[_Points, int]], str]:
    """One table's or series' institution join: ``points(x_label, y_label)``,
    which is :func:`joined_points` with each label resolved once per join,
    and the discipline of the first metrics, which its reports carry."""
    scores, metrics = list(scores), list(metrics)
    disciplines = {normalize_label(g.discipline) for g in [*scores, *metrics]}
    if len(disciplines) > 1:
        raise ValueError(f"scores and metrics span more than one discipline: {sorted(disciplines)}")
    universe = sorted({s.institution for s in scores} & {g.institution for g in metrics})
    resolved: dict[str, dict[str, float]] = {}

    def points(x_label: str, y_label: str) -> tuple[_Points, int]:
        for label in (x_label, y_label):
            if label not in resolved:
                resolved[label] = measure_values(label, scores, metrics)
        xs, ys = resolved[x_label], resolved[y_label]
        joined = [(inst, xs[inst], ys[inst]) for inst in universe if inst in xs and inst in ys]
        return joined, len(universe) - len(joined)

    return points, metrics[0].discipline if metrics else ""


def joined_points(
    scores: Iterable[ScoreSet],
    metrics: Iterable[GroupMetrics],
    x_label: str,
    y_label: str,
) -> tuple[_Points, int]:
    """Join scores and metrics on institution for one pair.

    The join universe is the institutions with both a score set and
    metrics; all of them must belong to one discipline.  Returns (points,
    dropped) where points are (institution, x, y) rows, in institution
    order, for the members carrying both values and dropped counts the
    other members.
    """
    points, _ = _join(scores, metrics)
    return points(x_label, y_label)


def _report(discipline: str, x_label: str, y_label: str, points: _Points, dropped: int) -> CorrelationReport:
    """Correlate one pair's joined points; fewer than 3 raise
    :class:`InsufficientDataError`, a constant vector ValueError, each naming the pair."""
    if len(points) < 3:
        raise InsufficientDataError(
            f"pair ({x_label}, {y_label}): only {len(points)} complete "
            f"joined pairs ({dropped} dropped); need at least 3"
        )
    if dropped:
        log_info(__name__, "pair (%s, %s): dropped %d incomplete rows", x_label, y_label, dropped)
    xs = [p[1] for p in points]
    ys = [p[2] for p in points]
    try:
        r = pearson(xs, ys)
    except ValueError as exc:
        raise ValueError(f"pair ({x_label}, {y_label}): {exc}") from None
    rho = spearman(xs, ys)
    p_r, sig_r = significance(r, len(points))
    p_rho, sig_rho = significance(rho, len(points))
    return CorrelationReport(
        discipline=discipline,
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
    """One report per requested (x, y) measure pair, all over one join.

    Groups missing either value are dropped pairwise; the drop count is
    carried on the report and logged.  Fewer than 3 complete pairs raises
    :class:`InsufficientDataError` naming the pair.
    """
    points, discipline = _join(scores, metrics)
    return [_report(discipline, x, y, *points(x, y)) for x, y in pairs]


def correlation_series(
    scores: Iterable[ScoreSet],
    metrics: Iterable[GroupMetrics],
    x_label: str,
    years: Sequence[int],
) -> CorrelationSeries:
    """Correlate ``x_label`` against h for each measurement year in ``years``,
    plus against nci once, when x is not ``i`` itself and at least 3 joined
    groups carry both.  All of them share one join.
    """
    points, discipline = _join(scores, metrics)
    by_year = {y: _report(discipline, x_label, f"h_{y}", *points(x_label, f"h_{y}")) for y in years}
    nci_points, dropped = points(x_label, "i") if x_label != "i" else ([], 0)
    baseline = _report(discipline, x_label, "i", nci_points, dropped) if len(nci_points) >= 3 else None
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
        rows.extend(_report_row(report) + [str(year)] for year, report in s.by_year.items())
    write_csv(path, CORR_SERIES_HEADER, rows)


def write_fig_points_csv(points: Iterable[tuple[str, float, float]], path: str | Path) -> None:
    """Scatter-plot export: one (x, y) point per institution."""
    write_csv(path, FIG_POINTS_HEADER, ([_fmt6(x), _fmt6(y), inst] for inst, x, y in points))
