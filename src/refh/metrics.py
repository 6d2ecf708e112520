"""Departmental h-indices over publication windows, and quality scores.

The h-index of a group is the largest n such that n of its publications
have at least n citations each.  ``h`` for measurement year Y counts
citations with citing year <= Y-1, i.e. citations to the end of the
previous calendar year.  The records behind each h come from
:func:`refh.corpus.matching_publications`, the one filter predicate.

Quality scores come from graded profiles:

    s        = p4 + (3/7) p3 + (1/7) p2     (the post-2008 funding weights)
    s_prime  = p4 + (1/3) p3                (the later, more concentrated weights)
    s_output = s applied to the output-only sub-profile
    strength = s * staff_fte
"""

from __future__ import annotations

from operator import attrgetter, index
from pathlib import Path
from typing import Iterable, Mapping

from refh.corpus import (
    Corpus,
    PublicationRecord,
    PublicationWindow,
    QualityProfile,
    _EMPTY,
    _fields_setter,
    _Frozen,
    matching_publications,
    write_csv,
)

HSERIES_HEADER = ["institution", "discipline", "window_start", "window_end", "measurement_year", "h"]
SCORES_HEADER = ["institution", "discipline", "s", "s_prime", "s_output", "strength", "nci"]


def citations_to_end_of(record: PublicationRecord, year: int) -> int:
    """Total citations received in citing years <= ``year``; every record's years ascend."""
    total = 0
    for y, c in record.citations_by_year.items():
        if y > year:
            break
        total += c
    return total


def compute_h(citation_counts: Iterable[int]) -> int:
    """Largest n such that at least n of the counts are >= n (0 for empty)."""
    ranked = sorted(citation_counts, reverse=True)
    h = 0
    for i, count in enumerate(ranked, start=1):
        if count >= i:
            h = i
        else:
            break
    return h


class GroupMetrics(_Frozen):
    """Departmental h by measurement year for one (institution, discipline)
    group.

    With a fixed window, citations only accumulate, so h must be
    non-decreasing across adjacent measurement years, a skipped year
    between them or not; construction rejects a series violating that.
    Years and h must be integers (``int`` or a type with ``__index__``,
    stored as ``int``); a string or a float is refused, not coerced.
    """

    institution: str
    discipline: str
    window: PublicationWindow
    h_by_year: Mapping[int, int] = _EMPTY

    def __post_init__(self):
        values = {}
        for year, h in self.h_by_year.items():
            try:
                values[index(year)] = index(h)
            except TypeError:
                raise ValueError(f"{self.institution}: h_by_year must map integer years to integer h, "
                                 f"got {year!r}: {h!r}") from None
        values = dict(sorted(values.items()))
        earlier = None  # the (year, h) before this one
        for year, h in values.items():
            if earlier and h < earlier[1]:
                raise ValueError(f"{self.institution}: h must not decrease between consecutive "
                                 f"years ({earlier[0]}: {earlier[1]}, {year}: {h})")
            if h < 0:
                raise ValueError(f"negative h {h} at {year}")
            earlier = year, h
        object.__setattr__(self, "h_by_year", values)


def group_metrics(
    corpus: Corpus,
    country: str,
    window: PublicationWindow,
    discipline: str,
    years: Iterable[int],
) -> list[GroupMetrics]:
    """Per-institution h series for every institution with at least one
    matching publication, in institution order; the only place h is
    evaluated.  A multi-affiliation record counts fully for each institution.
    ``years`` must be strictly ascending and after the window start; an
    unknown discipline is reported before either.

    Institutions whose publications never pass the filter are omitted,
    mirroring how groups absent from a citation database drop out of
    published lists.
    """
    buckets: dict[str, list[PublicationRecord]] = {}
    for r in matching_publications(corpus, country, window, discipline):
        for institution in r.affiliations:
            buckets.setdefault(institution, []).append(r)
    years = list(years)
    if any(b <= a for a, b in zip(years, years[1:])):
        raise ValueError(f"measurement years must be strictly ascending, got {years}")
    if years and years[0] <= window.start_year:  # ascending: the first year is the earliest
        raise ValueError(
            f"measurement year {years[0]} must come after window start {window.start_year}"
        )
    return [
        GroupMetrics(institution, discipline, window, {
            year: compute_h(citations_to_end_of(r, year - 1) for r in records) for year in years
        })
        for institution, records in sorted(buckets.items())
    ]


def h_series(
    corpus: Corpus,
    country: str,
    window: PublicationWindow,
    discipline: str,
    institution: str,
    years: Iterable[int],
) -> GroupMetrics:
    """One institution's entry of :func:`group_metrics`; all-zero h when the
    group has no matching publications.  Each call evaluates the whole
    discipline, so a loop over institutions should call :func:`group_metrics`
    once instead."""
    years, wanted = list(years), institution.strip()
    for series in group_metrics(corpus, country, window, discipline, years):
        if series.institution == wanted:
            return series
    return GroupMetrics(wanted, discipline, window, dict.fromkeys(years, 0))


def departmental_h(
    corpus: Corpus,
    country: str,
    window: PublicationWindow,
    discipline: str,
    institution: str,
    measurement_year: int,
) -> int:
    """h-index of the filtered group, with citations counted to the end of
    ``measurement_year - 1``.  Like :func:`h_series`, each call evaluates the
    whole discipline."""
    series = h_series(corpus, country, window, discipline, institution, [measurement_year])
    return series.h_by_year[measurement_year]


# ---------------------------------------------------------------------------
# Quality scores
# ---------------------------------------------------------------------------


def _weighted_s(p4: float, p3: float, p2: float) -> float:
    return p4 + (3.0 * p3) / 7.0 + p2 / 7.0


def score_s(profile: QualityProfile) -> float:
    """Weighted profile score with weights 1, 3/7, 1/7 on 4*, 3*, 2*."""
    return _weighted_s(profile.p4, profile.p3, profile.p2)


def score_s_prime(profile: QualityProfile) -> float:
    """Weighted profile score with weights 1, 1/3 on 4*, 3*."""
    return profile.p4 + profile.p3 / 3.0


def score_s_output(profile: QualityProfile) -> float | None:
    """``score_s`` on the output-only sub-profile; None when absent."""
    if not profile.has_output_profile:
        return None
    return _weighted_s(profile.p4_out, profile.p3_out, profile.p2_out)


def strength(profile: QualityProfile) -> float:
    """Overall strength: quality score times submitted staff count."""
    return score_s(profile) * profile.staff_fte


class ScoreSet(_Frozen):
    """The profile-side measures of one group: the four scores and the
    supplied nci.  ``__init__`` checks that s, s_prime and s_output, where
    present, lie in [0, 100] and sets each field once; ``dataclasses.replace``
    runs it too."""

    institution: str
    discipline: str
    s: float
    s_prime: float
    s_output: float | None
    strength: float | None
    nci: float | None
    __slots__ = ("institution", "discipline", "s", "s_prime", "s_output", "strength", "nci")

    def __init__(self, institution: str, discipline: str, s: float, s_prime: float,
                 s_output: float | None = None, strength: float | None = None,
                 nci: float | None = None):
        for name, v in (("s", s), ("s_prime", s_prime), ("s_output", s_output)):
            if v is not None and not 0.0 <= v <= 100.0 + 1e-9:
                raise ValueError(f"{institution}: {name} = {v} outside [0, 100]")
        _set_scores(self, institution, discipline, s, s_prime, s_output, strength, nci)


_set_scores = _fields_setter(ScoreSet)


def score_profile(profile: QualityProfile) -> ScoreSet:
    s = score_s(profile)
    return ScoreSet(profile.institution, profile.discipline, s, score_s_prime(profile),
                    score_s_output(profile), s * profile.staff_fte, profile.nci)


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------


def _fmt6(value: float | None) -> str:
    return "" if value is None else f"{value:.6f}"


def write_hseries_csv(series: Iterable[GroupMetrics], path: str | Path) -> None:
    """``hseries.csv``: one row per (institution, measurement year)."""
    rows = []
    for s in series:
        for year, h in s.h_by_year.items():  # stored in year order
            rows.append([s.institution, s.discipline, s.window.start_year, s.window.end_year, year, h])
    rows.sort(key=lambda r: (r[0], r[1], r[4]))
    write_csv(path, HSERIES_HEADER, rows)


def write_scores_csv(profiles: Iterable[QualityProfile], path: str | Path) -> None:
    """``scores.csv``: s, s_prime, s_output, strength, and nci per profile."""
    scores = map(score_profile, sorted(profiles, key=attrgetter("institution", "discipline")))
    write_csv(path, SCORES_HEADER, (  # score_profile leaves only s_output and nci None
        [s.institution, s.discipline, f"{s.s:.6f}", f"{s.s_prime:.6f}",
         _fmt6(s.s_output), f"{s.strength:.6f}", _fmt6(s.nci)]
        for s in scores
    ))
