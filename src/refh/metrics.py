"""Departmental h-indices over publication windows, and quality scores.

The h-index of a group is the largest n such that n of its publications
have at least n citations each.  ``h`` for measurement year Y counts
citations with citing year <= Y-1, i.e. citations to the end of the
previous calendar year.

Quality scores come from graded profiles:

    s        = p4 + (3/7) p3 + (1/7) p2     (the post-2008 funding weights)
    s_prime  = p4 + (1/3) p3                (the later, more concentrated weights)
    s_output = s applied to the output-only sub-profile
    strength = s * staff_fte
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from refh.corpus import (
    Corpus,
    PublicationRecord,
    PublicationWindow,
    QualityProfile,
    normalize_country,
    write_csv,
)

HSERIES_HEADER = ["institution", "discipline", "window_start", "window_end", "measurement_year", "h"]
SCORES_HEADER = ["institution", "discipline", "s", "s_prime", "s_output", "strength", "nci"]


def citations_to_end_of(record: PublicationRecord, year: int) -> int:
    """Total citations received in citing years <= ``year``."""
    return sum(c for y, c in record.citations_by_year.items() if y <= year)


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


@dataclass(frozen=True)
class GroupMetrics:
    """Departmental h by measurement year for one (institution, discipline)
    group.

    With a fixed window, citations only accumulate, so h must be
    non-decreasing across consecutive measurement years; construction
    rejects a series violating that.
    """

    institution: str
    discipline: str
    window: PublicationWindow
    h_by_year: Mapping[int, int] = field(default_factory=dict)

    def __post_init__(self):
        values = {int(y): int(h) for y, h in self.h_by_year.items()}
        for year, h in values.items():
            if h < 0:
                raise ValueError(f"negative h {h} at {year}")
            if (year + 1) in values and values[year + 1] < h:
                raise ValueError(
                    f"{self.institution}: h must not decrease between consecutive "
                    f"years ({year}: {h}, {year + 1}: {values[year + 1]})"
                )
        object.__setattr__(self, "h_by_year", dict(sorted(values.items())))


def matching_publications(
    corpus: Corpus, country: str, window: PublicationWindow, discipline: str
) -> list[PublicationRecord]:
    """Records matching country, window, and discipline for any institution.

    Each distinct country string and category set is normalised and
    matched once per call.  Both repeat across records (country codes, a
    fixed category classification), and loaded records share their
    category sets (see :func:`refh.corpus.load_publications`).
    """
    dmap = corpus.discipline_map(discipline)
    wanted = normalize_country(country)
    in_country = cache(lambda c: normalize_country(c) == wanted)
    in_discipline = cache(dmap.matches)
    return [
        r
        for r in corpus.publications
        if r.country is not None
        and in_country(r.country)
        and window.contains(r.pub_year)
        and in_discipline(r.categories)
    ]


def _bucket_metrics(
    buckets: Mapping[str, list[PublicationRecord]],
    discipline: str,
    window: PublicationWindow,
    years: Sequence[int],
) -> list[GroupMetrics]:
    """The h series of each institution's bucket of matching records, in
    institution order; the only place h is evaluated.  ``years`` must be
    strictly ascending and after the window start."""
    years = list(years)
    if any(b <= a for a, b in zip(years, years[1:])):
        raise ValueError(f"measurement years must be strictly ascending, got {years}")
    for year in years:
        if year <= window.start_year:
            raise ValueError(
                f"measurement year {year} must come after window start {window.start_year}"
            )
    return [
        GroupMetrics(
            institution=institution,
            discipline=discipline,
            window=window,
            h_by_year={
                year: compute_h(citations_to_end_of(r, year - 1) for r in records)
                for year in years
            },
        )
        for institution, records in sorted(buckets.items())
    ]


def group_metrics(
    corpus: Corpus,
    country: str,
    window: PublicationWindow,
    discipline: str,
    years: Sequence[int],
) -> list[GroupMetrics]:
    """Per-institution h series for every institution with at least one
    matching publication, in institution order.  A multi-affiliation record
    counts fully for each institution.

    Institutions whose publications never pass the filter are omitted,
    mirroring how groups absent from a citation database drop out of
    published lists.
    """
    buckets: dict[str, list[PublicationRecord]] = {}
    for r in matching_publications(corpus, country, window, discipline):
        for institution in r.affiliations:
            buckets.setdefault(institution, []).append(r)
    return _bucket_metrics(buckets, discipline, window, years)


def h_series(
    corpus: Corpus,
    country: str,
    window: PublicationWindow,
    discipline: str,
    institution: str,
    years: Sequence[int],
) -> GroupMetrics:
    """One institution's entry of :func:`group_metrics`, evaluated over that
    institution's records only; all-zero h when the group has no matching
    publications."""
    wanted = institution.strip()
    records = [r for r in matching_publications(corpus, country, window, discipline)
               if wanted in r.affiliations]
    return _bucket_metrics({wanted: records}, discipline, window, years)[0]


def departmental_h(
    corpus: Corpus,
    country: str,
    window: PublicationWindow,
    discipline: str,
    institution: str,
    measurement_year: int,
) -> int:
    """h-index of the filtered group, with citations counted to the end of
    ``measurement_year - 1``."""
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


@dataclass(frozen=True)
class ScoreSet:
    """The profile-side measures of one group: the four scores and the
    supplied nci."""

    institution: str
    discipline: str
    s: float
    s_prime: float
    s_output: float | None = None
    strength: float | None = None
    nci: float | None = None

    def __post_init__(self):
        for name in ("s", "s_prime", "s_output"):
            v = getattr(self, name)
            if v is not None and not 0.0 <= v <= 100.0 + 1e-9:
                raise ValueError(f"{self.institution}: {name} = {v} outside [0, 100]")


def score_profile(profile: QualityProfile) -> ScoreSet:
    return ScoreSet(
        institution=profile.institution,
        discipline=profile.discipline,
        s=score_s(profile),
        s_prime=score_s_prime(profile),
        s_output=score_s_output(profile),
        strength=strength(profile),
        nci=profile.nci,
    )


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------


def _fmt6(value: float | None) -> str:
    return "" if value is None else f"{value:.6f}"


def write_hseries_csv(series: Iterable[GroupMetrics], path: str | Path) -> None:
    """``hseries.csv``: one row per (institution, measurement year)."""
    rows = []
    for s in series:
        for year, h in sorted(s.h_by_year.items()):
            rows.append([s.institution, s.discipline, s.window.start_year, s.window.end_year, year, h])
    rows.sort(key=lambda r: (r[0], r[1], r[4]))
    write_csv(path, HSERIES_HEADER, rows)


def write_scores_csv(profiles: Iterable[QualityProfile], path: str | Path) -> None:
    """``scores.csv``: s, s_prime, s_output, strength, and nci per profile."""
    scores = (score_profile(p) for p in sorted(profiles, key=lambda p: (p.institution, p.discipline)))
    write_csv(path, SCORES_HEADER, (
        [s.institution, s.discipline, _fmt6(s.s), _fmt6(s.s_prime),
         _fmt6(s.s_output), _fmt6(s.strength), _fmt6(s.nci)]
        for s in scores
    ))
