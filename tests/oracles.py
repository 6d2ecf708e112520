"""Independent test oracles: definitional re-implementations that the
library's own code is checked against, never called by it."""

import csv
import io
import math
from dataclasses import replace
from typing import Iterable

from refh.corpus import (CITATIONS_HEADER, DISCIPLINE_MAP_HEADER, PROFILES_HEADER, PUBLICATIONS_HEADER, Corpus,
                         PublicationRecord, PublicationWindow)
from refh.ranking import RANK_TABLE_HEADER, MovementReport, RankedTable, RankEntry


def naive_pearson(x, y):
    """Definitional recomputation in pure Python."""
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(x, y))
    vx = sum((a - mx) ** 2 for a in x)
    vy = sum((b - my) ** 2 for b in y)
    return cov / math.sqrt(vx * vy)


def naive_ranks(x):
    """Mean of 1-based positions among equal values."""
    return [
        sum(i + 1 for i, v in enumerate(sorted(x)) if v == value)
        / sum(1 for v in x if v == value)
        for value in x
    ]


def oracle_h(records: Iterable[PublicationRecord], cutoff_year: int) -> int:
    """Brute-force h: largest n with at least n records cited >= n times by
    the cutoff year.  Definitional scan, independent of the sorting
    implementation in :mod:`refh.metrics`.
    """
    counts = [
        sum(c for y, c in r.citations_by_year.items() if y <= cutoff_year)
        for r in records
    ]
    best = 0
    for n in range(len(counts) + 1):
        if sum(1 for c in counts if c >= n) >= n:
            best = n
    return best


def oracle_filter(
    corpus: Corpus, country: str, window: PublicationWindow, discipline: str, institution: str
) -> list[PublicationRecord]:
    """The four filter steps written out literally, without refh's filter
    code: country (trimmed, case-insensitive), publication year inside the
    window, a category of the discipline's map (trimmed, case-insensitive),
    and the institution among the affiliations."""
    label = discipline.strip().casefold()
    (categories,) = [
        {c.strip().casefold() for c in m.categories}
        for m in corpus.discipline_maps
        if m.discipline.strip().casefold() == label
    ]
    return [
        r
        for r in corpus.publications
        if r.country is not None
        and r.country.strip().upper() == country.strip().upper()
        and window.start_year <= r.pub_year <= window.end_year
        and any(c.strip().casefold() in categories for c in r.categories)
        and institution.strip() in r.affiliations
    ]


def h_core_boundary(
    corpus: Corpus, country: str, window: PublicationWindow, discipline: str, years: Iterable[int]
) -> PublicationRecord:
    """The first matching record (groups in name order, then years, then
    records in corpus order) whose one more citation in its publication year
    raises its group's h at one of ``years``: by that year the record is
    cited exactly h times, and exactly h other records of the group more
    often."""
    for institution in sorted(corpus.institutions()):
        records = oracle_filter(corpus, country, window, discipline, institution)
        for year in years:
            h = oracle_h(records, year - 1)
            counts = [sum(c for y, c in r.citations_by_year.items() if y < year) for r in records]
            if sum(c > h for c in counts) == h:
                for r, c in zip(records, counts):
                    if c == h:
                        return r
    raise AssertionError("no record at an h-core boundary")


def csv_writer_files(corpus: Corpus) -> dict[str, bytes]:
    """The four corpus files as one plain ``csv.writer`` per file renders them,
    keyed as ``write_corpus`` keys its paths: the rows that function documents
    (records in corpus order, citations in year order, ``;``-joined sorted
    labels, categories of each map sorted), every cell of them through csv."""
    rows = {
        "publications": [PUBLICATIONS_HEADER] + [
            [r.pub_id, r.pub_year, r.country or "", ";".join(sorted(r.affiliations)), ";".join(sorted(r.categories))]
            for r in corpus.publications
        ],
        "citations": [CITATIONS_HEADER] + [
            [r.pub_id, year, count] for r in corpus.publications for year, count in sorted(r.citations_by_year.items())
        ],
        "profiles": [PROFILES_HEADER] + [[getattr(p, name) for name in PROFILES_HEADER] for p in corpus.profiles],
        "discipline_map": [DISCIPLINE_MAP_HEADER] + [
            [m.discipline, category] for m in corpus.discipline_maps for category in sorted(m.categories)
        ],
    }
    files = {}
    for name, table in rows.items():
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\n").writerows(table)
        files[name] = buffer.getvalue().encode("utf-8")
    return files


def parse_table_csv(text: str, discipline: str = "", measure: str = "") -> RankedTable:
    """Inverse of ``render_table(..., "csv")``."""
    reader = csv.reader(io.StringIO(text))
    rows = list(reader)
    if not rows or rows[0] != RANK_TABLE_HEADER:
        raise ValueError(f"bad rank table header: {rows[0] if rows else 'empty'}")
    entries = []
    for rank, institution, value, move in rows[1:]:
        entries.append(
            RankEntry(
                rank=int(rank),
                institution=institution,
                value=float(value) if value else None,
                movement=move,
            )
        )
    return RankedTable(discipline=discipline, measure=measure, entries=tuple(entries))


def oracle_with_movement(table: RankedTable, report: MovementReport) -> RankedTable:
    """``table`` with each entry the report covers re-marked through
    ``dataclasses.replace``, entry by entry."""
    entries = tuple(
        replace(e, movement=report.moves[e.institution].movement) if e.institution in report.moves else e
        for e in table.entries
    )
    return replace(table, entries=entries)
