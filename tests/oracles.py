"""Independent test oracles: definitional re-implementations that the
library's own code is checked against, never called by it."""

import csv
import io
from typing import Iterable

from refh.corpus import PublicationRecord
from refh.ranking import RANK_TABLE_HEADER, RankedTable, RankEntry


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
