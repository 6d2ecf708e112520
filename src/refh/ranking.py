"""Competition-ranked institution tables and movement markers.

Competition ranking is the "1224" pattern seen in published assessment
tables: tied values share a rank, and the rank after a k-way tie at rank
r is r + k.  Movement markers compare an institution's rank between a
baseline table and a comparison table: ``up`` when its rank improved
(got numerically smaller), ``down`` when it worsened, ``none`` when it
held, and ``new`` when it is absent from the baseline.
"""

from __future__ import annotations

import csv
import io
import math
from itertools import zip_longest
from typing import Mapping

from refh.corpus import _EMPTY, _fields_setter, _Frozen
from refh.metrics import _fmt6

RANK_TABLE_HEADER = ["rank", "institution", "value", "movement"]

MOVEMENT_TOKENS = ("up", "down", "none", "new")
_MARKDOWN_MOVEMENT = {"up": "↑", "down": "↓", "none": "", "new": "(new)"}
_ESCAPED_PIPE = "\\|"  # a "|" in a name, which would otherwise end its markdown table cell

VALUE_DECIMALS = 6


class RankEntry(_Frozen):
    """One row of a ranked table.  ``__init__`` checks the rank (at least 1) and
    the movement (one of ``MOVEMENT_TOKENS``); ``dataclasses.replace`` runs it too."""

    rank: int
    institution: str
    value: float | None
    movement: str
    __slots__ = ("rank", "institution", "value", "movement")

    def __init__(self, rank: int, institution: str, value: float | None, movement: str = "none"):
        if rank < 1:
            raise ValueError(f"rank must be >= 1, got {rank}")
        if movement not in MOVEMENT_TOKENS:
            raise ValueError(f"movement must be one of {MOVEMENT_TOKENS}, got {movement!r}")
        _set_entry(self, rank, institution, value, movement)


_set_entry = _fields_setter(RankEntry)


class RankedTable(_Frozen):
    """Ordered ranking of institutions by one measure.

    Entries are sorted by value descending with ties broken for display
    only by institution name; tied values share a rank and each rank
    equals 1 + the number of strictly greater values.
    """

    discipline: str
    measure: str
    entries: tuple[RankEntry, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        seen = set()
        for e in self.entries:
            if e.institution in seen:
                raise ValueError(f"institution {e.institution!r} appears twice")
            seen.add(e.institution)


def rank_table(values: Mapping[str, float], measure: str, discipline: str = "") -> RankedTable:
    """Competition-rank a value map.

    Values are quantized to 6 decimals first, and -0.0 becomes 0.0, so ties
    are decided at the same precision the table is rendered at, every tie
    prints one value, and a rendered table parses back equal.  Each rank is
    the position where its value first appears in the sorted order.  Non-finite values are refused: NaN has no order.
    """
    if not values:
        raise ValueError("cannot rank an empty value map")
    quantized = {inst: round(float(v), VALUE_DECIMALS) + 0.0 for inst, v in values.items()}
    for inst, v in quantized.items():
        if not math.isfinite(v):
            raise ValueError(f"cannot rank non-finite value {v} for {inst!r}")
    ordered = sorted(quantized.items(), key=lambda kv: (-kv[1], kv[0]))
    entries: list[RankEntry] = []
    rank, last = 0, None
    for position, (institution, value) in enumerate(ordered, start=1):
        if value != last:  # a tie keeps the rank of its first value
            rank, last = position, value
        entries.append(RankEntry(rank, institution, value))
    return RankedTable(discipline=discipline, measure=measure, entries=tuple(entries))


class RankMove(_Frozen):
    """One institution's ranks in a baseline and a comparison table; unchecked."""

    old_rank: int | None
    new_rank: int | None
    movement: str
    __slots__ = ("old_rank", "new_rank", "movement")


class MovementReport(_Frozen):
    """Per-institution rank shifts between a baseline and a comparison table.

    ``moves`` covers every institution in the comparison table;
    institutions present only in the baseline are listed in ``dropped``.
    """

    baseline_measure: str
    comparison_measure: str
    moves: Mapping[str, RankMove] = _EMPTY
    dropped: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "moves", dict(sorted(self.moves.items())))
        object.__setattr__(self, "dropped", tuple(sorted(self.dropped)))


def movement(baseline: RankedTable, comparison: RankedTable) -> MovementReport:
    """Movement markers for the comparison table relative to the baseline.

    Movement compares ranks, not values; rosters may differ.
    """
    base_ranks = {e.institution: e.rank for e in baseline.entries}
    moves: dict[str, RankMove] = {}
    for e in comparison.entries:
        old = base_ranks.get(e.institution)
        if old is None:
            verdict = "new"
        elif e.rank < old:
            verdict = "up"
        elif e.rank > old:
            verdict = "down"
        else:
            verdict = "none"
        moves[e.institution] = RankMove(old, e.rank, verdict)
    return MovementReport(
        baseline_measure=baseline.measure,
        comparison_measure=comparison.measure,
        moves=moves,
        dropped=tuple(set(base_ranks) - set(moves)),  # sorted by the report
    )


def with_movement(table: RankedTable, report: MovementReport) -> RankedTable:
    """Copy of ``table`` with each entry's movement taken from ``report``."""
    moves = report.moves
    return RankedTable(table.discipline, table.measure, tuple(
        e if (move := moves.get(e.institution)) is None
        else RankEntry(e.rank, e.institution, e.value, move.movement)
        for e in table.entries
    ))


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _fmt_value_markdown(value: float | None) -> str:
    if value is None:
        return ""
    text = f"{value:.6f}".rstrip("0").rstrip(".")
    return text or "0"


def render_table(table: RankedTable, format: str = "csv") -> str:
    """Deterministic text form of a table; ``format`` is ``csv``, ``markdown``
    or ``json`` (the table's fields, keys sorted, two-space indent)."""
    if format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(RANK_TABLE_HEADER)
        for e in table.entries:
            writer.writerow([e.rank, e.institution, _fmt6(e.value), e.movement])
        return buf.getvalue()
    if format == "markdown":
        lines = [
            "| rank | institution | movement | value |",
            "| ---: | :--- | :---: | ---: |",
        ]
        lines.extend(
            f"| {e.rank} | {e.institution.replace('|', _ESCAPED_PIPE)} | "
            f"{_MARKDOWN_MOVEMENT[e.movement]} | {_fmt_value_markdown(e.value)} |"
            for e in table.entries
        )
        return "\n".join(lines) + "\n"
    if format == "json":
        import json
        from dataclasses import asdict

        return json.dumps(asdict(table), indent=2, sort_keys=True) + "\n"
    raise ValueError(f"unknown format: {format!r}")


# movement token -> the mark after an institution in a comparison cell
_COMPARISON_MARKS = {token: f" {mark}" if mark else "" for token, mark in _MARKDOWN_MOVEMENT.items()}


def render_comparison_markdown(baseline: RankedTable, comparison: RankedTable) -> str:
    """Side-by-side markdown of a baseline and an arrow-marked comparison."""
    marked = with_movement(comparison, movement(baseline, comparison))
    left, right = (
        [f"{e.rank}. {e.institution.replace('|', _ESCAPED_PIPE)}{_COMPARISON_MARKS[e.movement]} "
         f"({_fmt_value_markdown(e.value)})" for e in table.entries]
        for table in (baseline, marked)
    )
    lines = [
        f"| ranked by {baseline.measure} | ranked by {comparison.measure} |",
        "| :--- | :--- |",
    ]
    lines.extend(f"| {a} | {b} |" for a, b in zip_longest(left, right, fillvalue=""))
    return "\n".join(lines) + "\n"
