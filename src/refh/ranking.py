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
from dataclasses import dataclass, field, replace
from typing import Mapping

from refh.metrics import _fmt6

RANK_TABLE_HEADER = ["rank", "institution", "value", "movement"]

MOVEMENT_TOKENS = ("up", "down", "none", "new")
_MARKDOWN_MOVEMENT = {"up": "↑", "down": "↓", "none": "", "new": "(new)"}

VALUE_DECIMALS = 6


@dataclass(frozen=True)
class RankEntry:
    rank: int
    institution: str
    value: float | None
    movement: str = "none"

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError(f"rank must be >= 1, got {self.rank}")
        if self.movement not in MOVEMENT_TOKENS:
            raise ValueError(f"movement must be one of {MOVEMENT_TOKENS}, got {self.movement!r}")


@dataclass(frozen=True)
class RankedTable:
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

    Values are quantized to 6 decimals first, so ties are decided at the
    same precision the table is rendered at and a rendered table parses
    back equal.  Each rank is the position where its value first appears
    in the sorted order.  Non-finite values are refused: NaN has no order.
    """
    if not values:
        raise ValueError("cannot rank an empty value map")
    quantized = {inst: round(float(v), VALUE_DECIMALS) for inst, v in values.items()}
    for inst, v in quantized.items():
        if not math.isfinite(v):
            raise ValueError(f"cannot rank non-finite value {v} for {inst!r}")
    ordered = sorted(quantized.items(), key=lambda kv: (-kv[1], kv[0]))
    entries: list[RankEntry] = []
    for position, (institution, value) in enumerate(ordered, start=1):
        tied = entries and entries[-1].value == value
        rank = entries[-1].rank if tied else position
        entries.append(RankEntry(rank=rank, institution=institution, value=value))
    return RankedTable(discipline=discipline, measure=measure, entries=tuple(entries))


@dataclass(frozen=True)
class RankMove:
    old_rank: int | None
    new_rank: int | None
    movement: str


@dataclass(frozen=True)
class MovementReport:
    """Per-institution rank shifts between a baseline and a comparison table.

    ``moves`` covers every institution in the comparison table;
    institutions present only in the baseline are listed in ``dropped``.
    """

    baseline_measure: str
    comparison_measure: str
    moves: Mapping[str, RankMove] = field(default_factory=dict)
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
        moves[e.institution] = RankMove(old_rank=old, new_rank=e.rank, movement=verdict)
    dropped = tuple(sorted(set(base_ranks) - {e.institution for e in comparison.entries}))
    return MovementReport(
        baseline_measure=baseline.measure,
        comparison_measure=comparison.measure,
        moves=moves,
        dropped=dropped,
    )


def with_movement(table: RankedTable, report: MovementReport) -> RankedTable:
    """Copy of ``table`` with each entry's movement taken from ``report``."""
    entries = tuple(
        replace(e, movement=report.moves[e.institution].movement)
        if e.institution in report.moves
        else e
        for e in table.entries
    )
    return replace(table, entries=entries)


# ---------------------------------------------------------------------------
# Rendering and parsing
# ---------------------------------------------------------------------------


def _fmt_value_markdown(value: float | None) -> str:
    if value is None:
        return ""
    text = f"{value:.6f}".rstrip("0").rstrip(".")
    return text or "0"


def render_table(table: RankedTable, format: str = "csv") -> str:
    """Deterministic text form of a table; ``format`` is ``csv`` or ``markdown``."""
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
        for e in table.entries:
            lines.append(
                f"| {e.rank} | {e.institution} | "
                f"{_MARKDOWN_MOVEMENT[e.movement]} | {_fmt_value_markdown(e.value)} |"
            )
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format: {format!r}")


def render_comparison_markdown(baseline: RankedTable, comparison: RankedTable) -> str:
    """Side-by-side markdown of a baseline and an arrow-marked comparison."""
    marked = with_movement(comparison, movement(baseline, comparison))

    def cell(e: RankEntry) -> str:
        arrow = _MARKDOWN_MOVEMENT[e.movement]
        arrow = f" {arrow}" if arrow else ""
        return f"{e.rank}. {e.institution}{arrow} ({_fmt_value_markdown(e.value)})"

    left = [cell(e) for e in baseline.entries]
    right = [cell(e) for e in marked.entries]
    width = max(len(left), len(right))
    left += [""] * (width - len(left))
    right += [""] * (width - len(right))
    lines = [
        f"| ranked by {baseline.measure} | ranked by {comparison.measure} |",
        "| :--- | :--- |",
    ]
    lines.extend(f"| {a} | {b} |" for a, b in zip(left, right))
    return "\n".join(lines) + "\n"
