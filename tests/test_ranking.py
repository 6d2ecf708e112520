import csv
import io

import numpy as np
import pytest

import golden_tables as gt
from refh.ranking import (
    RankedTable,
    RankEntry,
    RankMove,
    movement,
    rank_table,
    render_comparison_markdown,
    render_table,
    with_movement,
)

from oracles import oracle_with_movement, parse_table_csv


class TestRankTable:
    def test_published_tie_pattern(self):
        # two leaders share rank 1, the next rank is 3
        table = rank_table(
            {"ICL": 84, "Cambridge": 84, "Oxford": 74, "Manchester": 66}, "h_hat_2014"
        )
        assert [(e.rank, e.institution) for e in table.entries] == [
            (1, "Cambridge"),
            (1, "ICL"),
            (3, "Oxford"),
            (4, "Manchester"),
        ]

    def test_single_institution(self):
        table = rank_table({"Solo": 12.0}, "s")
        assert [(e.rank, e.institution) for e in table.entries] == [(1, "Solo")]

    def test_all_tied_share_rank_one(self):
        values = {f"I{k}": 7.0 for k in range(5)}
        table = rank_table(values, "s")
        # brute-force competition-rank definition
        for e in table.entries:
            assert e.rank == 1 + sum(1 for v in values.values() if v > e.value)
        assert all(e.rank == 1 for e in table.entries)

    def test_competition_rank_property_random(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            values = {
                f"I{k:02d}": float(rng.integers(0, 10)) for k in range(int(rng.integers(1, 30)))
            }
            table = rank_table(values, "x")
            for e in table.entries:
                assert e.rank == 1 + sum(1 for v in values.values() if v > e.value)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_value_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            rank_table({"A": bad, "B": 1.467229, "C": 0.5}, "i")

    def test_rank_invariance_under_increasing_transform(self):
        rng = np.random.default_rng(32)
        values = {f"I{k}": float(rng.integers(0, 50)) for k in range(20)}
        base = rank_table(values, "x")
        shifted = rank_table({i: 3.0 * v + 7.0 for i, v in values.items()}, "x")
        cubed = rank_table({i: v ** 3 for i, v in values.items()}, "x")
        ranks = lambda t: [(e.rank, e.institution) for e in t.entries]
        assert ranks(base) == ranks(shifted) == ranks(cubed)

    def test_display_tie_break_is_alphabetical(self):
        table = rank_table({"Zeta": 5, "Alpha": 5, "Mid": 5}, "x")
        assert [e.institution for e in table.entries] == ["Alpha", "Mid", "Zeta"]

    @pytest.mark.parametrize("fmt", ["csv", "markdown", "json"])
    def test_tie_at_zero_prints_one_value(self, fmt):
        # -1e-9 quantizes to -0.0, which must not print as "-0" beside the tied 0.0
        table = rank_table({"A": -1e-9, "B": 0.0}, "s")
        assert [(e.rank, e.value) for e in table.entries] == [(1, 0.0), (1, 0.0)]
        assert "-0" not in render_table(table, fmt)

    def test_empty_map_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            rank_table({}, "x")

    def test_duplicate_institution_rejected(self):
        with pytest.raises(ValueError, match="twice"):
            RankedTable(
                discipline="d", measure="x",
                entries=(RankEntry(1, "A", 1.0), RankEntry(2, "A", 0.5)),
            )


class TestMovement:
    def test_published_examples(self):
        baseline = rank_table(gt.values(gt.BIOLOGY_H2008), "h_2008", "biology")
        comparison = rank_table(gt.values(gt.BIOLOGY_H2014), "h_hat_2014", "biology")
        report = movement(baseline, comparison)
        # KCL rose from 4 (86) to 2 (120); Cambridge held rank 1
        assert report.moves["KCL"] == RankMove(4, 2, "up")
        assert report.moves["Cambridge"].movement == "none"

    def test_new_institution(self):
        baseline = rank_table({"A": 3, "B": 2}, "x")
        comparison = rank_table({"A": 3, "B": 2, "C": 1}, "x")
        report = movement(baseline, comparison)
        assert report.moves["C"].movement == "new"
        assert report.moves["C"].old_rank is None

    def test_dropped_institutions_listed(self):
        baseline = rank_table({"A": 3, "B": 2, "Z": 1}, "x")
        comparison = rank_table({"A": 3, "B": 2}, "x")
        report = movement(baseline, comparison)
        assert report.dropped == ("Z",)

    def test_antisymmetry(self):
        rng = np.random.default_rng(41)
        for _ in range(30):
            names = [f"I{k}" for k in range(int(rng.integers(2, 15)))]
            a = rank_table({n: float(rng.integers(0, 20)) for n in names}, "a")
            b = rank_table({n: float(rng.integers(0, 20)) for n in names}, "b")
            fwd = movement(a, b)
            rev = movement(b, a)
            flip = {"up": "down", "down": "up", "none": "none"}
            for inst in names:
                assert rev.moves[inst].movement == flip[fwd.moves[inst].movement]

    def test_with_movement_marks_entries(self):
        baseline = rank_table({"A": 3, "B": 2}, "x")
        comparison = rank_table({"A": 2, "B": 3}, "x")
        marked = with_movement(comparison, movement(baseline, comparison))
        by_inst = {e.institution: e.movement for e in marked.entries}
        assert by_inst == {"B": "up", "A": "down"}

    def test_with_movement_equals_replace_oracle(self):
        rng = np.random.default_rng(43)
        for _ in range(40):
            names = [f"I{k}" for k in range(int(rng.integers(1, 40)))]
            base_names = [n for n in names if rng.random() < 0.8] or names[:1]
            extra = [f"X{k}" for k in range(int(rng.integers(0, 4)))]  # dropped from the comparison
            baseline = rank_table({n: float(rng.integers(0, 8)) for n in base_names + extra}, "a", "d")
            table = rank_table({n: float(rng.integers(0, 8)) for n in names}, "b", "d")
            for report in (movement(baseline, table), movement(baseline, baseline)):
                marked = with_movement(table, report)
                assert marked == oracle_with_movement(table, report)


class TestRendering:
    def test_empty_table_csv_is_header_only(self):
        table = RankedTable(discipline="d", measure="x", entries=())
        assert render_table(table, "csv") == "rank,institution,value,movement\n"

    def test_csv_round_trip(self):
        values = {"A": 41.4285714, "B": 33.3333333, "C": 33.3333333}
        table = rank_table(values, "s", "chemistry")
        parsed = parse_table_csv(render_table(table, "csv"), "chemistry", "s")
        assert parsed == table

    def test_round_trip_random(self):
        rng = np.random.default_rng(52)
        for _ in range(20):
            values = {
                f"I{k}": float(np.round(rng.uniform(0, 100), 6))
                for k in range(int(rng.integers(1, 25)))
            }
            table = rank_table(values, "s")
            assert parse_table_csv(render_table(table, "csv"), measure="s") == table

    def test_render_is_deterministic(self):
        table = rank_table({"A": 1.5, "B": 2.5}, "s")
        assert render_table(table, "csv") == render_table(table, "csv")
        assert render_table(table, "markdown") == render_table(table, "markdown")

    def test_markdown_matches_published_rows(self):
        baseline = rank_table(gt.values(gt.CHEMISTRY_H2008), "h_2008", "chemistry")
        comparison = rank_table(gt.values(gt.CHEMISTRY_H2014), "h_hat_2014", "chemistry")
        marked = with_movement(comparison, movement(baseline, comparison))
        text = render_table(marked, "markdown")
        lines = text.splitlines()
        assert lines[2] == "| 1 | Cambridge | ↑ | 84 |"
        assert lines[3] == "| 1 | ICL |  | 84 |"
        assert lines[4] == "| 3 | Oxford |  | 74 |"
        assert lines[5] == "| 4 | Manchester | ↑ | 66 |"

    def test_markdown_movement_tokens(self):
        entries = (
            RankEntry(1, "A", 5.0, "none"),
            RankEntry(2, "B", 4.0, "up"),
            RankEntry(3, "C", 3.0, "down"),
            RankEntry(4, "D", 2.0, "new"),
            RankEntry(5, "E", None, "none"),
        )
        text = render_table(RankedTable("d", "x", entries), "markdown")
        assert "| 5 | E |  |  |" in text.splitlines()
        assert "| A |  |" in text
        assert "| B | ↑ |" in text
        assert "| C | ↓ |" in text
        assert "| D | (new) |" in text

    def test_markdown_escapes_pipes_in_names(self):
        baseline = rank_table({"A|B": 2.0, "C": 1.0}, "s")
        table = rank_table({"A|B": 1.0, "C": 2.0}, "i")
        assert render_table(table, "markdown").splitlines()[2:] == [
            "| 1 | C |  | 2 |",
            "| 2 | A\\|B |  | 1 |",
        ]
        assert render_comparison_markdown(baseline, table).splitlines()[2:] == [
            "| 1. A\\|B (2) | 1. C ↑ (2) |",
            "| 2. C (1) | 2. A\\|B ↓ (1) |",
        ]

    # names csv must quote, names it must not, and names of other scripts
    AWKWARD_NAMES = ["a,b", 'say "hi"', '""', '"', " lead", "trail ", "Zürich École", "Ελλάδα",
                     "line\nbreak", "cr\rlf\r\n", "lone\rcr", "", "plain"]

    def test_csv_quotes_names_as_csv_writer_does(self):
        table = rank_table({name: i / 8 for i, name in enumerate(self.AWKWARD_NAMES)}, "m", "d")
        table = with_movement(table, movement(rank_table({"plain": 1.0, "a,b": 0.0}, "b"), table))
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["rank", "institution", "value", "movement"])
        writer.writerows([e.rank, e.institution, f"{e.value:.6f}", e.movement] for e in table.entries)
        text = render_table(table, "csv")
        assert text == buffer.getvalue()
        assert '"say ""hi"""' in text and ", lead," in text and ",trail ," in text
        # csv before Python 3.13 writes a lone \r unquoted, and its reader cannot read that back
        kept = [e for e in table.entries if e.institution != "lone\rcr"]
        assert parse_table_csv(render_table(RankedTable("d", "m", kept), "csv"), "d", "m").entries == tuple(kept)

    def test_csv_movement_tokens(self):
        entries = (RankEntry(1, "A", 5.0, "up"),)
        text = render_table(RankedTable("d", "x", entries), "csv")
        assert text.splitlines()[1] == "1,A,5.000000,up"

    def test_json_bytes(self):
        # a tie at rank 1, an ``up`` and a ``new`` entry; keys sorted, indent
        # 2 and a trailing newline, as ``rank --format json`` has always written
        baseline = rank_table({"A": 3, "B": 2}, "h_2008", "chemistry")
        table = rank_table({"A": 3, "B": 3, "C": 1.5}, "h_2014", "chemistry")
        text = render_table(with_movement(table, movement(baseline, table)), "json")
        assert text == (
            '{\n'
            '  "discipline": "chemistry",\n'
            '  "entries": [\n'
            '    {\n'
            '      "institution": "A",\n'
            '      "movement": "none",\n'
            '      "rank": 1,\n'
            '      "value": 3.0\n'
            '    },\n'
            '    {\n'
            '      "institution": "B",\n'
            '      "movement": "up",\n'
            '      "rank": 1,\n'
            '      "value": 3.0\n'
            '    },\n'
            '    {\n'
            '      "institution": "C",\n'
            '      "movement": "new",\n'
            '      "rank": 3,\n'
            '      "value": 1.5\n'
            '    }\n'
            '  ],\n'
            '  "measure": "h_2014"\n'
            '}\n'
        )

    def test_unknown_format(self):
        with pytest.raises(ValueError, match="unknown format"):
            render_table(RankedTable("d", "x", ()), "html")

    def test_comparison_markdown_layout(self):
        baseline = rank_table({"A": 3, "B": 2}, "h_2008")
        comparison = rank_table({"A": 2, "B": 3}, "h_hat_2014")
        text = render_comparison_markdown(baseline, comparison)
        assert "ranked by h_2008" in text and "ranked by h_hat_2014" in text
        assert "1. B ↑ (3)" in text


class TestGoldenTables:
    """Full reproduction of the four published ranking tables."""

    @pytest.mark.parametrize("discipline", sorted(gt.TABLES))
    def test_printed_ranks_reproduced(self, discipline):
        baseline_rows, comparison_rows = gt.TABLES[discipline]
        for rows, measure in ((baseline_rows, "h_2008"), (comparison_rows, "h_hat_2014")):
            table = rank_table(gt.values(rows), measure, discipline)
            printed = gt.printed_ranks(rows)
            mismatches = [
                (e.institution, e.rank, printed[e.institution])
                for e in table.entries
                if e.rank != printed[e.institution]
            ]
            assert mismatches == []

    @pytest.mark.parametrize("discipline", sorted(gt.TABLES))
    def test_printed_arrows_reproduced(self, discipline):
        baseline_rows, comparison_rows = gt.TABLES[discipline]
        baseline = rank_table(gt.values(baseline_rows), "h_2008", discipline)
        comparison = rank_table(gt.values(comparison_rows), "h_hat_2014", discipline)
        report = movement(baseline, comparison)
        printed = gt.printed_movements(comparison_rows)
        mismatches = [
            (inst, report.moves[inst].movement, arrow)
            for inst, arrow in printed.items()
            if report.moves[inst].movement != arrow
        ]
        assert mismatches == []
