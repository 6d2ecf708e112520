import csv
import io

import pytest

import golden_tables as gt
from refh import cli, ranking
from refh.cli import main, parse_pairs, parse_years
from refh.corpus import PublicationWindow, filter_documents, ingest_corpus

from conftest import write_files
from oracles import oracle_h


def run(argv, capsys=None):
    code = main(argv)
    if capsys is None:
        return code, "", ""
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def corpus_args(paths):
    return [
        "--pubs", str(paths["publications"]),
        "--cites", str(paths["citations"]),
        "--profiles", str(paths["profiles"]),
        "--map", str(paths["discipline_map"]),
    ]


@pytest.fixture
def synth_dir(tmp_path):
    out = tmp_path / "corpus"
    assert main([
        "synth", "--seed", "7", "--institutions", "10", "--out", str(out),
        "--papers", "10:20",
    ]) == 0
    return out


def synth_paths(out):
    return {
        "publications": out / "publications.csv",
        "citations": out / "citations.csv",
        "profiles": out / "profiles.csv",
        "discipline_map": out / "discipline_map.csv",
    }


RAE2008 = ["--discipline", "synthetic", "--preset", "rae2008"]


def without(flag, argv):
    i = argv.index(flag)
    return argv[:i] + argv[i + 2:]


# name -> (argv from the corpus flags and the output directory, what stderr must say)
USAGE_ERRORS = {
    "ingest without --map": (
        lambda c, out: ["ingest", *without("--map", c)],
        "refh ingest: error: the following arguments are required: --map"),
    "hindex without --pubs": (
        lambda c, out: ["hindex", *without("--pubs", c), *RAE2008, "--out", out],
        "refh hindex: error: the following arguments are required: --pubs"),
    "correlate without --cites": (
        lambda c, out: ["correlate", *without("--cites", c), *RAE2008, "--pairs", "s:i", "--out", out],
        "refh correlate: error: the following arguments are required: --cites"),
    "score without --profiles": (
        lambda c, out: ["score", "--out", out],
        "refh score: error: the following arguments are required: --profiles"),
    "hindex without --discipline": (
        lambda c, out: ["hindex", *c, "--preset", "rae2008", "--out", out],
        "refh hindex: error: the following arguments are required: --discipline"),
    "correlate without --discipline": (
        lambda c, out: ["correlate", *c, "--preset", "rae2008", "--pairs", "s:i", "--out", out],
        "refh correlate: error: the following arguments are required: --discipline"),
    "rank without --discipline": (
        lambda c, out: ["rank", *c, "--measure", "s", "--out", out],
        "refh rank: error: the following arguments are required: --discipline"),
    "hindex without window or years": (
        lambda c, out: ["hindex", *c, "--discipline", "synthetic", "--out", out],
        "refh hindex: error: the following arguments are required: --window, --years (or --preset)"),
    "correlate without years": (
        lambda c, out: ["correlate", *c, "--discipline", "synthetic", "--window", "2001:2007",
                        "--pairs", "s:i", "--out", out],
        "refh correlate: error: the following arguments are required: --years (or --preset)"),
    "rank h measure without window": (
        lambda c, out: ["rank", *c, "--discipline", "synthetic", "--measure", "h_2008", "--out", out],
        "refh rank: error: argument --measure: h_2008 needs a publication window"),
    "rank h baseline without window": (
        lambda c, out: ["rank", *c, "--discipline", "synthetic", "--measure", "s",
                        "--baseline", "h_2008", "--out", out],
        "refh rank: error: argument --baseline: h_2008 needs a publication window"),
    "hindex --format": (
        lambda c, out: ["hindex", *c, *RAE2008, "--format", "csv", "--out", out],
        "refh: error: unrecognized arguments: --format csv"),
    "score --format": (
        lambda c, out: ["score", "--profiles", c[c.index("--profiles") + 1], "--format", "csv",
                        "--out", out],
        "refh: error: unrecognized arguments: --format csv"),
    "correlate --format": (
        lambda c, out: ["correlate", *c, *RAE2008, "--pairs", "s:i", "--format", "csv", "--out", out],
        "refh: error: unrecognized arguments: --format csv"),
    "correlate malformed --pairs": (
        lambda c, out: ["correlate", *c, *RAE2008, "--pairs", "s-h_2008", "--out", out],
        "refh correlate: error: argument --pairs: pair must be X:Y, got 's-h_2008'"),
    "correlate non-contiguous --years": (
        lambda c, out: ["correlate", *c, "--discipline", "synthetic", "--window", "2001:2007",
                        "--years", "2008,2010", "--pairs", "s:i", "--out", out],
        "refh correlate: error: argument --years: correlate needs contiguous measurement years, got [2008, 2010]"),
    # the range checks are SynthConfig's; the messages name the flag that set the field
    "synth --papers 5:3": (
        lambda c, out: ["synth", "--seed", "1", "--institutions", "3", "--papers", "5:3", "--out", out],
        "refh synth: error: argument --papers: must be LO:HI with 1 <= LO <= HI, got 5:3"),
    "synth --institutions 0": (
        lambda c, out: ["synth", "--seed", "1", "--institutions", "0", "--out", out],
        "refh synth: error: argument --institutions: must be at least 1, got 0"),
    "synth --accrual 1.5": (
        lambda c, out: ["synth", "--seed", "1", "--institutions", "3", "--accrual", "1.5", "--out", out],
        "refh synth: error: argument --accrual: must be in (0, 1), got 1.5"),
    "synth --seed -1": (
        lambda c, out: ["synth", "--seed", "-1", "--institutions", "3", "--out", out],
        "refh synth: error: argument --seed: must fit in 64 bits, got -1"),
    "synth --quality-link 2": (
        lambda c, out: ["synth", "--seed", "1", "--institutions", "3", "--quality-link", "2", "--out", out],
        "refh synth: error: argument --quality-link: must be in [0, 1], got 2.0"),
}


class TestParsing:
    def test_parse_years_range(self):
        assert parse_years("2008..2014") == list(range(2008, 2015))

    def test_parse_years_list_and_mixture(self):
        assert parse_years("2008,2010") == [2008, 2010]
        assert parse_years("2008..2010,2014") == [2008, 2009, 2010, 2014]

    def test_parse_years_bad(self):
        with pytest.raises(ValueError):
            parse_years("2014..2008")

    def test_parse_pairs(self):
        assert parse_pairs("s:h_2008,s_prime:i") == [("s", "h_2008"), ("s_prime", "i")]
        with pytest.raises(ValueError):
            parse_pairs("s-h_2008")

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["rank"])  # missing required --measure
        assert exc.value.code == 2

    FLAG_MESSAGES = {
        "abc": "measurement years must be YEAR or START..END, got 'abc'",
        "2001-2007": "window must be START:END, got '2001-2007'",
        "2007:2001": "window start 2007 after end 2001",
    }

    @pytest.mark.parametrize("flag, value", [
        ("--years", "abc"), ("--window", "2001-2007"), ("--window", "2007:2001"),
    ])
    def test_malformed_flag_exits_2(self, flag, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["hindex", "--discipline", "chemistry", flag, value])
        assert exc.value.code == 2
        assert f"argument {flag}: {self.FLAG_MESSAGES[value]}" in capsys.readouterr().err

    SYNTH_FLAG_MESSAGES = {
        "5:x": "papers per institution must be LO:HI, got '5:x'",
        "20-40": "papers per institution must be LO:HI, got '20-40'",
        "bogus:1:2": "unknown citation model kind 'bogus'",
        "lognormal:1.8": "citation model must be KIND:A:B, got 'lognormal:1.8'",
        "lognormal:1.8:0": "invalid lognormal parameters mu=1.8, sigma=0.0",
    }

    @pytest.mark.parametrize("flag, value", [
        ("--papers", "5:x"), ("--papers", "20-40"), ("--model", "bogus:1:2"),
        ("--model", "lognormal:1.8"), ("--model", "lognormal:1.8:0"),
    ])
    def test_malformed_synth_flag_exits_2(self, flag, value, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--seed", "1", "--institutions", "3", "--out", str(tmp_path), flag, value])
        assert exc.value.code == 2
        assert f"argument {flag}: {self.SYNTH_FLAG_MESSAGES[value]}" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("case", list(USAGE_ERRORS))
    def test_usage_error_exits_2_and_writes_nothing(self, case, synth_dir, tmp_path, capsys):
        build, message = USAGE_ERRORS[case]
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(build(corpus_args(synth_paths(synth_dir)), str(out)))
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestIngestCommand:
    def test_ok_summary(self, synth_dir, capsys):
        code, out, _ = run(["ingest", *corpus_args(synth_paths(synth_dir))], capsys)
        assert code == 0
        assert "corpus OK" in out

    def test_validation_failure_exits_1(self, tmp_path, capsys):
        paths = write_files(tmp_path, publications="P1,notayear,GB,Alpha,Chemistry")
        code, _, err = run(["ingest", *corpus_args(paths)], capsys)
        assert code == 1
        assert "pub_year" in err


class TestHindexCommand:
    def test_rae_preset_writes_seven_years_matching_oracle(self, synth_dir, tmp_path):
        out = tmp_path / "out"
        code = main([
            "hindex", *corpus_args(synth_paths(synth_dir)),
            "--discipline", "synthetic", "--preset", "rae2008", "--out", str(out),
        ])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO((out / "hseries.csv").read_text())))
        years = {r["measurement_year"] for r in rows}
        assert years == {str(y) for y in range(2008, 2015)}
        # independent recomputation through the brute-force oracle
        corpus = ingest_corpus(*(synth_paths(synth_dir)[k] for k in
                                 ("publications", "citations", "profiles", "discipline_map")))
        window = PublicationWindow(2001, 2007)
        for row in rows:
            matched = filter_documents(corpus, "GB", window, "synthetic", row["institution"])
            expected = oracle_h(matched, int(row["measurement_year"]) - 1)
            assert int(row["h"]) == expected
        assert {r["window_start"] for r in rows} == {"2001"}

    def test_ref_preset_single_year(self, synth_dir, tmp_path):
        out = tmp_path / "out"
        code = main([
            "hindex", *corpus_args(synth_paths(synth_dir)),
            "--discipline", "synthetic", "--preset", "ref2014", "--out", str(out),
        ])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO((out / "hseries.csv").read_text())))
        assert {r["measurement_year"] for r in rows} == {"2014"}
        assert {r["window_start"] for r in rows} == {"2008"}
        assert {r["window_end"] for r in rows} == {"2013"}

    def test_no_matching_publications_exits_1(self, tmp_path, capsys):
        paths = write_files(
            tmp_path,
            publications="P1,1990,GB,Alpha,Chemistry",
            dmap="chemistry,Chemistry",
        )
        code, _, err = run([
            "hindex", *corpus_args(paths),
            "--discipline", "chemistry", "--preset", "rae2008", "--out", str(tmp_path / "o"),
        ], capsys)
        assert code == 1
        assert "no matching publications" in err


class TestScoreCommand:
    def test_scores_match_formula_examples(self, tmp_path):
        paths = write_files(
            tmp_path,
            profiles=(
                "Alpha,chemistry,20,40,30,10,0,20,40,30,10,0,10,\n"
                "Beta,chemistry,100,0,0,0,0,,,,,,1,2.5"
            ),
        )
        out = tmp_path / "out"
        assert main(["score", "--profiles", str(paths["profiles"]), "--out", str(out)]) == 0
        rows = {r["institution"]: r for r in csv.DictReader(io.StringIO((out / "scores.csv").read_text()))}
        assert rows["Alpha"]["s"] == "41.428571"
        assert rows["Alpha"]["s_prime"] == "33.333333"
        assert rows["Alpha"]["s_output"] == "41.428571"
        assert rows["Alpha"]["strength"] == "414.285714"
        assert rows["Alpha"]["nci"] == ""
        assert rows["Beta"]["s"] == "100.000000"
        assert rows["Beta"]["s_output"] == ""
        assert rows["Beta"]["nci"] == "2.500000"

    def test_invalid_profile_reports_row(self, tmp_path, capsys):
        paths = write_files(tmp_path, profiles="Alpha,chemistry,40,30,19,10,0,,,,,,10,")
        code, _, err = run(
            ["score", "--profiles", str(paths["profiles"]), "--out", str(tmp_path / "o")], capsys
        )
        assert code == 1
        assert "profiles.csv:2" in err

    @pytest.mark.parametrize("field, row", [
        ("nci", "Alpha,chemistry,100,0,0,0,0,,,,,,1,nan"),
        ("nci", "Alpha,chemistry,100,0,0,0,0,,,,,,1,-inf"),
        ("staff_fte", "Alpha,chemistry,100,0,0,0,0,,,,,,inf,1.5"),
    ])
    def test_non_finite_number_rejected(self, tmp_path, capsys, field, row):
        paths = write_files(tmp_path, profiles=row)
        code, _, err = run(
            ["score", "--profiles", str(paths["profiles"]), "--out", str(tmp_path / "o")], capsys
        )
        assert code == 1
        assert f"profiles.csv:2: field '{field}': not a finite number" in err
        assert not (tmp_path / "o" / "scores.csv").exists()

    def test_unknown_discipline_exits_1_and_writes_nothing(self, tmp_path, capsys):
        paths = write_files(tmp_path, profiles="Alpha,chemistry,100,0,0,0,0,,,,,,1,")
        code, out, err = run(["score", "--profiles", str(paths["profiles"]),
                              "--discipline", "nonexistent", "--out", str(tmp_path / "o")], capsys)
        assert (code, out, err) == (1, "", "refh: no profiles for discipline 'nonexistent'\n")
        assert not (tmp_path / "o").exists()
        # the label still matches case-insensitively
        assert main(["score", "--profiles", str(paths["profiles"]),
                     "--discipline", "Chemistry", "--out", str(tmp_path / "o")]) == 0


class TestCorrelateCommand:
    def test_proportional_fixture_gives_unit_rows(self, tmp_path):
        # five institutions whose s and h are exactly proportional:
        # institution k publishes k papers in 2003, each cited k times in 2004,
        # so h = k; profiles put s = 20k.
        pubs, cites, profs = [], [], []
        for k in range(1, 6):
            inst = f"I{k}"
            for j in range(k):
                pid = f"P{k}{j}"
                pubs.append(f"{pid},2003,GB,{inst},Chemistry")
                cites.append(f"{pid},2004,{k}")
            p4 = 20.0 * k
            profs.append(f"{inst},chemistry,{p4},0,0,0,{100 - p4},,,,,,10,{1 + k}")
        paths = write_files(
            tmp_path,
            publications="\n".join(pubs),
            citations="\n".join(cites),
            profiles="\n".join(profs),
            dmap="chemistry,Chemistry",
        )
        out = tmp_path / "out"
        code = main([
            "correlate", *corpus_args(paths),
            "--discipline", "chemistry", "--window", "2001:2007", "--years", "2008",
            "--pairs", "s:h_2008,s:i", "--out", str(out),
        ])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO((out / "correlations.csv").read_text())))
        assert [r["y"] for r in rows] == ["h_2008", "i"]
        for row in rows:
            assert row["pearson_r"] == "1.000000"
            assert row["spearman_rho"] == "1.000000"
            assert row["n"] == "5"
        series_rows = list(csv.DictReader(io.StringIO((out / "corr_series.csv").read_text())))
        assert [r["measurement_year"] for r in series_rows] == ["", "2008"]
        points = list(csv.DictReader(io.StringIO((out / "fig_points.csv").read_text())))
        assert len(points) == 5
        assert points[0]["institution"] == "I1"

    def test_twenty_institution_run_matches_definitional_oracle(self, tmp_path):
        corpus_dir = tmp_path / "corpus"
        assert main([
            "synth", "--seed", "31", "--institutions", "20", "--out", str(corpus_dir),
            "--papers", "15:30",
        ]) == 0
        paths = synth_paths(corpus_dir)
        out = tmp_path / "out"
        for argv in (
            ["hindex", *corpus_args(paths), "--discipline", "synthetic",
             "--window", "2001:2007", "--years", "2008", "--out", str(out)],
            ["score", "--profiles", str(paths["profiles"]), "--out", str(out)],
            ["correlate", *corpus_args(paths), "--discipline", "synthetic",
             "--window", "2001:2007", "--years", "2008",
             "--pairs", "s:h_2008", "--out", str(out)],
        ):
            assert main(argv) == 0
        # recompute the coefficients from the emitted files, definitionally
        h_by_inst = {
            r["institution"]: float(r["h"])
            for r in csv.DictReader(io.StringIO((out / "hseries.csv").read_text()))
        }
        s_by_inst = {
            r["institution"]: float(r["s"])
            for r in csv.DictReader(io.StringIO((out / "scores.csv").read_text()))
        }
        insts = sorted(set(h_by_inst) & set(s_by_inst))
        xs = [s_by_inst[i] for i in insts]
        ys = [h_by_inst[i] for i in insts]

        def naive_pearson(x, y):
            n = len(x)
            mx, my = sum(x) / n, sum(y) / n
            cov = sum((a - mx) * (b - my) for a, b in zip(x, y))
            vx = sum((a - mx) ** 2 for a in x)
            vy = sum((b - my) ** 2 for b in y)
            return cov / (vx * vy) ** 0.5

        def positions(v):
            return [
                sum(i + 1 for i, w in enumerate(sorted(v)) if w == value)
                / sum(1 for w in v if w == value)
                for value in v
            ]

        (row,) = list(csv.DictReader(io.StringIO((out / "correlations.csv").read_text())))
        assert int(row["n"]) == len(insts)
        assert float(row["pearson_r"]) == pytest.approx(naive_pearson(xs, ys), abs=1e-6)
        assert float(row["spearman_rho"]) == pytest.approx(
            naive_pearson(positions(xs), positions(ys)), abs=1e-6
        )

    def test_missing_nci_column_is_explicit_error(self, tmp_path, capsys):
        pubs, cites, profs = [], [], []
        for k in range(1, 5):
            pubs.append(f"P{k},2003,GB,I{k},Chemistry")
            cites.append(f"P{k},2004,{k}")
            profs.append(f"I{k},chemistry,50,50,0,0,0,,,,,,10,")
        paths = write_files(
            tmp_path,
            publications="\n".join(pubs),
            citations="\n".join(cites),
            profiles="\n".join(profs),
            dmap="chemistry,Chemistry",
        )
        code, _, err = run([
            "correlate", *corpus_args(paths),
            "--discipline", "chemistry", "--window", "2001:2007", "--years", "2008",
            "--pairs", "s:i", "--out", str(tmp_path / "o"),
        ], capsys)
        assert code == 1
        assert "(s, i)" in err

    def correlate(self, synth_dir, out, pairs, discipline="synthetic"):
        return main([
            "correlate", *corpus_args(synth_paths(synth_dir)),
            "--discipline", discipline, "--preset", "rae2008",
            "--pairs", pairs, "--out", str(out),
        ])

    def test_discipline_flag_matches_case_insensitively(self, synth_dir, tmp_path):
        assert self.correlate(synth_dir, tmp_path / "lower", "s:h_2008,s:i") == 0
        assert self.correlate(synth_dir, tmp_path / "upper", "s:h_2008,s:i", "Synthetic") == 0
        for name in ("correlations.csv", "corr_series.csv"):
            lower = (tmp_path / "lower" / name).read_text().splitlines()
            upper = (tmp_path / "upper" / name).read_text().splitlines()
            assert len(upper) == len(lower) > 1
            assert upper[0] == lower[0]
            for got, want in zip(upper[1:], lower[1:]):
                assert want.startswith("synthetic,")
                assert got == "Synthetic," + want[len("synthetic,"):]
        assert (tmp_path / "upper" / "fig_points.csv").read_bytes() == (
            tmp_path / "lower" / "fig_points.csv"
        ).read_bytes()

    def test_any_label_on_either_side_of_a_pair(self, synth_dir, tmp_path):
        out = tmp_path / "o"
        assert self.correlate(synth_dir, out, "h_2008:i,i:s") == 0
        rows = list(csv.DictReader(io.StringIO((out / "correlations.csv").read_text())))
        assert [(r["x"], r["y"]) for r in rows] == [("h_2008", "i"), ("i", "s")]

    @pytest.mark.parametrize("label", ["s", "s_prime", "s_output", "strength", "i", "h_2008"])
    def test_pair_values_equal_rank_values(self, synth_dir, tmp_path, label):
        """correlate and rank resolve a label to the same per-institution values."""
        assert self.correlate(synth_dir, tmp_path / "c", f"{label}:h_2008") == 0
        assert main([
            "rank", *corpus_args(synth_paths(synth_dir)),
            "--discipline", "synthetic", "--preset", "rae2008",
            "--measure", label, "--out", str(tmp_path / "r"),
        ]) == 0
        points = list(csv.DictReader(io.StringIO((tmp_path / "c" / "fig_points.csv").read_text())))
        ranked = list(csv.DictReader(
            io.StringIO((tmp_path / "r" / f"rank_synthetic_{label}.csv").read_text())
        ))
        values = {r["institution"]: r["value"] for r in ranked}
        assert len(points) >= 3
        assert {p["institution"]: p["x_value"] for p in points} == {
            p["institution"]: values[p["institution"]] for p in points
        }


def golden_corpus_files(tmp_path, baseline_rows, comparison_rows):
    """Corpus whose h values equal the published ones exactly.

    An institution with published h = v gets v publications in the window,
    each cited v times in its publication year, so the h-index at any later
    measurement year is exactly v.
    """
    pubs, cites = [], []
    seq = 0

    def add(rows, year):
        nonlocal seq
        for _, inst, v, *_ in rows:
            for _ in range(v):
                seq += 1
                pid = f"P{seq:06d}"
                pubs.append(f'{pid},{year},GB,"{inst}",Chemistry')
                cites.append(f"{pid},{year},{v}")

    add(baseline_rows, 2003)      # inside 2001-2007
    add(comparison_rows, 2010)    # inside 2008-2013
    profs = [
        f'"{inst}",chemistry,100,0,0,0,0,,,,,,10,' for _, inst, _ in baseline_rows
    ]
    return write_files(
        tmp_path,
        publications="\n".join(pubs),
        citations="\n".join(cites),
        profiles="\n".join(profs),
        dmap="chemistry,Chemistry",
    )


class TestRankCommand:
    @pytest.mark.parametrize("discipline", ["biology", "chemistry"])
    def test_published_tables_reproduced_end_to_end(self, tmp_path, discipline):
        baseline_rows, comparison_rows = gt.TABLES[discipline]
        paths = golden_corpus_files(tmp_path, baseline_rows, comparison_rows)
        out = tmp_path / "out"
        code = main([
            "rank", *corpus_args(paths),
            "--discipline", "chemistry",
            "--measure", "h_hat_2014", "--window", "2008:2013",
            "--baseline", "h_2008", "--baseline-window", "2001:2007",
            "--out", str(out),
        ])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO((out / "rank_chemistry_h_hat_2014.csv").read_text())))
        got = {r["institution"]: (int(r["rank"]), r["movement"]) for r in rows}
        expected = {
            inst: (rank, move) for rank, inst, _, move in comparison_rows
        }
        assert got == expected

    def test_markdown_with_baseline_mirrors_published_layout(self, tmp_path):
        paths = golden_corpus_files(tmp_path, gt.CHEMISTRY_H2008, gt.CHEMISTRY_H2014)
        out = tmp_path / "out"
        code = main([
            "rank", *corpus_args(paths),
            "--discipline", "chemistry",
            "--measure", "h_hat_2014", "--window", "2008:2013",
            "--baseline", "h_2008", "--baseline-window", "2001:2007",
            "--format", "markdown", "--out", str(out),
        ])
        assert code == 0
        text = (out / "rank_chemistry_h_hat_2014.md").read_text()
        assert "| ranked by h_2008 | ranked by h_hat_2014 |" in text
        assert "1. ICL (59) | 1. Cambridge ↑ (84) |" in text

    @pytest.mark.parametrize("fmt", ["markdown", "csv", "json"])
    def test_movement_is_computed_once(self, tmp_path, monkeypatch, fmt):
        calls, movement = [], ranking.movement

        def counted(baseline, comparison):
            calls.append((baseline.measure, comparison.measure))
            return movement(baseline, comparison)

        # cli holds its own reference to movement, so count calls through both
        for module in (cli, ranking):
            monkeypatch.setattr(module, "movement", counted)
        paths = golden_corpus_files(tmp_path, gt.CHEMISTRY_H2008, gt.CHEMISTRY_H2014)
        code = main([
            "rank", *corpus_args(paths),
            "--discipline", "chemistry",
            "--measure", "h_hat_2014", "--window", "2008:2013",
            "--baseline", "h_2008", "--baseline-window", "2001:2007",
            "--format", fmt, "--out", str(tmp_path / "out"),
        ])
        assert code == 0
        assert calls == [("h_2008", "h_hat_2014")]

    def test_baseline_equal_to_comparison_is_all_none(self, synth_dir, tmp_path):
        out = tmp_path / "out"
        code = main([
            "rank", *corpus_args(synth_paths(synth_dir)),
            "--discipline", "synthetic", "--window", "2001:2007",
            "--measure", "h_2008", "--baseline", "h_2008",
            "--out", str(out),
        ])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO((out / "rank_synthetic_h_2008.csv").read_text())))
        assert {r["movement"] for r in rows} == {"none"}

    def test_extra_institution_marked_new(self, tmp_path):
        baseline = [(1, "A", 5), (2, "B", 4)]
        comparison = [(1, "A", 6), (2, "B", 5), (3, "C", 4, "new")]
        paths = golden_corpus_files(
            tmp_path,
            baseline,
            [(r, i, v) for r, i, v, *_ in comparison],
        )
        out = tmp_path / "out"
        code = main([
            "rank", *corpus_args(paths),
            "--discipline", "chemistry",
            "--measure", "h_hat_2014", "--window", "2008:2013",
            "--baseline", "h_2008", "--baseline-window", "2001:2007",
            "--out", str(out),
        ])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO((out / "rank_chemistry_h_hat_2014.csv").read_text())))
        assert {r["institution"]: r["movement"] for r in rows}["C"] == "new"

    def test_score_measure_and_formats(self, synth_dir, tmp_path):
        for fmt, suffix in (("csv", "csv"), ("markdown", "md"), ("json", "json")):
            out = tmp_path / fmt
            code = main([
                "rank", *corpus_args(synth_paths(synth_dir)),
                "--discipline", "synthetic", "--measure", "s",
                "--format", fmt, "--out", str(out),
            ])
            assert code == 0
            assert (out / f"rank_synthetic_s.{suffix}").exists()

    def test_unknown_measure_exits_1(self, synth_dir, tmp_path, capsys):
        code, _, err = run([
            "rank", *corpus_args(synth_paths(synth_dir)),
            "--discipline", "synthetic", "--measure", "nonsense",
            "--out", str(tmp_path / "o"),
        ], capsys)
        assert code == 1
        assert "unknown measure" in err


class TestLogging:
    def test_refh_log_env_controls_verbosity(self, synth_dir, monkeypatch, capsys):
        monkeypatch.setenv("REFH_LOG", "debug")
        code, out, _ = run(["ingest", *corpus_args(synth_paths(synth_dir))], capsys)
        assert code == 0
        assert "corpus OK" in out


class TestDeterminism:
    def test_identical_invocations_byte_identical_outputs(self, synth_dir, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main([
                "hindex", *corpus_args(synth_paths(synth_dir)),
                "--discipline", "synthetic", "--preset", "rae2008", "--out", str(out),
            ]) == 0
            outs.append((out / "hseries.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_synth_same_seed_byte_identical(self, tmp_path):
        dirs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main([
                "synth", "--seed", "123", "--institutions", "6", "--out", str(out)
            ]) == 0
            dirs.append(out)
        for fname in ("publications.csv", "citations.csv", "profiles.csv",
                      "discipline_map.csv", "manifest.json"):
            assert (dirs[0] / fname).read_bytes() == (dirs[1] / fname).read_bytes()
