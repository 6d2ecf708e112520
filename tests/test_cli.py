import argparse
import csv
import gc
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import golden_tables as gt
import refh
from refh import cli, corpus as corpus_module, metrics as metrics_module, ranking, stats, synth
from refh.cli import main, parse_pairs, parse_years
from refh.corpus import Corpus, PublicationWindow, ingest_corpus

from conftest import write_files
from oracles import naive_pearson, naive_ranks, oracle_filter, oracle_h

ROOT = Path(__file__).resolve().parent.parent


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


def blank_nci(profiles, count=None):
    """Blank the nci, the last column, of the first ``count`` profiles (all by default)."""
    header, *rows = profiles.read_text().splitlines()
    rows = [row.rsplit(",", 1)[0] + "," if count is None or k < count else row
            for k, row in enumerate(rows)]
    profiles.write_text("\n".join([header, *rows]) + "\n")


def blank_output(profiles):
    """Blank the output sub-profile (p4_out..pu_out) of the first profile."""
    header, first, *rows = profiles.read_text().splitlines()
    cells = first.split(",")
    cells[7:12] = [""] * 5
    profiles.write_text("\n".join([header, ",".join(cells), *rows]) + "\n")


def json_corpus(csv_dir, out):
    """The corpus of ``csv_dir`` as JSON files, list cells as lists of strings."""
    out.mkdir()
    paths = {}
    for name, path in synth_paths(csv_dir).items():
        rows = list(csv.DictReader(io.StringIO(path.read_text(encoding="utf-8"))))
        for row in rows:
            for key in ("affiliations", "categories"):
                if key in row:
                    row[key] = row[key].split(";")
        paths[name] = out / f"{name}.json"
        paths[name].write_text(json.dumps(rows), encoding="utf-8")
    return paths


RAE2008 = ["--discipline", "synthetic", "--preset", "rae2008"]
WINDOW_2001 = ["--discipline", "synthetic", "--window", "2001:2007"]
LABELS = "(s, s_prime, s_output, strength, i, h_YYYY or h_hat_YYYY)"


def without(flag, argv):
    i = argv.index(flag)
    return argv[:i] + argv[i + 2:]


# name -> (argv from the corpus flags and the output directory, what stderr must say)
USAGE_ERRORS = {
    "no command": (
        lambda c, out: [],
        "refh: error: the following arguments are required: command"),
    "unknown command": (
        lambda c, out: ["bogus"],
        "refh: error: argument command: invalid choice: 'bogus'"),
    # the subcommand's own parser reports its missing flags before the parent sees --bogus
    "option before the command": (
        lambda c, out: ["--bogus", "rank", "--measure", "s"],
        "refh rank: error: the following arguments are required: --profiles, --pubs, --cites, "
        "--map, --discipline"),
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
    "correlate unknown --pairs label": (
        lambda c, out: ["correlate", *c, *RAE2008, "--pairs", "s:h_2008,s:bogus", "--out", out],
        f"refh correlate: error: argument --pairs: unknown measure label 'bogus' {LABELS}"),
    "rank h measure at the preset's window start": (
        lambda c, out: ["rank", *c, "--discipline", "synthetic", "--preset", "ref2014",
                        "--measure", "h_2008", "--out", out],
        "refh rank: error: argument --measure: h_2008 measures 2008, which must come after "
        "window start 2008"),
    "hindex --window with a non-integer year": (
        lambda c, out: ["hindex", *c, "--discipline", "synthetic", "--window", "20x1:2007",
                        "--years", "2008", "--out", out],
        "refh hindex: error: argument --window: window years must be integers, got '20x1:2007'"),
    "hindex --years with no year": (
        lambda c, out: ["hindex", *c, "--discipline", "synthetic", "--window", "2001:2007",
                        "--years", ",", "--out", out],
        "refh hindex: error: argument --years: no measurement years in ','"),
    "correlate repeated --pairs entry": (
        lambda c, out: ["correlate", *c, *RAE2008, "--pairs", "s:h_2008, s : h_2008", "--out", out],
        "refh correlate: error: argument --pairs: pair 's:h_2008' is given twice"),
    "rank --baseline-window without --baseline": (
        lambda c, out: ["rank", *c, "--discipline", "synthetic", "--window", "2001:2007",
                        "--measure", "h_2008", "--baseline-window", "2001:2005", "--out", out],
        "refh rank: error: argument --baseline-window: needs --baseline"),
    # a name flag is read stripped, so a blank one names nothing (rank's labels: TestRankCommand)
    "score blank --discipline": (
        lambda c, out: ["score", "--profiles", c[c.index("--profiles") + 1], "--discipline", " ",
                        "--out", out],
        "refh score: error: argument --discipline: must not be blank"),
    "hindex blank --discipline": (
        lambda c, out: ["hindex", *c, "--discipline", "\t", "--preset", "rae2008", "--out", out],
        "refh hindex: error: argument --discipline: must not be blank"),
    "correlate --pairs with no pair": (
        lambda c, out: ["correlate", *c, *RAE2008, "--pairs", ",", "--out", out],
        "refh correlate: error: argument --pairs: no measure pairs in ','"),
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

    def test_parse_years_bounds(self):
        assert parse_years("1000,9999") == [1000, 9999]
        assert parse_years("2008..2057") == list(range(2008, 2058))
        assert parse_years("2008..2057,2008") == list(range(2008, 2058))
        for text in ("2008..20140", "999", "2008,10000"):
            with pytest.raises(ValueError, match="from 1000 to 9999"):
                parse_years(text)
        for text in ("2008..2058", "2008..2040,2050..2070", "1000..9999"):
            with pytest.raises(ValueError, match="at most 50 measurement years"):
                parse_years(text)

    @pytest.mark.parametrize("command, years, message", [
        (["hindex"], "2008..20140", "measurement years must be from 1000 to 9999, got '2008..20140'"),
        (["correlate", "--pairs", "s:h_2008"], "2008..2058",
         "at most 50 measurement years, got more in '2008..2058'"),
        (["hindex"], "2001..2007", "measurement year 2001 must come after window start 2001"),
        (["correlate", "--pairs", "s:h_2001"], "1999..2002",
         "measurement year 1999 must come after window start 2001"),
    ], ids=["four-digits", "at-most-50", "at-window-start", "before-window-start"])
    def test_out_of_range_years_exit_2_before_any_read(self, tmp_path, monkeypatch, capsys,
                                                       command, years, message):
        def refuse(*args):
            raise AssertionError("a file was read")

        monkeypatch.setattr(cli, "ingest_corpus", refuse)
        monkeypatch.setattr(metrics_module, "group_metrics", refuse)
        paths = {name: tmp_path / f"{name}.csv"
                 for name in ("publications", "citations", "profiles", "discipline_map")}
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([*command, *corpus_args(paths), *RAE2008, "--years", years, "--out", str(out)])
        assert exc.value.code == 2
        assert f"refh {command[0]}: error: argument --years: {message}\n" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("years, pairs, label, year, window", [
        ([], "s:h_2016", "h_2016", 2016, "2008..2014"),
        ([], "h_2001:s", "h_2001", 2001, "2008..2014"),
        ([], "s:h_2008,s_prime:h_hat_2015", "h_hat_2015", 2015, "2008..2014"),
        (["--years", "2008..2010"], "s:h_2010,h_2012:s_prime", "h_2012", 2012, "2008..2010"),
    ], ids=["y-side", "x-side", "h-hat", "explicit-years"])
    def test_h_label_outside_years_exits_2_before_any_read(self, tmp_path, monkeypatch, capsys,
                                                           years, pairs, label, year, window):
        def refuse(*args):
            raise AssertionError("a file was read")

        monkeypatch.setattr(cli, "ingest_corpus", refuse)
        monkeypatch.setattr(metrics_module, "group_metrics", refuse)
        paths = {name: tmp_path / f"{name}.csv"
                 for name in ("publications", "citations", "profiles", "discipline_map")}
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["correlate", *corpus_args(paths), *RAE2008, *years, "--pairs", pairs, "--out", str(out)])
        assert exc.value.code == 2
        assert (f"refh correlate: error: argument --pairs: {label} measures {year}, outside --years {window}\n"
                in capsys.readouterr().err)
        assert not out.exists()

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
        "lognormal:x:0.6": "citation model parameters must be numbers: 'lognormal:x:0.6'",
        "lognormal:1.8:0": "invalid lognormal parameters mu=1.8, sigma=0.0",
        "power_law:2.5:inf": "invalid power-law parameters alpha=2.5, x_min=inf",
        "power_law:inf:1": "invalid power-law parameters alpha=inf, x_min=1.0",
        "1:99999999999999999999": "HI must be below 2**63, got 99999999999999999999",
        "2001:99999999999999999999": "years must lie in [-2**63, 2**63), got 2001:99999999999999999999",
    }

    @pytest.mark.parametrize("flag, value", [
        ("--papers", "5:x"), ("--papers", "20-40"), ("--model", "bogus:1:2"),
        ("--model", "lognormal:1.8"), ("--model", "lognormal:x:0.6"), ("--model", "lognormal:1.8:0"),
        ("--model", "power_law:2.5:inf"), ("--model", "power_law:inf:1"),
        ("--papers", "1:99999999999999999999"), ("--window", "2001:99999999999999999999"),
    ])
    def test_malformed_synth_flag_exits_2(self, flag, value, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--seed", "1", "--institutions", "3", "--out", str(tmp_path), flag, value])
        assert exc.value.code == 2
        assert f"argument {flag}: {self.SYNTH_FLAG_MESSAGES[value]}" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("institutions, papers", [("50001", "1:40"), ("3", "1:2000000")])
    def test_over_cap_synth_exits_2_without_generating(self, monkeypatch, tmp_path, capsys,
                                                       institutions, papers):
        def refuse(config):
            raise AssertionError("an over-cap corpus was generated")

        monkeypatch.setattr(synth, "generate", refuse)
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--seed", "1", "--institutions", institutions, "--papers", papers,
                  "--out", str(out)])
        assert exc.value.code == 2
        hi = papers.split(":")[1]
        assert (f"refh synth: error: argument --institutions * --papers HI: must be at most "
                f"{synth.MAX_RECORDS} records, got {institutions} * {hi}\n") in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("institutions, papers", [("4000", "1:40"), ("50000", "1:40")])
    def test_synth_accepts_up_to_the_record_cap(self, monkeypatch, tmp_path, capsys, institutions, papers):
        configs = []
        monkeypatch.setattr(synth, "generate", lambda config: configs.append(config) or Corpus())
        assert run(["synth", "--seed", "1", "--institutions", institutions, "--papers", papers,
                    "--out", str(tmp_path)], capsys) == (0, "", "")
        assert [(c.n_institutions, c.papers_per_institution) for c in configs] == [
            (int(institutions), (1, 40))]
        assert 50000 * 40 == synth.MAX_RECORDS

    def test_help_states_the_record_cap_and_the_pairs_rule(self, capsys):
        for command in ("synth", "correlate"):
            with pytest.raises(SystemExit):
                main([command, "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert f"may not exceed {synth.MAX_RECORDS} records" in text
        assert "label must name one of --years" in text

    @pytest.mark.parametrize("model, message", [
        ("power_law:1.00001:1", "citation model PowerLaw(alpha=1.00001, x_min=1.0): P000001 drew inf"),
        ("lognormal:45:1", "citation model Lognormal(mu=45.0, sigma=1.0): P000001 drew "),
    ])
    def test_overflowing_citation_draw_exits_1_and_writes_nothing(self, model, message, tmp_path, capsys):
        out = tmp_path / "out"
        code, _, err = run(["synth", "--seed", "1", "--institutions", "3", "--model", model,
                            "--out", str(out)], capsys)
        assert code == 1
        assert err.startswith(f"refh: {message}")
        assert err.endswith(f"citations; a count must be finite and at most {synth.MAX_CITATIONS}\n")
        assert not out.exists()

    def test_draw_above_the_citation_cap_exits_1_before_splitting_it(self, tmp_path):
        # a finite draw of about 2.4e17, below 2**63: split one citation at a
        # time, it would never finish
        out = tmp_path / "out"
        code, stdout, err = run_fresh(["synth", "--seed", "1", "--institutions", "3", "--model",
                                       "lognormal:40:0.1", "--out", str(out)], tmp_path, timeout=10)
        assert (code, stdout) == (1, "")
        assert re.fullmatch(r"refh: citation model Lognormal\(mu=40\.0, sigma=0\.1\): P000001 drew "
                            r"[0-9.]+e\+17 citations; a count must be finite and at most "
                            + str(synth.MAX_CITATIONS) + "\n", err)
        assert not out.exists()

    @pytest.mark.parametrize("case", list(USAGE_ERRORS))
    def test_usage_error_exits_2_and_writes_nothing(self, case, synth_dir, tmp_path, capsys):
        build, message = USAGE_ERRORS[case]
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(build(corpus_args(synth_paths(synth_dir)), str(out)))
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name", ["ingest", "hindex", "score", "correlate", "rank", "synth"])
    def test_each_command_dispatches_to_its_own_handler_and_parser(self, name):
        [sub] = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        assert list(sub.choices) == ["ingest", "hindex", "score", "correlate", "rank", "synth"]
        p = sub.choices[name]
        assert p.get_default("func") is getattr(cli, f"cmd_{name}")
        assert p.get_default("parser") is p
        assert p.format_usage() != f"usage: refh {name} [-h]\n"

    # each command's flags before --out, its name flags padded; the test runs them padded and stripped
    PADDED = {
        "hindex": ["hindex", "--discipline", " synthetic ", "--preset", "rae2008"],
        "score": ["score", "--discipline", "\tsynthetic"],
        "correlate": ["correlate", "--discipline", "synthetic  ", "--preset", "rae2008", "--pairs", "s:h_2008"],
        "rank": ["rank", "--discipline", " synthetic", "--window", "2001:2007", "--measure", " h_2008 ",
                 "--baseline", "s "],
    }

    @pytest.mark.parametrize("name", list(PADDED))
    def test_padded_name_flags_write_what_the_stripped_ones_write(self, name, synth_dir, tmp_path):
        # no padding reaches a discipline cell or a file name
        paths = synth_paths(synth_dir)
        args = corpus_args(paths) if name != "score" else ["--profiles", str(paths["profiles"])]
        written = []
        for flags in (self.PADDED[name], [flag.strip() for flag in self.PADDED[name]]):
            out = tmp_path / f"out{len(written)}"
            assert main([*flags, *args, "--out", str(out)]) == 0
            written.append({path.name: path.read_bytes() for path in out.iterdir()})
        assert written[0] == written[1]
        if name == "rank":
            assert list(written[0]) == ["rank_synthetic_h_2008.csv"]

    TEXT_CASES = {"--help": ["--help"],
                  **{f"{name} --help": [name, "--help"]
                     for name in ("ingest", "hindex", "score", "correlate", "rank", "synth")}}

    @pytest.mark.parametrize("case", [*TEXT_CASES, *USAGE_ERRORS])
    def test_texts_are_the_same_when_argv_comes_from_sys_argv(self, case, tmp_path, monkeypatch,
                                                               capsys):
        paths = {name: tmp_path / f"{name}.csv"
                 for name in ("publications", "citations", "profiles", "discipline_map")}
        argv = (self.TEXT_CASES[case] if case in self.TEXT_CASES
                else USAGE_ERRORS[case][0](corpus_args(paths), str(tmp_path / "out")))

        def texts(*args):
            with pytest.raises(SystemExit) as exc:
                main(*args)
            return exc.value.code, *capsys.readouterr()

        given = texts(argv)
        monkeypatch.setattr(sys, "argv", ["refh", *argv])
        assert texts() == given
        assert given[0] == (0 if case in self.TEXT_CASES else 2)


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

    def test_over_long_field_is_a_located_violation(self, tmp_path, capsys):
        limit = csv.field_size_limit()
        paths = write_files(tmp_path, publications=f"P1,2003,GB,{'A' * (limit + 1)},Chemistry")
        code, _, err = run(["ingest", *corpus_args(paths)], capsys)
        assert code == 1
        assert err == f"refh: publications.csv:2: field larger than field limit ({limit})\n"

    def test_a_flood_of_violations_prints_50_then_a_count_per_file_and_field(self, tmp_path, capsys):
        # every fourth row names an unknown pub_id, the others spoil the citing
        # year and every other one the count too: 5 violations per 4 rows
        rows = ["Q9,2004,1" if i % 4 == 3 else f"P1,x2004,{'y' if i % 2 else 1}" for i in range(2000)]
        paths = write_files(tmp_path, publications="P1,2003,GB,Alpha,Chemistry", citations="\n".join(rows))
        with pytest.raises(corpus_module.CorpusValidationError) as exc:
            ingest_corpus(*paths.values())
        assert len(exc.value.violations) == 2500
        code, out, err = run(["ingest", *corpus_args(paths)], capsys)
        assert (code, out) == (1, "")
        lines = err.splitlines()
        assert lines[:50] == ["refh: " + exc.value.violations[0], *exc.value.violations[1:50]]
        assert lines[49] == "citations.csv:41: unknown pub_id 'Q9'"  # the 40th row's
        assert lines[50:] == [
            "refh: citations.csv: 1,470 more violations of field 'citing_year'",
            "refh: citations.csv: 490 more violations of field 'count'",
            "refh: citations.csv: 490 more violations",
        ]

    def test_a_flood_of_blank_names_is_counted_by_field(self, tmp_path, capsys):
        paths = write_files(tmp_path, profiles="\n".join([",chemistry,25,25,25,25,0,,,,,,10,"] * 60))
        code, out, err = run(["ingest", *corpus_args(paths)], capsys)
        assert (code, out) == (1, "")
        located = [f"profiles.csv:{line}: field 'institution': missing value" for line in range(2, 52)]
        assert err.splitlines() == ["refh: " + located[0], *located[1:],
                                    "refh: profiles.csv: 10 more violations of field 'institution'"]

    @pytest.mark.parametrize("rows, more", [
        (50, []), (51, ["refh: citations.csv: 1 more violation of field 'citing_year'"])])
    def test_fifty_violations_are_printed_in_full(self, tmp_path, capsys, rows, more):
        paths = write_files(tmp_path, publications="P1,2003,GB,Alpha,Chemistry",
                            citations="\n".join(["P1,x2004,1"] * rows))
        code, _, err = run(["ingest", *corpus_args(paths)], capsys)
        assert code == 1
        assert err.splitlines()[1:] == [f"citations.csv:{line}: field 'citing_year': not an integer: 'x2004'"
                                        for line in range(3, 52)] + more

    def test_count_lines_keep_a_file_name_holding_a_colon(self, tmp_path, capsys):
        paths = write_files(tmp_path, publications="P1,2003,GB,Alpha,Chemistry",
                            citations="\n".join(["P1,x2004,1"] * 51 + ["Q9,2004,1"]))
        paths["citations"] = paths["citations"].rename(tmp_path / "cites:v2.csv")
        code, _, err = run(["ingest", *corpus_args(paths)], capsys)
        assert code == 1
        lines = err.splitlines()
        assert lines[49] == "cites:v2.csv:51: field 'citing_year': not an integer: 'x2004'"
        assert lines[50:] == ["refh: cites:v2.csv: 1 more violation of field 'citing_year'",
                              "refh: cites:v2.csv: 1 more violation"]

    @pytest.mark.parametrize("name", ["publications", "citations", "profiles", "discipline_map"])
    def test_non_utf8_file_is_located(self, synth_dir, capsys, name):
        paths = synth_paths(synth_dir)
        lines = paths[name].read_bytes().splitlines(keepends=True)
        # the last line: in the larger files, past the decoder's first chunk
        lines[-1] = lines[-1][:2] + b"\xff" + lines[-1][2:]
        paths[name].write_bytes(b"".join(lines))
        code, out, err = run(["ingest", *corpus_args(paths)], capsys)
        assert (code, out, err) == (1, "", f"refh: {name}.csv:{len(lines)}: not valid UTF-8\n")

    def test_non_utf8_json_file_is_located(self, synth_dir, tmp_path, capsys):
        paths = synth_paths(synth_dir)
        paths["discipline_map"] = tmp_path / "discipline_map.json"
        paths["discipline_map"].write_bytes(
            b'[\n{"discipline": "synthetic",\n "category": "Synth\xe9tic"}\n]\n'
        )
        code, out, err = run(["ingest", *corpus_args(paths)], capsys)
        assert (code, out, err) == (1, "", "refh: discipline_map.json:3: not valid UTF-8\n")

    @pytest.mark.parametrize("text", [
        '[{"pub_id": "P1", "pub_year": ' + "1" * 5000 + "}]",
        "[" * 100_000,
    ], ids=["integer_too_long", "nesting_too_deep"])
    def test_json_that_json_cannot_read_is_the_files_violation(self, synth_dir, tmp_path, text):
        paths = synth_paths(synth_dir)
        paths["publications"] = tmp_path / "publications.json"
        paths["publications"].write_text(text, encoding="utf-8")
        paths["citations"] = tmp_path / "citations.json"
        paths["citations"].write_text("[]", encoding="utf-8")
        with pytest.raises((ValueError, RecursionError)) as exc:
            json.loads(text)
        code, out, err = run_fresh(["ingest", *corpus_args(paths)], tmp_path)
        assert (code, out) == (1, "")
        assert err.splitlines()[0] == f"refh: publications.json: invalid JSON: {exc.value}"
        assert "Traceback" not in err

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_a_leading_byte_order_mark_is_dropped(self, synth_dir, tmp_path, capsys, monkeypatch, fmt):
        # a copy of each file that starts with a UTF-8 BOM reads as the file
        # does: ingest says the same, and score writes the same bytes, from a
        # CSV profile file through the clean pass
        plain = synth_paths(synth_dir) if fmt == "csv" else json_corpus(synth_dir, tmp_path / "json")
        (tmp_path / "bom").mkdir()
        bom = {name: tmp_path / "bom" / path.name for name, path in plain.items()}
        for name, path in plain.items():
            bom[name].write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        said = run(["ingest", *corpus_args(plain)], capsys)
        assert said[0] == 0 and run(["ingest", *corpus_args(bom)], capsys) == said

        def refuse(*args):
            raise AssertionError("the validator's reader ran")

        if fmt == "csv":
            monkeypatch.setattr(corpus_module, "_read_rows", refuse)
        written = []
        for paths, out in ((plain, tmp_path / "plain_out"), (bom, tmp_path / "bom_out")):
            assert main(["score", "--profiles", str(paths["profiles"]), "--out", str(out)]) == 0
            written.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert written[0] == written[1]

    @pytest.mark.parametrize("char", ["\n", "\r", "\0"])
    @pytest.mark.parametrize("name, field", [("publications", "affiliations"), ("citations", "pub_id"),
                                             ("profiles", "institution"), ("discipline_map", "category")])
    def test_json_string_with_a_line_break_or_nul_is_located(self, synth_dir, tmp_path, capsys,
                                                            name, field, char):
        paths = json_corpus(synth_dir, tmp_path / "json")
        code, out, err = run(["ingest", *corpus_args(paths)], capsys)
        assert (code, err) == (0, "") and "corpus OK" in out  # the JSON copy itself is clean
        rows = json.loads(paths[name].read_text(encoding="utf-8"))
        value = rows[0][field]
        rows[0][field] = [value[0] + char, *value[1:]] if isinstance(value, list) else f"A{char}{value}"
        paths[name].write_text(json.dumps(rows), encoding="utf-8")
        code, out, err = run(["ingest", *corpus_args(paths)], capsys)
        assert (code, out) == (1, "")
        assert err.splitlines()[0] == (
            f"refh: {name}.json:1: field {field!r}: line break or NUL in {rows[0][field]!r}")


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
            matched = oracle_filter(corpus, "GB", window, "synthetic", row["institution"])
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

    def test_rank_unknown_discipline_exits_1(self, synth_dir, tmp_path, capsys):
        # a year at or before the window start is a usage error (TestRankCommand)
        code, _, err = run([
            "rank", *corpus_args(synth_paths(synth_dir)), "--discipline", "nonexistent",
            "--window", "2001:2007", "--measure", "h_2008", "--out", str(tmp_path / "o"),
        ], capsys)
        assert (code, err) == (1, "refh: no discipline map for 'nonexistent'\n")


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

        (row,) = list(csv.DictReader(io.StringIO((out / "correlations.csv").read_text())))
        assert int(row["n"]) == len(insts)
        assert float(row["pearson_r"]) == pytest.approx(naive_pearson(xs, ys), abs=1e-6)
        assert float(row["spearman_rho"]) == pytest.approx(
            naive_pearson(naive_ranks(xs), naive_ranks(ys)), abs=1e-6
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

    def test_sparse_nci_leaves_out_the_baseline_row(self, tmp_path, capsys):
        corpus_dir = tmp_path / "corpus"
        assert main(["synth", "--seed", "3", "--institutions", "8", "--out", str(corpus_dir)]) == 0
        blank_nci(corpus_dir / "profiles.csv", 6)
        code, _, err = run(["correlate", *corpus_args(synth_paths(corpus_dir)), *RAE2008,
                            "--pairs", "s:h_2008", "--out", str(tmp_path / "o")], capsys)
        assert (code, err) == (0, "")
        series = list(csv.DictReader(io.StringIO((tmp_path / "o" / "corr_series.csv").read_text())))
        assert [r["y"] for r in series] == [f"h_{year}" for year in range(2008, 2015)]
        # a pair that names i still needs 3 points
        code, _, err = run(["correlate", *corpus_args(synth_paths(corpus_dir)), *RAE2008,
                            "--pairs", "s:i", "--out", str(tmp_path / "o2")], capsys)
        assert (code, err) == (
            1, "refh: pair (s, i): only 2 complete joined pairs (6 dropped); need at least 3\n"
        )

    def test_constant_vector_names_its_pair(self, tmp_path, capsys):
        # three institutions, one paper each, each cited once: h_2008 is 1 for all
        paths = write_files(
            tmp_path,
            publications="\n".join(f"P{k},2003,GB,I{k},Chemistry" for k in range(1, 4)),
            citations="\n".join(f"P{k},2004,1" for k in range(1, 4)),
            profiles="\n".join(f"I{k},chemistry,{10 * k},0,0,0,{100 - 10 * k},,,,,,10,"
                               for k in range(1, 4)),
            dmap="chemistry,Chemistry",
        )
        code, _, err = run([
            "correlate", *corpus_args(paths),
            "--discipline", "chemistry", "--window", "2001:2007", "--years", "2008",
            "--pairs", "s:h_2008", "--out", str(tmp_path / "o"),
        ], capsys)
        assert (code, err) == (1, "refh: pair (s, h_2008): correlation undefined for a constant vector\n")

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

    def test_i_as_x_writes_no_nci_line_against_itself(self, synth_dir, tmp_path):
        assert self.correlate(synth_dir, tmp_path / "o", "i:h_2008,s:h_2008") == 0
        series = list(csv.DictReader(io.StringIO((tmp_path / "o" / "corr_series.csv").read_text())))
        years = [str(year) for year in range(2008, 2015)]
        assert [(r["x"], r["y"], r["measurement_year"]) for r in series] == [
            *(("i", f"h_{year}", year) for year in years),
            ("s", "i", ""), *(("s", f"h_{year}", year) for year in years)]

    def test_table_rows_equal_series_rows_and_fig_points_hold_the_first_pair(self, synth_dir, tmp_path):
        pairs = [("s_prime", "h_2010"), ("s", "h_2008"), ("s", "i"), ("i", "h_2009"),
                 ("h_2008", "i"), ("strength", "s"), ("s_prime", "h_2014")]
        out = tmp_path / "o"
        assert self.correlate(synth_dir, out, ",".join(f"{x}:{y}" for x, y in pairs)) == 0
        table = list(csv.reader(io.StringIO((out / "correlations.csv").read_text())))
        series = list(csv.reader(io.StringIO((out / "corr_series.csv").read_text())))
        assert series[0] == table[0] + ["measurement_year"]
        by_pair = {tuple(row[1:3]): row[:-1] for row in series[1:]}
        assert len(by_pair) == len(series) - 1
        assert [tuple(row[1:3]) for row in table[1:]] == pairs
        compared = [row for row in table[1:] if row[2] == "i" or row[2].startswith("h_")]
        assert len(compared) == 6
        for row in compared:
            assert by_pair[tuple(row[1:3])] == row

        corpus = ingest_corpus(*synth_paths(synth_dir).values())
        metrics = metrics_module.group_metrics(corpus, "GB", PublicationWindow(2001, 2007), "synthetic",
                                               range(2008, 2015))
        scores = [metrics_module.score_profile(p) for p in corpus.profiles]
        points, _ = stats.joined_points(scores, metrics, *pairs[0])
        assert len(points) == int(table[1][3]) >= 3
        assert list(csv.reader(io.StringIO((out / "fig_points.csv").read_text()))) == [
            ["x_value", "y_value", "institution"],
            *([f"{x:.6f}", f"{y:.6f}", inst] for inst, x, y in points)]

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


def test_readme_quick_start_runs(tmp_path, monkeypatch):
    """README's library quick start, run against corpus files under its file names."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library quick start", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    golden_corpus_files(tmp_path, gt.CHEMISTRY_H2008, gt.CHEMISTRY_H2014)
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    published = gt.values(gt.CHEMISTRY_H2008)["Cambridge"]
    assert namespace["h"] == published
    assert namespace["series"].h_by_year == {2008: published, 2009: published}
    by_institution = {m.institution: m for m in namespace["metrics"]}
    assert len(by_institution) == len(gt.CHEMISTRY_H2008)
    assert by_institution["Cambridge"] == namespace["series"]


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

        monkeypatch.setattr(ranking, "movement", counted)
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

    @pytest.mark.parametrize("argv, passes", [
        (["rank", *WINDOW_2001, "--measure", "h_2014", "--baseline", "h_2008"], [[2008, 2014]]),
        (["rank", *WINDOW_2001, "--measure", "h_2014", "--baseline", "h_2014"], [[2014]]),
        (["rank", *WINDOW_2001, "--measure", "h_2014", "--baseline", "h_2008",
          "--baseline-window", "2002:2007"], [[2014], [2008]]),
        (["hindex", *RAE2008], [list(range(2008, 2015))]),
        (["correlate", *WINDOW_2001, "--years", "2009,2008,2010",
          "--pairs", "s:h_2010,s_prime:h_2008"], [[2008, 2009, 2010]]),
    ], ids=["rank-two-years", "rank-one-year", "rank-two-windows", "hindex", "correlate"])
    def test_one_h_pass_per_window(self, synth_dir, tmp_path, monkeypatch, capsys, argv, passes):
        calls, group_metrics = [], metrics_module.group_metrics

        def counted(corpus, country, window, discipline, years):
            calls.append(list(years))
            return group_metrics(corpus, country, window, discipline, years)

        monkeypatch.setattr(metrics_module, "group_metrics", counted)
        blank_nci(synth_dir / "profiles.csv")
        got, _, stderr = run([*argv, *corpus_args(synth_paths(synth_dir)), "--out", str(tmp_path / "out")],
                             capsys)
        assert (got, calls, stderr) == (0, passes, "")

    def test_a_label_without_values_is_refused_before_a_later_h_pass(self, synth_dir, tmp_path, capsys):
        blank_nci(synth_dir / "profiles.csv")
        out = tmp_path / "out"
        code, _, err = run(["rank", *corpus_args(synth_paths(synth_dir)), *WINDOW_2001, "--country", "FR",
                            "--measure", "i", "--baseline", "h_2008", "--out", str(out)], capsys)
        assert (code, err) == (1, "refh: no values available for measure 'i'\n")
        code, _, err = run(["rank", *corpus_args(synth_paths(synth_dir)), *WINDOW_2001, "--country", "FR",
                            "--measure", "h_2008", "--baseline", "i", "--out", str(out)], capsys)
        assert (code, err) == (1, "refh: no matching publications for country=FR window=2001:2007 "
                                  "discipline=synthetic\n")
        assert not out.exists()

    @pytest.mark.parametrize("labels, flag, message", [
        (["--measure", "h_2014", "--baseline", "h_2001"], "--baseline",
         "h_2001 measures 2001, which must come after window start 2001"),
        # two refused years: the flags are checked in order
        (["--measure", "h_2001", "--baseline", "h_2000"], "--measure",
         "h_2001 measures 2001, which must come after window start 2001"),
        (["--measure", "i", "--baseline", "h_2001"], "--baseline",
         "h_2001 measures 2001, which must come after window start 2001"),
        # each label against its own window
        (["--measure", "h_2008", "--baseline", "h_2008", "--baseline-window", "2008:2013"],
         "--baseline", "h_2008 measures 2008, which must come after window start 2008"),
        (["--measure", "bogus"], "--measure", f"unknown measure label 'bogus' {LABELS}"),
        (["--measure", "s", "--baseline", "h_2008\ns"], "--baseline",
         f"unknown measure label 'h_2008\\ns' {LABELS}"),
        (["--measure", ""], "--measure", "must not be blank"),
        (["--measure", "s", "--baseline", "\n"], "--baseline", "must not be blank"),
    ], ids=["baseline-at-start", "both-before", "profile-measure", "own-window",
            "unknown-measure", "unknown-baseline", "empty-measure", "empty-baseline"])
    def test_bad_label_exits_2_before_any_read(self, tmp_path, monkeypatch, capsys,
                                               labels, flag, message):
        def refuse(*args):
            raise AssertionError("a file was read")

        for module, name in ((cli, "ingest_corpus"), (cli, "load_profiles"),
                             (metrics_module, "group_metrics")):
            monkeypatch.setattr(module, name, refuse)
        paths = {name: tmp_path / f"{name}.csv"
                 for name in ("publications", "citations", "profiles", "discipline_map")}
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["rank", *corpus_args(paths), "--discipline", "nonexistent", "--window", "2001:2007",
                  *labels, "--out", str(out)])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(f"refh rank: error: argument {flag}: {message}\n")
        assert not out.exists()

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

    def test_tie_at_zero_prints_one_value(self, tmp_path):
        profiles = [f"{inst},chemistry,100,0,0,0,0,,,,,,10,{nci}"
                    for inst, nci in (("A", "-0"), ("B", "0"), ("C", "1.5"))]
        paths = write_files(tmp_path, profiles="\n".join(profiles), dmap="chemistry,Chemistry")
        out = tmp_path / "out"
        for fmt in ("csv", "markdown"):
            assert main(["rank", *corpus_args(paths), "--discipline", "chemistry",
                         "--measure", "i", "--format", fmt, "--out", str(out)]) == 0
        assert (out / "rank_chemistry_i.csv").read_text().splitlines()[-2:] == [
            "2,A,0.000000,none", "2,B,0.000000,none"]
        assert (out / "rank_chemistry_i.md").read_text().splitlines()[-2:] == [
            "| 2 | A |  | 0 |", "| 2 | B |  | 0 |"]
        # scores.csv prints nci as given
        assert main(["score", "--profiles", str(paths["profiles"]), "--out", str(out)]) == 0
        assert (out / "scores.csv").read_text().splitlines()[1].endswith(",-0.000000")

    def test_slash_in_discipline_becomes_underscore_in_file_name(self, tmp_path):
        paths = write_files(
            tmp_path,
            publications="P1,2003,GB,A,Chemistry",
            citations="P1,2004,3",
            profiles="A,Chem/Phys,100,0,0,0,0,,,,,,10,",
            dmap="Chem/Phys,Chemistry",
        )
        out = tmp_path / "out"
        assert main(["rank", *corpus_args(paths), "--discipline", "Chem/Phys", "--window",
                     "2001:2007", "--measure", "h_2008", "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["rank_Chem_Phys_h_2008.csv"]
        assert (out / "rank_Chem_Phys_h_2008.csv").read_text() == (
            "rank,institution,value,movement\n1,A,1.000000,none\n")


# command -> (its arguments after the corpus flags, the module and name of its last
# computation, made to raise; None where a flag makes it fail)
LAST_COMPUTATION = {
    "hindex": (RAE2008, (metrics_module, "group_metrics")),
    "score": (["--discipline", "nonexistent"], None),
    "correlate": ([*RAE2008, "--pairs", "s:h_2008,s_prime:h_2008"], (stats, "joined_points")),
    "rank": ([*WINDOW_2001, "--measure", "h_2008", "--baseline", "s"], (ranking, "render_table")),
}


@pytest.mark.parametrize("command", list(LAST_COMPUTATION))
def test_an_error_in_the_last_computation_leaves_no_out_directory(synth_dir, tmp_path, monkeypatch,
                                                                 capsys, command):
    flags, target = LAST_COMPUTATION[command]
    if target is not None:
        def refuse(*args):
            raise ValueError("refused")

        monkeypatch.setattr(*target, refuse)
    paths = synth_paths(synth_dir)
    corpus = ["--profiles", str(paths["profiles"])] if command == "score" else corpus_args(paths)
    out = tmp_path / "out"
    code, stdout, err = run([command, *corpus, *flags, "--out", str(out)], capsys)
    message = "no profiles for discipline 'nonexistent'" if target is None else "refused"
    assert (code, stdout, err) == (1, "", f"refh: {message}\n")
    assert not out.exists()


class TestLogging:
    def test_refh_log_env_controls_verbosity(self, synth_dir, monkeypatch, capsys):
        monkeypatch.setenv("REFH_LOG", "debug")
        code, out, _ = run(["ingest", *corpus_args(synth_paths(synth_dir))], capsys)
        assert code == 0
        assert "corpus OK" in out

    @pytest.mark.parametrize("level", [None, "info"])
    def test_diagnostics_on_stderr_only_when_asked(self, synth_dir, tmp_path, level):
        args = [*corpus_args(synth_paths(synth_dir)), "--discipline", "synthetic",
                "--preset", "rae2008", "--out", "out"]
        hindex = run_fresh(["hindex", *args], tmp_path, level)
        # s_output is missing for a group without an output sub-profile
        blank_output(synth_paths(synth_dir)["profiles"])
        code, out, err = run_fresh(["correlate", *args, "--pairs", "s_output:h_2008"], tmp_path, level)
        if level is None:
            assert (hindex, (code, out, err)) == ((0, "", ""), (0, "", ""))
            return
        assert hindex == (0, "", "INFO refh: wrote out/hseries.csv (10 institutions, 7 years)\n")
        *dropped, wrote = err.splitlines()
        assert (code, out, wrote) == (
            0, "", "INFO refh: wrote correlations.csv, corr_series.csv, fig_points.csv under out"
        )
        assert [re.sub(r"dropped [1-9]\d*", "dropped N", line) for line in dropped] == [
            f"INFO refh.stats: pair (s_output, {y}): dropped N incomplete rows"
            # the table's pair, then the series: each year's h, then the nci
            for y in ("h_2008", *(f"h_{year}" for year in range(2008, 2015)), "i")
        ]

    @pytest.mark.parametrize("level", ["basic_format", "verbose", ""])
    def test_a_value_that_is_not_a_level_means_warning(self, synth_dir, tmp_path, level):
        code, out, err = run_fresh(["ingest", *corpus_args(synth_paths(synth_dir))], tmp_path, level)
        assert (code, out.startswith("corpus OK"), err) == (0, True, "")


def run_fresh(argv, cwd, level=None, timeout=120):
    """``python -m refh`` in a fresh interpreter, with ``REFH_LOG`` set only to ``level``."""
    env = {k: v for k, v in os.environ.items() if k != "REFH_LOG"}
    env["PYTHONPATH"] = str(ROOT / "src")
    if level is not None:
        env["REFH_LOG"] = level
    proc = subprocess.run([sys.executable, "-m", "refh", *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=timeout)
    return proc.returncode, proc.stdout, proc.stderr


def test_every_public_name_imports_in_a_fresh_interpreter(tmp_path):
    script = f"from refh import {', '.join(refh.__all__)}"
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert (proc.returncode, proc.stderr) == (0, "")


class TestGarbageCollector:
    def test_run_calls_main_with_the_collector_frozen_and_off(self, monkeypatch):
        states = []
        monkeypatch.setattr(cli, "main", lambda: states.append((gc.isenabled(), gc.get_freeze_count())) or 0)
        enabled, frozen = gc.isenabled(), gc.get_freeze_count()
        try:
            with pytest.raises(SystemExit) as exited:
                cli.run()
        finally:
            if not frozen:
                gc.unfreeze()
            (gc.enable if enabled else gc.disable)()
        assert exited.value.code == 0
        assert len(states) == 1 and states[0][0] is False and states[0][1] > frozen

    @pytest.mark.parametrize("enabled", [True, False])
    def test_main_leaves_the_collector_as_it_found_it(self, synth_dir, tmp_path, enabled):
        paths = synth_paths(synth_dir)
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            for argv in (
                ["score", "--profiles", str(paths["profiles"]), "--out", str(tmp_path)],
                ["rank", *corpus_args(paths), "--discipline", "synthetic", "--measure", "strength",
                 "--baseline", "i", "--format", "markdown", "--out", str(tmp_path)],
                ["score", "--profiles", str(paths["publications"]), "--out", str(tmp_path)],
            ):
                main(argv)
                assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()


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
