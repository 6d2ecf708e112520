"""Metamorphic ingest properties and the CLI's import footprint.

Rewriting a corpus file without changing its meaning (reordering rows,
splitting a citation count, padding cells) must give an equal corpus and
byte-identical command outputs; renaming an institution must only rename
it in the outputs; one more citation row must never lower an h; cutting a
file short must give exit 0 or a ``file:line`` error, never a traceback.
A malformed corpus gives one exact violation list, in order, from CSV and
JSON alike; the loader checks file input itself, and library-built records
keep their own checks.
"""

import csv
import gc
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from refh.cli import main
from refh.corpus import (
    CITATIONS_HEADER,
    PUBLICATIONS_HEADER,
    CorpusValidationError,
    PublicationRecord,
    PublicationWindow,
    filter_documents,
    ingest_corpus,
    load_publications,
    write_corpus,
)
from refh.metrics import matching_publications
from refh.synth import Lognormal, SynthConfig, generate

from conftest import record, write_files

ROOT = Path(__file__).resolve().parent.parent
FILES = ("publications.csv", "citations.csv", "profiles.csv", "discipline_map.csv")
COMMANDS = {
    "hindex": ["--discipline", "synthetic", "--preset", "rae2008"],
    "correlate": ["--discipline", "synthetic", "--preset", "rae2008",
                  "--pairs", "s:h_2008,s_prime:h_2010,s:i"],
    "rank": ["--discipline", "synthetic", "--window", "2001:2007",
             "--measure", "h_2014", "--baseline", "h_2008"],
}


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    out = tmp_path_factory.mktemp("base")
    assert main(["synth", "--seed", "11", "--institutions", "12", "--papers", "8:16",
                 "--out", str(out)]) == 0
    return out


def corpus_args(d):
    return ["--pubs", str(d / FILES[0]), "--cites", str(d / FILES[1]),
            "--profiles", str(d / FILES[2]), "--map", str(d / FILES[3])]


def load(d):
    return ingest_corpus(*(d / name for name in FILES))


def read_rows(path):
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def write_rows(path, rows):
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    path.write_text(buf.getvalue(), encoding="utf-8")


def copy_corpus(src, dst):
    dst.mkdir()
    for name in FILES:
        (dst / name).write_bytes((src / name).read_bytes())
    return dst


def outputs(d, out):
    """Every output file of hindex, correlate and rank, by relative path."""
    for command, flags in COMMANDS.items():
        assert main([command, *corpus_args(d), *flags, "--out", str(out / command)]) == 0
    return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


def assert_same_meaning(base, variant, tmp_path):
    assert load(variant) == load(base)
    expected = outputs(base, tmp_path / "out-base")
    assert expected
    assert outputs(variant, tmp_path / "out-variant") == expected


def test_shuffled_publication_and_citation_rows(base, tmp_path):
    rng = np.random.default_rng(101)
    variant = copy_corpus(base, tmp_path / "shuffled")
    for name in FILES[:2]:
        header, *body = read_rows(variant / name)
        write_rows(variant / name, [header] + [body[i] for i in rng.permutation(len(body))])
    assert (variant / FILES[1]).read_bytes() != (base / FILES[1]).read_bytes()
    assert_same_meaning(base, variant, tmp_path)


def test_split_citation_rows(base, tmp_path):
    rng = np.random.default_rng(102)
    variant = copy_corpus(base, tmp_path / "split")
    header, *body = read_rows(variant / FILES[1])
    splittable = [i for i, (_, _, count) in enumerate(body) if int(count) >= 2]
    chosen = set(rng.choice(splittable, size=min(25, len(splittable)), replace=False).tolist())
    rows = [header]
    for i, (pub_id, year, count) in enumerate(body):
        if i in chosen:
            first = int(rng.integers(1, int(count)))
            rows += [[pub_id, year, str(first)], [pub_id, year, str(int(count) - first)]]
        else:
            rows.append([pub_id, year, count])
    write_rows(variant / FILES[1], rows)
    assert len(rows) == len(body) + 1 + len(chosen)
    assert_same_meaning(base, variant, tmp_path)


def test_padded_cells(base, tmp_path):
    rng = np.random.default_rng(103)
    variant = copy_corpus(base, tmp_path / "padded")
    for name in FILES:
        rows = read_rows(variant / name)
        write_rows(variant / name, [
            [" " * int(rng.integers(1, 4)) + cell + " " * int(rng.integers(1, 4)) for cell in row]
            for row in rows
        ])
    assert_same_meaning(base, variant, tmp_path)


def test_renamed_institution_is_only_renamed_in_outputs(base, tmp_path):
    old, new = "HEI003", "Zeta University"  # sorts last, so it moves within any tie
    variant = copy_corpus(base, tmp_path / "renamed")
    header, *body = read_rows(variant / FILES[0])
    write_rows(variant / FILES[0], [header] + [
        [*row[:3], ";".join(new if a == old else a for a in row[3].split(";")), row[4]]
        for row in body
    ])
    header, *body = read_rows(variant / FILES[2])
    write_rows(variant / FILES[2], [header] + [[new if r[0] == old else r[0], *r[1:]] for r in body])

    def all_outputs(d, out):
        assert main(["score", "--profiles", str(d / FILES[2]), "--out", str(out / "score")]) == 0
        return outputs(d, out)

    expected, got = all_outputs(base, tmp_path / "out-base"), all_outputs(variant, tmp_path / "out-variant")
    assert got.keys() == expected.keys()
    renamed = 0
    for name, data in expected.items():
        header, *rows = csv.reader(io.StringIO(data.decode()))
        if "institution" in header:
            col = header.index("institution")
            renamed += sum(row[col] == old for row in rows)
            rows = [[new if i == col and cell == old else cell for i, cell in enumerate(row)] for row in rows]
        # as multisets of rows: a rename may reorder rows within a tie
        assert sorted(csv.reader(io.StringIO(got[name].decode()))) == sorted([header, *rows]), name
    assert renamed >= 5


def h_by_group(d, out):
    assert main(["hindex", *corpus_args(d), *COMMANDS["hindex"], "--out", str(out)]) == 0
    rows = csv.DictReader(io.StringIO((out / "hseries.csv").read_text(encoding="utf-8")))
    return {(r["institution"], r["measurement_year"]): int(r["h"]) for r in rows}


@pytest.mark.parametrize("seed", range(4))
def test_added_citation_row_never_lowers_h(base, tmp_path, seed):
    rng = np.random.default_rng(200 + seed)
    variant = copy_corpus(base, tmp_path / "cited")
    header, *citations = read_rows(variant / FILES[1])
    total = {}
    for pub_id, _, count in citations:
        total[pub_id] = total.get(pub_id, 0) + int(count)
    # the less-cited half of hindex's country (GB), so the new row can reach an h-core
    pubs = sorted((r for r in read_rows(variant / FILES[0])[1:] if r[2] == "GB"),
                  key=lambda r: (total.get(r[0], 0), r[0]))
    pub_id, pub_year, _, affiliations, _ = pubs[int(rng.integers(len(pubs) // 2))]
    row = [pub_id, pub_year, str(int(rng.integers(1, 40)))]
    write_rows(variant / FILES[1], [header, *citations, row])
    before = h_by_group(base, tmp_path / "before")
    after = h_by_group(variant, tmp_path / "after")
    assert after.keys() == before.keys()
    assert after != before
    for (institution, year), h in before.items():
        if institution in affiliations.split(";"):
            assert after[institution, year] >= h, (row, institution, year)
        else:
            assert after[institution, year] == h, (row, institution, year)


LOCATED = re.compile(r"^(refh: )?(publications|citations|profiles|discipline_map)\.csv:\d+: ")


@pytest.mark.parametrize("name", FILES[:2])
def test_truncated_file_gives_located_error_or_success(base, tmp_path, name, capsys):
    rng = np.random.default_rng(104 + FILES.index(name))
    size = (base / name).stat().st_size
    codes = set()
    for k, offset in enumerate(sorted(rng.integers(1, size, size=12).tolist())):
        variant = copy_corpus(base, tmp_path / f"cut{k}")
        (variant / name).write_bytes((base / name).read_bytes()[:offset])
        code = main(["ingest", *corpus_args(variant)])
        err = capsys.readouterr().err
        assert code in (0, 1), (offset, code)
        codes.add(code)
        if code == 1:
            lines = err.splitlines()
            assert lines and all(LOCATED.match(line) for line in lines), (offset, err)
        assert "Traceback" not in err
    assert 1 in codes


FOOTPRINT = """
import json
import sys
from refh.cli import main
corpus = sys.argv[1]
args = ["--pubs", corpus + "/publications.csv", "--cites", corpus + "/citations.csv",
        "--profiles", corpus + "/profiles.csv", "--map", corpus + "/discipline_map.csv"]
runs = [
    ["synth", "--seed", "5", "--institutions", "6", "--out", sys.argv[2]],
    ["ingest", *args],
    ["hindex", *args, "--discipline", "synthetic", "--preset", "rae2008", "--out", sys.argv[2]],
    ["score", "--profiles", corpus + "/profiles.csv", "--out", sys.argv[2]],
    ["rank", *args, "--discipline", "synthetic", "--measure", "strength", "--baseline", "i",
     "--format", "markdown", "--out", sys.argv[2]],
    ["correlate", *args, "--discipline", "synthetic", "--preset", "rae2008",
     "--pairs", "s:h_2008", "--out", sys.argv[2]],
]
seen = []


def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))


for argv in runs:
    code = main(argv)
    seen.append([argv[0], code, scipy_modules()])
import scipy.special
seen.append(["import scipy.special", 0, scipy_modules()])
print(json.dumps(seen))
"""


def test_no_command_imports_scipy(base, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", FOOTPRINT, str(base), str(tmp_path / "out")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    *commands, control = json.loads(proc.stdout.splitlines()[-1])
    assert commands == [
        [command, 0, []] for command in ("synth", "ingest", "hindex", "score", "rank", "correlate")
    ]
    # the check can see scipy: the same interpreter imports it afterwards
    assert control[:2] == ["import scipy.special", 0] and "scipy.special" in control[2]


ONE_COMMAND = """
import json
import sys
from refh.cli import main
code = main(sys.argv[1:])
print(json.dumps([code, "numpy" in sys.modules]))
"""


@pytest.mark.parametrize("command, loads_numpy", [
    ("ingest", False), ("hindex", False), ("score", False), ("rank", False),
    ("correlate", False), ("synth", True),
])
def test_only_synth_and_correlate_import_numpy(base, tmp_path, command, loads_numpy):
    # one fresh interpreter per command: a command run earlier in the same
    # process would leave numpy in sys.modules for the ones after it
    argv = {
        "ingest": ["ingest", *corpus_args(base)],
        "score": ["score", "--profiles", str(base / FILES[2])],
        "synth": ["synth", "--seed", "5", "--institutions", "6"],
    }.get(command) or [command, *corpus_args(base), *COMMANDS[command]]
    if command != "ingest":
        argv += ["--out", str(tmp_path / "out")]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", ONE_COMMAND, *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [0, loads_numpy]


# ---------------------------------------------------------------------------
# Malformed corpora: the exact violation list, in order, for CSV and JSON
# ---------------------------------------------------------------------------


def pub(pub_id, year="2003", affiliations="Alpha", categories="Chemistry", country="GB"):
    return [pub_id, year, country, affiliations, categories]


def write_table(path, header, rows):
    """CSV cells as given; JSON objects with digit strings as JSON integers,
    other values as given, and a row that is not a list written as is."""
    if path.suffix == ".csv":
        write_rows(path, [header, *rows])
        return
    native = lambda v: int(v) if isinstance(v, str) and re.fullmatch(r"-?\d+", v) else v
    path.write_text(json.dumps([
        dict(zip(header, map(native, row))) if isinstance(row, list) else row for row in rows
    ]), encoding="utf-8")


BOTH, CSV_ONLY, JSON_ONLY = ("csv", "json"), ("csv",), ("json",)

# (formats, publication rows, citation rows, expected violations as
# (file, data row, message), expected citations_by_year of the loaded records)
MALFORMED = {
    "unknown_pub_id_with_bad_year": (
        BOTH, [pub("P1")], [["P9", "20x3", "1"], ["P1", "2004", "2"]],
        [("citations", 1, "unknown pub_id 'P9'")],
        {"P1": {2004: 2}},
    ),
    "negative_count_and_early_citing_year": (
        BOTH, [pub("P1")], [["P1", "2004", "-2"], ["P1", "2001", "3"], ["P1", "2005", "1"]],
        [("citations", 1, "P1: negative citation count -2"),
         ("citations", 2, "P1: citing year 2001 precedes publication year 2003")],
        {"P1": {2005: 1}},
    ),
    "zero_count_dropped": (
        BOTH, [pub("P1")], [["P1", "2004", "0"], ["P1", "2005", "2"], ["P1", "2005", "0"]],
        [],
        {"P1": {2005: 2}},
    ),
    "blank_affiliations_or_categories": (
        BOTH,
        [pub("P1", affiliations=" ; "), pub("P2", categories=";"),
         pub("P3", affiliations=" ", categories=" "), pub("P4", year="20x3"), pub("P5")],
        [["P1", "2002", "1"], ["P2", "2004", "1"], ["P5", "2004", "1"]],
        [("publications", 4, "field 'pub_year': not an integer: '20x3'"),
         ("citations", 1, "P1: citing year 2002 precedes publication year 2003"),
         ("publications", 1, "P1: affiliations must be non-empty"),
         ("publications", 2, "P2: categories must be non-empty"),
         ("publications", 3, "P3: affiliations must be non-empty")],
        {"P5": {2004: 1}},
    ),
    "duplicate_pub_id_and_missing_values": (
        BOTH, [pub("P1"), pub("P1", year="2004"), pub(""), pub("P2", year="")],
        [["P1", "", "1"], ["P1", "x", "y"], ["", "2004", "1"], ["P1", "2004", "1"]],
        [("publications", 2, "duplicate pub_id 'P1'"),
         ("publications", 3, "field 'pub_id': missing value"),
         ("publications", 4, "field 'pub_year': missing value"),
         ("citations", 1, "field 'citing_year': missing value"),
         ("citations", 2, "field 'citing_year': not an integer: 'x'"),
         ("citations", 2, "field 'count': not an integer: 'y'"),
         ("citations", 3, "unknown pub_id ''")],
        {"P1": {2004: 1}},
    ),
    "record_spanning_lines": (
        CSV_ONLY, [pub("P1"), pub("P2", year="20x3"), pub("P3", affiliations="Alpha\nBeta")],
        [["P3", "2004", "1"], ["P1", "2004", "1"]],
        [("publications", 3, "record spans lines 4-5; a cell contains a line break"),
         ("publications", 2, "field 'pub_year': not an integer: '20x3'"),
         ("citations", 1, "unknown pub_id 'P3'")],
        {"P1": {2004: 1}},
    ),
    "json_numbers_that_are_not_integers": (
        JSON_ONLY, [pub("P1"), pub("P2", year=2003.0)],
        [["P1", 2005.0, "1"], ["P1", True, "1"], ["P1", " 20x3 ", "1"], [" P1 ", " 2004 ", "1"],
         ["P1", "2004", 2.5], "not an object"],
        [("publications", 2, "field 'pub_year': not an integer: 2003.0"),
         ("citations", 6, "expected an object"),
         ("citations", 1, "field 'citing_year': not an integer: 2005.0"),
         ("citations", 2, "field 'citing_year': not an integer: True"),
         ("citations", 3, "field 'citing_year': not an integer: ' 20x3 '"),
         ("citations", 5, "field 'count': not an integer: 2.5")],
        {"P1": {2004: 1}},
    ),
    "padded_cells_accepted": (
        BOTH, [pub(" P1 ", year=" 2003 ", country=" GB ", affiliations=" Alpha ; Beta ")],
        [[" P1 ", " 2004 ", " 2 "], ["P1", "2004 ", "1 "]],
        [],
        {"P1": {2004: 3}},
    ),
    "signed_and_underscored_numbers_accepted": (
        BOTH, [pub("P1", year="+2003")], [["P1", "2004", "+5"], ["P1", "+2005", "1_0"]],
        [],
        {"P1": {2004: 5, 2005: 10}},
    ),
    "zero_count_with_early_citing_year": (
        BOTH, [pub("P1")], [["P1", "2001", "0"], ["P1", "2004", "0"]],
        [("citations", 1, "P1: citing year 2001 precedes publication year 2003")],
        {"P1": {}},
    ),
    "blank_rows_and_an_extra_field": (
        CSV_ONLY, [pub("P1"), [" ", "", " ", "", " "], pub("P2")],
        [["P1", "2004", "1", ""], ["", "", ""], [" ", " "], ["P2", "2005", "2"]],
        [("citations", 1, "expected 3 fields, got 4")],
        {"P1": {}, "P2": {2005: 2}},
    ),
    "json_values_that_are_not_strings": (
        JSON_ONLY,
        [pub(["P1"]), pub("P2", country=44), pub("P3", affiliations={"Alpha": 1}),
         pub("P4", categories=[["Chemistry"]]), pub("P5", affiliations=["Alpha", " Beta "], country=None)],
        [["P5", "2004", "1"], [["P5"], "2005", "1"], ["P2", "2004", "1"], [None, "2004", "1"]],
        [("publications", 1, "field 'pub_id': not a string: ['P1']"),
         ("publications", 2, "field 'country': not a string: 44"),
         ("publications", 3, "field 'affiliations': not a string: {'Alpha': 1}"),
         ("publications", 4, "field 'categories': not a string: ['Chemistry']"),
         ("citations", 2, "field 'pub_id': not a string: ['P5']"),
         ("citations", 3, "unknown pub_id 'P2'"),
         ("citations", 4, "unknown pub_id ''")],
        {"P5": {2004: 1}},
    ),
}


@pytest.mark.parametrize("fmt, case", [
    (fmt, name) for name, (formats, *_) in MALFORMED.items() for fmt in formats
])
def test_malformed_corpus_violations_in_order(tmp_path, fmt, case):
    _, pubs, cites, expected, citations = MALFORMED[case]
    paths = tmp_path / f"publications.{fmt}", tmp_path / f"citations.{fmt}"
    write_table(paths[0], PUBLICATIONS_HEADER, pubs)
    write_table(paths[1], CITATIONS_HEADER, cites)
    records, violations = load_publications(*paths)
    # a CSV data row sits below the header; JSON objects are numbered from 1
    line = (lambda row: row + 1) if fmt == "csv" else (lambda row: row)
    assert violations == [f"{name}.{fmt}:{line(row)}: {message}" for name, row, message in expected]
    # equal dicts: a zero count leaves no year key behind
    assert {r.pub_id: r.citations_by_year for r in records} == citations


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_citation_years_ascend_whatever_the_row_order(tmp_path, fmt):
    paths = tmp_path / f"publications.{fmt}", tmp_path / f"citations.{fmt}"
    write_table(paths[0], PUBLICATIONS_HEADER, [pub("P1"), pub("P2")])
    # P1's rows descend, with (P1, 2007) twice; P2's single row sits between them
    write_table(paths[1], CITATIONS_HEADER, [
        ["P1", "2007", "1"], ["P2", "2004", "2"], ["P1", "2007", "3"], ["P1", "2005", "2"],
        ["P1", "2004", "1"],
    ])
    (p1, p2), violations = load_publications(*paths)
    assert violations == []
    built = record("P1", citations={2007: 4, 2005: 2, 2004: 1})
    assert list(p1.citations_by_year.items()) == [(2004, 1), (2005, 2), (2007, 4)]
    assert list(p1.citations_by_year.items()) == list(built.citations_by_year.items())
    assert p1 == built and list(p2.citations_by_year.items()) == [(2004, 2)]


@pytest.mark.parametrize("enabled", [True, False])
def test_load_leaves_the_garbage_collector_as_it_was(tmp_path, enabled):
    (tmp_path / "bad").mkdir()
    clean, bad = (
        write_files(d, publications="P1,2003,GB,Alpha,Chemistry", citations=citations,
                    profiles="Alpha,chemistry,25,25,25,25,0,,,,,,10,", dmap="chemistry,Chemistry")
        for d, citations in ((tmp_path, "P1,2004,3"), (tmp_path / "bad", "P1,2001,3"))
    )
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert load_publications(clean["publications"], clean["citations"])[1] == []
        assert gc.isenabled() is enabled
        assert load_publications(bad["publications"], bad["citations"])[1] != []
        assert gc.isenabled() is enabled
        with pytest.raises(FileNotFoundError):
            load_publications(tmp_path / "missing.csv", clean["citations"])
        assert gc.isenabled() is enabled
        ingest_corpus(*clean.values())
        assert gc.isenabled() is enabled
        with pytest.raises(CorpusValidationError):
            ingest_corpus(*bad.values())
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


# ---------------------------------------------------------------------------
# Two validation paths: the loader checks file input, __post_init__ the rest
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kwargs, message", [
    ({"citations": {2004: -1}}, "P1: negative citation count -1 in year 2004"),
    ({"citations": {2002: 1}}, "P1: citing year 2002 precedes publication year 2003"),
    ({"affiliations": (" ", "")}, "P1: affiliations must be non-empty"),
])
def test_library_built_record_is_still_checked(kwargs, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        record("P1", **kwargs)


def test_loader_never_runs_record_checks(tmp_path, monkeypatch):
    def refuse(self):
        raise AssertionError("PublicationRecord.__post_init__ ran on the load path")

    monkeypatch.setattr(PublicationRecord, "__post_init__", refuse)
    paths = tmp_path / "publications.csv", tmp_path / "citations.csv"
    write_table(paths[0], PUBLICATIONS_HEADER, [pub("P1"), pub("P2", affiliations=";")])
    write_table(paths[1], CITATIONS_HEADER, [["P1", "2004", "3"], ["P1", "2002", "1"]])
    records, violations = load_publications(*paths)
    assert [r.pub_id for r in records] == ["P1"]
    assert violations == ["citations.csv:3: P1: citing year 2002 precedes publication year 2003",
                          "publications.csv:3: P2: affiliations must be non-empty"]


def test_equal_list_cells_share_one_frozenset(tmp_path):
    paths = tmp_path / "publications.csv", tmp_path / "citations.csv"
    write_table(paths[0], PUBLICATIONS_HEADER, [
        pub("P1", affiliations="Alpha;Beta"), pub("P2", affiliations="Alpha;Beta"),
        pub("P3", affiliations="Gamma"),
    ])
    write_table(paths[1], CITATIONS_HEADER, [])
    (p1, p2, p3), violations = load_publications(*paths)
    assert violations == []
    assert p1.affiliations is p2.affiliations
    assert p1.categories is p2.categories is p3.categories
    assert p3.affiliations == frozenset({"Gamma"})


@pytest.mark.parametrize("country", ["GB", " gb ", "US"])
def test_matching_publications_is_the_union_of_filtered_groups(tmp_path, country):
    cfg = SynthConfig(seed=4, n_institutions=6, papers_per_institution=(5, 15),
                      window=PublicationWindow(2001, 2007), citation_model=Lognormal(1.8, 0.6),
                      accrual=0.35, quality_link=0.7)
    generated = generate(cfg)
    paths = write_corpus(generated, tmp_path)
    loaded = ingest_corpus(paths["publications"], paths["citations"],
                           paths["profiles"], paths["discipline_map"])
    window = PublicationWindow(2002, 2006)
    for corpus in (generated, loaded):
        expected = sorted({r.pub_id for inst in corpus.institutions()
                           for r in filter_documents(corpus, country, window, "synthetic", inst)})
        got = [r.pub_id for r in matching_publications(corpus, country, window, "Synthetic")]
        assert got == expected and got
