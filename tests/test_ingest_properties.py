"""Metamorphic ingest properties and the CLI's import footprint.

Rewriting a corpus file without changing its meaning (reordering rows,
splitting a citation count, padding cells) must give an equal corpus and
byte-identical command outputs; renaming an institution must only rename
it in the outputs; one more citation row must never lower an h; cutting a
file short must give exit 0 or a ``file:line`` error, never a traceback.
A malformed corpus or profile file gives one exact violation list, in
order, from CSV and JSON alike; the validator builds each record through
the record's own checks, which the clean pass alone does without.  Padded
or JSON profiles, which take the per-row validator, load equal to the clean
CSV, which takes the clean pass.  Publications and profiles load through a
clean pass or the validator: both give equal records and violations on
seeded corpora rewritten without changing their meaning, and the
benchmark's corpus shapes never need the validator.  The clean reader gives ``csv.reader``'s rows or
gives up, and holds a chunk of a file in memory, not the file.
"""

import csv
import gc
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from refh import corpus as corpus_module
from refh.cli import main
from refh.corpus import (
    CITATIONS_HEADER,
    DISCIPLINE_MAP_HEADER,
    PROFILES_HEADER,
    PUBLICATIONS_HEADER,
    CorpusValidationError,
    PublicationRecord,
    PublicationWindow,
    ingest_corpus,
    load_discipline_maps,
    load_profiles,
    load_publications,
    matching_publications,
    write_corpus,
)
from refh.synth import Lognormal, SynthConfig, generate

from conftest import record, write_files
from oracles import h_core_boundary, oracle_filter

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


def write_rows(path, rows, quoting=csv.QUOTE_MINIMAL):
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n", quoting=quoting).writerows(rows)
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
    header, *citations = read_rows(base / FILES[1])
    total = {}
    for pub_id, _, count in citations:
        total[pub_id] = total.get(pub_id, 0) + int(count)
    # the less-cited half of hindex's country (GB), so the new row can reach an h-core
    pubs = sorted((r for r in read_rows(base / FILES[0])[1:] if r[2] == "GB"),
                  key=lambda r: (total.get(r[0], 0), r[0]))
    pub_id, pub_year, _, affiliations, _ = pubs[int(rng.integers(len(pubs) // 2))]
    # and one citation to a record at an h-core boundary, which raises an h
    edge = h_core_boundary(load(base), "GB", PublicationWindow(2001, 2007), "synthetic",
                           range(2008, 2015))
    picks = [([pub_id, pub_year, str(int(rng.integers(1, 40)))], affiliations.split(";")),
             ([edge.pub_id, str(edge.pub_year), "1"], edge.affiliations)]
    before = h_by_group(base, tmp_path / "before")
    changed = False
    for k, (row, groups) in enumerate(picks):
        variant = copy_corpus(base, tmp_path / f"cited{k}")
        write_rows(variant / FILES[1], [header, *citations, row])
        after = h_by_group(variant, tmp_path / f"after{k}")
        assert after.keys() == before.keys()
        changed |= after != before
        for (institution, year), h in before.items():
            if institution in groups:
                assert after[institution, year] >= h, (row, institution, year)
            else:
                assert after[institution, year] == h, (row, institution, year)
    assert changed


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
    ("correlate", False), ("synth", False),
])
def test_only_synth_imports_numpy(base, tmp_path, command, loads_numpy):
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


# runs each argv of the JSON list in argv[1] where numpy cannot be imported, and
# prints their exit codes
NO_NUMPY = """
import json
import sys
sys.modules["numpy"] = None  # import numpy now raises ImportError
from refh.cli import main
print(json.dumps([main(argv) for argv in json.loads(sys.argv[1])]))
"""


def test_every_command_runs_without_numpy(tmp_path):
    corpus, out = tmp_path / "corpus", str(tmp_path / "out")
    argvs = [["synth", "--seed", "5", "--institutions", "6", "--out", str(corpus)],
             ["ingest", *corpus_args(corpus)],
             ["score", "--profiles", str(corpus / FILES[2]), "--out", out]]
    argvs += [[command, *corpus_args(corpus), *flags, "--out", out] for command, flags in COMMANDS.items()]
    assert [argv[0] for argv in argvs] == ["synth", "ingest", "score", "hindex", "correlate", "rank"]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", NO_NUMPY, json.dumps(argvs)],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [0] * 6


# prints, on its last line, the exit code, the lazily registered refh modules that ran
# and whichever of json, logging, dataclasses and inspect is loaded; a module that has
# run is a plain ModuleType again, and type() reads that without loading it
RAN = """
import sys
import types
from refh.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as exc:  # --help
    code = exc.code
print(code, *(m for m in ("refh.metrics", "refh.ranking", "refh.stats", "refh.synth")
              if type(sys.modules[m]) is types.ModuleType),
      *(m for m in ("json", "logging", "dataclasses", "inspect") if m in sys.modules))
"""


def ran(argv, cwd):
    env = {k: v for k, v in os.environ.items() if k != "REFH_LOG"}
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.run([sys.executable, "-c", RAN, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1].split()


@pytest.mark.parametrize("command, loaded", [
    ("ingest", []),
    ("hindex", ["refh.metrics"]),
    ("score", ["refh.metrics"]),
    ("correlate", ["refh.metrics", "refh.stats"]),
    ("rank", ["refh.metrics", "refh.ranking", "refh.stats"]),
    ("synth", ["refh.synth", "json"]),  # json writes manifest.json
    ("rank-markdown", ["refh.metrics", "refh.ranking", "refh.stats"]),
    # asdict writes the json table, the one command that imports dataclasses
    ("rank-json", ["refh.metrics", "refh.ranking", "refh.stats", "json", "dataclasses", "inspect"]),
])
def test_each_command_loads_only_its_modules(base, tmp_path, command, loaded):
    # one fresh interpreter per command, as for numpy above
    argv = {
        "ingest": ["ingest", *corpus_args(base)],
        "score": ["score", "--profiles", str(base / FILES[2])],
        "synth": ["synth", "--seed", "5", "--institutions", "6"],
        "rank-markdown": ["rank", *corpus_args(base), *COMMANDS["rank"], "--format", "markdown"],
        "rank-json": ["rank", *corpus_args(base), *COMMANDS["rank"], "--format", "json"],
    }.get(command) or [command, *corpus_args(base), *COMMANDS[command]]
    if command != "ingest":
        argv += ["--out", str(tmp_path / "out")]
    assert ran(argv, tmp_path) == ["0", *loaded]


@pytest.mark.parametrize("command", [None, "ingest", "hindex", "score", "correlate", "rank", "synth"])
def test_help_loads_no_lazy_module(tmp_path, command):
    assert ran([command, "--help"] if command else ["--help"], tmp_path) == ["0"]


# runs each argv of the JSON list in argv[1] and prints, per run, its exit code and the
# names of the corpus files it opened, as an audit hook sees each open
OPENS = """
import json
import os
import sys
from refh.cli import main
names, opened = set(json.loads(sys.argv[2])), set()


def hook(event, args):
    if event == "open" and isinstance(args[0], (str, bytes, os.PathLike)):
        opened.add(os.path.basename(os.fsdecode(args[0])))


sys.addaudithook(hook)
runs = []
for argv in json.loads(sys.argv[1]):
    opened.clear()
    runs.append([main(argv), sorted(opened & names)])
print(json.dumps(runs))
"""
WINDOW = ["--discipline", "synthetic", "--window", "2001:2007"]
# argv after the corpus flags (None: --profiles alone) -> the corpus files it opens
OPENED_FILES = [
    (["ingest"], sorted(FILES)),
    (["hindex", *COMMANDS["hindex"]], sorted(FILES)),
    (["correlate", *COMMANDS["correlate"]], sorted(FILES)),
    (["rank", *COMMANDS["rank"]], sorted(FILES)),
    (["rank", *WINDOW, "--measure", "h_hat_2008", "--baseline", "s"], sorted(FILES)),
    (["rank", *WINDOW, "--measure", "strength", "--baseline", "h_2008"], sorted(FILES)),
    (["score", None], ["profiles.csv"]),
    (["rank", *WINDOW, "--measure", "strength", "--baseline", "i", "--format", "markdown"],
     ["profiles.csv"]),
    (["rank", "--discipline", "synthetic", "--measure", "s_prime"], ["profiles.csv"]),
]


def test_each_command_opens_only_the_corpus_files_it_uses(base, tmp_path):
    argvs = []
    for k, ((command, *flags), _) in enumerate(OPENED_FILES):
        files = ["--profiles", str(base / FILES[2])] if flags == [None] else corpus_args(base)
        argvs.append([command, *files, *[f for f in flags if f is not None]])
        if command != "ingest":
            argvs[-1] += ["--out", str(tmp_path / f"out{k}")]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", OPENS, json.dumps(argvs), json.dumps(FILES)],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [[0, opened] for _, opened in OPENED_FILES]


@pytest.mark.parametrize("labels", [
    ["--measure", "strength", "--baseline", "i", "--format", "markdown"],
    ["--measure", "s", "--baseline", "s_prime", "--format", "json"],
    ["--measure", "s_output"],
])
def test_profile_only_rank_needs_no_publication_side(base, tmp_path, labels):
    flags = ["--discipline", "synthetic", *labels]
    assert main(["rank", *corpus_args(base), *flags, "--out", str(tmp_path / "real")]) == 0
    gone = tmp_path / "nonexistent"
    assert main(["rank", "--pubs", str(gone / FILES[0]), "--cites", str(gone / FILES[1]),
                 "--profiles", str(base / FILES[2]), "--map", str(gone / FILES[3]),
                 *flags, "--out", str(tmp_path / "gone")]) == 0
    real, without = ({p.name: p.read_bytes() for p in (tmp_path / d).iterdir()} for d in ("real", "gone"))
    assert real and without == real


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
    native = lambda v: int(v) if isinstance(v, str) and re.fullmatch(r"-?[0-9]+", v) else v
    path.write_text(json.dumps([
        dict(zip(header, map(native, row))) if isinstance(row, list) else row for row in rows
    ]), encoding="utf-8")


BOTH, CSV_ONLY, JSON_ONLY = ("csv", "json"), ("csv",), ("json",)
# a cell one character over csv's field size limit
OVER_LONG = "x" * (csv.field_size_limit() + 1)
OVER_LONG_MESSAGE = f"field larger than field limit ({csv.field_size_limit()})"

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
    "signed_numbers_accepted": (
        BOTH, [pub("P1", year="+2003")], [["P1", "2004", "+5"], ["P1", "+2005", "10"]],
        [],
        {"P1": {2004: 5, 2005: 10}},
    ),
    # int reads "_" between digits and other scripts' digits; a number cell is ASCII with no "_"
    "underscored_or_non_ascii_numbers": (
        BOTH, [pub("P1"), pub("P2", year="2_003"), pub("P3", year="\u0662\u0660\u0660\u0663"), pub("P4")],
        [["P1", "2004", "\uff12"], ["P1", "2_005", "1"], ["P4", "2005", "1_0"], ["P4", " 2006 ", "3"]],
        [("publications", 2, "field 'pub_year': not an integer: '2_003'"),
         ("publications", 3, "field 'pub_year': not an integer: '\u0662\u0660\u0660\u0663'"),
         ("citations", 1, "field 'count': not an integer: '\uff12'"),
         ("citations", 2, "field 'citing_year': not an integer: '2_005'"),
         ("citations", 3, "field 'count': not an integer: '1_0'")],
        {"P1": {}, "P4": {2006: 3}},
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
    "json_strings_holding_line_breaks_or_nul": (
        JSON_ONLY,
        [pub("P1", affiliations=["Alpha", "Be\rta"]), pub("P2\0"), pub("P3", country="G\nB"),
         pub("P4", categories=" Chemistry\n"), pub("P5", year="2003\n"), pub("P6")],
        [["P1", "2004", "1"], ["P6\r", "2004", "1"], ["P6", "2004\0", "1"], ["P6", "2005", "2"]],
        [("publications", 1, "field 'affiliations': line break or NUL in ['Alpha', 'Be\\rta']"),
         ("publications", 2, "field 'pub_id': line break or NUL in 'P2\\x00'"),
         ("publications", 3, "field 'country': line break or NUL in 'G\\nB'"),
         ("publications", 4, "field 'categories': line break or NUL in ' Chemistry\\n'"),
         ("publications", 5, "field 'pub_year': line break or NUL in '2003\\n'"),
         ("citations", 2, "field 'pub_id': line break or NUL in 'P6\\r'"),
         ("citations", 3, "field 'citing_year': line break or NUL in '2004\\x00'"),
         ("citations", 1, "unknown pub_id 'P1'")],
        {"P6": {2005: 2}},
    ),
    # csv reads a NUL as text: the clean pass gives up on the file, and the validator
    # refuses each cell in JSON's words
    "csv_cells_holding_nul": (
        CSV_ONLY,
        [pub("P1", affiliations="Al\0pha"), pub("P2\0"), pub("P3", year="2003\0"),
         pub("P4", country="G\0B", categories="Chemistry\0"), pub("P5")],
        [["P5", "2004\0", "1"], ["P5", "2005", "2\0"], ["P5", "2006", "3"], ["P1", "2004", "1"]],
        [("publications", 1, "field 'affiliations': line break or NUL in 'Al\\x00pha'"),
         ("publications", 2, "field 'pub_id': line break or NUL in 'P2\\x00'"),
         ("publications", 3, "field 'pub_year': line break or NUL in '2003\\x00'"),
         ("publications", 4, "field 'country': line break or NUL in 'G\\x00B'"),
         ("publications", 4, "field 'categories': line break or NUL in 'Chemistry\\x00'"),
         ("citations", 1, "field 'citing_year': line break or NUL in '2004\\x00'"),
         ("citations", 2, "field 'count': line break or NUL in '2\\x00'"),
         ("citations", 4, "unknown pub_id 'P1'")],
        {"P5": {2006: 3}},
    ),
    # a NUL in a text cell alone breaks no rule of the clean pass
    "csv_text_cell_holding_nul_alone": (
        CSV_ONLY, [pub("P1", affiliations="Al\0pha"), pub("P2")], [["P1", "2004", "1"], ["P2", "2004", "1"]],
        [("publications", 1, "field 'affiliations': line break or NUL in 'Al\\x00pha'"),
         ("citations", 1, "unknown pub_id 'P1'")],
        {"P2": {2004: 1}},
    ),
    "duplicate_pub_id_alone": (
        BOTH, [pub("P1"), pub("P2"), pub("P1", year="2004")], [["P1", "2004", "1"]],
        [("publications", 3, "duplicate pub_id 'P1'")],
        {"P1": {2004: 1}, "P2": {}},
    ),
    "empty_category_set_alone": (
        BOTH, [pub("P1"), pub("P2", categories=" ; ")], [["P1", "2004", "1"], ["P2", "2004", "1"]],
        [("publications", 2, "P2: categories must be non-empty")],
        {"P1": {2004: 1}},
    ),
    "record_spanning_lines_alone": (
        CSV_ONLY, [pub("P1"), pub("P2", affiliations="Alpha\nBeta")],
        [["P2", "2004", "1"], ["P1", "2004", "1"]],
        [("publications", 2, "record spans lines 3-4; a cell contains a line break"),
         ("citations", 1, "unknown pub_id 'P2'")],
        {"P1": {2004: 1}},
    ),
    "over_long_field_ends_the_read": (
        CSV_ONLY, [pub("P1"), pub("P2", affiliations=OVER_LONG), pub("P3")],
        [["P1", "2004", "1"], ["P3", "2004", "1"]],
        [("publications", 2, OVER_LONG_MESSAGE),
         ("citations", 2, "unknown pub_id 'P3'")],
        {"P1": {2004: 1}},
    ),
    "json_object_with_an_unknown_field": (
        JSON_ONLY, [pub("P1"), {**dict(zip(PUBLICATIONS_HEADER, pub("P2"))), "extra": "x"}],
        [["P1", "2004", "1"], ["P2", "2004", "1"]],
        [("publications", 2, "unknown field(s) ['extra']"),
         ("citations", 2, "unknown pub_id 'P2'")],
        {"P1": {2004: 1}},
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


def prof(institution="Alpha", discipline="chemistry", bands=("25", "25", "25", "25", "0"),
         outs=("",) * 5, staff_fte="10", nci=""):
    return [institution, discipline, *bands, *outs, staff_fte, nci]

# (formats, profile rows, expected violations as (data row, message),
# expected (institution, discipline) of the loaded profiles, in file order)
MALFORMED_PROFILES = {
    "blank_or_whitespace_names": (
        BOTH,
        [prof(""), prof("  "), prof("Beta", discipline=""), prof("Gamma", discipline=" \t"), prof("Delta")],
        [(1, "institution and discipline are required"),
         (2, "institution and discipline are required"),
         (3, "institution and discipline are required"),
         (4, "institution and discipline are required")],
        [("Delta", "chemistry")],
    ),
    "blank_or_whitespace_required_numbers": (
        BOTH,
        [prof(bands=("", "25", "25", "25", "0")), prof("Beta", bands=("25", "25", "25", "25", " ")),
         prof("Gamma", staff_fte=" "), prof("Delta", staff_fte="")],
        [(1, "field 'p4': missing value"),
         (2, "field 'pu': missing value"),
         (3, "field 'staff_fte': missing value"),
         (4, "field 'staff_fte': missing value")],
        [],
    ),
    "non_finite_and_malformed_numbers": (
        BOTH,
        [prof(bands=("nan", "25", "25", "25", "0")), prof("Beta", staff_fte="inf"),
         prof("Gamma", nci="1e400"), prof("Delta", outs=("-inf", "30", "25", "25", "0")),
         prof("Eps", bands=("25", "25", "x", "25", "0"), nci="NaN"), prof("Zeta", staff_fte="10,5")],
        [(1, "field 'p4': not a finite number: 'nan'"),
         (2, "field 'staff_fte': not a finite number: 'inf'"),
         (3, "field 'nci': not a finite number: '1e400'"),
         (4, "field 'p4_out': not a finite number: '-inf'"),
         (5, "field 'p2': not a number: 'x'"),
         (5, "field 'nci': not a finite number: 'NaN'"),
         (6, "field 'staff_fte': not a number: '10,5'")],
        # a row stops at its flagged cells, optional ones too: no second
        # message, and no profile built without them
        [],
    ),
    "partial_output_sub_profile": (
        BOTH,
        [prof(outs=("20", "30", "25", "25", "")), prof("Beta", outs=("", "", "", "", "100"))],
        [(1, "profile sum/shape error: Alpha/chemistry: output sub-profile must be complete or absent"),
         (2, "profile sum/shape error: Beta/chemistry: output sub-profile must be complete or absent")],
        [],
    ),
    "bands_outside_0_100": (
        BOTH,
        [prof(bands=("125", "-25", "0", "0", "0")), prof("Beta", bands=("25", "25", "75", "-25", "0")),
         prof("Gamma", outs=("100.5", "0", "0", "0", "-0.5"))],
        [(1, "profile sum/shape error: Alpha/chemistry: profile percentage 125.0 outside [0, 100]"),
         (2, "profile sum/shape error: Beta/chemistry: profile percentage -25.0 outside [0, 100]"),
         (3, "profile sum/shape error: Gamma/chemistry: "
             "output sub-profile percentage 100.5 outside [0, 100]")],
        [],
    ),
    "sums_other_than_100": (
        BOTH,
        [prof(bands=("25", "25", "25", "24", "0")), prof("Beta", outs=("20", "30", "25", "25", "1")),
         prof("Gamma", bands=("10.1", "20.2", "30.3", "39.4", "0.000001"))],
        [(1, "profile sum/shape error: Alpha/chemistry: profile sum 99.0 != 100"),
         (2, "profile sum/shape error: Beta/chemistry: output sub-profile sum 101.0 != 100"),
         (3, "profile sum/shape error: Gamma/chemistry: profile sum 100.000001 != 100")],
        [],
    ),
    "staff_fte_and_nci_out_of_range": (
        BOTH,
        [prof(staff_fte="0"), prof("Beta", staff_fte="-3"), prof("Gamma", nci="-1"),
         prof("Delta", nci="0", staff_fte="0.5")],
        [(1, "profile sum/shape error: Alpha/chemistry: staff_fte must be positive, got 0.0"),
         (2, "profile sum/shape error: Beta/chemistry: staff_fte must be positive, got -3.0"),
         (3, "profile sum/shape error: Gamma/chemistry: nci must be non-negative, got -1.0")],
        [("Delta", "chemistry")],
    ),
    "staff_fte_above_its_bound": (
        BOTH,
        [prof(staff_fte="1e307"), prof("Beta", staff_fte="1e300")],
        [(1, "profile sum/shape error: Alpha/chemistry: staff_fte must be at most 1e+300, got 1e+307")],
        [("Beta", "chemistry")],
    ),
    "json_strings_holding_line_breaks_or_nul": (
        JSON_ONLY,
        [prof("Al\npha"), prof("Beta", discipline="chemistry\r"), prof("Gamma", nci="0.5\0"), prof("Delta")],
        [(1, "field 'institution': line break or NUL in 'Al\\npha'"),
         (2, "field 'discipline': line break or NUL in 'chemistry\\r'"),
         (3, "field 'nci': line break or NUL in '0.5\\x00'")],
        [("Delta", "chemistry")],
    ),
    "csv_cells_holding_nul": (
        CSV_ONLY,
        [prof("HEI\x00001"), prof("Beta", discipline="chem\0istry"), prof("Gamma", nci="0.5\0"),
         prof("Delta", bands=("25", "25\0", "25", "25", "0")), prof("Eps")],
        [(1, "field 'institution': line break or NUL in 'HEI\\x00001'"),
         (2, "field 'discipline': line break or NUL in 'chem\\x00istry'"),
         (3, "field 'nci': line break or NUL in '0.5\\x00'"),
         (4, "field 'p3': line break or NUL in '25\\x00'")],
        [("Eps", "chemistry")],
    ),
    "csv_text_cell_holding_nul_alone": (
        CSV_ONLY, [prof("HEI\x00001"), prof("Beta")],
        [(1, "field 'institution': line break or NUL in 'HEI\\x00001'")],
        [("Beta", "chemistry")],
    ),
    "duplicates_that_differ_in_discipline_case": (
        BOTH,
        [prof(), prof(discipline="Chemistry"), prof(" Alpha ", discipline=" CHEMISTRY "),
         prof("Beta", discipline="Chemistry", staff_fte="0"), prof("Beta", discipline="chemistry"),
         prof("Beta", discipline="CHEMISTRY"), prof("Alpha", discipline="physics"),
         prof(" Beta"), prof("Alpha ", discipline="Physics")],
        [(2, "duplicate profile for Alpha/Chemistry"),
         (3, "duplicate profile for Alpha/CHEMISTRY"),
         (4, "profile sum/shape error: Beta/Chemistry: staff_fte must be positive, got 0.0"),
         (6, "duplicate profile for Beta/CHEMISTRY"),
         (8, "duplicate profile for Beta/chemistry"),
         (9, "duplicate profile for Alpha/Physics")],
        [("Alpha", "chemistry"), ("Beta", "chemistry"), ("Alpha", "physics")],
    ),
    "padded_signed_and_blank_optional_cells_accepted": (
        BOTH,
        [prof(" Alpha ", " chemistry ", bands=(" 25 ", "+25", "25", "25.0 ", "0"),
              outs=(" ", "", "  ", "", ""), staff_fte=" 1e1 ", nci="  "),
         prof("Beta", outs=("20", "30", "25", "25", "0"), nci=" 0.5 ")],
        [],
        [("Alpha", "chemistry"), ("Beta", "chemistry")],
    ),
    # float reads "_" between digits and other scripts' digits; a number cell is ASCII with no "_"
    "underscored_or_non_ascii_numbers": (
        BOTH,
        [prof(staff_fte="1_2.0"), prof("Beta", bands=("\uff12\uff15", "25", "25", "25", "0")),
         prof("Gamma", nci="0.5_1"), prof("Delta", outs=("25", "25", "25", "25", "\u0660")),
         prof("Eps_\u00e9", nci="0.5")],
        [(1, "field 'staff_fte': not a number: '1_2.0'"),
         (2, "field 'p4': not a number: '\uff12\uff15'"),
         (3, "field 'nci': not a number: '0.5_1'"),
         (4, "field 'pu_out': not a number: '\u0660'")],
        [("Eps_\u00e9", "chemistry")],
    ),
    "json_values_that_are_not_strings": (
        JSON_ONLY,
        [prof(5), prof("Beta", discipline=["chemistry"]), prof("Gamma", nci=None),
         prof("Delta", staff_fte=True), prof("Eps", bands=(25, 25.0, "25", 25, 0))],
        [(1, "field 'institution': not a string: 5"),
         (2, "field 'discipline': not a string: ['chemistry']"),
         (4, "field 'staff_fte': not a number: True")],
        [("Gamma", "chemistry"), ("Eps", "chemistry")],
    ),
    "over_long_field_ends_the_read": (
        CSV_ONLY, [prof(), prof("Beta", nci=OVER_LONG), prof("Gamma")],
        [(2, OVER_LONG_MESSAGE)],
        [("Alpha", "chemistry")],
    ),
}


@pytest.mark.parametrize("fmt, case", [
    (fmt, name) for name, (formats, *_) in MALFORMED_PROFILES.items() for fmt in formats
])
def test_malformed_profiles_violations_in_order(tmp_path, fmt, case):
    _, rows, expected, loaded = MALFORMED_PROFILES[case]
    path = tmp_path / f"profiles.{fmt}"
    write_table(path, PROFILES_HEADER, rows)
    profiles, violations = load_profiles(path)
    line = (lambda row: row + 1) if fmt == "csv" else (lambda row: row)
    assert violations == [f"profiles.{fmt}:{line(row)}: {message}" for row, message in expected]
    assert [(p.institution, p.discipline) for p in profiles] == loaded


@pytest.mark.parametrize("name, text, message", [
    ("profiles.csv", "", f"profiles.csv: empty file, expected header {','.join(PROFILES_HEADER)}"),
    ("discipline_map.json", "", "discipline_map.json: invalid JSON: Expecting value: line 1 column 1 (char 0)"),
    ("profiles.json", '{"institution": "Alpha"}', "profiles.json: expected a JSON list of objects"),
], ids=["empty_csv", "invalid_json", "json_not_a_list"])
def test_a_file_of_the_wrong_shape_gives_one_violation(tmp_path, name, text, message):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    load = load_profiles if name.startswith("profiles") else load_discipline_maps
    assert load(path) == ((), [message])


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_line_break_or_nul_in_a_discipline_map_cell_is_refused(tmp_path, fmt):
    path = tmp_path / f"discipline_map.{fmt}"
    rows = [["chemistry", "Chemistry"], ["chem\0istry", "Physics"], ["physics", "Phys\0ics"],
            ["physics", "Physics"]]
    write_table(path, DISCIPLINE_MAP_HEADER, rows)
    maps, violations = load_discipline_maps(path)
    line = (lambda row: row + 1) if fmt == "csv" else (lambda row: row)
    assert violations == [
        f"discipline_map.{fmt}:{line(2)}: field 'discipline': line break or NUL in 'chem\\x00istry'",
        f"discipline_map.{fmt}:{line(3)}: field 'category': line break or NUL in 'Phys\\x00ics'",
    ]
    assert [(m.discipline, m.categories) for m in maps] == [
        ("chemistry", frozenset({"Chemistry"})), ("physics", frozenset({"Physics"}))]


@pytest.mark.parametrize("case", [name for name, (formats, _, expected, _) in MALFORMED_PROFILES.items()
                                  if "csv" in formats and expected])
def test_profile_only_rank_reports_what_score_reports(tmp_path, capsys, case):
    _, rows, expected, _ = MALFORMED_PROFILES[case]
    path = tmp_path / FILES[2]
    write_table(path, PROFILES_HEADER, rows)
    gone = tmp_path / "nonexistent"
    score = main(["score", "--profiles", str(path), "--out", str(tmp_path / "out")]), capsys.readouterr()
    rank = main(["rank", "--pubs", str(gone / FILES[0]), "--cites", str(gone / FILES[1]),
                 "--profiles", str(path), "--map", str(gone / FILES[3]), "--discipline", "chemistry",
                 "--measure", "strength", "--baseline", "i", "--out", str(tmp_path / "out")]), capsys.readouterr()
    assert rank == score
    assert score[0] == 1 and score[1].out == ""
    assert score[1].err.splitlines() == [
        f"{'refh: ' if k == 0 else ''}profiles.csv:{row + 1}: {message}"
        for k, (row, message) in enumerate(expected)
    ]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("variant", ["padded", "json", "padded_header", "blank_row", "padded_discipline"])
def test_profiles_load_equal_from_padded_csv_and_json(base, tmp_path, monkeypatch, variant):
    # padded CSV cells, a padded header, a blank row, one padded name and
    # JSON rows all take the per-row validator; the clean CSV takes the
    # clean pass throughout
    header, *rows = read_rows(base / FILES[2])
    assert any("" in row for row in rows)  # blank optional cells, padded to blanks
    if variant == "padded":
        path = tmp_path / "profiles.csv"
        write_rows(path, [header] + [[f" {cell}  " for cell in row] for row in rows])
    elif variant == "padded_header":
        path = tmp_path / "profiles.csv"
        write_rows(path, [[f" {name} " for name in header], *rows])
    elif variant == "blank_row":
        path = tmp_path / "profiles.csv"
        write_rows(path, [header, *rows[:3], [""] * len(header), *rows[3:]])
    elif variant == "padded_discipline":
        path = tmp_path / "profiles.csv"
        write_rows(path, [header, *rows[:-1], [rows[-1][0], f" {rows[-1][1]}", *rows[-1][2:]]])
    else:
        path = tmp_path / "profiles.json"
        path.write_text(json.dumps([
            {k: v if k in ("institution", "discipline") else float(v) for k, v in zip(header, row) if v}
            for row in rows
        ]), encoding="utf-8")
    validated, get_str = [], corpus_module._get_str

    def counted(raw, key, *rest):
        validated.append(key)
        return get_str(raw, key, *rest)

    monkeypatch.setattr(corpus_module, "_get_str", counted)
    expected = load_profiles(base / FILES[2])
    assert validated == [] and expected[1] == [] and len(expected[0]) == len(rows)
    assert load_profiles(path) == expected
    assert validated == ["institution", "discipline"] * len(rows)


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
# __init__ checks every record but the clean pass's, which sets the fields
# itself; the validator builds with __init__ and flags its refusals
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kwargs, message", [
    ({"citations": {2004: -1}}, "P1: negative citation count -1 in year 2004"),
    ({"citations": {2002: 1}}, "P1: citing year 2002 precedes publication year 2003"),
    ({"affiliations": (" ", "")}, "P1: affiliations must be non-empty"),
])
def test_library_built_record_is_still_checked(kwargs, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        record("P1", **kwargs)


def test_clean_pass_never_runs_record_checks(tmp_path, monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError("PublicationRecord.__init__ ran in the clean pass")

    monkeypatch.setattr(PublicationRecord, "__init__", refuse)
    paths = tmp_path / "publications.csv", tmp_path / "citations.csv"
    write_table(paths[0], PUBLICATIONS_HEADER, [pub("P1"), pub("P2")])
    write_table(paths[1], CITATIONS_HEADER, [["P1", "2004", "3"], ["P2", "2005", "1"]])
    records, violations = load_publications(*paths)
    assert violations == []
    assert [(r.pub_id, r.citations_by_year) for r in records] == [("P1", {2004: 3}), ("P2", {2005: 1})]


def test_validator_builds_each_record_with_init(tmp_path, monkeypatch):
    init, built = PublicationRecord.__init__, []

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(PublicationRecord, "__init__", counted)
    paths = tmp_path / "publications.csv", tmp_path / "citations.csv"
    write_table(paths[0], PUBLICATIONS_HEADER, [pub("P1"), pub("P2", affiliations=";")])
    write_table(paths[1], CITATIONS_HEADER, [["P1", "2004", "3"], ["P1", "2002", "1"]])
    records, violations = load_publications(*paths)
    assert [r.pub_id for r in records] == ["P1"]
    assert len(built) == 2 and built[0] is records[0]  # P2's call raised
    assert violations == ["citations.csv:3: P1: citing year 2002 precedes publication year 2003",
                          "publications.csv:3: P2: affiliations must be non-empty"]


def test_equal_list_cells_share_one_frozenset(tmp_path, monkeypatch):
    # and equal country cells, padded or not, share one string, and equal
    # years one int; the CSV files take the clean pass, their JSON copies the validator
    rows = [pub("P1", affiliations="Alpha;Beta"), pub("P2", affiliations="Alpha;Beta", country=" GB "),
            pub("P3", affiliations="Gamma"), pub("P4", country="  ")]
    for fmt in ("csv", "json"):
        paths = tmp_path / f"publications.{fmt}", tmp_path / f"citations.{fmt}"
        write_table(paths[0], PUBLICATIONS_HEADER, rows)
        write_table(paths[1], CITATIONS_HEADER, [["P1", "2004", "1"], ["P2", "2004", "2"], ["P3", "2003", "1"]])
        if fmt == "csv":
            loaded, violations = clean_load(monkeypatch, *paths)
            p1, p2, p3, p4 = (r for r, _ in loaded)
        else:
            (p1, p2, p3, p4), violations = load_publications(*paths)
        assert violations == []
        assert p1.affiliations is p2.affiliations
        assert p1.categories is p2.categories is p3.categories is p4.categories
        assert p3.affiliations == frozenset({"Gamma"})
        assert p1.country == "GB" and p1.country is p2.country is p3.country
        assert p4.country is None
        assert p1.pub_year == 2003 and p1.pub_year is p2.pub_year is [*p3.citations_by_year][0]
        assert [*p1.citations_by_year][0] == 2004 and [*p1.citations_by_year][0] is [*p2.citations_by_year][0]


# ---------------------------------------------------------------------------
# The clean path and the validator give equal records and violations
# ---------------------------------------------------------------------------

# the synth flags of the benchmark's three workloads
WORKLOAD_SHAPES = {
    "wide-rae2008": ["--institutions", "80", "--papers", "20:40", "--window", "2001:2007"],
    "deep-ref2014": ["--institutions", "12", "--papers", "1500:2500", "--window", "2008:2013"],
    "rank-4k": ["--institutions", "4000", "--papers", "1:2", "--window", "2001:2007"],
}


@pytest.fixture(scope="module")
def shaped(tmp_path_factory):
    dirs = {}
    for name, flags in WORKLOAD_SHAPES.items():
        dirs[name] = tmp_path_factory.mktemp(name)
        assert main(["synth", "--seed", "7", *flags, "--out", str(dirs[name])]) == 0
    return dirs


@pytest.fixture(scope="module", params=[31, 32, 33])
def seeded(request, tmp_path_factory):
    out = tmp_path_factory.mktemp(f"seed{request.param}")
    assert main(["synth", "--seed", str(request.param), "--institutions", "10", "--papers", "5:30",
                 "--out", str(out)]) == 0
    return out


def snapshot(loaded):
    """Records and violations, with each record's citation years in stored order."""
    records, violations = loaded
    return [(r, list(r.citations_by_year.items())) for r in records], violations


def validated(pub_path, cite_path):
    return snapshot(corpus_module._validate_publications(pub_path, cite_path))


def refuse(what):
    def refused(*args):
        raise AssertionError(f"{what} ran")
    return refused


def clean_load(monkeypatch, pub_path, cite_path):
    """``load_publications`` with the validator patched to fail."""
    with monkeypatch.context() as m:
        m.setattr(corpus_module, "_validate_publications", refuse("the validator"))
        return snapshot(load_publications(pub_path, cite_path))


@pytest.mark.parametrize("shape", WORKLOAD_SHAPES)
def test_workload_shaped_corpora_load_without_the_validator(shaped, shape, monkeypatch, tmp_path):
    paths = shaped[shape] / FILES[0], shaped[shape] / FILES[1]
    expected = validated(*paths)
    assert expected[0] and expected[1] == []
    assert clean_load(monkeypatch, *paths) == expected
    # profiles: the clean pass equals the validator on a padded copy
    path, padded = shaped[shape] / FILES[2], tmp_path / FILES[2]
    header, *rows = read_rows(path)
    write_rows(padded, [header, *([f" {cell} " for cell in row] for row in rows)])
    expected = load_profiles(padded)  # padded names take the validator
    assert len(expected[0]) == len(rows) and expected[1] == []
    with monkeypatch.context() as m:
        m.setattr(corpus_module, "_get_str", refuse("the validator"))
        assert load_profiles(path) == expected


def pad(body, rng):
    return [[f" {cell}  " for cell in row] for row in body]


def blank_lines(body, rng):
    width = len(body[0])
    blanks = [[], [" "], [""] * width, ["", " \t"], [" "] * width]
    rows = []
    for i, row in enumerate(body):
        rows.append(row)
        if i % 3 == 0:
            rows.append(blanks[i % len(blanks)])
    return rows


def shuffle(body, rng):
    return [body[i] for i in rng.permutation(len(body))]


def split_runs(body, rng):
    # a record's first row, and the second part of each count of 2 or more,
    # after every other row: runs that ascend, but not across the record
    first, second, seen = [], [], set()
    for pub_id, year, count in body:
        if pub_id not in seen:
            seen.add(pub_id)
            second.append([pub_id, year, count])
            continue
        part = int(rng.integers(1, int(count))) if int(count) >= 2 else int(count)
        first.append([pub_id, year, str(part)])
        if part != int(count):
            second.append([pub_id, year, str(int(count) - part)])
    return first + second


def zero_counts(body, rng):
    rows = list(body)
    for row in [body[i] for i in rng.choice(len(body), size=len(body) // 3)]:
        rows.insert(int(rng.integers(len(rows) + 1)), [row[0], row[1], "0"])
    return rows


def repeat(body, rng):
    return [row for row in body for _ in range(2)]


def rename(body, rng):
    return [[*row[:3], row[3].replace("HEI", "Universit\u00e9_"), row[4]] for row in body]


def quote_last_row(path):
    """Quote the first cell of the file's last row, which needs no quotes."""
    head, last = path.read_text(encoding="utf-8").removesuffix("\n").rsplit("\n", 1)
    first, rest = last.split(",", 1)
    path.write_text(f'{head}\n"{first}",{rest}\n', encoding="utf-8")


# (how the publication rows change, how the citation rows change, whether
# the meaning is unchanged); each variant is valid input
VARIANTS = {
    "padded": (pad, pad, True),
    "blank_lines": (blank_lines, blank_lines, True),
    "crlf": (None, None, True),
    "cr": (None, None, True),
    # a UTF-8 byte-order mark ahead of the header is dropped
    "bom": (None, None, True),
    "shuffled_citations": (None, shuffle, True),
    "descending_citations": (None, lambda body, rng: body[::-1], True),
    "split_non_adjacent_runs": (None, split_runs, True),
    "zero_counts": (None, zero_counts, True),
    "repeated_citations": (None, repeat, False),
    # quoted cells take csv.reader: every cell quoted, or one in the last chunk alone
    "quoted": (None, None, True),
    "quoted_in_the_last_chunk": (None, None, True),
    # names in another script or holding "_": the number cells are checked one by one
    "non_ascii_and_underscored_names": (rename, None, False),
}


@pytest.mark.parametrize("chunk_rows", [7, 4096])
@pytest.mark.parametrize("variant", VARIANTS)
def test_clean_path_equals_the_validator(seeded, tmp_path, monkeypatch, variant, chunk_rows):
    monkeypatch.setattr(corpus_module, "_CHUNK_ROWS", chunk_rows)
    rng = np.random.default_rng(400)
    edits = VARIANTS[variant]
    paths = tmp_path / FILES[0], tmp_path / FILES[1]
    for source, path, edit in zip((seeded / FILES[0], seeded / FILES[1]), paths, edits):
        header, *body = read_rows(source)
        write_rows(path, [header, *(edit(body, rng) if edit else body)],
                   csv.QUOTE_ALL if variant == "quoted" else csv.QUOTE_MINIMAL)
        if variant in ("crlf", "cr"):
            path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n" if variant == "crlf" else b"\r"))
        elif variant == "bom":
            path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        elif variant == "quoted_in_the_last_chunk":
            quote_last_row(path)
    loaded = clean_load(monkeypatch, *paths)
    assert loaded == validated(*paths)
    base = validated(seeded / FILES[0], seeded / FILES[1])
    assert (loaded == base) is edits[2]


def test_the_clean_reader_holds_a_chunk_not_the_file(tmp_path, monkeypatch):
    # about 2 MB of citation rows, read in 256-row chunks: a chunk's rows
    # take about ten times the memory of their text
    monkeypatch.setattr(corpus_module, "_CHUNK_ROWS", 256)
    path = tmp_path / FILES[1]
    path.write_text("pub_id,citing_year,count\n" + "".join(
        f"P{i // 4:06d},{2001 + i % 4},{1 + i % 7}\n" for i in range(140_000)), encoding="utf-8")
    size = path.stat().st_size
    assert size > 2_000_000
    tracemalloc.start()
    try:
        rows = sum(len(chunk) for chunk, _ in corpus_module._regular_chunks(path, CITATIONS_HEADER))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows == 140_000
    assert peak < size / 4


def test_the_clean_reader_gives_csv_rows_or_gives_up(tmp_path, monkeypatch):
    # short files of line breaks, quotes, commas and characters that
    # str.splitlines breaks at, in chunks of one to four lines: the clean
    # reader gives csv.reader's rows of a file with one record per line, and
    # a chunk it calls plain holds only ASCII cells with no "_"
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.text(alphabet='ab, \n\r"\x0b\x1c\x85\u2028_\u00e9', max_size=40), st.integers(1, 4))
    def check(body, chunk_rows):
        monkeypatch.setattr(corpus_module, "_CHUNK_ROWS", chunk_rows)
        path = tmp_path / "two.csv"
        path.write_text("x,y\n" + body, encoding="utf-8", newline="")
        try:
            chunks = list(corpus_module._regular_chunks(path, ["x", "y"]))
        except (ValueError, csv.Error):
            return
        with path.open(newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            rows = list(reader)
        assert reader.line_num == len(rows)
        assert rows[0] == ["x", "y"]
        assert [row for chunk, _ in chunks for row in chunk] == [
            row for row in rows[1:] if len(row) == 2 or any(map(str.strip, row))]
        for chunk, plain in chunks:
            assert not plain or all(cell.isascii() and "_" not in cell for row in chunk for cell in row)

    check()


@pytest.mark.parametrize("header, violations", [
    (" pub_id , citing_year,count", []),
    ("citing_year,pub_id,count",
     ["citations.csv:1: bad header 'citing_year,pub_id,count', expected 'pub_id,citing_year,count'"]),
])
def test_a_header_not_exactly_the_expected_one_takes_the_validator(seeded, tmp_path, header, violations):
    paths = seeded / FILES[0], tmp_path / FILES[1]
    text = (seeded / FILES[1]).read_text(encoding="utf-8")
    paths[1].write_text(header + text[text.index("\n"):], encoding="utf-8")
    loaded = snapshot(load_publications(*paths))
    assert loaded[1] == violations
    if not violations:
        assert loaded == validated(seeded / FILES[0], seeded / FILES[1])


def test_json_corpus_takes_the_validator_and_loads_equal(seeded, tmp_path, monkeypatch):
    paths = tmp_path / "publications.json", tmp_path / "citations.json"
    for source, path, numeric in zip((seeded / FILES[0], seeded / FILES[1]), paths,
                                     ({"pub_year"}, {"citing_year", "count"})):
        header, *body = read_rows(source)
        path.write_text(json.dumps([
            {k: int(v) if k in numeric else v for k, v in zip(header, row)} for row in body
        ]), encoding="utf-8")
    monkeypatch.setattr(corpus_module, "_load_clean", refuse("the clean path"))
    assert snapshot(load_publications(*paths)) == validated(seeded / FILES[0], seeded / FILES[1])


@pytest.mark.parametrize("chunk_rows", [7, 4096])
@pytest.mark.parametrize("late", ["empty_affiliations", "negative_count", "early_citing_year",
                                  "unknown_pub_id", "wrong_width", "spans_lines", "underscored_year"])
def test_a_late_violation_gives_the_validators_messages(seeded, tmp_path, monkeypatch, late, chunk_rows):
    # one violation in the last row: with 7-row chunks, the clean pass
    # abandons its records after clean chunks of both files
    monkeypatch.setattr(corpus_module, "_CHUNK_ROWS", chunk_rows)
    paths = tmp_path / FILES[0], tmp_path / FILES[1]
    header, *pubs = read_rows(seeded / FILES[0])
    cites = read_rows(seeded / FILES[1])
    pub_id, year = pubs[0][0], int(pubs[0][1])
    if late == "empty_affiliations":
        pubs[-1][3] = " ; "
        where, message = f"publications.csv:{len(pubs) + 1}", f"{pubs[-1][0]}: affiliations must be non-empty"
    else:
        row, message = {
            "negative_count": ([pub_id, str(year + 1), "-1"], f"{pub_id}: negative citation count -1"),
            "early_citing_year": ([pub_id, str(year - 1), "1"],
                                  f"{pub_id}: citing year {year - 1} precedes publication year {year}"),
            "unknown_pub_id": (["P-none", str(year), "1"], "unknown pub_id 'P-none'"),
            "wrong_width": ([pub_id, str(year), "1", "1"], "expected 3 fields, got 4"),
            "underscored_year": ([pub_id, f"{year + 1:_}", "1"],
                                 f"field 'citing_year': not an integer: '{year + 1:_}'"),
            "spans_lines": ([pub_id, str(year), "1\n"],
                            f"record spans lines {len(cites) + 1}-{len(cites) + 2}; a cell contains a line break"),
        }[late]
        cites.append(row)
        where = f"citations.csv:{len(cites)}"
    write_rows(paths[0], [header, *pubs])
    write_rows(paths[1], cites)
    records, violations = load_publications(*paths)
    assert violations == [f"{where}: {message}"]
    assert snapshot((records, violations)) == validated(*paths)


def validated_profiles(path, monkeypatch):
    """``load_profiles`` with the clean pass patched to give up at once."""
    def give_up(path):
        raise ValueError("not clean")

    with monkeypatch.context() as m:
        m.setattr(corpus_module, "_clean_profiles", give_up)
        return load_profiles(path)


@pytest.mark.parametrize("chunk_rows", [7, 4096])
@pytest.mark.parametrize("late", ["bad_sum", "duplicate", "duplicate_in_another_case", "blank_discipline",
                                  "half_output_profile", "nan_nci", "short_row", "long_row", "spans_lines",
                                  "staff_fte_above_its_bound", "full_width_digits",
                                  "underscored_number_beside_a_non_ascii_name"])
def test_a_late_profile_violation_gives_the_validators_messages(seeded, tmp_path, monkeypatch,
                                                               late, chunk_rows):
    # one violation in the last row: with 7-row chunks, the clean pass
    # abandons its profiles after a clean chunk
    monkeypatch.setattr(corpus_module, "_CHUNK_ROWS", chunk_rows)
    header, *rows = read_rows(seeded / FILES[2])
    assert len(rows) > 7
    last = list(rows[-1])
    who = f"{last[0]}/{last[1]}"
    if late == "duplicate":
        last, message = list(rows[0]), f"duplicate profile for {rows[0][0]}/{rows[0][1]}"
    elif late == "duplicate_in_another_case":
        last[:2] = rows[0][0], rows[0][1].upper()
        message = f"duplicate profile for {rows[0][0]}/{rows[0][1].upper()}"
    elif late == "blank_discipline":
        last[1], message = "", "institution and discipline are required"
    elif late == "bad_sum":
        last[2:7] = ["25", "25", "25", "24", "0"]
        message = f"profile sum/shape error: {who}: profile sum 99.0 != 100"
    elif late == "half_output_profile":
        last[7:12] = ["20", "30", "25", "25", ""]
        message = f"profile sum/shape error: {who}: output sub-profile must be complete or absent"
    elif late == "nan_nci":
        last[13], message = "nan", "field 'nci': not a finite number: 'nan'"
    elif late == "short_row":
        last, message = last[:-1], "expected 14 fields, got 13"
    elif late == "long_row":
        last, message = [*last, "1"], "expected 14 fields, got 15"
    elif late == "staff_fte_above_its_bound":
        last[12] = "1e307"
        message = f"profile sum/shape error: {who}: staff_fte must be at most 1e+300, got 1e+307"
    elif late == "full_width_digits":
        last[12], message = "\uff11\uff10", "field 'staff_fte': not a number: '\uff11\uff10'"
    elif late == "underscored_number_beside_a_non_ascii_name":
        # a chunk whose text is not plain: its number cells are checked one by one
        last[0], last[13] = f"{last[0]}-\u00e9", "1_0"
        message = "field 'nci': not a number: '1_0'"
    else:
        last[13] = "1\n"
        message = f"record spans lines {len(rows) + 1}-{len(rows) + 2}; a cell contains a line break"
    path = tmp_path / FILES[2]
    write_rows(path, [header, *rows[:-1], last] if late != "duplicate" else [header, *rows, last])
    line = len(rows) + (2 if late == "duplicate" else 1)
    profiles, violations = load_profiles(path)
    assert violations == [f"profiles.csv:{line}: {message}"]
    assert (profiles, violations) == validated_profiles(path, monkeypatch)
    kept = rows if late == "duplicate" else rows[:-1]
    assert [(p.institution, p.discipline) for p in profiles] == [(row[0], row[1]) for row in kept]


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
                           for r in oracle_filter(corpus, country, window, "synthetic", inst)})
        got = [r.pub_id for r in matching_publications(corpus, country, window, "Synthetic")]
        assert got == expected and got
