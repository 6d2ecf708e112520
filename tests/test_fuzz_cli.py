"""Mutated corpora through the CLI: no traceback, and every failure says where.

A hypothesis test flips bytes, rewrites cells and drops or repeats rows of
a small synthetic corpus, then runs ``ingest``, ``hindex``, ``correlate``
and ``rank`` (with and without a baseline) through ``main``.  Each run must
exit 0 or 1, and every line an exit-1 run writes to stderr must name a
``file:line`` or ``file:``, or be one of the data errors listed below.  A
second test rewrites values of a JSON copy of the corpus and also checks
that every file a successful run writes keeps one record per line.  The
examples are derandomized, so every run tests the same cases.
"""

import contextlib
import csv
import io
import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from refh.cli import main

FILES = ("publications.csv", "citations.csv", "profiles.csv", "discipline_map.csv")
RUN = ["--discipline", "synthetic", "--preset", "rae2008"]
COMMANDS = (
    ["hindex", *RUN],
    ["correlate", *RUN, "--pairs", "s:h_2008,s_prime:h_2010,s:i"],
    ["rank", *RUN, "--measure", "h_2014"],
    ["rank", *RUN, "--measure", "h_2014", "--baseline", "h_2008", "--format", "markdown"],
)

LOCATED = re.compile(r"^(refh: )?(publications|citations|profiles|discipline_map)\.csv:(\d+:)? ")
# the errors that are about the data as a whole, not one row of a file
DATA_ERRORS = re.compile(
    r"^refh: ("
    r"no matching publications for country=GB window=2001:2007 discipline=synthetic"
    r"|no discipline map for 'synthetic'"
    r"|no values available for (baseline )?measure '\w+'"
    r"|pair \(\w+, \w+\): only \d+ complete joined pairs \(\d+ dropped\); need at least 3"
    r"|pair \(\w+, \w+\): correlation undefined for a constant vector"
    r")$"
)
# cell values that probe the validators: blanks, signs, non-numbers, overflow,
# out-of-window years, list separators and quoting
CELLS = ["", " ", "0", "-1", "1.5", "x", "nan", "inf", "1e309", "99", "100", "2000",
         "2008", "2015", "9999", "GB", "US", "HEI001", "HEI001;HEI002", "synthetic",
         "Synthetic Category", '"', "a,b", "\t"]


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    out = tmp_path_factory.mktemp("base")
    assert main(["synth", "--seed", "13", "--institutions", "4", "--papers", "4:8",
                 "--out", str(out)]) == 0
    return {name: (out / name).read_bytes() for name in FILES}


def mutate_bytes(data: bytes, draw) -> bytes:
    at = draw(st.integers(0, len(data)))
    kind = draw(st.sampled_from(["replace", "insert", "delete"]))
    byte = bytes([draw(st.sampled_from(b'0-9,;".\n\r x\x00\xff'))])
    if kind == "insert":
        return data[:at] + byte + data[at:]
    if kind == "delete":
        return data[:at] + data[at + 1:]
    return data[:at] + byte + data[at + 1:]


def mutate_cell(data: bytes, draw) -> bytes:
    lines = data.decode("utf-8").split("\n")
    row = draw(st.integers(0, len(lines) - 2))  # the header too; the last piece is empty
    cells = lines[row].split(",")
    cells[draw(st.integers(0, len(cells) - 1))] = draw(st.sampled_from(CELLS))
    lines[row] = ",".join(cells)
    return "\n".join(lines).encode("utf-8")


def mutate_row(data: bytes, draw) -> bytes:
    lines = data.split(b"\n")
    row = draw(st.integers(1, max(1, len(lines) - 2)))  # a data row, if there is one
    return b"\n".join(lines[:row] + [lines[row]] * draw(st.integers(0, 2)) + lines[row + 1:])


@st.composite
def corpora(draw, base):
    files = dict(base)
    for _ in range(draw(st.integers(1, 3))):
        name = draw(st.sampled_from(FILES))
        mutate = draw(st.sampled_from([mutate_bytes, mutate_cell, mutate_row]))
        files[name] = mutate(files[name], draw)
    return files


def run(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def test_mutated_corpus_fails_cleanly_or_succeeds(base):
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def check(data):
        files = data.draw(corpora(base))
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            for name, content in files.items():
                (tmp / name).write_bytes(content)
            corpus = ["--pubs", str(tmp / FILES[0]), "--cites", str(tmp / FILES[1]),
                      "--profiles", str(tmp / FILES[2]), "--map", str(tmp / FILES[3])]
            out = ["--out", str(tmp / "out")]
            code, refused = run(["ingest", *corpus])
            assert code in (0, 1), refused
            if code:
                # every command loads the corpus first: one of them, drawn, is
                # refused with ingest's violations, which must all be located
                command = data.draw(st.sampled_from(COMMANDS))
                assert run([*command, *corpus, *out]) == (1, refused), command
                lines = refused.splitlines()
                assert lines and all(LOCATED.match(line) for line in lines), refused
                return
            for command in COMMANDS:
                code, err = run([*command, *corpus, *out])
                assert code in (0, 1), (command, code, err)
                if code:
                    lines = err.splitlines()
                    assert lines, command
                    for line in lines:
                        assert LOCATED.match(line) or DATA_ERRORS.match(line), (command, line)

    check()


# JSON values that probe the validators: a base text with a line break, a
# NUL or a list or markdown separator added, or a non-string, nested list or null
TEXT_FIELDS = {"pub_id", "country", "institution", "discipline", "category"}
LIST_FIELDS = {"affiliations", "categories"}
INSERTS = ["\n", "\r", "\r\n", "\0", "|", ";"]
REPLACEMENTS = [None, "", " ", 5, 2.5, True, [], [None], [["HEI001"]], ["HEI001", 7], {"a": 1}]
JSON_LOCATED = re.compile(LOCATED.pattern.replace(r"\.csv", r"\.json"))


@pytest.fixture(scope="module")
def json_base(base):
    """The base corpus as JSON: text as strings, lists as lists, numbers as numbers."""
    files = {}
    for name, content in base.items():
        rows = list(csv.DictReader(io.StringIO(content.decode("utf-8"))))
        for row in rows:
            for key, cell in row.items():
                if key in LIST_FIELDS:
                    row[key] = cell.split(";")
                elif key not in TEXT_FIELDS:
                    row[key] = json.loads(cell) if cell else None
        files[name.replace(".csv", ".json")] = rows
    return files


@st.composite
def json_corpora(draw, json_base):
    files = {name: [dict(row) for row in rows] for name, rows in json_base.items()}
    for _ in range(draw(st.integers(1, 3))):
        name = draw(st.sampled_from(sorted(files)))
        k = draw(st.integers(0, len(files[name]) - 1))
        row = files[name][k]
        if draw(st.integers(0, 2)):  # two in three take a base text and add a character
            key = draw(st.sampled_from(sorted(row.keys() & (TEXT_FIELDS | LIST_FIELDS))))
            items = json_base[name][k][key] if key in LIST_FIELDS else [json_base[name][k][key]]
            at = draw(st.integers(0, len(items[0])))
            items = [items[0][:at] + draw(st.sampled_from(INSERTS)) + items[0][at:], *items[1:]]
            row[key] = items if key in LIST_FIELDS else items[0]
        else:
            row[draw(st.sampled_from(sorted(row)))] = draw(st.sampled_from(REPLACEMENTS))
    return {name: json.dumps(rows).encode("utf-8") for name, rows in files.items()}


def assert_one_record_per_line(path):
    """A CSV file reads back as one record per physical line, each as wide as
    the header; each line of a markdown table starts and ends with ``|``."""
    text = path.read_text(encoding="utf-8")
    *lines, last = re.split(r"\r\n?|\n", text)
    assert last == "", text
    if path.suffix == ".md":
        assert all(line.startswith("|") and line.endswith("|") for line in lines), text
    else:
        records = list(csv.reader(io.StringIO(text, newline="")))
        assert len(records) == len(lines) and len(set(map(len, records))) == 1, text


def test_mutated_json_corpus_writes_one_record_per_line(json_base):
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def check(data):
        files = data.draw(json_corpora(json_base))
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            for name, content in files.items():
                (tmp / name).write_bytes(content)
            names = [name.replace(".csv", ".json") for name in FILES]
            corpus = ["--pubs", str(tmp / names[0]), "--cites", str(tmp / names[1]),
                      "--profiles", str(tmp / names[2]), "--map", str(tmp / names[3])]
            code, refused = run(["ingest", *corpus])
            assert code in (0, 1), refused
            if code:
                lines = refused.splitlines()
                assert lines and all(JSON_LOCATED.match(line) for line in lines), refused
                return
            # score writes every profile, whether or not it joins an h
            runs = [[*command, *corpus] for command in COMMANDS] + [["score", *corpus[4:6]]]
            for k, argv in enumerate(runs):
                out = tmp / f"out{k}"
                code, err = run([*argv, "--out", str(out)])
                assert code in (0, 1), (argv, code, err)
                if code:
                    for line in err.splitlines():
                        assert JSON_LOCATED.match(line) or DATA_ERRORS.match(line), (argv, line)
                    continue
                written = sorted(out.iterdir())
                assert written, argv
                for path in written:
                    assert_one_record_per_line(path)

    check()
