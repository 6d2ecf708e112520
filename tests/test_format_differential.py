"""CSV and JSON are one corpus: the same rows give the same answers in either format.

A hypothesis test draws text mutations of a small synthetic corpus that both
formats can express (a cell replaced, or one character added to a cell),
writes the result once as CSV and once as JSON, and runs ``ingest``,
``hindex``, ``score``, ``correlate`` and ``rank`` on each through ``main``.
The two runs of a command must exit alike, print alike and write
byte-identical files.  A refused corpus must give the same violations once
the file suffix and the row numbering are mapped: a CSV record starts at a
physical line, which a line break in an earlier quoted cell moves down, and
a JSON object is numbered from 1.  Where the formats word one fault
differently, the pair is listed in ``SAME_FAULT``.  The examples are
derandomized, so every run tests the same cases.
"""

import contextlib
import csv
import io
import json
import math
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from refh.cli import main

NAMES = ("publications", "citations", "profiles", "discipline_map")
RUN = ["--discipline", "synthetic", "--preset", "rae2008"]
COMMANDS = {
    "ingest": ["ingest"],
    "hindex": ["hindex", *RUN],
    "score": ["score"],
    "correlate": ["correlate", *RUN, "--pairs", "s:h_2008,s_prime:h_2010,s:i"],
    "rank": ["rank", *RUN, "--measure", "h_2014", "--baseline", "h_2008"],
}
INT_FIELDS = {"pub_year", "citing_year", "count"}
FLOAT_FIELDS = {"p4", "p3", "p2", "p1", "pu", "p4_out", "p3_out", "p2_out", "p1_out", "pu_out",
                "staff_fte", "nci"}
LIST_FIELDS = {"affiliations", "categories"}
# replacement cells: blanks, signs, non-numbers, overflow, years, names, list
# and CSV separators, and number forms that int and float read but refh refuses
CELLS = ["", " ", "0", "-1", "1.5", "x", "nan", "inf", "1e309", "99", "100", "2000", "2008", "2015",
         "9999", "GB", "US", "HEI001", "HEI001;HEI002", "synthetic", "Synthetic Category", '"', "a,b",
         "\t", "2_004", "٢٠٠٤", "２"]
# characters added to a cell: line breaks, NUL, CSV and list separators, a quote
INSERTS = ["\n", "\r", "\r\n", "\0", ",", '"', ";", " ", "_", "é", "|"]
# (CSV wording, JSON wording) of one fault: a CSV record that spans lines
# names no field, where JSON names each string holding a line break (or a
# NUL, which CSV words as JSON does)
SAME_FAULT = [
    (re.compile(r"record spans lines \d+-\d+; a cell contains a line break"),
     re.compile(r"field '\w+': line break or NUL in .*")),
]
LINE_BREAK = re.compile(r"\r\n|\r|\n")
LOCATED = re.compile(r"^(\w+)\.(csv|json):(\d+): (.*)$")


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    out = tmp_path_factory.mktemp("base")
    assert main(["synth", "--seed", "13", "--institutions", "4", "--papers", "4:8", "--out", str(out)]) == 0
    tables = {}
    for name in NAMES:
        with (out / f"{name}.csv").open(newline="", encoding="utf-8") as fh:
            tables[name] = list(csv.reader(fh))
    return tables


@st.composite
def mutated(draw, base):
    tables = {name: [list(row) for row in rows] for name, rows in base.items()}
    for _ in range(draw(st.integers(1, 3))):
        header, *rows = tables[draw(st.sampled_from(NAMES))]
        row = rows[draw(st.integers(0, len(rows) - 1))]
        k = draw(st.integers(0, len(header) - 1))
        if draw(st.booleans()):
            row[k] = draw(st.sampled_from(CELLS))
        else:
            at = draw(st.integers(0, len(row[k])))
            row[k] = row[k][:at] + draw(st.sampled_from(INSERTS)) + row[k][at:]
    # CSV skips a blank row, where JSON has no blank object
    assume(all(any(map(str.strip, row)) for _, *rows in tables.values() for row in rows))
    return tables


def json_value(key, cell):
    """A CSV cell as the JSON value of the same meaning: a list for a list
    field, a number for a number cell that JSON writes exactly, else the text."""
    if key in LIST_FIELDS:
        return cell.split(";")
    if key in INT_FIELDS and re.fullmatch(r"-?(0|[1-9][0-9]*)", cell):
        return int(cell)
    if (key in FLOAT_FIELDS and re.fullmatch(r"-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?", cell)
            and math.isfinite(float(cell))):
        return json.loads(cell)
    return cell


def write(tables, d, fmt):
    d.mkdir()
    for name, (header, *rows) in tables.items():
        path = d / f"{name}.{fmt}"
        if fmt == "csv":
            with path.open("w", newline="", encoding="utf-8") as fh:
                # csv quotes a cell holding a character of the line terminator
                # alone: a row with a \r in a cell is quoted throughout
                plain, quoted = (csv.writer(fh, lineterminator="\n", quoting=q)
                                 for q in (csv.QUOTE_MINIMAL, csv.QUOTE_ALL))
                for row in [header, *rows]:
                    (quoted if any("\r" in cell for cell in row) else plain).writerow(row)
        else:
            path.write_text(json.dumps([{k: json_value(k, c) for k, c in zip(header, row)} for row in rows]),
                            encoding="utf-8")
    return ["--pubs", str(d / f"publications.{fmt}"), "--cites", str(d / f"citations.{fmt}"),
            "--profiles", str(d / f"profiles.{fmt}"), "--map", str(d / f"discipline_map.{fmt}")]


def csv_rows(tables):
    """file name -> {physical line of a CSV record: its row number, from 1}."""
    rows = {}
    for name, (_, *body) in tables.items():
        line, rows[name] = 2, {}
        for number, row in enumerate(body, start=1):
            rows[name][line] = number
            line += 1 + sum(len(LINE_BREAK.findall(cell)) for cell in row)
    return rows


def violations(err, fmt, rows):
    """Each stderr line as (file, row number, message), with either wording of
    a pair in ``SAME_FAULT`` given as the pair's CSV wording and one entry for
    repeats of a row's message; an unlocated line as it is."""
    mapped = []
    for line in err.splitlines():
        located = LOCATED.match(line.removeprefix("refh: "))
        if not located:
            mapped.append(line)
            continue
        name, suffix, number, message = located.groups()
        assert suffix == fmt, line
        number = rows[name][int(number)] if fmt == "csv" else int(number)
        for csv_words, json_words in SAME_FAULT:
            if csv_words.fullmatch(message) or json_words.fullmatch(message):
                message = csv_words.pattern
        if not mapped or mapped[-1] != (name, number, message):
            mapped.append((name, number, message))
    return mapped


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_csv_and_json_give_the_same_answers(base):
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(mutated(base))
    def check(tables):
        rows = csv_rows(tables)
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            corpus = {fmt: write(tables, tmp / fmt, fmt) for fmt in ("csv", "json")}
            for command, argv in COMMANDS.items():
                results = {}
                for fmt, files in corpus.items():
                    out = tmp / fmt / f"out-{command}"
                    code, stdout, err = run([*argv, *(files[4:6] if command == "score" else files),
                                             *(["--out", str(out)] if command != "ingest" else [])])
                    written = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.exists() else {}
                    results[fmt] = code, stdout, violations(err, fmt, rows), written
                assert results["csv"] == results["json"], command

    check()
