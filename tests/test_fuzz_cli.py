"""Mutated corpora through the CLI: no traceback, and every failure says where.

A hypothesis test flips bytes, rewrites cells and drops or repeats rows of
a small synthetic corpus, then runs ``ingest``, ``hindex``, ``correlate``
and ``rank`` (with and without a baseline) through ``main``.  Each run must
exit 0 or 1, and every line an exit-1 run writes to stderr must name a
``file:line`` or ``file:``, or be one of the data errors listed below.  The
examples are derandomized, so every run tests the same cases.
"""

import contextlib
import io
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
