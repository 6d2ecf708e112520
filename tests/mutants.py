"""Seeded mutants of ``src/refh``, each with the tests that must kill it.

Each entry of ``MUTANTS`` names a file, an exact snippet of it, the snippet's
replacement, the tests that must fail once the replacement is made, and why
the mutant matters.  ``EQUIVALENT`` holds the mutants no test can kill, each
with its reason; they are never run.

    python tests/mutants.py [--only ID]

first runs the chosen mutants' tests on an unmutated copy of the tree, which
must pass; then applies each mutant (or only mutant ``ID``) to a fresh copy,
runs its tests there with pytest, and exits 1 if any mutant survives or its
tests cannot run.  It uses the standard library only.  Tier-1 checks only
that each snippet occurs exactly once in its file
(``tests/test_mutants.py``): a refactor that moves the code must move its
mutant with it.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CORPUS, SYNTH, CLI, METRICS = "src/refh/corpus.py", "src/refh/synth.py", "src/refh/cli.py", "src/refh/metrics.py"
INGEST = "tests/test_ingest_properties.py"


@dataclass(frozen=True)
class Mutant:
    id: str
    file: str  # relative to the repository root
    snippet: str  # occurs exactly once in the file
    replacement: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root
    why: str


MUTANTS = [
    # the record builders
    Mutant("validator-trusted-build", CORPUS,
           "records.append(PublicationRecord(pub_id, *fields))",
           "records.append(_set_record(object.__new__(PublicationRecord), pub_id, *fields))",
           (f"{INGEST}::test_validator_builds_each_record_with_init",),
           "JSON input and faulty CSV would skip the record rules of __init__ again"),
    Mutant("validator-shares-no-pub-year", CORPUS,
           "years.setdefault(pub_year, pub_year)", "pub_year",
           (f"{INGEST}::test_equal_list_cells_share_one_frozenset",),
           "each JSON record would hold its own int for a publication year above 256"),
    Mutant("validator-shares-no-citing-year", CORPUS,
           "citing_year = years.setdefault(citing_year, citing_year)", "pass",
           (f"{INGEST}::test_equal_list_cells_share_one_frozenset",
            "tests/test_synth.py::test_json_loaded_records_retain_few_bytes"),
           "each JSON citation row would give its record its own int for the citing year"),
    Mutant("string-labels-split-into-characters", CORPUS,
           "elif isinstance(labels, str):", "elif isinstance(labels, bytes):",
           ("tests/test_corpus.py::TestRecordInvariants::test_constructor_refusals_keep_their_messages",),
           "PublicationRecord('P1', 2004, 'GB', 'Alpha', ...) would hold the affiliations A, l, p, h, a"),
    Mutant("string-categories-split-into-characters", CORPUS,
           "if isinstance(self.categories, str):", "if isinstance(self.categories, bytes):",
           ("tests/test_corpus.py::TestDisciplineMap",),
           "DisciplineMap('d', 'abc') would match the categories a, b and c"),
    Mutant("non-string-label-kept", CORPUS,
           "if type(label) is not str or not label", "if not label",
           ("tests/test_corpus.py::TestLabelSets",),
           "a clean-looking frozenset holding a str subclass or a non-string would be kept as it is"),
    Mutant("frozenset-subclass-kept", CORPUS,
           "if type(labels) is frozenset:", "if isinstance(labels, frozenset):",
           ("tests/test_corpus.py::TestLabelSets",),
           "a frozenset subclass, with its own methods, would be stored on the record"),
    Mutant("citations-never-marked-unordered", CORPUS,
           "            else:\n                ordered = False\n            if count:",
           "            else:\n                pass\n            if count:",
           ("tests/test_corpus.py::TestRecordInvariants::test_citations_are_stored_in_year_order_without_zeros",),
           "a library-built record would keep its citation years in the order given; "
           "citations_to_end_of stops at the first year past its cut"),
    Mutant("window-year-not-an-integer", CORPUS,
           "object.__setattr__(self, name, index(year))", "object.__setattr__(self, name, year)",
           ("tests/test_corpus.py::TestPublicationWindow",),
           "PublicationWindow('2001', '2007') would construct, then raise TypeError in contains"),
    Mutant("group-metrics-coerces", METRICS,
           "values[index(year)] = index(h)", "values[int(year)] = int(h)",
           ("tests/test_metrics.py::TestHSeries::test_series_type_refuses_non_integers",),
           "GroupMetrics would read {2008.7: 3.9} as {2008: 3} and '3' as 3"),
    # the clean CSV pass and its reader
    Mutant("clean-reader-not-strict", CORPUS,
           'csv.reader(io.StringIO(text, newline=""), strict=True)', 'csv.reader(io.StringIO(text, newline=""))',
           (f"{INGEST}::test_the_clean_reader_gives_csv_rows_or_gives_up",),
           "a quoted cell left open would be read as text instead of sending the file to the validator"),
    Mutant("clean-reader-splits-at-cr", CORPUS,
           "if '\"' in text or \"\\r\" in text or", "if '\"' in text or",
           (f"{INGEST}::test_clean_path_equals_the_validator",),
           "a \\r line ending would be split as part of a cell"),
    Mutant("clean-reader-ignores-field-limit", CORPUS,
           " or len(text) > limit and max(map(len, lines)) > limit:", ":",
           (f"{INGEST}::test_the_clean_reader_gives_csv_rows_or_gives_up",
            f"{INGEST}::test_malformed_corpus_violations_in_order"),
           "a cell over csv.field_size_limit() would load instead of being refused at its file:line"),
    Mutant("clean-reader-reads-nul", CORPUS,
           'if "\\0" in text:', "if False:",
           (f"{INGEST}::test_malformed_corpus_violations_in_order",),
           "a NUL, which CSV reads as text, would reach a record and an output row"),
    Mutant("clean-profiles-take-any-digits", CORPUS,
           "if not plain and not all(_plain(cell) for row in chunk for cell in row[2:]):", "if False:",
           (f"{INGEST}::test_malformed_profiles_violations_in_order",),
           "a profile number in another script's digits, or holding a _, would load"),
    Mutant("clean-ints-take-any-digits", CORPUS,
           "    if not _plain(cell):\n        raise ValueError(cell)\n    return int(cell)", "    return int(cell)",
           (f"{INGEST}::test_malformed_corpus_violations_in_order",),
           "a year or count such as 1_0 or a full-width digit would load"),
    Mutant("clean-store-ignores-order", CORPUS,
           "if citing_year > last and ordered and count > 0:", "if citing_year > last and count > 0:",
           (f"{INGEST}::test_clean_path_equals_the_validator",),
           "a citing year seen in an earlier run of rows would be overwritten, not summed"),
    Mutant("clean-reader-never-closes", CORPUS,
           '    with path.open(newline="", encoding="utf-8-sig") as fh:\n        if _cells(',
           '    for fh in [path.open(newline="", encoding="utf-8-sig")]:\n        if _cells(',
           (f"{INGEST}::test_clean_path_equals_the_validator",),
           "each clean load would leave its file open until the collector found it"),
    # the command line
    Mutant("parser-drops-argv", CLI,
           "args = build_parser().parse_args(argv)", "args = build_parser().parse_args(argv or [])",
           ("tests/test_cli.py::TestParsing::test_texts_are_the_same_when_argv_comes_from_sys_argv",),
           "the refh console script, which calls main with no argv, would ignore its arguments"),
    Mutant("score-runs-ingest", CLI,
           'command("score", cmd_score,', 'command("score", cmd_ingest,',
           ("tests/test_cli.py::TestParsing::test_each_command_dispatches_to_its_own_handler_and_parser",),
           "refh score would validate files and write no scores"),
    # synthetic corpora
    Mutant("grid-profile-wrong-exponent", SYNTH,
           "round(4 * mix * rest**3 * 100 * _MICRO)", "round(4 * mix * rest**2 * 100 * _MICRO)",
           ("tests/test_synth.py::test_grid_profile_matches_its_reference",),
           "synth's 1* band would not follow the binomial(4, mix) of its docstring"),
]

EQUIVALENT = [
    Mutant("grid-profile-reassociated", SYNTH,
           "round(6 * mix**2 * rest**2 * 100 * _MICRO)", "round(6 * (mix * rest)**2 * 100 * _MICRO)",
           (), "rounds to the same micro-percent on every mix tried: 100,000 seeded mixes, 0, 1 and the "
               "mixes whose rounded bands overshoot 100 (test_grid_profile_matches_its_reference)"),
]


def _copy_tree(dest: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=skip)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def run(mutant: Mutant, scratch: Path) -> tuple[str, str]:
    """``killed``, ``survived`` or ``error`` (the tests could not run) for ``mutant``
    applied to a fresh copy of the tree under ``scratch``, with pytest's output;
    a mutant whose snippet equals its replacement runs its tests on the tree as it is."""
    tree = scratch / mutant.id
    _copy_tree(tree)
    path = tree / mutant.file
    text = path.read_text(encoding="utf-8")
    if text.count(mutant.snippet) != 1:
        return "error", f"{mutant.file}: the snippet does not occur exactly once"
    path.write_text(text.replace(mutant.snippet, mutant.replacement), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *mutant.tests],
                          cwd=tree, env=env, capture_output=True, text=True)
    shutil.rmtree(tree)
    # pytest exits 1 when a test failed, 0 when all passed, and otherwise
    # when it could not collect or run them
    return {0: "survived", 1: "killed"}.get(proc.returncode, "error"), proc.stdout + proc.stderr


def _control(chosen: list[Mutant]) -> Mutant:
    """A mutant that changes nothing and runs every test of ``chosen``."""
    first = chosen[0]
    tests = dict.fromkeys(node for m in chosen for node in m.tests)
    return Mutant("control", first.file, first.snippet, first.snippet, tuple(tests), "the tests pass unmutated")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--only", metavar="ID", choices=[m.id for m in MUTANTS],
                        help="run this mutant alone")
    args = parser.parse_args(argv)
    chosen = [m for m in MUTANTS if args.only in (None, m.id)]
    failures = 0
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="refh-mutants-") as scratch:
        outcome, output = run(_control(chosen), Path(scratch))
        if outcome != "survived":
            print(f"{output}\nthe tests fail on the unmutated tree ({outcome}); no mutant was run")
            return 1
        for mutant in chosen:
            began = time.perf_counter()
            outcome, output = run(mutant, Path(scratch))
            failures += outcome != "killed"
            print(f"{outcome:8}  {mutant.id}  ({time.perf_counter() - began:.1f} s)", flush=True)
            if outcome == "error":
                print(output, flush=True)
    print(f"{len(chosen) - failures} of {len(chosen)} mutants killed in {time.perf_counter() - start:.1f} s; "
          f"{len(EQUIVALENT)} equivalent, not run")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
