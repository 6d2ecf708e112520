"""Seeded mutants of ``src/refh``, each with the tests that must kill it.

Each entry of ``MUTANTS`` names a file, an exact snippet of it, the snippet's
replacement, the tests that must fail once the replacement is made, and why
the mutant matters.  ``EQUIVALENT`` holds the mutants no test can kill, each
with its reason; they are never run.

    python tests/mutants.py [--only ID ...]

first runs the chosen mutants' tests on an unmutated copy of the tree, which
must pass; then applies each mutant (or only the mutants named by ``--only``,
which may be repeated) to a fresh copy,
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
STATS, RANKING = "src/refh/stats.py", "src/refh/ranking.py"
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
    Mutant("json-reader-catches-only-decode-errors", CORPUS,
           "except (ValueError, RecursionError) as exc:", "except json.JSONDecodeError as exc:",
           ("tests/test_cli.py::TestIngestCommand::test_json_that_json_cannot_read_is_the_files_violation",),
           "a JSON integer over 4,300 digits would be reported with no file name, and deep nesting "
           "would end the run with a traceback"),
    Mutant("map-categories-not-stripped", CORPUS,
           "_stripped_set(self.categories)", "frozenset(self.categories)",
           ("tests/test_corpus.py::TestDisciplineMap",),
           "DisciplineMap('d', [' ']) would build a map that matches nothing, and a non-string "
           "category would raise AttributeError on the first match"),
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
    # the paper's quantities: h, its cutoff, the profile scores, ranks and correlations
    Mutant("h-takes-counts-below-rank", METRICS,
           "if count >= i:", "if count > i:",
           ("tests/test_metrics.py::TestComputeH",),
           "h would need n papers cited more than n times, not at least n"),
    Mutant("cutoff-drops-its-own-year", METRICS,
           "if y > year:", "if y >= year:",
           ("tests/test_metrics.py::TestCitationsToEndOf",),
           "citations to the end of year Y would leave out year Y itself"),
    Mutant("h-counts-the-measurement-year", METRICS,
           "citations_to_end_of(r, year - 1)", "citations_to_end_of(r, year)",
           ("tests/test_metrics.py::TestDepartmentalH::test_three_paper_fixture_cutoff_2007",
            "tests/test_metrics.py::TestDepartmentalH::test_agrees_with_oracle_on_synthetic_corpora"),
           "h measured in year Y would count citations to the end of Y, not of Y-1"),
    Mutant("s-weighs-3-star-by-3-8ths", METRICS,
           "(3.0 * p3) / 7.0", "(3.0 * p3) / 8.0",
           ("tests/test_metrics.py::TestScores",),
           "s would weigh 3* work 3/8, not 3/7"),
    Mutant("s-weighs-2-star-by-1-8th", METRICS,
           "p2 / 7.0", "p2 / 8.0",
           ("tests/test_metrics.py::TestScores",),
           "s would weigh 2* work 1/8, not 1/7"),
    Mutant("s-prime-weighs-3-star-by-a-quarter", METRICS,
           "profile.p3 / 3.0", "profile.p3 / 4.0",
           ("tests/test_metrics.py::TestScores",),
           "s' would weigh 3* work 1/4, not 1/3"),
    Mutant("dense-ranks", RANKING,
           "rank, last = position, value", "rank, last = rank + 1, value",
           ("tests/test_ranking.py::TestRankTable::test_published_tie_pattern",),
           "a table would rank 1223, not the published 1224 of competition ranking"),
    Mutant("movement-up-reversed", RANKING,
           "elif e.rank < old:", "elif e.rank > old:",
           ("tests/test_ranking.py::TestMovement::test_published_examples",),
           "an institution that fell would be marked up, and one that rose none"),
    Mutant("tied-ranks-take-the-lowest-position", STATS,
           "rank = start + 0.5 * (len(tied) + 1)", "rank = start + 1.0",
           ("tests/test_stats.py::TestFractionalRanks",),
           "Spearman's rho would rank ties at their first position, not the mean of their positions"),
    Mutant("t-tail-one-more-degree-of-freedom", STATS,
           "df = n - 2", "df = n - 1",
           ("tests/test_stats.py::TestSignificance",),
           "the p-value of r over n pairs would read the t tail at n-1 degrees of freedom, not n-2"),
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
    # the frozen base of the value classes
    Mutant("equal-across-value-classes", CORPUS,
           "if other.__class__ is self.__class__ else NotImplemented",
           "if isinstance(other, _Frozen) else NotImplemented",
           ("tests/test_constructors.py::test_equal_fields_of_two_classes_are_not_equal",),
           "Lognormal(2.0, 3.0) would equal PowerLaw(2.0, 3.0), as two field tuples do"),
    Mutant("frozen-field-assigned", CORPUS,
           'raise FrozenInstanceError(f"cannot assign to field {name!r}")', "object.__setattr__(self, name, value)",
           ("tests/test_constructors.py::test_value_class_contract",),
           "a value class would take an assignment that skips its checks and changes its hash"),
    Mutant("shared-init-skips-post-init", CORPUS,
           "        self.__post_init__()  #", "        pass  #",
           ("tests/test_corpus.py::TestPublicationWindow::test_reversed_window_rejected",),
           "every class without its own __init__ would construct unchecked, e.g. the window 2007:2001"),
    Mutant("pickle-reverses-fields", CORPUS,
           "return type(self), self._values(self)", "return type(self), self._values(self)[::-1]",
           ("tests/test_constructors.py::test_value_class_contract",),
           "a pickled or copied value would come back with its fields in the wrong places"),
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
    parser.add_argument("--only", metavar="ID", action="append", choices=[m.id for m in MUTANTS],
                        help="run only this mutant; repeat to run several")
    args = parser.parse_args(argv)
    chosen = [m for m in MUTANTS if args.only is None or m.id in args.only]
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
