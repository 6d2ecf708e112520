"""The mutant catalogue stays in step with the code: each snippet occurs
exactly once in its file.  Running the mutants is ``python tests/mutants.py``,
outside tier-1."""

import pytest

from mutants import EQUIVALENT, MUTANTS, ROOT

ALL = MUTANTS + EQUIVALENT


def test_ids_are_unique():
    ids = [m.id for m in ALL]
    assert len(set(ids)) == len(ids)


@pytest.mark.parametrize("mutant", ALL, ids=[m.id for m in ALL])
def test_each_snippet_occurs_once_in_its_file(mutant):
    assert mutant.file.startswith("src/refh/")
    assert (ROOT / mutant.file).read_text(encoding="utf-8").count(mutant.snippet) == 1
    assert mutant.replacement != mutant.snippet and mutant.why


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.id for m in MUTANTS])
def test_each_mutant_names_tests_that_exist(mutant):
    assert mutant.tests
    for node in mutant.tests:
        assert (ROOT / node.split("::")[0]).is_file()
