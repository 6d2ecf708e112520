"""The mutant catalogue stays in step with the code: each snippet occurs
exactly once in its file, and no replacement names code that is gone.
Running the mutants is ``python tests/mutants.py``, outside tier-1."""

import builtins
import keyword
import re
from importlib.util import find_spec

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


# an identifier that no "." comes before: a name the mutated code looks up, not an attribute
BARE_NAME = re.compile(r"(?<![\w.])[A-Za-z_]\w*")


@pytest.mark.parametrize("mutant", ALL, ids=[m.id for m in ALL])
def test_each_replacement_names_only_what_exists(mutant):
    # a name the refactored file no longer has raises NameError, which the runner counts as a kill
    known = set(BARE_NAME.findall((ROOT / mutant.file).read_text(encoding="utf-8")))
    added = set(BARE_NAME.findall(mutant.replacement)) - set(BARE_NAME.findall(mutant.snippet))
    unknown = {name for name in added - known
               if not keyword.iskeyword(name) and not hasattr(builtins, name) and find_spec(name) is None}
    assert not unknown
