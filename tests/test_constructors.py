"""The value classes, and the checked ones whose ``__init__`` is written by hand.

Every value class in ``refh`` derives from one private frozen base in
``refh.corpus``, which gives it what ``@dataclass(frozen=True)`` gave before:
``dataclasses.fields``, ``replace``, ``asdict`` and ``is_dataclass`` work on
it, and instances compare, hash, ``repr``, pickle and copy by their fields and
refuse assignment.  ``QualityProfile``, ``ScoreSet`` and ``RankEntry`` are
slotted and set each field once in their own ``__init__``; ``RankMove``,
slotted too, takes the base's shared one.  These tests pin what the generated
dataclass constructors gave callers: keyword and positional calls, defaults,
``dataclasses.replace`` running the checks, ``asdict`` (the
``rank --format json`` path), equality, hashing, pickling and every refusal
message; and, for all 16 classes, the contract of the frozen base.  Every
value class in ``refh`` has its own docstring.
"""

import copy
import importlib
import math
import pickle
import pkgutil
from dataclasses import FrozenInstanceError, asdict, astuple, fields, is_dataclass, replace

import pytest

import refh
from refh.corpus import Corpus, DisciplineMap, PublicationRecord, PublicationWindow, QualityProfile
from refh.metrics import GroupMetrics, ScoreSet
from refh.ranking import MovementReport, RankedTable, RankEntry, RankMove
from refh.stats import CorrelationReport, CorrelationSeries
from refh.synth import Lognormal, PowerLaw, SynthConfig

# class -> (one valid value of every field in field order, the defaulted fields' defaults)
CASES = {
    QualityProfile: (
        dict(institution="Alpha", discipline="chemistry", p4=25.0, p3=25.0, p2=25.0, p1=25.0,
             pu=0.0, staff_fte=10.0, p4_out=40.0, p3_out=30.0, p2_out=20.0, p1_out=10.0,
             pu_out=0.0, nci=1.5),
        dict(p4_out=None, p3_out=None, p2_out=None, p1_out=None, pu_out=None, nci=None),
    ),
    ScoreSet: (
        dict(institution="Alpha", discipline="chemistry", s=40.0, s_prime=33.5, s_output=50.0,
             strength=400.0, nci=1.5),
        dict(s_output=None, strength=None, nci=None),
    ),
    RankEntry: (dict(rank=2, institution="Alpha", value=1.5, movement="up"), dict(movement="none")),
    RankMove: (dict(old_rank=3, new_rank=2, movement="up"), {}),
}
CLASSES = list(CASES)


def build(cls, **changes):
    return cls(**{**CASES[cls][0], **changes})


@pytest.mark.parametrize("cls", CLASSES)
def test_keyword_and_positional_calls_agree(cls):
    values, _ = CASES[cls]
    assert [f.name for f in fields(cls)] == list(values)
    by_keyword, by_position = cls(**values), cls(*values.values())
    assert by_keyword == by_position
    assert asdict(by_position) == values
    assert [getattr(by_position, name) for name in values] == list(values.values())


@pytest.mark.parametrize("cls", CLASSES)
def test_defaults(cls):
    values, defaults = CASES[cls]
    required = {k: v for k, v in values.items() if k not in defaults}
    obj = cls(**required)
    assert asdict(obj) == {**required, **defaults}
    if required:
        with pytest.raises(TypeError):
            cls(*list(required.values())[:-1])


@pytest.mark.parametrize("cls", CLASSES)
def test_equality_hashing_and_frozen_slots(cls):
    a, b = build(cls), build(cls)
    field = next(f.name for f in fields(cls) if f.name in ("institution", "old_rank"))
    other = replace(a, **{field: "Beta" if field == "institution" else 9})
    assert a == b and hash(a) == hash(b) and a != other
    assert len({a, b, other}) == 2
    assert pickle.loads(pickle.dumps(a)) == a
    assert not hasattr(a, "__dict__")
    with pytest.raises(FrozenInstanceError):
        setattr(a, field, other)


def test_profile_institution_is_stripped_by_every_call():
    padded = build(QualityProfile, institution="  Alpha ")
    assert padded.institution == "Alpha" and padded == build(QualityProfile)
    assert replace(padded, institution=" Beta").institution == "Beta"


# (class, changes, the exact message); each was the message of the generated constructor too
REFUSALS = [
    (QualityProfile, dict(institution="  "), "profile for 'chemistry': institution must be non-empty"),
    (QualityProfile, dict(p4=101.0, p3=-1.0), "Alpha/chemistry: profile percentage 101.0 outside [0, 100]"),
    (QualityProfile, dict(p4=math.nan), "Alpha/chemistry: profile percentage nan outside [0, 100]"),
    (QualityProfile, dict(p1=24.0), "Alpha/chemistry: profile sum 99.0 != 100"),
    (QualityProfile, dict(p2_out=None), "Alpha/chemistry: output sub-profile must be complete or absent"),
    (QualityProfile, dict(p4_out=150.0),
     "Alpha/chemistry: output sub-profile percentage 150.0 outside [0, 100]"),
    (QualityProfile, dict(p4_out=30.0), "Alpha/chemistry: output sub-profile sum 90.0 != 100"),
    (QualityProfile, dict(staff_fte=0.0), "Alpha/chemistry: staff_fte must be positive, got 0.0"),
    (QualityProfile, dict(staff_fte=math.nan), "Alpha/chemistry: staff_fte must be positive, got nan"),
    (QualityProfile, dict(staff_fte=-math.inf), "Alpha/chemistry: staff_fte must be positive, got -inf"),
    (QualityProfile, dict(staff_fte=math.inf), "Alpha/chemistry: staff_fte must be finite, got inf"),
    (QualityProfile, dict(staff_fte=1e307), "Alpha/chemistry: staff_fte must be at most 1e+300, got 1e+307"),
    (QualityProfile, dict(staff_fte=math.nextafter(1e300, math.inf)),
     "Alpha/chemistry: staff_fte must be at most 1e+300, got 1.0000000000000002e+300"),
    (QualityProfile, dict(nci=-0.5), "Alpha/chemistry: nci must be non-negative, got -0.5"),
    (QualityProfile, dict(nci=-math.inf), "Alpha/chemistry: nci must be non-negative, got -inf"),
    (ScoreSet, dict(s=101.0), "Alpha: s = 101.0 outside [0, 100]"),
    (ScoreSet, dict(s_prime=-1.0), "Alpha: s_prime = -1.0 outside [0, 100]"),
    (ScoreSet, dict(s_output=100.5), "Alpha: s_output = 100.5 outside [0, 100]"),
    (ScoreSet, dict(s=math.nan), "Alpha: s = nan outside [0, 100]"),
    (RankEntry, dict(rank=0), "rank must be >= 1, got 0"),
    (RankEntry, dict(movement="sideways"),
     "movement must be one of ('up', 'down', 'none', 'new'), got 'sideways'"),
]


@pytest.mark.parametrize("cls, changes, message", REFUSALS)
def test_refusals_keep_their_messages(cls, changes, message):
    for attempt in (lambda: build(cls, **changes), lambda: replace(build(cls), **changes)):
        with pytest.raises(ValueError) as err:
            attempt()
        assert str(err.value) == message


def test_checks_accept_their_bounds():
    assert build(ScoreSet, s=100.0 + 1e-9, s_prime=0.0, s_output=None).s == 100.0 + 1e-9
    assert build(QualityProfile, nci=0.0, staff_fte=1e-300).nci == 0.0
    assert build(QualityProfile, staff_fte=1e300).staff_fte == 1e300
    assert RankMove(None, 1, "new").old_rank is None  # RankMove checks nothing


def test_every_refh_dataclass_has_its_own_docstring():
    # dataclasses gives a class with no docstring its signature as one
    modules = [importlib.import_module(f"refh.{m.name}") for m in pkgutil.iter_modules(refh.__path__)
               if not m.name.startswith("_")]
    classes = [cls for module in modules for cls in vars(module).values()
               if isinstance(cls, type) and is_dataclass(cls) and cls.__module__ == module.__name__]
    assert len(classes) == 16
    assert [cls.__name__ for cls in classes if cls.__doc__.startswith(f"{cls.__name__}(")] == []


WINDOW = PublicationWindow(2001, 2007)
RECORD = PublicationRecord("P1", 2003, "GB", {"Alpha"}, {"Chemistry"}, {2004: 2, 2006: 1})
REPORT = CorrelationReport("chemistry", "s", "h_2008", 5, 0.5, 0.4, 0.2, 0.3, False, False, 1)
ENTRY = build(RankEntry)

# class -> one valid instance, and its field names as @dataclass listed them
VALUE_CLASSES = {
    PublicationWindow: (WINDOW, ["start_year", "end_year"]),
    PublicationRecord: (RECORD, ["pub_id", "pub_year", "country", "affiliations", "categories",
                                 "citations_by_year"]),
    DisciplineMap: (DisciplineMap("chemistry", {"Chemistry"}), ["discipline", "categories"]),
    QualityProfile: (build(QualityProfile), list(CASES[QualityProfile][0])),
    Corpus: (Corpus((RECORD,), (build(QualityProfile),), (DisciplineMap("chemistry", {"Chemistry"}),)),
             ["publications", "profiles", "discipline_maps"]),
    GroupMetrics: (GroupMetrics("Alpha", "chemistry", WINDOW, {2008: 1, 2009: 2}),
                   ["institution", "discipline", "window", "h_by_year"]),
    ScoreSet: (build(ScoreSet), list(CASES[ScoreSet][0])),
    CorrelationReport: (REPORT, ["discipline", "measure_x", "measure_y", "n", "pearson_r", "spearman_rho",
                                 "p_pearson", "p_spearman", "significant_pearson", "significant_spearman",
                                 "n_dropped"]),
    CorrelationSeries: (CorrelationSeries("s", REPORT, {2008: REPORT}), ["measure_x", "baseline", "by_year"]),
    RankEntry: (ENTRY, ["rank", "institution", "value", "movement"]),
    RankedTable: (RankedTable("chemistry", "s", (ENTRY,)), ["discipline", "measure", "entries"]),
    RankMove: (build(RankMove), ["old_rank", "new_rank", "movement"]),
    MovementReport: (MovementReport("h_2008", "h_2014", {"Alpha": build(RankMove)}, ("Beta",)),
                     ["baseline_measure", "comparison_measure", "moves", "dropped"]),
    Lognormal: (Lognormal(2.0, 3.0), ["mu", "sigma"]),
    PowerLaw: (PowerLaw(2.0, 3.0), ["alpha", "x_min"]),
    SynthConfig: (SynthConfig(7, 4, (2, 3), WINDOW, PowerLaw(2.0, 3.0), 0.4, 0.5),
                  ["seed", "n_institutions", "papers_per_institution", "window", "citation_model",
                   "accrual", "quality_link"]),
}
# a field holds a dict, or a record, which holds one
UNHASHABLE = {PublicationRecord, Corpus, GroupMetrics, CorrelationSeries, MovementReport}


@pytest.mark.parametrize("cls", list(VALUE_CLASSES), ids=lambda cls: cls.__name__)
def test_value_class_contract(cls):
    obj, names = VALUE_CLASSES[cls]
    assert is_dataclass(cls) and is_dataclass(obj)
    assert [f.name for f in fields(cls)] == [f.name for f in fields(obj)] == names
    assert cls.__match_args__ == tuple(names)
    assert replace(obj) == obj and len(astuple(obj)) == len(asdict(obj)) == len(names)
    assert pickle.loads(pickle.dumps(obj)) == obj
    assert copy.copy(obj) == obj
    assert repr(obj) == f"{cls.__qualname__}({', '.join(f'{n}={getattr(obj, n)!r}' for n in names)})"
    for attempt in (lambda: setattr(obj, names[0], None), lambda: delattr(obj, names[0])):
        with pytest.raises(FrozenInstanceError):
            attempt()
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(obj)
    else:
        assert hash(replace(obj)) == hash(obj)


def test_equal_fields_of_two_classes_are_not_equal():
    assert Lognormal(2.0, 3.0) != PowerLaw(2.0, 3.0)
    assert Lognormal(2.0, 3.0) == Lognormal(2.0, 3.0)
