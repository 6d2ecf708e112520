"""Citation-corpus data model, file ingestion, and document filtering.

A :class:`Corpus` bundles three collections: publication records carrying
per-year citation counts, graded quality profiles for (institution,
discipline) groups, and discipline maps that tie subject categories to
disciplines.  Everything downstream (h-indices, scores, correlations,
rankings) consumes a corpus through pure read-only operations, so a corpus
is immutable once built.

The record filter is :func:`matching_publications`, written once here.

File formats (CSV with a mandatory header row; a JSON list of objects with
the same field names is accepted when the extension is ``.json``):

``publications.csv``
    ``pub_id,pub_year,country,affiliations,categories`` where affiliations
    and categories are ``;``-separated lists.
``citations.csv``
    ``pub_id,citing_year,count``; repeated (pub_id, citing_year) rows are
    summed.
``profiles.csv``
    ``institution,discipline,p4,p3,p2,p1,pu,p4_out,p3_out,p2_out,p1_out,
    pu_out,staff_fte,nci``; the output sub-profile columns and nci may be
    empty.
``discipline_map.csv``
    ``discipline,category``, one row per pair.
"""

from __future__ import annotations

import csv
import gc
import io
import math
import sys
from contextlib import contextmanager, suppress
from functools import cache
from operator import attrgetter, call, index
from pathlib import Path
from types import MappingProxyType
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence, TextIO

PERCENT_SUM_TOL = 1e-9
MAX_STAFF_FTE = 1e300  # keeps strength = s * staff_fte finite, s being at most 100

PUBLICATIONS_HEADER = ["pub_id", "pub_year", "country", "affiliations", "categories"]
CITATIONS_HEADER = ["pub_id", "citing_year", "count"]
PROFILES_HEADER = [
    "institution", "discipline", "p4", "p3", "p2", "p1", "pu",
    "p4_out", "p3_out", "p2_out", "p1_out", "pu_out", "staff_fte", "nci",
]
DISCIPLINE_MAP_HEADER = ["discipline", "category"]


class CorpusValidationError(ValueError):
    """Raised on ingest when one or more rows violate the corpus invariants.

    ``violations`` holds one human-readable string per offending row,
    each prefixed with ``<file>:<line>`` where applicable.
    """

    def __init__(self, violations: Iterable[str]):
        self.violations = list(violations)
        super().__init__("\n".join(self.violations))


class UnknownDisciplineError(LookupError):
    """Raised when an operation names a discipline with no discipline map."""


def normalize_label(label: str) -> str:
    """Canonical form used for category and discipline comparisons."""
    return label.strip().casefold()


def normalize_country(code: str) -> str:
    return code.strip().upper()


def log_info(logger: str, message: str, *args) -> None:
    """``logging.getLogger(logger).info(message, *args)`` once something has
    imported ``logging``; before that no handler exists that could show it."""
    if (logging := sys.modules.get("logging")) is not None:
        logging.getLogger(logger).info(message, *args)


_EMPTY: Mapping = MappingProxyType({})  # the default of every mapping field


class _DataclassFields:
    """A value class's ``__dataclass_fields__``, for ``dataclasses.fields``, ``replace`` and
    ``asdict``: made on first read from a dataclass twin of the class, then stored on it."""

    def __get__(self, obj, cls):
        if cls is _Frozen:  # the base is not a dataclass
            raise AttributeError("__dataclass_fields__")
        from dataclasses import dataclass
        twin = type(cls.__name__, (), {"__module__": cls.__module__, "__qualname__": cls.__qualname__,
                                        "__doc__": cls.__doc__, "__annotations__": cls.__annotations__})
        cls.__dataclass_fields__ = fields = dataclass(frozen=True)(twin).__dataclass_fields__
        return fields


def _fields_setter(cls: type) -> Callable[..., object]:
    """``set_fields(obj, *values)``, the ``_set_fields`` that :class:`_Frozen` gives a slotted class
    ``cls`` with its own ``__init__``: it sets each field once, in field order, through the slot
    descriptors that a frozen class's ``__setattr__`` does not guard, and returns ``obj``.  It is
    written out one call per field, as dataclasses writes an ``__init__``: a loop over the
    descriptors would cost each object more than its checks do."""
    names = cls.__slots__
    namespace = {f"set_{name}": cls.__dict__[name].__set__ for name in names}
    exec(f"def set_fields(obj, {', '.join(names)}):\n"
         + "".join(f"    set_{name}(obj, {name})\n" for name in names) + "    return obj\n", namespace)
    return namespace["set_fields"]


class _Frozen:
    """A frozen dataclass's behaviour without importing ``dataclasses`` at start-up.  A subclass's
    fields are its own annotated names, in order; a class attribute is a field's default, save in a
    slotted class, whose own ``__init__`` keeps any defaults.  Instances of one class compare, hash,
    ``repr``, pickle and copy by their field values, and refuse assignment and deletion."""

    __slots__ = ()
    __dataclass_fields__ = _DataclassFields()

    def __init_subclass__(cls):
        cls.__match_args__ = names = tuple(cls.__annotations__)
        cls._values = attrgetter(*names)  # a tuple, in C: every subclass has two fields or more
        cls._defaults = {} if "__slots__" in vars(cls) else {n: vars(cls)[n] for n in names if n in vars(cls)}
        if "__slots__" in vars(cls) and "__init__" in vars(cls):  # that __init__ sets the fields through it
            cls._set_fields = _fields_setter(cls)

    def __init__(self, *args, **kwargs):
        names = self.__match_args__
        if kwargs or len(args) != len(names):  # bind the arguments as a dataclass's __init__ does
            bound = self._defaults | dict(zip(names, args)) | kwargs
            if len(args) > len(names) or kwargs.keys() & names[:len(args)] or bound.keys() != set(names):
                raise TypeError(f"{type(self).__qualname__}() takes each of {names} once, or its default; "
                                f"got {len(args)} positional arguments and the keywords {sorted(kwargs)}")
            args = [bound[n] for n in names]
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        self.__post_init__()  # looked up on each call, so a wrapper set on the class runs

    def __post_init__(self):
        pass

    def __eq__(self, other):
        return self._values(self) == other._values(other) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = map("{}={!r}".format, self.__match_args__, self._values(self))
        return f"{type(self).__qualname__}({', '.join(fields)})"

    def __reduce__(self):
        return type(self), self._values(self)

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")


class PublicationWindow(_Frozen):
    """Inclusive range of publication years, e.g. 2001:2007.  Each year must be
    an integer (``int`` or a type with ``__index__``, stored as ``int``)."""

    start_year: int
    end_year: int

    def __post_init__(self):
        for name in ("start_year", "end_year"):
            year = getattr(self, name)
            try:
                object.__setattr__(self, name, index(year))
            except TypeError:
                raise ValueError(f"window {name} must be an integer, got {year!r}") from None
        if self.start_year > self.end_year:
            raise ValueError(
                f"window start {self.start_year} after end {self.end_year}"
            )

    def contains(self, year: int) -> bool:
        return self.start_year <= year <= self.end_year

    def __str__(self) -> str:
        return f"{self.start_year}:{self.end_year}"

    @classmethod
    def parse(cls, text: str) -> "PublicationWindow":
        """Parse a ``START:END`` string."""
        parts = text.split(":")
        if len(parts) != 2:
            raise ValueError(f"window must be START:END, got {text!r}")
        try:
            start, end = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"window years must be integers, got {text!r}") from None
        return cls(start, end)


class PublicationRecord(_Frozen):
    """One publication with its per-citing-year citation counts.

    ``citations_by_year`` maps citing calendar year to a positive count;
    zero counts are dropped on construction so that equal citation
    histories compare equal.  The publication year, citing years and counts
    must be integers (``int`` or a type with ``__index__``); a string or a
    float is refused, not coerced.  An empty or missing country is stored as
    ``None`` and simply never matches a country filter; any other country
    must be a string.  The pub_id, affiliations and categories are stripped
    of surrounding whitespace, and blank affiliations and categories
    dropped, as the loader does.  A label set that is already an exact
    ``frozenset`` of stripped, non-blank labels is kept rather than copied,
    so records built from one set share it.

    Every record is checked and normalised here, in ``__init__``, which sets
    each field once, save those of :func:`load_publications`' clean pass: it
    reads only CSV files that break no rule, and sets each record's fields
    itself with ``_set_fields``.  The per-row validator, which reads the other
    files, flags each violation at its ``file:line`` and builds its records
    here.  Records compare by value but are unhashable, as their citation
    ``dict`` is.
    """

    pub_id: str
    pub_year: int
    country: str | None
    affiliations: frozenset[str]
    categories: frozenset[str]
    citations_by_year: Mapping[int, int]

    __slots__ = ("pub_id", "pub_year", "country", "affiliations", "categories", "citations_by_year")
    __hash__ = None  # type: ignore[assignment]

    def __init__(self, pub_id: str, pub_year: int, country: str | None,
                 affiliations: Iterable[str], categories: Iterable[str],
                 citations_by_year: Mapping[int, int] = _EMPTY):
        if not isinstance(pub_id, str) or not (pub_id := pub_id.strip()):
            raise ValueError("pub_id must be a non-empty string")
        try:
            pub_year = index(pub_year)
        except TypeError:
            raise ValueError(f"{pub_id}: pub_year must be an integer, got {pub_year!r}") from None
        try:
            affiliations = _stripped_set(affiliations)
        except TypeError:  # a string, a label that is not a string, or labels that are not iterable
            raise ValueError(f"{pub_id}: affiliations must be an iterable of strings") from None
        try:
            categories = _stripped_set(categories)
        except TypeError:
            raise ValueError(f"{pub_id}: categories must be an iterable of strings") from None
        if not affiliations:
            raise ValueError(f"{pub_id}: affiliations must be non-empty")
        if not categories:
            raise ValueError(f"{pub_id}: categories must be non-empty")
        if isinstance(country, str):
            country = country.strip()
        elif country is not None:
            raise ValueError(f"{pub_id}: country must be a string or None, got {country!r}")
        cleaned: dict[int, int] = {}
        last, ordered = pub_year - 1, True
        try:
            items = citations_by_year.items()
        except AttributeError:
            raise ValueError(f"{pub_id}: citations_by_year must be a mapping, got {citations_by_year!r}") from None
        for year, count in items:
            try:
                year, count = index(year), index(count)
            except TypeError:
                raise ValueError(
                    f"{pub_id}: citations_by_year must map integer years to integer counts, "
                    f"got {year!r}: {count!r}"
                ) from None
            if count < 0:
                raise ValueError(f"{pub_id}: negative citation count {count} in year {year}")
            if year > last:
                last = year
            elif year < pub_year:
                raise ValueError(
                    f"{pub_id}: citing year {year} precedes publication year {pub_year}"
                )
            else:
                ordered = False
            if count:
                cleaned[year] = cleaned.get(year, 0) + count
        self._set_fields(pub_id, pub_year, country or None, affiliations, categories,
                         cleaned if ordered else _in_year_order(cleaned))


def _stripped_set(labels: Iterable[str]) -> frozenset[str]:
    """``labels`` stripped of surrounding whitespace, blanks dropped.

    An exact ``frozenset`` whose labels are all exact, stripped, non-blank
    strings is returned itself rather than copied; any other input (a list,
    a set, a ``frozenset`` subclass, padded or blank labels) gets a new set.
    A string raises ``TypeError``, as a label that is not a string does:
    it would give the set of its characters.
    """
    if type(labels) is frozenset:
        for label in labels:
            if type(label) is not str or not label or label.strip() != label:
                break
        else:
            return labels
    elif isinstance(labels, str):
        raise TypeError("a string, not a collection of labels")
    stripped = frozenset(map(str.strip, labels))
    return stripped - {""} if "" in stripped else stripped


def _in_year_order(citations: dict[int, int]) -> dict[int, int]:
    """``citations`` itself when its years ascend, else a copy sorted by year."""
    return citations if [*citations] == sorted(citations) else dict(sorted(citations.items()))


class DisciplineMap(_Frozen):
    """A discipline defined as the union of subject-category labels, read by
    the record label rule (:func:`_stripped_set`): strings only, stored
    stripped, blanks dropped; a string, or a set with no label left, is refused.
    The discipline is a non-blank string, stored stripped."""

    discipline: str
    categories: frozenset[str]

    def __post_init__(self):
        if not isinstance(self.discipline, str) or not self.discipline.strip():
            raise ValueError(f"discipline must be a non-blank string, got {self.discipline!r}")
        object.__setattr__(self, "discipline", self.discipline.strip())
        if isinstance(self.categories, str):  # not the set of its characters
            raise ValueError(f"discipline {self.discipline!r}: categories must be a collection of labels, "
                             f"not the string {self.categories!r}")
        try:
            object.__setattr__(self, "categories", _stripped_set(self.categories))
        except TypeError:
            raise ValueError(f"discipline {self.discipline!r}: categories must be strings") from None
        if not self.categories:
            raise ValueError(f"discipline {self.discipline!r}: empty category set")

    def matches(self, categories: Iterable[str]) -> bool:
        """True when any of ``categories`` belongs to this discipline."""
        normalized = {normalize_label(c) for c in self.categories}
        return any(normalize_label(c) in normalized for c in categories)


class QualityProfile(_Frozen):
    """Graded quality profile for one (institution, discipline) group.

    ``p4 .. pu`` are the percentages of work rated 4*, 3*, 2*, 1* and
    Unclassified; they must sum to 100.  The optional ``*_out`` fields are
    the output-only sub-profile (all five present or all absent).
    ``staff_fte`` is the submitted staff count, in (0, ``MAX_STAFF_FTE``].
    ``nci`` is an externally supplied normalized citation impact; it
    is ingested, never computed, and must be non-negative and finite.
    ``institution`` and ``discipline`` are stripped of surrounding
    whitespace, as affiliations are, and each must be a non-blank string.
    ``__init__`` checks every profile, loaded or built, in that order and
    sets each field once; ``dataclasses.replace`` runs it too.
    """

    institution: str
    discipline: str
    p4: float
    p3: float
    p2: float
    p1: float
    pu: float
    staff_fte: float
    p4_out: float | None
    p3_out: float | None
    p2_out: float | None
    p1_out: float | None
    pu_out: float | None
    nci: float | None
    __slots__ = ("institution", "discipline", "p4", "p3", "p2", "p1", "pu", "staff_fte",
                 "p4_out", "p3_out", "p2_out", "p1_out", "pu_out", "nci")

    def __init__(self, institution: str, discipline: str, p4: float, p3: float, p2: float, p1: float,
                 pu: float, staff_fte: float, p4_out: float | None = None, p3_out: float | None = None,
                 p2_out: float | None = None, p1_out: float | None = None,
                 pu_out: float | None = None, nci: float | None = None):
        if not isinstance(institution, str):
            raise ValueError(f"profile for {discipline!r}: institution must be a string, got {institution!r}")
        if not (institution := institution.strip()):
            raise ValueError(f"profile for {discipline!r}: institution must be non-empty")
        if not isinstance(discipline, str) or not discipline.strip():
            raise ValueError(f"{institution}: discipline must be a non-blank string, got {discipline!r}")
        discipline = discipline.strip()
        who = f"{institution}/{discipline}"
        self._check_bands(who, (p4, p3, p2, p1, pu))
        outs = (p4_out, p3_out, p2_out, p1_out, pu_out)
        if (absent := outs.count(None)) and absent < 5:
            raise ValueError(f"{who}: output sub-profile must be complete or absent")
        if not absent:
            self._check_bands(who, outs, "output sub-profile")
        if not 0 < staff_fte <= MAX_STAFF_FTE:  # NaN is not positive
            rule = ("positive" if not staff_fte > 0 else "finite" if staff_fte == math.inf
                    else f"at most {MAX_STAFF_FTE:g}")
            raise ValueError(f"{who}: staff_fte must be {rule}, got {staff_fte}")
        if nci is not None and not 0 <= nci < math.inf:
            raise ValueError(f"{who}: nci must be {'non-negative' if nci < 0 else 'finite'}, got {nci}")
        self._set_fields(institution, discipline, p4, p3, p2, p1, pu, staff_fte,
                         p4_out, p3_out, p2_out, p1_out, pu_out, nci)

    @staticmethod
    def _check_bands(who, bands, kind="profile"):
        for p in bands:
            if not 0.0 <= p <= 100.0:
                raise ValueError(f"{who}: {kind} percentage {p} outside [0, 100]")
        total = sum(bands)
        if abs(total - 100.0) > PERCENT_SUM_TOL:
            raise ValueError(f"{who}: {kind} sum {total!r} != 100")

    @property
    def has_output_profile(self) -> bool:
        return self.p4_out is not None

    def percentages(self) -> tuple[float, float, float, float, float]:
        return (self.p4, self.p3, self.p2, self.p1, self.pu)

    def output_percentages(self) -> tuple[float, float, float, float, float] | None:
        if not self.has_output_profile:
            return None
        return (self.p4_out, self.p3_out, self.p2_out, self.p1_out, self.pu_out)


class Corpus(_Frozen):
    """Immutable bundle of publications, profiles, and discipline maps.

    Collections are stored in canonical sorted order (publications by
    pub_id, profiles by institution/discipline, maps by discipline), so
    two corpora holding the same data compare equal regardless of the
    order they were assembled in.  Duplicate pub_ids, profiles and maps are
    refused here for library-built input, as the loaders refuse them in
    files.  Loaded input has none, so duplicate pub_ids are found by
    comparing neighbours after the sort rather than through a set: clean
    input pays for the sort, which is linear on the already sorted rows of
    a file written by :func:`write_corpus`, and one pass.
    """

    publications: tuple[PublicationRecord, ...] = ()
    profiles: tuple[QualityProfile, ...] = ()
    discipline_maps: tuple[DisciplineMap, ...] = ()

    def __post_init__(self):
        pubs = tuple(sorted(self.publications, key=attrgetter("pub_id")))
        profs = tuple(sorted(self.profiles, key=lambda p: (p.institution, p.discipline)))
        maps = tuple(sorted(self.discipline_maps, key=lambda m: m.discipline))
        object.__setattr__(self, "publications", pubs)
        object.__setattr__(self, "profiles", profs)
        object.__setattr__(self, "discipline_maps", maps)
        # sorted, so each duplicate pub_id follows its first copy
        violations = [f"duplicate pub_id {b.pub_id!r}" for a, b in zip(pubs, pubs[1:]) if a.pub_id == b.pub_id]
        seen_profiles: set[tuple[str, str]] = set()
        for p in profs:
            key = (p.institution, normalize_label(p.discipline))
            if key in seen_profiles:
                violations.append(f"duplicate profile for {p.institution}/{p.discipline}")
            seen_profiles.add(key)
        seen_disc: set[str] = set()
        for m in maps:
            label = normalize_label(m.discipline)
            if label in seen_disc:
                violations.append(f"duplicate discipline map {m.discipline!r}")
            seen_disc.add(label)
        if violations:
            raise CorpusValidationError(violations)

    def discipline_map(self, discipline: str) -> DisciplineMap:
        wanted = normalize_label(discipline)
        for m in self.discipline_maps:
            if normalize_label(m.discipline) == wanted:
                return m
        raise UnknownDisciplineError(f"no discipline map for {discipline!r}")

    def institutions(self) -> tuple[str, ...]:
        """Sorted union of all affiliations across publications."""
        return tuple(sorted({a for r in self.publications for a in r.affiliations}))


def matching_publications(
    corpus: Corpus, country: str, window: PublicationWindow, discipline: str
) -> list[PublicationRecord]:
    """Records, sorted by pub_id, whose (i) country equals ``country``,
    (ii) publication year lies inside ``window``, and (iii) categories
    include one of the discipline's.  Records without a country never match.

    Each distinct country string and category set is normalised and
    matched once per call; loaded records share their category sets (see
    :func:`load_publications`).
    """
    dmap = corpus.discipline_map(discipline)
    wanted = normalize_country(country)
    in_country = cache(lambda c: normalize_country(c) == wanted)
    in_discipline = cache(dmap.matches)
    return [
        r
        for r in corpus.publications
        if r.country is not None
        and in_country(r.country)
        and window.contains(r.pub_year)
        and in_discipline(r.categories)
    ]


def filter_documents(
    corpus: Corpus, country: str, window: PublicationWindow, discipline: str, institution: str
) -> list[PublicationRecord]:
    """The records of :func:`matching_publications` that also pass step (iv):
    ``institution`` is among their affiliations.  A multi-affiliation record
    counts fully for each of its institutions."""
    wanted = institution.strip()
    return [r for r in matching_publications(corpus, country, window, discipline)
            if wanted in r.affiliations]


# ---------------------------------------------------------------------------
# Ingestion
# ---------------------------------------------------------------------------


def _read_rows(path: Path, rules: Mapping[str, Callable[[Any], Any]],
               violations: list[str]) -> Iterator[tuple[tuple[str, int], list]]:
    """Yield CSV or JSON rows as ((file name, line number), values), values in header order.

    This is the validators' reader: a loader reads a CSV file here only once
    its own clean pass has given up on it.  ``rules`` maps each field of the
    header, in order, to its cell rule: a function of the raw cell (a CSV
    cell stripped, a JSON value as it is, ``None`` for a missing key or null)
    that returns the value or raises ``ValueError`` saying what is wrong.
    Each refused cell is flagged as ``field 'x': <what>`` at its row's
    ``file:line``, and that row is dropped.  Breaches of :func:`_shaped_rows`
    are added to ``violations`` once the rows are exhausted, ahead of any
    added while reading them.
    """
    header, name, cell_rules = list(rules), path.name, tuple(rules.values())
    start, shape = len(violations), []
    for line_no, cells in _shaped_rows(path, header, shape):
        try:
            values = list(map(call, cell_rules, cells))
        except ValueError:  # read the row again, to flag each refused cell
            for field, rule, cell in zip(header, cell_rules, cells):
                try:
                    rule(cell)
                except ValueError as exc:
                    violations.append(f"{name}:{line_no}: field {field!r}: {exc}")
        else:
            yield (name, line_no), values
    violations[start:start] = shape


def _shaped_rows(path: Path, header: list[str], shape: list[str]) -> Iterator[tuple[int, tuple]]:
    """(line number, cells) of each row that has the file's shape, cells in header order, each breach added to
    ``shape``.  CSV line numbers are physical lines.  A blank row is skipped.  A row with a line break in a cell
    (a CSV record that spans lines), a NUL in a CSV cell or a line break or NUL in a JSON string is refused.
    The header must match ``header`` exactly for CSV; JSON objects may omit optional keys.  A leading UTF-8
    byte-order mark is dropped.  A file that is not valid UTF-8 raises ``ValueError`` at its ``file:line``."""
    if path.suffix.lower() == ".json":
        import json

        try:
            data = json.loads(text := path.read_text(encoding="utf-8-sig"))
        except UnicodeDecodeError:  # a ValueError too, but not this file's violation
            raise _not_utf8(path) from None
        except (ValueError, RecursionError) as exc:  # also an integer too long, or nesting too deep
            shape.append(f"{path.name}: invalid JSON: {exc}")
            return
        if not isinstance(data, list):
            shape.append(f"{path.name}: expected a JSON list of objects")
            return
        # json refuses a control character in a string, so a string holds a line break or NUL only as an escape
        fields, escaped = set(header), "\\" in text
        for i, obj in enumerate(data, start=1):
            if not isinstance(obj, dict):
                shape.append(f"{path.name}:{i}: expected an object")
            elif not obj.keys() <= fields:
                shape.append(f"{path.name}:{i}: unknown field(s) {sorted(obj.keys() - fields)}")
            elif escaped and (broken := [k for k, v in obj.items() if _breaks_line(v)]):
                shape.extend(f"{path.name}:{i}: field {k!r}: line break or NUL in {obj[k]!r}" for k in broken)
            else:
                yield i, tuple(map(obj.get, header))  # a tuple: a refused row is read twice
        return

    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            got_header = next(reader, None)
            if got_header is None:
                shape.append(f"{path.name}: empty file, expected header {','.join(header)}")
                return
            if [h.strip() for h in got_header] != header:
                shape.append(f"{path.name}:1: bad header {','.join(got_header)!r}, expected {','.join(header)!r}")
                return
            # number records by physical line; a record spans more than one
            # only when a quoted cell holds a line break, which no field may
            end, width = reader.line_num, len(header)
            for row in reader:
                line_no, end = end + 1, reader.line_num
                if end != line_no:
                    shape.append(f"{path.name}:{line_no}: record spans lines {line_no}-{end}; "
                                 f"a cell contains a line break")
                elif not any(cells := tuple(map(str.strip, row))):
                    continue  # a blank row is skipped
                elif len(cells) != width:
                    shape.append(f"{path.name}:{line_no}: expected {width} fields, got {len(row)}")
                elif _breaks_line("".join(row)):  # one test of the row, then one of each cell
                    shape.extend(f"{path.name}:{line_no}: field {k!r}: line break or NUL in {c!r}"
                                 for k, c in zip(header, row) if _breaks_line(c))
                else:
                    yield line_no, cells
        except csv.Error as exc:  # e.g. a field over csv.field_size_limit(); the read stops here
            shape.append(f"{path.name}:{reader.line_num}: {exc}")
        except UnicodeDecodeError:
            raise _not_utf8(path) from None


def _breaks_line(value) -> bool:
    """Whether a CSV cell, a JSON string or a string in a JSON list holds a line
    break or a NUL; either would reach an output row, which a line break splits."""
    if isinstance(value, str):
        return "\n" in value or "\r" in value or "\0" in value
    return isinstance(value, list) and any(isinstance(s, str) and _breaks_line(s) for s in value)


def _not_utf8(path: Path) -> ValueError:
    """The error for a file that is not valid UTF-8, at the physical line of its
    first bad byte; a decoder's own position is inside the chunk it was given."""
    raw = path.read_bytes()
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raw = raw[: exc.start + 1]  # the bad byte is never a line break, so it ends a partial line
    return ValueError(f"{path.name}:{len(raw.splitlines())}: not valid UTF-8")


def _flag(violations: list[str], where: tuple[str, int], message: str) -> None:
    """Record one violation at ``where`` = (file name, line number)."""
    violations.append(f"{where[0]}:{where[1]}: {message}")


def _text(raw) -> str:
    """The rule of a text cell: stripped, ``""`` if null."""
    if raw is None or isinstance(raw, str):
        return (raw or "").strip()
    raise ValueError(f"not a string: {raw!r}")


def _name(raw) -> str:
    """The rule of a name cell: a text cell that is not blank."""
    if text := _text(raw):
        return text
    raise ValueError("missing value")


def _number(parse: type, optional: bool = False) -> Callable[[Any], int | float | None]:
    """The rule of a number cell read by ``parse``, ``int`` or ``float``: a blank
    cell is ``None`` if ``optional`` and refused if not, as is a malformed or
    (for ``float``) an infinite or NaN one."""
    kind = "an integer" if parse is int else "a number"

    def number(raw):
        if not (text := "" if raw is None else str(raw).strip()):
            if optional:
                return None
            raise ValueError("missing value")
        if not _plain(text):
            raise ValueError(f"not {kind}: {raw!r}")
        try:
            value = parse(text)
        except ValueError:
            raise ValueError(f"not {kind}: {raw!r}") from None
        if parse is float and not math.isfinite(value):
            raise ValueError(f"not a finite number: {raw!r}")
        return value
    return number


def _plain(text: str) -> bool:
    """Whether ``text`` is ASCII with no ``_``, as a number cell must be: ``int``
    and ``float`` also read other scripts' digits and ``_`` between digits."""
    return text.isascii() and "_" not in text


class _Parsed(dict):
    """A cell -> ``parse(cell)``, parsed once per distinct cell, so that equal
    cells share one value; an error from ``parse`` is raised as it is."""

    def __init__(self, parse: Callable[[str], object]):
        self.parse = parse

    def __missing__(self, cell: str):
        value = self[cell] = self.parse(cell)
        return value


def _int_cell(cell: str) -> int:
    """A number cell's ``int``; ``ValueError`` unless it is :func:`_plain`."""
    if not _plain(cell):
        raise ValueError(cell)
    return int(cell)


def _labels_cell(cell: str) -> frozenset[str]:
    """A ``;``-separated cell's stripped, non-blank items."""
    return _stripped_set(cell.split(";"))


def _country_cell(cell: str) -> str | None:
    """A country cell stripped and interned, ``None`` when blank."""
    return sys.intern(country) if (country := cell.strip()) else None


def _labels(interned: _Parsed) -> Callable[[Any], frozenset[str]]:
    """The rule of a list cell, a ``;``-separated string or a JSON list of strings:
    its labels as a frozenset that every equal cell shares through ``interned``."""
    def labels(raw):
        if raw is None or isinstance(raw, str):
            return interned[raw or ""]
        for item in raw if isinstance(raw, list) else [raw]:
            if not isinstance(item, str):
                raise ValueError(f"not a string: {item!r}")
        items = _stripped_set(raw)
        return interned.setdefault(items, items)
    return labels


@contextmanager
def collector_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector while a block or decorated function
    builds records, which form no reference cycles: the collector would only
    walk them again and again as they accumulate.  Its prior state returns.
    A command-line run (:func:`refh.cli.run`) already has the collector off,
    so this matters to library callers."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@collector_paused()
def load_publications(
    pub_file: str | Path, citation_file: str | Path
) -> tuple[tuple[PublicationRecord, ...], list[str]]:
    """Parse the publication and citation files into records plus violations.

    Clean CSV files take one tight pass each, the only code that sets a
    record's fields without running ``PublicationRecord.__init__``.  It
    reads the file once, in blocks (see :func:`_regular_chunks`), skips
    blank rows and gives up at a breach of any rule, a NUL byte, a header
    not exactly the expected one, a row of another width, a record that
    spans lines or a CSV error.  On giving up, and for JSON input, the
    per-row validator reads both files anew; it alone writes messages,
    each at its ``file:line``: the cells its rules refuse (see :func:`_read_rows`), a
    duplicate or unknown pub_id, a negative count, a citing year before the publication year,
    and a record that ``__init__``, which builds each record, refuses.  The clean
    pass parses each distinct year, count, label-list and country cell
    once, and both readers parse label lists and countries so, through one
    table per kind of cell: equal cells give one shared value (a frozenset,
    or an interned country string, whatever the padding), saving time and
    memory where cells repeat: categories come from a fixed classification,
    a group names few institutions and a corpus few countries.  Equal years
    share one ``int`` in both readers.

    What the load skips, and why that is safe: the cyclic garbage collector
    is paused while it runs (see :func:`collector_paused`).  A record's
    citations are re-sorted only when some record's citation rows did not
    arrive as one ascending run, as :func:`write_corpus` writes them.
    """
    pub_path, cite_path = Path(pub_file), Path(citation_file)
    with suppress(csv.Error, ValueError):  # not clean: the validator says where
        if ".json" not in (pub_path.suffix.lower(), cite_path.suffix.lower()):
            return _load_clean(pub_path, cite_path), []
    return _validate_publications(pub_path, cite_path)


_CHUNK_ROWS = 4096


def _regular_chunks(path: Path, header: list[str]) -> Iterator[tuple[list[list[str]], bool]]:
    """A regular CSV file's data rows in chunks, less blank rows of the wrong
    width, each with whether its text is plain (see :func:`_cells`).

    The file is read once: the header line, then blocks of ``_CHUNK_ROWS * 16``
    characters, each completed by ``readline``, which ends a line where ``csv``
    does, and parsed as one chunk.  A leading UTF-8 byte-order mark is dropped.
    A ``ValueError`` or ``csv.Error`` here, at a NUL, a header other than
    ``header`` (parsed as the rows are) or a record that spans lines, and the
    caller gives up; it also gives up on a non-blank row of the wrong width."""
    width = len(header)
    with path.open(newline="", encoding="utf-8-sig") as fh:
        if _cells(fh.readline().removesuffix("\n"), width)[0] != [header]:
            raise ValueError("header")
        while block := fh.read(_CHUNK_ROWS * 16):
            yield _cells((block + fh.readline()).removesuffix("\n"), width)


def _cells(text: str, width: int) -> tuple[list[list[str]], bool]:
    r"""The CSV rows of the lines of ``text`` (a block of :func:`_regular_chunks`),
    less blank rows other than ``width`` wide, and whether the text is plain:
    ASCII with no ``_``, as every number cell must be.

    Lines with no ``"``, no ``\r`` and none over ``csv.field_size_limit()`` are
    split at ``,``, which on such text gives ``csv.reader``'s cells in about half
    the time.  Other text takes a strict ``csv.reader``, which raises ``csv.Error`` at
    a quoted cell the text leaves open; a record that spans lines raises
    ``ValueError``, as the reader then reads more lines than rows."""
    if "\0" in text:  # csv reads a NUL as text; the validator refuses it
        raise ValueError("a NUL byte")
    lines = text.split("\n")
    limit = csv.field_size_limit()
    if '"' in text or "\r" in text or len(text) > limit and max(map(len, lines)) > limit:
        reader = csv.reader(io.StringIO(text, newline=""), strict=True)
        rows = list(reader)
        if len(rows) != reader.line_num:
            raise ValueError("a record spans lines")
    else:
        rows = [line.split(",") for line in lines]
    if set(map(len, rows)) != {width}:
        rows = [row for row in rows if len(row) == width or any(map(str.strip, row))]
    return rows, _plain(text)


def _load_clean(pub_path: Path, cite_path: Path) -> tuple[PublicationRecord, ...]:
    """The records of a clean pair of CSV files; raises at the first doubt."""
    interned, ints, countries = _Parsed(_labels_cell), _Parsed(_int_cell), _Parsed(_country_cell)
    records: dict[str, PublicationRecord] = {}
    set_fields = PublicationRecord._set_fields
    for chunk, _ in _regular_chunks(pub_path, PUBLICATIONS_HEADER):
        for pub_id, pub_year, country, affiliations, categories in chunk:
            pub_id = pub_id.strip()
            if not pub_id or pub_id in records:
                if pub_id or any(map(str.strip, (pub_year, country, affiliations, categories))):
                    raise ValueError("a blank or duplicate pub_id")
                continue  # a blank row
            records[pub_id] = set_fields(object.__new__(PublicationRecord), pub_id, ints[pub_year],
                                         countries[country], interned[affiliations], interned[categories], {})
    if not all(interned.values()):  # every set here is a loaded record's
        raise ValueError("an empty affiliation or category set")
    # ``ordered`` while each record's rows are one run of rows in ascending year order;
    # then a year above the run's last is new to the record, and its count is stored as is
    ordered, run_id = True, None
    for chunk, _ in _regular_chunks(cite_path, CITATIONS_HEADER):
        for pub_id, citing_year, count in chunk:
            if pub_id != run_id:
                if (record := records.get(pub_id.strip())) is None:
                    if any(map(str.strip, (pub_id, citing_year, count))):
                        raise ValueError("an unknown pub_id")
                    continue  # a blank row
                run_id, citations, pub_year = pub_id, record.citations_by_year, record.pub_year
                ordered, last = ordered and not citations, pub_year
            citing_year, count = ints[citing_year], ints[count]
            if citing_year > last and ordered and count > 0:
                citations[citing_year] = count
            else:
                if citing_year < last:
                    if citing_year < pub_year:
                        raise ValueError("a citing year before the publication year")
                    ordered = False
                if count > 0:
                    citations[citing_year] = citations.get(citing_year, 0) + count
                elif count:
                    raise ValueError("a negative count")
            last = citing_year
    for record in () if ordered else records.values():
        object.__setattr__(record, "citations_by_year", _in_year_order(record.citations_by_year))
    return tuple(records.values())


def _validate_publications(pub_path: Path, cite_path: Path) -> tuple[tuple[PublicationRecord, ...], list[str]]:
    """The per-row validator; unlike the clean pass, it builds each record with ``PublicationRecord.__init__``."""
    violations: list[str] = []
    labels, countries, years = _labels(_Parsed(_labels_cell)), _Parsed(_country_cell), {}
    pub_rules = {"pub_id": _name, "pub_year": _number(int), "country": lambda raw: countries[_text(raw)],
                 "affiliations": labels, "categories": labels}
    # pub_id -> (where, pub_year, country, affiliations, categories, citations)
    parsed: dict[str, tuple] = {}
    for where, (pub_id, pub_year, country, affiliations, categories) in _read_rows(pub_path, pub_rules, violations):
        if pub_id in parsed:
            _flag(violations, where, f"duplicate pub_id {pub_id!r}")
        else:
            parsed[pub_id] = (where, years.setdefault(pub_year, pub_year), country, affiliations, categories, {})

    cite_rules = {"pub_id": _text, "citing_year": _number(int), "count": _number(int)}
    for where, (pub_id, citing_year, count) in _read_rows(cite_path, cite_rules, violations):
        if (entry := parsed.get(pub_id)) is None:
            _flag(violations, where, f"unknown pub_id {pub_id!r}")
        elif count < 0:
            _flag(violations, where, f"{pub_id}: negative citation count {count}")
        elif citing_year < (pub_year := entry[1]):
            _flag(violations, where, f"{pub_id}: citing year {citing_year} precedes publication year {pub_year}")
        else:
            citations = entry[5]
            citing_year = years.setdefault(citing_year, citing_year)
            citations[citing_year] = citations.get(citing_year, 0) + count

    records = []
    for pub_id, (where, *fields) in parsed.items():
        try:
            records.append(PublicationRecord(pub_id, *fields))
        except ValueError as exc:  # an empty label list
            _flag(violations, where, str(exc))
    return tuple(records), violations


_NO_OUTPUT = (None,) * 5


def _clean_profiles(path: Path) -> tuple[QualityProfile, ...]:
    """The profiles of a clean CSV file; raises at the first doubt."""
    profiles: dict[tuple[str, str], QualityProfile] = {}
    for chunk, plain in _regular_chunks(path, PROFILES_HEADER):
        if not plain and not all(_plain(cell) for row in chunk for cell in row[2:]):
            raise ValueError("a number cell that is not ASCII or holds a '_'")
        for institution, discipline, p4, p3, p2, p1, pu, *outs, staff_fte, nci in chunk:
            if len(outs) != 5:
                raise ValueError("a row of another width")
            profile = QualityProfile(
                institution, discipline, float(p4), float(p3), float(p2), float(p1), float(pu),
                float(staff_fte), *(map(float, outs) if "".join(outs).strip() else _NO_OUTPUT),
                float(nci) if nci.strip() else None)
            if (key := (profile.institution, profile.discipline.casefold())) in profiles:  # names come stripped
                raise ValueError("a duplicate profile")
            profiles[key] = profile
    return tuple(profiles.values())


# profiles.csv's cell rules; the numbers are QualityProfile's fields of the same names
_PROFILE_RULES = {
    "institution": _name, "discipline": _name,
    **dict.fromkeys(["p4", "p3", "p2", "p1", "pu"], _number(float)),
    **dict.fromkeys(["p4_out", "p3_out", "p2_out", "p1_out", "pu_out"], _number(float, optional=True)),
    "staff_fte": _number(float), "nci": _number(float, optional=True),
}


def load_profiles(profile_file: str | Path) -> tuple[tuple[QualityProfile, ...], list[str]]:
    """Parse the profile file into (profiles, violations); raises only on a file
    it cannot read or that is not valid UTF-8.

    Profiles load as publications do (see :func:`load_publications`): a
    clean CSV file is read once, in blocks (see :func:`_regular_chunks`), and
    the pass builds each profile with one positional ``QualityProfile`` call,
    which strips the names.  It gives up at the first doubt, such as a
    blank or duplicate name, a number cell that is not ASCII or holds a
    ``_`` (looked for cell by cell only in a chunk whose text is not plain),
    a cell ``float`` refuses or a profile that call refuses.  On giving up,
    and for JSON input, the per-row validator below reads the file anew; it
    alone writes messages: the cells its rules refuse (see :func:`_read_rows`),
    a duplicate profile and a profile ``QualityProfile`` refuses.
    """
    path = Path(profile_file)
    with suppress(csv.Error, ValueError):  # not clean: the validator says where
        if path.suffix.lower() != ".json":
            return _clean_profiles(path), []
    violations: list[str] = []
    profiles: dict[tuple[str, str], QualityProfile] = {}
    for where, values in _read_rows(path, _PROFILE_RULES, violations):
        institution, discipline, p4, p3, p2, p1, pu, *outs, staff_fte, nci = values
        if (key := (institution, normalize_label(discipline))) in profiles:
            _flag(violations, where, f"duplicate profile for {institution}/{discipline}")
            continue
        try:
            profiles[key] = QualityProfile(institution, discipline, p4, p3, p2, p1, pu, staff_fte, *outs, nci)
        except ValueError as exc:
            _flag(violations, where, f"profile sum/shape error: {exc}")
    return tuple(profiles.values()), violations


def load_discipline_maps(map_file: str | Path) -> tuple[tuple[DisciplineMap, ...], list[str]]:
    violations: list[str] = []
    maps: dict[str, tuple[str, set[str]]] = {}  # normalized discipline -> (its first spelling, its categories)
    for _, (discipline, category) in _read_rows(Path(map_file), {"discipline": _name, "category": _name},
                                                violations):
        maps.setdefault(normalize_label(discipline), (discipline, set()))[1].add(category)
    return tuple(DisciplineMap(*maps[key]) for key in sorted(maps)), violations


def ingest_corpus(
    pub_file: str | Path,
    citation_file: str | Path,
    profile_file: str | Path,
    map_file: str | Path,
) -> Corpus:
    """Build a validated :class:`Corpus` from the four input files.

    Every violation found across all files is collected and raised as a
    single :class:`CorpusValidationError`, so a broken file reports all of
    its bad rows at once rather than one per run.
    """
    publications, violations = load_publications(pub_file, citation_file)
    profiles, profile_violations = load_profiles(profile_file)
    maps, map_violations = load_discipline_maps(map_file)
    violations.extend(profile_violations)
    violations.extend(map_violations)
    if violations:
        raise CorpusValidationError(violations)
    return Corpus(publications=publications, profiles=profiles, discipline_maps=maps)


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    r"""Write a header and rows through ``csv.writer`` as UTF-8 CSV with ``\n`` line endings.  A rank table
    (:func:`refh.ranking.render_table`) and :func:`write_corpus`' blocks are these bytes, made as text."""
    with _csv_file(path, header) as (_, writer):
        writer.writerows(rows)


@contextmanager
def _csv_file(path: str | Path, header: Sequence[str]) -> Iterator[tuple[TextIO, Any]]:
    """``path`` open to write UTF-8 with no newline translation, its header written; yields it and its writer."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        yield fh, writer


def _cell(text: str) -> str:
    r"""``text`` as a cell of :func:`write_csv`: as it is if it holds none of ``,`` ``"`` ``\r`` ``\n``, else
    as csv renders it, for csv decides which of these it quotes (a lone ``\r`` from Python 3.13 on)."""
    if "," not in text and '"' not in text and "\r" not in text and "\n" not in text:
        return text
    csv.writer(buffer := io.StringIO(), lineterminator="\n").writerow([text])
    return buffer.getvalue()[:-1]


def write_corpus(corpus: Corpus, out_dir: str | Path) -> dict[str, Path]:
    """Write the four corpus CSVs into ``out_dir``; returns the paths.

    Output is canonical (sorted rows, ``;``-joined sorted lists), so the same corpus always
    produces byte-identical files and re-ingesting them yields an equal corpus, a library-built one
    too: the value classes store every name and label stripped, as the loaders read them.  Publications
    and citations go out as text, one write per block of ``_CHUNK_ROWS`` records, in
    :func:`write_csv`'s bytes: integers as ``str`` gives them, text through :func:`_cell`.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "publications": out / "publications.csv",
        "citations": out / "citations.csv",
        "profiles": out / "profiles.csv",
        "discipline_map": out / "discipline_map.csv",
    }

    joined = cache(lambda labels: _cell(";".join(sorted(labels))))  # records share equal sets
    records = corpus.publications
    with (_csv_file(paths["publications"], PUBLICATIONS_HEADER) as (pubs, _),
          _csv_file(paths["citations"], CITATIONS_HEADER) as (cites, _)):
        for start in range(0, len(records), _CHUNK_ROWS):
            pub_lines = []
            cite_lines = []
            for r in records[start:start + _CHUNK_ROWS]:
                pub_id = _cell(r.pub_id)
                pub_lines.append(f"{pub_id},{r.pub_year},{_cell(r.country or '')},"
                                 f"{joined(r.affiliations)},{joined(r.categories)}\n")
                for year, count in r.citations_by_year.items():  # years ascend on every record
                    cite_lines.append(f"{pub_id},{year},{count}\n")
            pubs.write("".join(pub_lines))
            cites.write("".join(cite_lines))
    # csv writes a float as its repr, the shortest exact form, and None as an empty cell
    write_csv(paths["profiles"], PROFILES_HEADER, map(attrgetter(*PROFILES_HEADER), corpus.profiles))
    write_csv(paths["discipline_map"], DISCIPLINE_MAP_HEADER, (
        [m.discipline, category] for m in corpus.discipline_maps for category in sorted(m.categories)
    ))
    return paths
