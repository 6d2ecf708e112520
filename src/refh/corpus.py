"""Citation-corpus data model, file ingestion, and document filtering.

A :class:`Corpus` bundles three collections: publication records carrying
per-year citation counts, graded quality profiles for (institution,
discipline) groups, and discipline maps that tie subject categories to
disciplines.  Everything downstream (h-indices, scores, correlations,
rankings) consumes a corpus through pure read-only operations, so a corpus
is immutable once built.

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
import json
import math
from dataclasses import dataclass, field
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

PERCENT_SUM_TOL = 1e-9

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


@dataclass(frozen=True)
class PublicationWindow:
    """Inclusive range of publication years, e.g. 2001:2007."""

    start_year: int
    end_year: int

    def __post_init__(self):
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


@dataclass(frozen=True, slots=True)
class PublicationRecord:
    """One publication with its per-citing-year citation counts.

    ``citations_by_year`` maps citing calendar year to a positive count;
    zero counts are dropped on construction so that equal citation
    histories compare equal.  An empty or missing country is stored as
    ``None`` and simply never matches a country filter.  The pub_id,
    affiliations and categories are stripped of surrounding whitespace, and
    blank affiliations and categories dropped, as the loader does.

    A record built in the library is checked and normalised here, in
    ``__post_init__``.  File input is checked by :func:`load_publications`,
    which reports each violation at its ``file:line`` and builds records
    with :meth:`_loaded`, without running these checks a second time.
    """

    pub_id: str
    pub_year: int
    country: str | None
    affiliations: frozenset[str]
    categories: frozenset[str]
    citations_by_year: Mapping[int, int] = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.pub_id, str) or not self.pub_id.strip():
            raise ValueError("pub_id must be a non-empty string")
        object.__setattr__(self, "pub_id", self.pub_id.strip())
        object.__setattr__(self, "affiliations", frozenset(map(str.strip, self.affiliations)) - {""})
        object.__setattr__(self, "categories", frozenset(map(str.strip, self.categories)) - {""})
        if problem := _empty_list(self.pub_id, self.affiliations, self.categories):
            raise ValueError(problem)
        country = self.country.strip() if isinstance(self.country, str) else self.country
        object.__setattr__(self, "country", country or None)
        cleaned: dict[int, int] = {}
        for year, count in self.citations_by_year.items():
            year, count = int(year), int(count)
            if count < 0:
                raise ValueError(
                    f"{self.pub_id}: negative citation count {count} in year {year}"
                )
            if year < self.pub_year:
                raise ValueError(
                    f"{self.pub_id}: citing year {year} precedes "
                    f"publication year {self.pub_year}"
                )
            if count:
                cleaned[year] = cleaned.get(year, 0) + count
        object.__setattr__(self, "citations_by_year", _in_year_order(cleaned))

    @classmethod
    def _loaded(cls, pub_id, pub_year, country, affiliations, categories, citations_by_year):
        """A record from values that :func:`load_publications` has already
        checked and normalised, ``citations_by_year`` in ascending year order.
        Fields are set through the slot descriptors, which the frozen
        class's ``__setattr__`` does not guard; nothing is checked again."""
        record = object.__new__(cls)
        set_id, set_year, set_country, set_affiliations, set_categories, set_citations = _SLOT_SETTERS
        set_id(record, pub_id)
        set_year(record, pub_year)
        set_country(record, country)
        set_affiliations(record, affiliations)
        set_categories(record, categories)
        set_citations(record, citations_by_year)
        return record


_SLOT_SETTERS = tuple(PublicationRecord.__dict__[name].__set__ for name in PublicationRecord.__slots__)


def _in_year_order(citations: dict[int, int]) -> dict[int, int]:
    """``citations`` itself when its years ascend, else a copy sorted by year."""
    return citations if [*citations] == sorted(citations) else dict(sorted(citations.items()))


def _empty_list(pub_id: str, affiliations: frozenset[str], categories: frozenset[str]) -> str | None:
    """The violation of a record with no affiliations or no categories."""
    if not affiliations:
        return f"{pub_id}: affiliations must be non-empty"
    if not categories:
        return f"{pub_id}: categories must be non-empty"
    return None


@dataclass(frozen=True)
class DisciplineMap:
    """A discipline defined as the union of subject-category labels."""

    discipline: str
    categories: frozenset[str]

    def __post_init__(self):
        object.__setattr__(self, "categories", frozenset(self.categories))
        if not self.categories:
            raise ValueError(f"discipline {self.discipline!r}: empty category set")
        object.__setattr__(
            self, "_normalized", frozenset(normalize_label(c) for c in self.categories)
        )

    def matches(self, categories: Iterable[str]) -> bool:
        """True when any of ``categories`` belongs to this discipline."""
        normalized: frozenset[str] = self._normalized  # type: ignore[attr-defined]
        return any(normalize_label(c) in normalized for c in categories)


@dataclass(frozen=True)
class QualityProfile:
    """Graded quality profile for one (institution, discipline) group.

    ``p4 .. pu`` are the percentages of work rated 4*, 3*, 2*, 1* and
    Unclassified; they must sum to 100.  The optional ``*_out`` fields are
    the output-only sub-profile (all five present or all absent).
    ``staff_fte`` is the submitted staff count and must be positive.
    ``nci`` is an externally supplied normalized citation impact; it is
    ingested, never computed.  ``institution`` is stripped of surrounding
    whitespace, as affiliations are, and must not be blank.
    """

    institution: str
    discipline: str
    p4: float
    p3: float
    p2: float
    p1: float
    pu: float
    staff_fte: float
    p4_out: float | None = None
    p3_out: float | None = None
    p2_out: float | None = None
    p1_out: float | None = None
    pu_out: float | None = None
    nci: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "institution", self.institution.strip())
        if not self.institution:
            raise ValueError(f"profile for {self.discipline!r}: institution must be non-empty")
        who = f"{self.institution}/{self.discipline}"
        self._check_bands(who, self.percentages())
        outs = (self.p4_out, self.p3_out, self.p2_out, self.p1_out, self.pu_out)
        present = [o is not None for o in outs]
        if any(present) and not all(present):
            raise ValueError(f"{who}: output sub-profile must be complete or absent")
        if all(present):
            self._check_bands(who, outs, kind="output sub-profile")
        if not self.staff_fte > 0:
            raise ValueError(f"{who}: staff_fte must be positive, got {self.staff_fte}")
        if self.nci is not None and self.nci < 0:
            raise ValueError(f"{who}: nci must be non-negative, got {self.nci}")

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


@dataclass(frozen=True)
class Corpus:
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


def filter_documents(
    corpus: Corpus,
    country: str,
    window: PublicationWindow,
    discipline: str,
    institution: str,
) -> list[PublicationRecord]:
    """Select the records matching all four filter steps.

    A record passes when (i) its country equals ``country``, (ii) its
    publication year lies inside ``window``, (iii) it carries at least one
    category of the discipline's map, and (iv) ``institution`` is among its
    affiliations.  A multi-affiliation record is returned for each of its
    institutions when queried; there is no fractional credit.  Records
    without a country never match.  The result is sorted by pub_id.
    """
    dmap = corpus.discipline_map(discipline)
    wanted_country = normalize_country(country)
    wanted_inst = institution.strip()
    return [
        r
        for r in corpus.publications
        if r.country is not None
        and normalize_country(r.country) == wanted_country
        and window.contains(r.pub_year)
        and dmap.matches(r.categories)
        and wanted_inst in r.affiliations
    ]


# ---------------------------------------------------------------------------
# Ingestion
# ---------------------------------------------------------------------------


def _read_rows(path: Path, header: list[str], violations: list[str]) -> Iterator[tuple[int, Sequence]]:
    """Yield CSV or JSON rows as (line_number, row) pairs, cells in header order.

    A CSV row is the reader's list of cells, unstripped: a loader strips
    the cells it reads, and :func:`_cells` strips a row for a validator.  A
    JSON row is a tuple of native values, ``None`` for a missing key or
    null.  CSV line numbers are physical lines, a record that spans lines (a
    quoted cell holding a line break) is refused, and a blank row is skipped.
    The header must match ``header`` exactly for CSV; JSON objects may omit optional keys.
    Violations of the file's shape are added to ``violations`` once the
    rows are exhausted, ahead of any the caller added while reading them.
    """
    start, shape = len(violations), []
    if path.suffix.lower() == ".json":
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            violations.append(f"{path.name}: invalid JSON: {exc}")
            return
        if not isinstance(data, list):
            violations.append(f"{path.name}: expected a JSON list of objects")
            return
        for i, obj in enumerate(data, start=1):
            if not isinstance(obj, dict):
                shape.append(f"{path.name}:{i}: expected an object")
            elif unknown := set(obj) - set(header):
                shape.append(f"{path.name}:{i}: unknown field(s) {sorted(unknown)}")
            else:
                yield i, tuple(map(obj.get, header))
        violations[start:start] = shape
        return

    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        got_header = next(reader, None)
        if got_header is None:
            violations.append(f"{path.name}: empty file, expected header {','.join(header)}")
            return
        if [h.strip() for h in got_header] != header:
            violations.append(
                f"{path.name}:1: bad header {','.join(got_header)!r}, "
                f"expected {','.join(header)!r}"
            )
            return
        # number records by physical line; a record spans more than one
        # only when a quoted cell holds a line break, which no field may
        end, width = reader.line_num, len(header)
        for row in reader:
            line_no, end = end + 1, reader.line_num
            if end != line_no:
                shape.append(f"{path.name}:{line_no}: record spans lines {line_no}-{end}; "
                             f"a cell contains a line break")
            elif len(row) == width and (row[0].strip() or any(map(str.strip, row))):
                yield line_no, row
            elif any(map(str.strip, row)):
                shape.append(f"{path.name}:{line_no}: expected {width} fields, got {len(row)}")
    violations[start:start] = shape


def _cells(row: Sequence) -> tuple:
    """A row as the validators take it: CSV cells stripped, JSON values as they are."""
    return tuple(map(str.strip, row)) if isinstance(row, list) else row


def _flag(violations: list[str], where: tuple[str, int], message: str) -> None:
    """Record one violation at ``where`` = (file name, line number)."""
    violations.append(f"{where[0]}:{where[1]}: {message}")


def _get_str(raw, key: str, where: tuple[str, int], violations: list[str]) -> str | None:
    """A text cell stripped, ``""`` if null; ``None``, flagged, if a JSON value is not a string."""
    if raw is None or isinstance(raw, str):
        return (raw or "").strip()
    _flag(violations, where, f"field {key!r}: not a string: {raw!r}")
    return None


def _get_number(
    raw, key: str, where: tuple[str, int], violations: list[str], parse: type = int, optional: bool = False
) -> int | float | None:
    """A number cell read by ``parse``, ``int`` or ``float``; ``None`` when it is
    missing (flagged unless ``optional``), malformed or not finite (flagged)."""
    text = "" if raw is None else str(raw).strip()
    if not text:
        if not optional:
            _flag(violations, where, f"field {key!r}: missing value")
        return None
    try:
        value = parse(text)
    except ValueError:
        _flag(violations, where, f"field {key!r}: not {'an integer' if parse is int else 'a number'}: {raw!r}")
        return None
    if parse is float and not math.isfinite(value):
        _flag(violations, where, f"field {key!r}: not a finite number: {raw!r}")
        return None
    return value


class _Ints(dict):
    """A number cell -> its ``int``, parsed once; a malformed cell raises ``ValueError``."""

    def __missing__(self, cell: str) -> int:
        value = self[cell] = int(cell)
        return value


class _Sets(dict):
    """A ``;``-separated cell -> the frozenset of its stripped, non-blank items, made once."""

    def __missing__(self, cell: str) -> frozenset[str]:
        value = self[cell] = frozenset(v for v in (p.strip() for p in cell.split(";")) if v)
        return value


def _get_set(raw, key: str, where: tuple[str, int], violations: list[str], interned: _Sets):
    """A ``;``-separated string or a JSON list of strings as a shared frozenset;
    ``None``, flagged, when a JSON value or list item is not a string."""
    if raw is None or isinstance(raw, str):
        return interned[raw or ""]
    for item in raw if isinstance(raw, list) else [raw]:
        if not isinstance(item, str):
            _flag(violations, where, f"field {key!r}: not a string: {item!r}")
            return None
    items = tuple(v for v in (p.strip() for p in raw) if v)
    return interned.setdefault(items, frozenset(items))


def load_publications(
    pub_file: str | Path, citation_file: str | Path
) -> tuple[tuple[PublicationRecord, ...], list[str]]:
    """Parse the publication and citation files into records plus violations.

    This is the validator for file input: it applies every rule of
    ``PublicationRecord.__post_init__``, each at the offending ``file:line``,
    and then builds the records without running that method.  A clean row
    of strings takes a short path of built-ins that strips only what it
    reads; any other row goes to the per-row validator, which strips every
    CSV cell and alone writes messages.  Equal list cells share one
    frozenset, saving time and memory where cells repeat: categories come
    from a fixed classification, and a group's records name few institutions.
    Likewise each distinct year or count string is parsed once.

    What the load skips, and why that is safe: the cyclic garbage collector
    is paused while it runs and restored to its prior state however it ends,
    since the records and their parts form no reference cycles and the
    collector would only walk them again and again as they accumulate.  A
    record's citations are re-sorted only when its citation rows did not
    arrive in ascending year order, which :func:`write_corpus` guarantees.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _load_publications(Path(pub_file), Path(citation_file))
    finally:
        if enabled:
            gc.enable()


def _load_publications(pub_path: Path, cite_path: Path) -> tuple[tuple[PublicationRecord, ...], list[str]]:
    pub_name, cite_name = pub_path.name, cite_path.name
    violations: list[str] = []
    interned, ints = _Sets(), _Ints()
    # pub_id -> (line_no, pub_year, country, affiliations, categories, citations)
    parsed: dict[str, tuple] = {}
    for line_no, row in _read_rows(pub_path, PUBLICATIONS_HEADER, violations):
        pub_id, pub_year, country, affiliations, categories = row
        try:  # the short path; strings only, as int() takes JSON 2005.0 and true
            if (type(pub_year) is type(country) is type(affiliations) is type(categories) is str
                    and (pub_id := pub_id.strip()) and pub_id not in parsed):
                parsed[pub_id] = (line_no, ints[pub_year], country.strip() or None,
                                  interned[affiliations], interned[categories], {})
                continue
        except (AttributeError, ValueError):
            pass
        pub_id, pub_year, country, affiliations, categories = _cells(row)
        where = (pub_name, line_no)
        pub_id = _get_str(pub_id, "pub_id", where, violations)
        if not pub_id:
            if pub_id is not None:
                _flag(violations, where, "field 'pub_id': missing value")
            continue
        if pub_id in parsed:
            _flag(violations, where, f"duplicate pub_id {pub_id!r}")
            continue
        pub_year = _get_number(pub_year, "pub_year", where, violations)
        if pub_year is None:
            continue
        country = _get_str(country, "country", where, violations)
        affiliations = _get_set(affiliations, "affiliations", where, violations, interned)
        categories = _get_set(categories, "categories", where, violations, interned)
        if None not in (country, affiliations, categories):
            parsed[pub_id] = (line_no, pub_year, country or None, affiliations, categories, {})

    for line_no, row in _read_rows(cite_path, CITATIONS_HEADER, violations):
        pub_id, citing_year, count = row
        try:  # the short path, as for publications, for unpadded ids; a zero count is dropped
            entry = parsed[pub_id]
            if type(citing_year) is type(count) is str:
                citing_year, count = ints[citing_year], ints[count]
                if count >= 0 and citing_year >= entry[1]:
                    if count:
                        entry[5][citing_year] = entry[5].get(citing_year, 0) + count
                    continue
        except (KeyError, TypeError, ValueError):
            pass
        pub_id, citing_year, count = _cells(row)
        where = (cite_name, line_no)
        pub_id = _get_str(pub_id, "pub_id", where, violations)
        entry = parsed.get(pub_id)
        if entry is None:
            if pub_id is not None:
                _flag(violations, where, f"unknown pub_id {pub_id!r}")
            continue
        citing_year = _get_number(citing_year, "citing_year", where, violations)
        count = _get_number(count, "count", where, violations)
        if citing_year is None or count is None:
            continue
        pub_year, citations = entry[1], entry[5]
        if count < 0:
            _flag(violations, where, f"{pub_id}: negative citation count {count}")
            continue
        if citing_year < pub_year:
            _flag(
                violations, where,
                f"{pub_id}: citing year {citing_year} precedes publication year {pub_year}",
            )
            continue
        if count:
            citations[citing_year] = citations.get(citing_year, 0) + count

    records = []
    for pub_id, (line_no, pub_year, country, affiliations, categories, citations) in parsed.items():
        if problem := _empty_list(pub_id, affiliations, categories):
            _flag(violations, (pub_name, line_no), problem)
            continue
        records.append(PublicationRecord._loaded(
            pub_id, pub_year, country, affiliations, categories, _in_year_order(citations)
        ))
    return tuple(records), violations


_OPTIONAL_PROFILE_FIELDS = frozenset(["p4_out", "p3_out", "p2_out", "p1_out", "pu_out", "nci"])


def load_profiles(profile_file: str | Path) -> tuple[tuple[QualityProfile, ...], list[str]]:
    """Parse the profile file; raises nothing, returns (profiles, violations)."""
    path = Path(profile_file)
    violations: list[str] = []
    profiles = []
    seen: set[tuple[str, str]] = set()
    for line_no, row in _read_rows(path, PROFILES_HEADER, violations):
        institution, discipline, *cells = _cells(row)
        where = (path.name, line_no)
        institution = _get_str(institution, "institution", where, violations)
        discipline = _get_str(discipline, "discipline", where, violations)
        if not institution or not discipline:
            if institution is not None and discipline is not None:
                _flag(violations, where, "institution and discipline are required")
            continue
        key = (institution, normalize_label(discipline))
        if key in seen:
            _flag(violations, where, f"duplicate profile for {institution}/{discipline}")
            continue
        # the remaining columns are named after QualityProfile's fields
        numbers = {
            k: _get_number(raw, k, where, violations, float, optional=k in _OPTIONAL_PROFILE_FIELDS)
            for k, raw in zip(PROFILES_HEADER[2:], cells)
        }
        if any(v is None for k, v in numbers.items() if k not in _OPTIONAL_PROFILE_FIELDS):
            continue
        try:
            profiles.append(QualityProfile(institution=institution, discipline=discipline, **numbers))
        except ValueError as exc:
            _flag(violations, where, f"profile sum/shape error: {exc}")
        else:
            seen.add(key)
    return tuple(profiles), violations


def load_discipline_maps(map_file: str | Path) -> tuple[tuple[DisciplineMap, ...], list[str]]:
    path = Path(map_file)
    violations: list[str] = []
    categories: dict[str, set[str]] = {}
    labels: dict[str, str] = {}
    for line_no, row in _read_rows(path, DISCIPLINE_MAP_HEADER, violations):
        where = (path.name, line_no)
        discipline, category = (_get_str(c, k, where, violations) for c, k in zip(row, DISCIPLINE_MAP_HEADER))
        if not discipline or not category:
            if discipline is not None and category is not None:
                _flag(violations, where, "discipline and category are required")
            continue
        key = normalize_label(discipline)
        labels.setdefault(key, discipline)
        categories.setdefault(key, set()).add(category)
    maps = tuple(
        DisciplineMap(discipline=labels[key], categories=frozenset(cats))
        for key, cats in sorted(categories.items())
    )
    return maps, violations


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
    r"""Write a header and rows as UTF-8 CSV with ``\n`` line endings; every
    corpus and analytics file is written through here."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _fmt(value) -> str:
    """Shortest exact decimal form; floats survive a write/read round trip."""
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_corpus(corpus: Corpus, out_dir: str | Path) -> dict[str, Path]:
    """Write the four corpus CSVs into ``out_dir``; returns the paths.

    Output is canonical (sorted rows, ``;``-joined sorted lists), so the
    same corpus always produces byte-identical files and re-ingesting them
    yields an equal corpus.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "publications": out / "publications.csv",
        "citations": out / "citations.csv",
        "profiles": out / "profiles.csv",
        "discipline_map": out / "discipline_map.csv",
    }

    write_csv(paths["publications"], PUBLICATIONS_HEADER, (
        [r.pub_id, r.pub_year, r.country or "",
         ";".join(sorted(r.affiliations)), ";".join(sorted(r.categories))]
        for r in corpus.publications
    ))
    write_csv(paths["citations"], CITATIONS_HEADER, (
        [r.pub_id, year, count]
        for r in corpus.publications
        for year, count in r.citations_by_year.items()  # ascending on every record
    ))
    write_csv(paths["profiles"], PROFILES_HEADER, (
        [p.institution, p.discipline]
        + [_fmt(v) for v in p.percentages()]
        + [_fmt(v) for v in (p.p4_out, p.p3_out, p.p2_out, p.p1_out, p.pu_out)]
        + [_fmt(p.staff_fte), _fmt(p.nci)]
        for p in corpus.profiles
    ))
    write_csv(paths["discipline_map"], DISCIPLINE_MAP_HEADER, (
        [m.discipline, category] for m in corpus.discipline_maps for category in sorted(m.categories)
    ))
    return paths
