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
import json
import math
from dataclasses import dataclass, field
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
    ``None`` and simply never matches a country filter.  Affiliations are
    stripped of surrounding whitespace and blank ones dropped.

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
        if not self.pub_id or not str(self.pub_id).strip():
            raise ValueError("pub_id must be a non-empty string")
        object.__setattr__(self, "affiliations", frozenset(a.strip() for a in self.affiliations) - {""})
        object.__setattr__(self, "categories", frozenset(self.categories))
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
        object.__setattr__(self, "citations_by_year", dict(sorted(cleaned.items())))

    @classmethod
    def _loaded(cls, pub_id, pub_year, country, affiliations, categories, citations_by_year):
        """A record from values that :func:`load_publications` has already
        checked and normalised."""
        record, set_field = object.__new__(cls), object.__setattr__
        set_field(record, "pub_id", pub_id)
        set_field(record, "pub_year", pub_year)
        set_field(record, "country", country)
        set_field(record, "affiliations", affiliations)
        set_field(record, "categories", categories)
        set_field(record, "citations_by_year", citations_by_year)
        return record


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
    order they were assembled in.
    """

    publications: tuple[PublicationRecord, ...] = ()
    profiles: tuple[QualityProfile, ...] = ()
    discipline_maps: tuple[DisciplineMap, ...] = ()

    def __post_init__(self):
        pubs = tuple(sorted(self.publications, key=lambda r: r.pub_id))
        profs = tuple(sorted(self.profiles, key=lambda p: (p.institution, p.discipline)))
        maps = tuple(sorted(self.discipline_maps, key=lambda m: m.discipline))
        object.__setattr__(self, "publications", pubs)
        object.__setattr__(self, "profiles", profs)
        object.__setattr__(self, "discipline_maps", maps)
        violations = []
        seen_ids: set[str] = set()
        for r in pubs:
            if r.pub_id in seen_ids:
                violations.append(f"duplicate pub_id {r.pub_id!r}")
            seen_ids.add(r.pub_id)
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


def _read_rows(path: Path, header: list[str], violations: list[str]) -> Iterator[tuple[int, tuple]]:
    """Yield CSV or JSON rows as (line_number, cells) pairs, cells in header order.

    CSV cells come back as stripped strings, the only place they are
    stripped; JSON values keep their native types (lists stay lists,
    numbers stay numbers) and a missing key or null becomes ``None``.  CSV
    line numbers are physical lines, and a record that spans lines (a
    quoted cell holding a line break) is refused.  The header must match
    ``header`` exactly for CSV; JSON objects may omit optional keys.
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
        end = reader.line_num
        for raw in reader:
            line_no, end = end + 1, reader.line_num
            if end != line_no:
                shape.append(f"{path.name}:{line_no}: record spans lines {line_no}-{end}; "
                             f"a cell contains a line break")
                continue
            cells = tuple(map(str.strip, raw))
            if not any(cells):
                continue
            if len(cells) != len(header):
                shape.append(f"{path.name}:{line_no}: expected {len(header)} fields, got {len(cells)}")
                continue
            yield line_no, cells
    violations[start:start] = shape


def _flag(violations: list[str], where: tuple[str, int], message: str) -> None:
    """Record one violation at ``where`` = (file name, line number)."""
    violations.append(f"{where[0]}:{where[1]}: {message}")


def _get_str(raw) -> str:
    """A cell as a stripped string: a no-op on a CSV cell, which arrives
    stripped; a JSON value may be padded or not a string at all."""
    return "" if raw is None else str(raw).strip()


def _get_int(raw, key: str, where: tuple[str, int], violations: list[str]) -> int | None:
    text = _get_str(raw)
    if not text:
        _flag(violations, where, f"field {key!r}: missing value")
        return None
    try:
        return int(text)
    except ValueError:
        _flag(violations, where, f"field {key!r}: not an integer: {raw!r}")
        return None


def _get_float(
    raw, key: str, where: tuple[str, int], violations: list[str], optional: bool = False
) -> float | None:
    text = _get_str(raw)
    if not text:
        if not optional:
            _flag(violations, where, f"field {key!r}: missing value")
        return None
    try:
        value = float(text)
    except ValueError:
        _flag(violations, where, f"field {key!r}: not a number: {raw!r}")
        return None
    if not math.isfinite(value):
        _flag(violations, where, f"field {key!r}: not a finite number: {raw!r}")
        return None
    return value


def _get_set(raw, interned: dict) -> frozenset[str]:
    """A list cell as the frozenset of its stripped, non-blank items.

    The cell is a ``;``-separated string or, in JSON, a list.  Equal cells
    share one frozenset: a string cell is its own key and is split only
    the first time it is seen; any other cell is parsed once, into its key.
    """
    if isinstance(raw, str):
        value = interned.get(raw)
        if value is None:
            value = interned[raw] = frozenset(v for v in (p.strip() for p in raw.split(";")) if v)
        return value
    parts = raw if isinstance(raw, list) else _get_str(raw).split(";")
    key = tuple(v for v in (str(p).strip() for p in parts) if v)
    return interned.setdefault(key, frozenset(key))


def load_publications(
    pub_file: str | Path, citation_file: str | Path
) -> tuple[tuple[PublicationRecord, ...], list[str]]:
    """Parse the publication and citation files into records plus violations.

    This is the validator for file input: it applies every rule of
    ``PublicationRecord.__post_init__``, each at the offending ``file:line``,
    and then builds the records without running that method.  Equal
    affiliation or category cells share one frozenset, which saves time
    and memory where cells repeat: categories come from a fixed
    classification, and a group's records mostly name the same
    institutions.
    """
    pub_path, cite_path = Path(pub_file), Path(citation_file)
    pub_name, cite_name = pub_path.name, cite_path.name
    violations: list[str] = []
    interned: dict = {}
    # pub_id -> (line_no, pub_year, country, affiliations, categories, citations)
    parsed: dict[str, tuple] = {}
    for line_no, (pub_id, pub_year, country, affiliations, categories) in _read_rows(
        pub_path, PUBLICATIONS_HEADER, violations
    ):
        where = (pub_name, line_no)
        pub_id = _get_str(pub_id)
        if not pub_id:
            _flag(violations, where, "field 'pub_id': missing value")
            continue
        if pub_id in parsed:
            _flag(violations, where, f"duplicate pub_id {pub_id!r}")
            continue
        pub_year = _get_int(pub_year, "pub_year", where, violations)
        if pub_year is None:
            continue
        parsed[pub_id] = (
            line_no, pub_year, _get_str(country) or None,
            _get_set(affiliations, interned), _get_set(categories, interned), {},
        )

    for line_no, (pub_id, citing_year, count) in _read_rows(cite_path, CITATIONS_HEADER, violations):
        where = (cite_name, line_no)
        pub_id = _get_str(pub_id)
        entry = parsed.get(pub_id)
        if entry is None:
            _flag(violations, where, f"unknown pub_id {pub_id!r}")
            continue
        citing_year = _get_int(citing_year, "citing_year", where, violations)
        count = _get_int(count, "count", where, violations)
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
            pub_id, pub_year, country, affiliations, categories, dict(sorted(citations.items()))
        ))
    return tuple(records), violations


_OPTIONAL_PROFILE_FIELDS = frozenset(["p4_out", "p3_out", "p2_out", "p1_out", "pu_out", "nci"])


def load_profiles(profile_file: str | Path) -> tuple[tuple[QualityProfile, ...], list[str]]:
    """Parse the profile file; raises nothing, returns (profiles, violations)."""
    path = Path(profile_file)
    violations: list[str] = []
    profiles = []
    seen: set[tuple[str, str]] = set()
    for line_no, (institution, discipline, *cells) in _read_rows(path, PROFILES_HEADER, violations):
        where = (path.name, line_no)
        institution, discipline = _get_str(institution), _get_str(discipline)
        if not institution or not discipline:
            _flag(violations, where, "institution and discipline are required")
            continue
        key = (institution, normalize_label(discipline))
        if key in seen:
            _flag(violations, where, f"duplicate profile for {institution}/{discipline}")
            continue
        # the remaining columns are named after QualityProfile's fields
        numbers = {
            k: _get_float(raw, k, where, violations, optional=k in _OPTIONAL_PROFILE_FIELDS)
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
    for line_no, cells in _read_rows(path, DISCIPLINE_MAP_HEADER, violations):
        discipline, category = map(_get_str, cells)
        if not discipline or not category:
            _flag(violations, (path.name, line_no), "discipline and category are required")
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
        for year, count in sorted(r.citations_by_year.items())
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
