"""Correctness gate: every output file checked against an independent reference.

The reference is computed from the raw generated CSVs with the csv module
and numpy alone; nothing here imports refh, so a defect in refh cannot
hide inside its own check.  It follows the documented definitions:

- departmental h (Hirsch 2005) at measurement year Y counts citations with
  citing year <= Y-1 over records matching country, window, discipline
  category and affiliation;
- s = p4 + (3/7) p3 + (1/7) p2, s_prime = p4 + (1/3) p3, s_output = s on
  the output sub-profile, strength = s * staff_fte, i = the supplied nci;
- every rank equals 1 + the number of strictly greater values in its table;
- pearson_r equals numpy.corrcoef over the joined (x, y) points.

Outputs are printed to 6 decimals, so numbers compare within ``TOL``.
"""

from __future__ import annotations

import argparse
import csv
import re
from collections import defaultdict
from pathlib import Path

import numpy as np

TOL = 1e-6
PRESETS = {
    "rae2008": ((2001, 2007), list(range(2008, 2015))),
    "ref2014": ((2008, 2013), [2014]),
}
SCORE_LABELS = ("s", "s_prime", "s_output", "strength")
H_LABEL = re.compile(r"^h(?:_hat)?_(\d{4})$")
ARROWS = {"↑": "up", "↓": "down", "(new)": "new", "": "none"}
CELL = re.compile(r"^(\d+)\. (.+?)(?: (↑|↓|\(new\)))? \(([^()]*)\)$")


def _norm(label: str) -> str:
    return label.strip().casefold()


def _opt_float(text: str) -> float | None:
    return float(text) if text.strip() else None


def _read(path: Path) -> list[list[str]]:
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


class RawCorpus:
    """The four generated CSVs, parsed without refh."""

    def __init__(self, corpus_dir: Path):
        pubs = _read(corpus_dir / "publications.csv")[1:]
        self.n_publications = len(pubs)
        index = {row[0].strip(): i for i, row in enumerate(pubs)}
        self.pub_year = np.array([int(row[1]) for row in pubs], dtype=np.int64)
        self.country = [row[2].strip().upper() for row in pubs]
        self.affiliations = [{a.strip() for a in row[3].split(";") if a.strip()} for row in pubs]
        self.categories = [{_norm(c) for c in row[4].split(";") if c.strip()} for row in pubs]

        cites = _read(corpus_dir / "citations.csv")[1:]
        self.cite_pub = np.array([index[row[0].strip()] for row in cites], dtype=np.int64)
        self.cite_year = np.array([int(row[1]) for row in cites], dtype=np.int64)
        self.cite_count = np.array([int(row[2]) for row in cites], dtype=np.int64)

        self.profiles: dict[tuple[str, str], dict[str, float | None]] = {}
        for row in _read(corpus_dir / "profiles.csv")[1:]:
            p4, p3, p2, p1, pu, p4o, p3o, p2o, p1o, puo, fte, nci = map(_opt_float, row[2:])
            s = p4 + p3 * 3 / 7 + p2 / 7
            self.profiles[(row[0].strip(), _norm(row[1]))] = {
                "discipline": row[1].strip(),
                "s": s,
                "s_prime": p4 + p3 / 3,
                "s_output": None if p4o is None else p4o + p3o * 3 / 7 + p2o / 7,
                "strength": s * fte,
                "i": nci,
            }

        self.maps: dict[str, set[str]] = defaultdict(set)
        for discipline, category in _read(corpus_dir / "discipline_map.csv")[1:]:
            self.maps[_norm(discipline)].add(_norm(category))
        self._h_cache: dict[tuple, dict[str, dict[int, int]]] = {}

    def h_table(self, window: tuple[int, int], years: list[int], discipline: str,
                country: str = "GB") -> dict[str, dict[int, int]]:
        """{institution: {year: h}} for every institution with a matching record."""
        key = (window, tuple(years), _norm(discipline), country)
        if key in self._h_cache:
            return self._h_cache[key]
        wanted = self.maps[_norm(discipline)]
        matched = [
            i for i in range(self.n_publications)
            if self.country[i] == country.strip().upper()
            and window[0] <= self.pub_year[i] <= window[1]
            and self.categories[i] & wanted
        ]
        groups: dict[str, list[int]] = defaultdict(list)
        for i in matched:
            for inst in self.affiliations[i]:
                groups[inst].append(i)
        table: dict[str, dict[int, int]] = {inst: {} for inst in groups}
        for year in years:
            cited = self.cite_year <= year - 1
            totals = np.bincount(self.cite_pub[cited], weights=self.cite_count[cited],
                                 minlength=self.n_publications)
            for inst, records in groups.items():
                counts = np.sort(totals[records])[::-1]
                # h = the largest n with at least n records cited >= n times
                table[inst][year] = int(np.count_nonzero(counts >= np.arange(1, len(counts) + 1)))
        self._h_cache[key] = table
        return table

    def discipline_profiles(self, discipline: str) -> dict[str, dict]:
        return {inst: p for (inst, disc), p in self.profiles.items() if disc == _norm(discipline)}

    def measure(self, label: str, discipline: str, window: tuple[int, int] | None) -> dict[str, float]:
        """{institution: value} for a rank measure label."""
        if label in SCORE_LABELS or label == "i":
            return {inst: p[label] for inst, p in self.discipline_profiles(discipline).items()
                    if p[label] is not None}
        m = H_LABEL.match(label)
        if not m or window is None:
            raise ValueError(f"reference cannot resolve measure {label!r}")
        year = int(m.group(1))
        return {inst: float(h[year]) for inst, h in self.h_table(window, [year], discipline).items()}


# ---------------------------------------------------------------------------
# Command semantics (the documented CLI flags the workloads use)
# ---------------------------------------------------------------------------


def _parse(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("command")
    for flag in ("--pubs", "--cites", "--profiles", "--map", "--discipline", "--window",
                 "--years", "--preset", "--pairs", "--measure", "--baseline",
                 "--baseline-window", "--out"):
        p.add_argument(flag)
    p.add_argument("--country", default="GB")
    p.add_argument("--format", default="csv")
    ns = p.parse_args(argv)
    window, years = PRESETS.get(ns.preset or "", (None, None))
    if ns.window:
        window = tuple(int(y) for y in ns.window.split(":"))
    if ns.years:
        raise ValueError("reference does not parse --years; use --preset")
    ns.window_t, ns.years_l = window, years
    return ns


def output_files(argv: list[str]) -> list[str]:
    """Names of the files a command writes under its --out directory."""
    ns = _parse(argv)
    if ns.command == "hindex":
        return ["hseries.csv"]
    if ns.command == "score":
        return ["scores.csv"]
    if ns.command == "correlate":
        return ["correlations.csv", "corr_series.csv", "fig_points.csv"]
    if ns.command == "rank":
        ext = {"csv": "csv", "markdown": "md", "json": "json"}[ns.format]
        return [f"rank_{ns.discipline}_{ns.measure.replace(':', '_')}.{ext}"]
    return []


def rows_written(path: Path) -> int:
    """Data rows in one output file (header and markdown rule lines excluded)."""
    lines = path.read_text(encoding="utf-8").splitlines()
    return len(lines) - (2 if path.suffix == ".md" else 1)


def check_command(raw: RawCorpus, argv: list[str], out: Path, stdout: str) -> list[str]:
    """All mismatches between one command's outputs and the reference."""
    ns = _parse(argv)
    try:
        if ns.command == "ingest":
            return _check_ingest(raw, stdout)
        if ns.command == "hindex":
            return _check_hseries(raw, ns, out / "hseries.csv")
        if ns.command == "score":
            return _check_scores(raw, out / "scores.csv")
        if ns.command == "correlate":
            return _check_correlate(raw, ns, out)
        if ns.command == "rank":
            return _check_rank(raw, ns, out / output_files(argv)[0])
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"{ns.command}: unreadable output: {exc!r}"]
    return [f"reference has no check for command {ns.command!r}"]


def _check_ingest(raw: RawCorpus, stdout: str) -> list[str]:
    want = (f"corpus OK: {raw.n_publications} publications, {len(raw.profiles)} profiles, "
            f"{len(raw.maps)} discipline maps")
    got = stdout.strip().splitlines()
    return [] if got and got[-1] == want else [f"ingest: stdout {got!r}, expected {want!r}"]


def _check_hseries(raw: RawCorpus, ns, path: Path) -> list[str]:
    table = raw.h_table(ns.window_t, ns.years_l, ns.discipline, ns.country)
    want = [["institution", "discipline", "window_start", "window_end", "measurement_year", "h"]]
    for inst in sorted(table):
        for year in sorted(table[inst]):
            want.append([inst, ns.discipline, str(ns.window_t[0]), str(ns.window_t[1]),
                         str(year), str(table[inst][year])])
    got = _read(path)
    errors = [f"{path.name}:{n}: {g} != expected {w}"
              for n, (g, w) in enumerate(zip(got, want), start=1) if g != w]
    if len(got) != len(want):
        errors.append(f"{path.name}: {len(got)} lines, expected {len(want)}")
    return errors


def _close(got: str, want: float | None) -> bool:
    if want is None:
        return got == ""
    return got != "" and abs(float(got) - want) <= TOL + 1e-12 * abs(want)


def _check_scores(raw: RawCorpus, path: Path) -> list[str]:
    got = _read(path)
    errors = []
    if got[0] != ["institution", "discipline", "s", "s_prime", "s_output", "strength", "nci"]:
        errors.append(f"{path.name}: bad header {got[0]}")
    want = sorted(raw.profiles.items(), key=lambda kv: (kv[0][0], kv[1]["discipline"]))
    if len(got) - 1 != len(want):
        errors.append(f"{path.name}: {len(got) - 1} rows, expected {len(want)}")
    for n, (row, ((inst, _), p)) in enumerate(zip(got[1:], want), start=2):
        expect = [p[k] for k in ("s", "s_prime", "s_output", "strength", "i")]
        if row[:2] != [inst, p["discipline"]] or not all(map(_close, row[2:], expect)):
            errors.append(f"{path.name}:{n}: {row} != expected {inst} {expect}")
    return errors


def _joined(raw: RawCorpus, ns, x: str, y: str) -> list[tuple[str, float, float]]:
    """(institution, x, y) for groups with an h row and a profile carrying both values."""
    table = raw.h_table(ns.window_t, ns.years_l, ns.discipline, ns.country)
    profiles = raw.discipline_profiles(ns.discipline)
    points = []
    for inst in sorted(set(table) & set(profiles)):
        xv = profiles[inst][x]
        m = H_LABEL.match(y)
        yv = float(table[inst][int(m.group(1))]) if m else profiles[inst][y]
        if xv is not None and yv is not None:
            points.append((inst, xv, yv))
    return points


def _check_corr_rows(name: str, rows: list[list[str]], expect: list[tuple]) -> list[str]:
    errors = []
    if len(rows) != len(expect):
        errors.append(f"{name}: {len(rows)} rows, expected {len(expect)}")
    for n, (row, (x, y, year, points)) in enumerate(zip(rows, expect), start=2):
        xs = np.array([p[1] for p in points])
        ys = np.array([p[2] for p in points])
        r = float(np.corrcoef(xs, ys)[0, 1])
        got_year = row[10] if len(row) > 10 else year
        if row[1:4] != [x, y, str(len(points))] or got_year != year or not _close(row[4], r):
            errors.append(f"{name}:{n}: {row[:5]} != expected {x},{y},n={len(points)},"
                          f"pearson_r={r:.6f},year={year!r}")
    return errors


def _check_correlate(raw: RawCorpus, ns, out: Path) -> list[str]:
    pairs = [tuple(part.split(":", 1)) for part in ns.pairs.split(",")]
    table = raw.h_table(ns.window_t, ns.years_l, ns.discipline, ns.country)
    profiles = raw.discipline_profiles(ns.discipline)
    errors = _check_corr_rows(
        "correlations.csv", _read(out / "correlations.csv")[1:],
        [(x, y, "", _joined(raw, ns, x, y)) for x, y in pairs],
    )
    series = []
    has_nci = any(profiles.get(inst, {}).get("i") is not None for inst in table)
    for x in dict.fromkeys(x for x, _ in pairs):
        if has_nci:
            series.append((x, "i", "", _joined(raw, ns, x, "i")))
        series += [(x, f"h_{y}", str(y), _joined(raw, ns, x, f"h_{y}")) for y in ns.years_l]
    errors += _check_corr_rows("corr_series.csv", _read(out / "corr_series.csv")[1:], series)

    points = _joined(raw, ns, *pairs[0])
    got = _read(out / "fig_points.csv")[1:]
    if len(got) != len(points) or not all(
        row[2] == inst and _close(row[0], xv) and _close(row[1], yv)
        for row, (inst, xv, yv) in zip(got, points)
    ):
        errors.append(f"fig_points.csv: points differ from the joined {pairs[0]} sample")
    return errors


def _competition_ranks(values: dict[str, float]) -> dict[str, int]:
    """rank = 1 + number of strictly greater values, after 6-decimal quantisation."""
    quantized = {inst: round(v, 6) for inst, v in values.items()}
    ordered = np.sort(np.array(list(quantized.values())))
    return {inst: 1 + len(ordered) - int(np.searchsorted(ordered, v, side="right"))
            for inst, v in quantized.items()}


def _check_ranked(name: str, rows: list[tuple[int, str, float, str]], want: dict[str, float],
                  baseline: dict[str, float] | None) -> list[str]:
    """One ranked column: values, the rank rule, display order and movement."""
    errors = []
    if sorted(r[1] for r in rows) != sorted(want):
        errors.append(f"{name}: institutions differ from the reference roster "
                      f"({len(rows)} rows, expected {len(want)})")
        return errors
    written = {inst: value for _, inst, value, _ in rows}
    rule = _competition_ranks(written)
    base = _competition_ranks(baseline) if baseline is not None else {}
    for n, (rank, inst, value, move) in enumerate(rows, start=1):
        if abs(value - want[inst]) > TOL + 1e-12 * abs(want[inst]):
            errors.append(f"{name}: row {n} {inst} value {value} != expected {want[inst]:.6f}")
        if rank != rule[inst]:
            errors.append(f"{name}: row {n} {inst} rank {rank} != 1 + #greater = {rule[inst]}")
        if baseline is None:
            expect = "none"
        elif inst not in base:
            expect = "new"
        else:
            expect = "up" if rank < base[inst] else "down" if rank > base[inst] else "none"
        if move != expect:
            errors.append(f"{name}: row {n} {inst} movement {move} != expected {expect}")
    order = sorted(rows, key=lambda r: (-r[2], r[1]))
    if [r[1] for r in order] != [r[1] for r in rows]:
        errors.append(f"{name}: rows not ordered by value descending, then institution")
    return errors


def _check_rank(raw: RawCorpus, ns, path: Path) -> list[str]:
    window = ns.window_t
    base_window = tuple(int(y) for y in ns.baseline_window.split(":")) if ns.baseline_window else window
    want = raw.measure(ns.measure, ns.discipline, window)
    baseline = raw.measure(ns.baseline, ns.discipline, base_window) if ns.baseline else None
    if ns.format == "csv":
        got = _read(path)
        if got[0] != ["rank", "institution", "value", "movement"]:
            return [f"{path.name}: bad header {got[0]}"]
        rows = [(int(r), inst, float(v), m) for r, inst, v, m in got[1:]]
        return _check_ranked(path.name, rows, want, baseline)
    if ns.format == "markdown" and baseline is not None:
        lines = path.read_text(encoding="utf-8").splitlines()
        if lines[:2] != [f"| ranked by {ns.baseline} | ranked by {ns.measure} |", "| :--- | :--- |"]:
            return [f"{path.name}: bad header {lines[:2]}"]
        columns: tuple[list, list] = ([], [])
        for line in lines[2:]:
            for column, cell in zip(columns, line[2:-2].split(" | ")):
                if cell:
                    m = CELL.match(cell)
                    if m is None:
                        return [f"{path.name}: unparseable cell {cell!r}"]
                    column.append((int(m.group(1)), m.group(2), float(m.group(4)),
                                   ARROWS[m.group(3) or ""]))
        return (_check_ranked(f"{path.name} (baseline)", columns[0], baseline, None)
                + _check_ranked(path.name, columns[1], want, baseline))
    return [f"reference has no check for rank --format {ns.format} here"]
