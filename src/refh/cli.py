"""Command-line pipeline: ingest, hindex, score, correlate, rank, synth.

Every command is a pure function of its input files and flags; re-running
an invocation produces byte-identical output files.  Exit codes: 0 on
success, 1 on validation or data errors, 2 on usage errors.  The
``REFH_LOG`` environment variable sets the diagnostic level (e.g.
``REFH_LOG=debug``).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from refh.corpus import (
    Corpus,
    CorpusValidationError,
    PublicationWindow,
    QualityProfile,
    UnknownDisciplineError,
    ingest_corpus,
    load_profiles,
    normalize_label,
    write_corpus,
)
from refh.metrics import (
    GroupMetrics,
    ScoreSet,
    group_metrics,
    score_profile,
    write_hseries_csv,
    write_scores_csv,
)
from refh.ranking import (
    movement,
    rank_table,
    render_comparison_markdown,
    render_table,
    with_movement,
)
from refh.stats import (
    InsufficientDataError,
    correlation_series,
    correlation_table,
    h_label_year,
    joined_points,
    measure_values,
    write_corr_series_csv,
    write_correlations_csv,
    write_fig_points_csv,
)
from refh.synth import SynthConfig, generate, parse_citation_model

log = logging.getLogger("refh")

PRESETS = {
    "rae2008": (PublicationWindow(2001, 2007), list(range(2008, 2015))),
    "ref2014": (PublicationWindow(2008, 2013), [2014]),
}


@dataclass
class RunConfig:
    pubs: Path | None
    cites: Path | None
    profiles: Path | None
    map: Path | None
    country: str
    discipline: str | None
    window: PublicationWindow | None
    years: list[int] | None
    out: Path
    format: str


def parse_years(text: str) -> list[int]:
    """Parse ``2008..2014`` / ``2008,2010`` / mixtures of both."""
    years: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        lo, sep, hi = part.partition("..")
        try:
            lo, hi = int(lo), int(hi if sep else lo)
        except ValueError:
            raise ValueError(f"measurement years must be YEAR or START..END, got {part!r}") from None
        if hi < lo:
            raise ValueError(f"bad year range {part!r}")
        years.extend(range(lo, hi + 1))
    if not years:
        raise ValueError(f"no measurement years in {text!r}")
    return sorted(set(years))


def parse_papers(text: str) -> tuple[int, int]:
    """Parse ``LO:HI`` papers per institution."""
    lo, _, hi = text.partition(":")
    try:
        return int(lo), int(hi)
    except ValueError:
        raise ValueError(f"papers per institution must be LO:HI, got {text!r}") from None


def _config_from(args: argparse.Namespace) -> RunConfig:
    preset = PRESETS.get(getattr(args, "preset", None) or "")
    window = None
    years = None
    if preset:
        window, years = preset[0], list(preset[1])
    window = getattr(args, "window", None) or window
    years = getattr(args, "years", None) or years
    out = Path(getattr(args, "out", ".") or ".")
    return RunConfig(
        pubs=Path(args.pubs) if getattr(args, "pubs", None) else None,
        cites=Path(args.cites) if getattr(args, "cites", None) else None,
        profiles=Path(args.profiles) if getattr(args, "profiles", None) else None,
        map=Path(args.map) if getattr(args, "map", None) else None,
        country=getattr(args, "country", "GB"),
        discipline=getattr(args, "discipline", None),
        window=window,
        years=years,
        out=out,
        format=getattr(args, "format", "csv"),
    )


def _load_corpus(config: RunConfig) -> Corpus:
    missing = [
        name
        for name, path in (
            ("--pubs", config.pubs),
            ("--cites", config.cites),
            ("--profiles", config.profiles),
            ("--map", config.map),
        )
        if path is None
    ]
    if missing:
        raise ValueError(f"missing corpus file option(s): {', '.join(missing)}")
    return ingest_corpus(config.pubs, config.cites, config.profiles, config.map)


def _require(config: RunConfig, *fields: str) -> None:
    human = {"window": "--window (or --preset)", "years": "--years (or --preset)", "discipline": "--discipline"}
    missing = [human[f] for f in fields if getattr(config, f) in (None, [])]
    if missing:
        raise ValueError(f"missing required option(s): {', '.join(missing)}")


def _metrics_for(
    config: RunConfig,
    corpus: Corpus,
    years: list[int],
    window: PublicationWindow | None = None,
) -> list[GroupMetrics]:
    window = window or config.window
    metrics = group_metrics(corpus, config.country, window, config.discipline, years)
    if not metrics:
        raise ValueError(
            f"no matching publications for country={config.country} "
            f"window={window} discipline={config.discipline}"
        )
    return metrics


def _in_discipline(profiles: tuple[QualityProfile, ...], discipline: str) -> tuple[QualityProfile, ...]:
    wanted = normalize_label(discipline)
    return tuple(p for p in profiles if normalize_label(p.discipline) == wanted)


def _scores_for(config: RunConfig, corpus: Corpus) -> list[ScoreSet]:
    """Scores of every profile in the run's discipline."""
    return [score_profile(p) for p in _in_discipline(corpus.profiles, config.discipline)]


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_ingest(args: argparse.Namespace) -> int:
    config = _config_from(args)
    corpus = _load_corpus(config)
    print(
        f"corpus OK: {len(corpus.publications)} publications, "
        f"{len(corpus.profiles)} profiles, {len(corpus.discipline_maps)} discipline maps"
    )
    return 0


def cmd_hindex(args: argparse.Namespace) -> int:
    config = _config_from(args)
    _require(config, "window", "years", "discipline")
    corpus = _load_corpus(config)
    metrics = _metrics_for(config, corpus, config.years)
    config.out.mkdir(parents=True, exist_ok=True)
    path = config.out / "hseries.csv"
    write_hseries_csv(metrics, path)
    log.info("wrote %s (%d institutions, %d years)", path, len(metrics), len(config.years))
    return 0


def cmd_score(args: argparse.Namespace) -> int:
    config = _config_from(args)
    if config.profiles is None:
        raise ValueError("missing required option: --profiles")
    profiles, violations = load_profiles(config.profiles)
    if violations:
        raise CorpusValidationError(violations)
    if config.discipline:
        profiles = _in_discipline(profiles, config.discipline)
    config.out.mkdir(parents=True, exist_ok=True)
    path = config.out / "scores.csv"
    write_scores_csv(profiles, path)
    log.info("wrote %s (%d profiles)", path, len(profiles))
    return 0


def parse_pairs(text: str) -> list[tuple[str, str]]:
    """Parse ``s:h_2008,s_prime:i`` into (x, y) label pairs."""
    pairs = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if ":" not in part:
            raise ValueError(f"pair must be X:Y, got {part!r}")
        x, y = part.split(":", 1)
        pairs.append((x.strip(), y.strip()))
    if not pairs:
        raise ValueError(f"no measure pairs in {text!r}")
    return pairs


def cmd_correlate(args: argparse.Namespace) -> int:
    config = _config_from(args)
    _require(config, "window", "years", "discipline")
    pairs = parse_pairs(args.pairs)
    corpus = _load_corpus(config)
    metrics = _metrics_for(config, corpus, config.years)
    scores = _scores_for(config, corpus)
    reports = correlation_table(scores, metrics, pairs)
    series = [
        correlation_series(scores, metrics, x_label, config.years)
        for x_label in dict.fromkeys(x for x, _ in pairs)
    ]
    first_points, _ = joined_points(scores, metrics, pairs[0][0], pairs[0][1])

    config.out.mkdir(parents=True, exist_ok=True)
    write_correlations_csv(reports, config.out / "correlations.csv")
    write_corr_series_csv(series, config.out / "corr_series.csv")
    write_fig_points_csv(first_points, config.out / "fig_points.csv")
    log.info("wrote correlations.csv, corr_series.csv, fig_points.csv under %s", config.out)
    return 0


def cmd_rank(args: argparse.Namespace) -> int:
    config = _config_from(args)
    _require(config, "discipline")
    corpus = _load_corpus(config)
    scores = _scores_for(config, corpus)

    def values_for(measure: str, window: PublicationWindow | None, role: str) -> dict[str, float]:
        metrics: list[GroupMetrics] = []
        year = h_label_year(measure)
        if year is not None:
            if not window:
                _require(config, "window")
            metrics = _metrics_for(config, corpus, [year], window)
        values = measure_values(measure, scores, metrics)
        if not values:
            raise ValueError(f"no values available for {role} {measure!r}")
        return values

    table = rank_table(values_for(args.measure, None, "measure"), args.measure, config.discipline)
    baseline = None
    if args.baseline:
        baseline_values = values_for(args.baseline, args.baseline_window, "baseline measure")
        baseline = rank_table(baseline_values, args.baseline, config.discipline)
        table = with_movement(table, movement(baseline, table))

    config.out.mkdir(parents=True, exist_ok=True)
    safe_measure = args.measure.replace(":", "_")
    if config.format == "markdown":
        path = config.out / f"rank_{config.discipline}_{safe_measure}.md"
        if baseline is not None:
            text = render_comparison_markdown(baseline, table)
        else:
            text = render_table(table, "markdown")
        path.write_text(text, encoding="utf-8")
    elif config.format == "json":
        path = config.out / f"rank_{config.discipline}_{safe_measure}.json"
        payload = {
            "discipline": table.discipline,
            "measure": table.measure,
            "entries": [
                {"rank": e.rank, "institution": e.institution, "value": e.value, "movement": e.movement}
                for e in table.entries
            ],
        }
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    else:
        path = config.out / f"rank_{config.discipline}_{safe_measure}.csv"
        path.write_text(render_table(table, "csv"), encoding="utf-8")
    log.info("wrote %s (%d entries)", path, len(table.entries))
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    config = SynthConfig(
        seed=args.seed,
        n_institutions=args.institutions,
        papers_per_institution=args.papers,
        window=args.window,
        citation_model=args.model,
        accrual=args.accrual,
        quality_link=args.quality_link,
    )
    corpus = generate(config)
    out = Path(args.out)
    paths = write_corpus(corpus, out)
    manifest = out / "manifest.json"
    manifest.write_text(
        json.dumps(config.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    log.info("wrote %s and %d corpus files", manifest, len(paths))
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _flag_type(parse):
    """argparse ``type=`` for ``parse``: its ValueError text becomes the usage
    error message (exit 2) instead of argparse's generic "invalid value"."""
    def convert(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return convert


def _add_corpus_options(p: argparse.ArgumentParser, profiles_only: bool = False) -> None:
    p.add_argument("--profiles", help="profiles CSV/JSON file")
    if not profiles_only:
        p.add_argument("--pubs", help="publications CSV/JSON file")
        p.add_argument("--cites", help="citations CSV/JSON file")
        p.add_argument("--map", help="discipline map CSV/JSON file")


def _add_run_options(p: argparse.ArgumentParser, with_years: bool = True) -> None:
    p.add_argument("--country", default="GB", help="country code filter (default GB)")
    p.add_argument("--discipline", help="discipline label")
    p.add_argument(
        "--window", type=_flag_type(PublicationWindow.parse), help="publication window START:END"
    )
    if with_years:
        p.add_argument(
            "--years", type=_flag_type(parse_years),
            help="measurement years, e.g. 2008..2014 or 2008,2010",
        )
    p.add_argument(
        "--preset",
        choices=sorted(PRESETS),
        help="named window/years preset: rae2008 = 2001:2007 measured 2008..2014, "
        "ref2014 = 2008:2013 measured 2014",
    )


def _add_output_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default=".", help="output directory (default .)")
    p.add_argument("--format", choices=["csv", "markdown", "json"], default="csv")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="refh",
        description="Departmental h-index and assessment-score analytics over citation corpora.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="validate corpus files and report totals")
    _add_corpus_options(p)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("hindex", help="write per-institution h-index series (hseries.csv)")
    _add_corpus_options(p)
    _add_run_options(p)
    _add_output_options(p)
    p.set_defaults(func=cmd_hindex)

    p = sub.add_parser("score", help="write quality scores per profile (scores.csv)")
    _add_corpus_options(p, profiles_only=True)
    p.add_argument("--discipline", help="restrict to one discipline")
    _add_output_options(p)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser(
        "correlate",
        help="write correlations.csv, corr_series.csv, fig_points.csv for measure pairs",
    )
    _add_corpus_options(p)
    _add_run_options(p)
    _add_output_options(p)
    p.add_argument(
        "--pairs",
        required=True,
        help="comma-separated X:Y measure pairs, e.g. s:h_2008,s_prime:h_2008,s:i",
    )
    p.set_defaults(func=cmd_correlate)

    p = sub.add_parser("rank", help="write a competition-ranked table for one measure")
    _add_corpus_options(p)
    _add_run_options(p, with_years=False)
    _add_output_options(p)
    p.add_argument("--measure", required=True, help="s | s_prime | s_output | strength | i | h_YYYY | h_hat_YYYY")
    p.add_argument("--baseline", help="baseline measure for movement markers")
    p.add_argument(
        "--baseline-window",
        type=_flag_type(PublicationWindow.parse),
        help="publication window START:END for the baseline measure "
        "(defaults to --window; lets h_2008 baselines meet h_hat_2014 comparisons)",
    )
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("synth", help="generate a deterministic synthetic corpus")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--institutions", type=int, required=True)
    p.add_argument("--out", required=True, help="directory for the corpus CSVs and manifest.json")
    p.add_argument(
        "--papers", type=_flag_type(parse_papers), default="20:40",
        help="papers per institution LO:HI (default 20:40)",
    )
    p.add_argument(
        "--window", type=_flag_type(PublicationWindow.parse), default="2001:2007",
        help="publication window START:END",
    )
    p.add_argument(
        "--model",
        type=_flag_type(parse_citation_model),
        default="lognormal:1.8:0.6",
        help="citation model KIND:A:B (lognormal:MU:SIGMA or power_law:ALPHA:XMIN)",
    )
    p.add_argument("--accrual", type=float, default=0.35, help="per-year citation accrual decay in (0,1)")
    p.add_argument("--quality-link", type=float, default=0.7, help="quality coupling in [0,1]")
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv: list[str] | None = None) -> int:
    level = os.environ.get("REFH_LOG", "").upper()
    logging.basicConfig(
        level=getattr(logging, level, logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s",
    )
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CorpusValidationError, InsufficientDataError, UnknownDisciplineError,
            ValueError, OSError) as exc:
        print(f"refh: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
