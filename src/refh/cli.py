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
from refh.synth import SynthConfig, SynthConfigError, generate, parse_citation_model

log = logging.getLogger("refh")

PRESETS = {
    "rae2008": (PublicationWindow(2001, 2007), list(range(2008, 2015))),
    "ref2014": (PublicationWindow(2008, 2013), [2014]),
}


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


def _load_corpus(args: argparse.Namespace) -> Corpus:
    return ingest_corpus(args.pubs, args.cites, args.profiles, args.map)


def _metrics_for(
    args: argparse.Namespace, corpus: Corpus, years: list[int], window: PublicationWindow
) -> list[GroupMetrics]:
    metrics = group_metrics(corpus, args.country, window, args.discipline, years)
    if not metrics:
        raise ValueError(
            f"no matching publications for country={args.country} "
            f"window={window} discipline={args.discipline}"
        )
    return metrics


def _in_discipline(profiles: tuple[QualityProfile, ...], discipline: str) -> tuple[QualityProfile, ...]:
    wanted = normalize_label(discipline)
    return tuple(p for p in profiles if normalize_label(p.discipline) == wanted)


def _scores_for(args: argparse.Namespace, corpus: Corpus) -> list[ScoreSet]:
    """Scores of every profile in the run's discipline."""
    return [score_profile(p) for p in _in_discipline(corpus.profiles, args.discipline)]


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_ingest(args: argparse.Namespace) -> int:
    corpus = _load_corpus(args)
    print(
        f"corpus OK: {len(corpus.publications)} publications, "
        f"{len(corpus.profiles)} profiles, {len(corpus.discipline_maps)} discipline maps"
    )
    return 0


def cmd_hindex(args: argparse.Namespace) -> int:
    corpus = _load_corpus(args)
    metrics = _metrics_for(args, corpus, args.years, args.window)
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / "hseries.csv"
    write_hseries_csv(metrics, path)
    log.info("wrote %s (%d institutions, %d years)", path, len(metrics), len(args.years))
    return 0


def cmd_score(args: argparse.Namespace) -> int:
    profiles, violations = load_profiles(args.profiles)
    if violations:
        raise CorpusValidationError(violations)
    if args.discipline:
        profiles = _in_discipline(profiles, args.discipline)
        if not profiles:
            raise ValueError(f"no profiles for discipline {args.discipline!r}")
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / "scores.csv"
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
    corpus = _load_corpus(args)
    metrics = _metrics_for(args, corpus, args.years, args.window)
    scores = _scores_for(args, corpus)
    reports = correlation_table(scores, metrics, args.pairs)
    series = [
        correlation_series(scores, metrics, x_label, args.years)
        for x_label in dict.fromkeys(x for x, _ in args.pairs)
    ]
    first_points, _ = joined_points(scores, metrics, *args.pairs[0])

    args.out.mkdir(parents=True, exist_ok=True)
    write_correlations_csv(reports, args.out / "correlations.csv")
    write_corr_series_csv(series, args.out / "corr_series.csv")
    write_fig_points_csv(first_points, args.out / "fig_points.csv")
    log.info("wrote correlations.csv, corr_series.csv, fig_points.csv under %s", args.out)
    return 0


def cmd_rank(args: argparse.Namespace) -> int:
    corpus = _load_corpus(args)
    scores = _scores_for(args, corpus)

    def values_for(measure: str, window: PublicationWindow | None, role: str) -> dict[str, float]:
        metrics: list[GroupMetrics] = []
        year = h_label_year(measure)
        if year is not None:
            metrics = _metrics_for(args, corpus, [year], window)
        values = measure_values(measure, scores, metrics)
        if not values:
            raise ValueError(f"no values available for {role} {measure!r}")
        return values

    table = rank_table(values_for(args.measure, args.window, "measure"), args.measure, args.discipline)
    baseline = None
    if args.baseline:
        baseline_values = values_for(args.baseline, args.baseline_window, "baseline measure")
        baseline = rank_table(baseline_values, args.baseline, args.discipline)
        if args.format != "markdown":  # render_comparison_markdown marks the table itself
            table = with_movement(table, movement(baseline, table))

    args.out.mkdir(parents=True, exist_ok=True)
    safe_measure = args.measure.replace(":", "_")
    if args.format == "markdown":
        path = args.out / f"rank_{args.discipline}_{safe_measure}.md"
        if baseline is not None:
            text = render_comparison_markdown(baseline, table)
        else:
            text = render_table(table, "markdown")
        path.write_text(text, encoding="utf-8")
    elif args.format == "json":
        path = args.out / f"rank_{args.discipline}_{safe_measure}.json"
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
        path = args.out / f"rank_{args.discipline}_{safe_measure}.csv"
        path.write_text(render_table(table, "csv"), encoding="utf-8")
    log.info("wrote %s (%d entries)", path, len(table.entries))
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    corpus = generate(args.config)
    paths = write_corpus(corpus, args.out)
    manifest = args.out / "manifest.json"
    manifest.write_text(
        json.dumps(args.config.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
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
    p.add_argument("--profiles", required=True, type=Path, help="profiles CSV/JSON file")
    if not profiles_only:
        p.add_argument("--pubs", required=True, type=Path, help="publications CSV/JSON file")
        p.add_argument("--cites", required=True, type=Path, help="citations CSV/JSON file")
        p.add_argument("--map", required=True, type=Path, help="discipline map CSV/JSON file")


def _add_run_options(p: argparse.ArgumentParser, with_years: bool = True) -> None:
    p.add_argument("--country", default="GB", help="country code filter (default GB)")
    p.add_argument("--discipline", required=True, help="discipline label")
    p.add_argument(
        "--window", type=_flag_type(PublicationWindow.parse), help="publication window START:END"
    )
    if with_years:
        p.add_argument(
            "--years", type=_flag_type(parse_years),
            help="measurement years, e.g. 2008..2014 or 2008,2010 (contiguous for correlate)",
        )
    p.add_argument(
        "--preset",
        choices=sorted(PRESETS),
        help="named window/years preset: rae2008 = 2001:2007 measured 2008..2014, "
        "ref2014 = 2008:2013 measured 2014",
    )


def _add_out_option(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", type=Path, default=".", help="output directory (default .)")


# Post-parse steps: each applies --preset or a rule that spans flags, and a
# ValueError it raises is reported as a usage error of its subcommand.


def _resolve_hindex(args: argparse.Namespace) -> None:
    if args.preset:
        window, years = PRESETS[args.preset]
        args.window = args.window or window
        args.years = args.years or list(years)
    missing = [flag for flag, value in (("--window", args.window), ("--years", args.years))
               if value is None]
    if missing:
        raise ValueError(f"the following arguments are required: {', '.join(missing)} (or --preset)")


def _resolve_correlate(args: argparse.Namespace) -> None:
    _resolve_hindex(args)
    if args.years != list(range(args.years[0], args.years[-1] + 1)):
        raise ValueError(
            f"argument --years: correlate needs contiguous measurement years, got {args.years}"
        )


def _resolve_rank(args: argparse.Namespace) -> None:
    if args.preset:
        args.window = args.window or PRESETS[args.preset][0]
    args.baseline_window = args.baseline_window or args.window
    for flag, label, window in (
        ("--measure", args.measure, args.window),
        ("--baseline", args.baseline, args.baseline_window),
    ):
        if label and window is None and h_label_year(label) is not None:
            raise ValueError(
                f"argument {flag}: {label} needs a publication window (--window or --preset)"
            )


# SynthConfig field -> the synth flag that sets it
_SYNTH_FLAGS = {"seed": "--seed", "n_institutions": "--institutions",
                "papers_per_institution": "--papers", "accrual": "--accrual",
                "quality_link": "--quality-link"}


def _resolve_synth(args: argparse.Namespace) -> None:
    try:
        args.config = SynthConfig(
            seed=args.seed,
            n_institutions=args.institutions,
            papers_per_institution=args.papers,
            window=args.window,
            citation_model=args.model,
            accrual=args.accrual,
            quality_link=args.quality_link,
        )
    except SynthConfigError as exc:
        raise ValueError(f"argument {_SYNTH_FLAGS[exc.field]}: {exc.problem}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="refh",
        description="Departmental h-index and assessment-score analytics over citation corpora.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, resolve=None, **kwargs) -> argparse.ArgumentParser:
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=func, resolve=resolve, parser=p)
        return p

    p = command("ingest", cmd_ingest, help="validate corpus files and report totals")
    _add_corpus_options(p)

    p = command(
        "hindex", cmd_hindex, _resolve_hindex,
        help="write per-institution h-index series (hseries.csv)",
    )
    _add_corpus_options(p)
    _add_run_options(p)
    _add_out_option(p)

    p = command("score", cmd_score, help="write quality scores per profile (scores.csv)")
    _add_corpus_options(p, profiles_only=True)
    p.add_argument("--discipline", help="restrict to one discipline")
    _add_out_option(p)

    p = command(
        "correlate", cmd_correlate, _resolve_correlate,
        help="write correlations.csv, corr_series.csv, fig_points.csv for measure pairs",
    )
    _add_corpus_options(p)
    _add_run_options(p)
    _add_out_option(p)
    p.add_argument(
        "--pairs",
        required=True,
        type=_flag_type(parse_pairs),
        help="comma-separated X:Y measure pairs, e.g. s:h_2008,s_prime:h_2008,s:i",
    )

    p = command(
        "rank", cmd_rank, _resolve_rank, help="write a competition-ranked table for one measure"
    )
    _add_corpus_options(p)
    _add_run_options(p, with_years=False)
    _add_out_option(p)
    p.add_argument("--format", choices=["csv", "markdown", "json"], default="csv")
    p.add_argument("--measure", required=True, help="s | s_prime | s_output | strength | i | h_YYYY | h_hat_YYYY")
    p.add_argument("--baseline", help="baseline measure for movement markers")
    p.add_argument(
        "--baseline-window",
        type=_flag_type(PublicationWindow.parse),
        help="publication window START:END for the baseline measure "
        "(defaults to --window; lets h_2008 baselines meet h_hat_2014 comparisons)",
    )

    p = command(
        "synth", cmd_synth, _resolve_synth, help="generate a deterministic synthetic corpus"
    )
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--institutions", type=int, required=True)
    p.add_argument(
        "--out", required=True, type=Path, help="directory for the corpus CSVs and manifest.json"
    )
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

    return parser


def main(argv: list[str] | None = None) -> int:
    level = os.environ.get("REFH_LOG", "").upper()
    logging.basicConfig(
        level=getattr(logging, level, logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s",
    )
    args = build_parser().parse_args(argv)
    if args.resolve:
        try:
            args.resolve(args)
        except ValueError as exc:
            args.parser.error(str(exc))
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
