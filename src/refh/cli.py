"""Command-line pipeline: ingest, hindex, score, correlate, rank, synth.

Every command is a pure function of its input files and flags; re-running
an invocation produces byte-identical output files.  Exit codes: 0 on
success, 1 on validation or data errors, 2 on usage errors.  The
``REFH_LOG`` environment variable sets the diagnostic level (e.g.
``REFH_LOG=debug``); ``logging`` is imported only when it is set.
"""

from __future__ import annotations

import argparse
import gc
import os
import re
import sys
from collections import Counter
from functools import cache, partial
from pathlib import Path
from typing import Callable

# lazily loaded (see refh/__init__.py): a name read from one of these runs its
# module, so they are read at call time, never imported by name here
from refh import metrics as metrics_module, ranking, stats, synth
from refh.corpus import (
    Corpus,
    CorpusValidationError,
    PublicationWindow,
    QualityProfile,
    UnknownDisciplineError,
    ingest_corpus,
    load_profiles,
    log_info,
    normalize_label,
    write_corpus,
)

PRESETS = {
    "rae2008": (PublicationWindow(2001, 2007), list(range(2008, 2015))),
    "ref2014": (PublicationWindow(2008, 2013), [2014]),
}

# rank --format -> output file suffix
RANK_SUFFIXES = {"csv": "csv", "markdown": "md", "json": "json"}


# --years takes at most this many years, each of four digits as in an h_YYYY label
MAX_YEARS = 50

# a rejected corpus prints its first 50 violations, then how many more each file and field has
_SHOWN = 50
# a violation's file (up to its line number and ": ") and its field, if it names one
_FILE_AND_FIELD = re.compile(r"(?:(.*?)(?::\d+)?: )?(field '\w+')?")


def parse_years(text: str) -> list[int]:
    """Parse ``2008..2014`` / ``2008,2010`` / mixtures of both into at most
    ``MAX_YEARS`` years from 1000 to 9999."""
    years: set[int] = set()
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
        if lo < 1000 or hi > 9999:
            raise ValueError(f"measurement years must be from 1000 to 9999, got {part!r}")
        # MAX_YEARS + 1 years of a longer range are enough to refuse it
        years.update(range(lo, min(hi, lo + MAX_YEARS) + 1))
        if len(years) > MAX_YEARS:
            raise ValueError(f"at most {MAX_YEARS} measurement years, got more in {text!r}")
    if not years:
        raise ValueError(f"no measurement years in {text!r}")
    return sorted(years)


def parse_papers(text: str) -> tuple[int, int]:
    """Parse ``LO:HI`` papers per institution."""
    lo, _, hi = text.partition(":")
    try:
        return int(lo), int(hi)
    except ValueError:
        raise ValueError(f"papers per institution must be LO:HI, got {text!r}") from None


def _load_corpus(args: argparse.Namespace) -> Corpus:
    return ingest_corpus(args.pubs, args.cites, args.profiles, args.map)


def _load_profiles(args: argparse.Namespace) -> tuple[QualityProfile, ...]:
    profiles, violations = load_profiles(args.profiles)
    if violations:
        raise CorpusValidationError(violations)
    return profiles


def _h_passes(args: argparse.Namespace, corpus: Corpus | None, needs: list[tuple[PublicationWindow, int]]):
    """``h_pass(window)``, which makes the window's one ``group_metrics`` call, over
    every year that ``needs`` ((window, measurement year) pairs) names for it, when first asked."""
    @cache
    def h_pass(window: PublicationWindow) -> list[metrics_module.GroupMetrics]:
        years = sorted({year for at, year in needs if at == window})
        metrics = metrics_module.group_metrics(corpus, args.country, window, args.discipline, years)
        if not metrics:
            raise ValueError(f"no matching publications for country={args.country} "
                             f"window={window} discipline={args.discipline}")
        return metrics
    return h_pass


def _write(out: Path, outputs: dict[str, Callable[[Path], object]]) -> None:
    """Make ``out`` and write each output there in order, once a command has computed them all."""
    out.mkdir(parents=True, exist_ok=True)
    for name, write in outputs.items():
        write(out / name)


def _in_discipline(profiles: tuple[QualityProfile, ...], discipline: str) -> tuple[QualityProfile, ...]:
    wanted = normalize_label(discipline)
    return tuple(p for p in profiles if normalize_label(p.discipline) == wanted)


def _scores_for(
    args: argparse.Namespace, profiles: tuple[QualityProfile, ...]
) -> list[metrics_module.ScoreSet]:
    """Scores of every profile in the run's discipline."""
    return [metrics_module.score_profile(p) for p in _in_discipline(profiles, args.discipline)]


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
    metrics = _h_passes(args, corpus, [(args.window, year) for year in args.years])(args.window)
    _write(args.out, {"hseries.csv": partial(metrics_module.write_hseries_csv, metrics)})
    log_info("refh", "wrote %s (%d institutions, %d years)", args.out / "hseries.csv", len(metrics), len(args.years))
    return 0


def cmd_score(args: argparse.Namespace) -> int:
    profiles = _load_profiles(args)
    if args.discipline:
        profiles = _in_discipline(profiles, args.discipline)
        if not profiles:
            raise ValueError(f"no profiles for discipline {args.discipline!r}")
    _write(args.out, {"scores.csv": partial(metrics_module.write_scores_csv, profiles)})
    log_info("refh", "wrote %s (%d profiles)", args.out / "scores.csv", len(profiles))
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
        if (pair := (x.strip(), y.strip())) in pairs:
            raise ValueError(f"pair {':'.join(pair)!r} is given twice")
        pairs.append(pair)
    if not pairs:
        raise ValueError(f"no measure pairs in {text!r}")
    return pairs


def cmd_correlate(args: argparse.Namespace) -> int:
    corpus = _load_corpus(args)
    metrics = _h_passes(args, corpus, [(args.window, year) for year in args.years])(args.window)
    scores = _scores_for(args, corpus.profiles)
    outputs = {
        "correlations.csv": partial(
            stats.write_correlations_csv, stats.correlation_table(scores, metrics, args.pairs)),
        "corr_series.csv": partial(stats.write_corr_series_csv, [
            stats.correlation_series(scores, metrics, x_label, args.years)
            for x_label in dict.fromkeys(x for x, _ in args.pairs)
        ]),
        "fig_points.csv": partial(
            stats.write_fig_points_csv, stats.joined_points(scores, metrics, *args.pairs[0])[0]),
    }
    _write(args.out, outputs)
    log_info("refh", "wrote %s under %s", ", ".join(outputs), args.out)
    return 0


def cmd_rank(args: argparse.Namespace) -> int:
    labels = {"measure": (args.measure, args.window)}
    if args.baseline:
        labels["baseline measure"] = (args.baseline, args.baseline_window)
    needs = {role: (window, year) for role, (label, window) in labels.items()
             if (year := stats.h_label_year(label)) is not None}
    # profile labels alone read --profiles alone: --pubs, --cites and --map stay unopened
    corpus = _load_corpus(args) if needs else None
    scores = _scores_for(args, _load_profiles(args) if corpus is None else corpus.profiles)
    # labels ask in order, so a label's missing values are refused before a later label's h pass
    h_pass = _h_passes(args, corpus, list(needs.values()))
    tables = []
    for role, (label, window) in labels.items():
        values = stats.measure_values(label, scores, h_pass(window) if role in needs else ())
        if not values:
            raise ValueError(f"no values available for {role} {label!r}")
        tables.append(ranking.rank_table(values, label, args.discipline))
    table = tables[0]
    if not args.baseline:
        text = ranking.render_table(table, args.format)
    elif args.format == "markdown":
        text = ranking.render_comparison_markdown(tables[1], table)
    else:
        marked = ranking.with_movement(table, ranking.movement(tables[1], table))
        text = ranking.render_table(marked, args.format)
    name = f"rank_{args.discipline.replace('/', '_')}_{args.measure}.{RANK_SUFFIXES[args.format]}"
    _write(args.out, {name: lambda path: path.write_text(text, encoding="utf-8")})
    log_info("refh", "wrote %s (%d entries)", args.out / name, len(table.entries))
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    import json

    corpus = synth.generate(args.config)
    paths = write_corpus(corpus, args.out)
    manifest = args.out / "manifest.json"
    manifest.write_text(
        json.dumps(args.config.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    log_info("refh", "wrote %s and %d corpus files", manifest, len(paths))
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


def _name(text: str) -> str:
    """A name flag's value (a discipline or a measure label), stripped as ``--pairs`` entries are."""
    if not (name := text.strip()):
        raise ValueError("must not be blank")
    return name


def _add_corpus_options(p: argparse.ArgumentParser, profiles_only: bool = False) -> None:
    p.add_argument("--profiles", required=True, type=Path, help="profiles CSV/JSON file")
    if not profiles_only:
        p.add_argument("--pubs", required=True, type=Path, help="publications CSV/JSON file")
        p.add_argument("--cites", required=True, type=Path, help="citations CSV/JSON file")
        p.add_argument("--map", required=True, type=Path, help="discipline map CSV/JSON file")


def _add_run_options(p: argparse.ArgumentParser, with_years: bool = True) -> None:
    p.add_argument("--country", default="GB", help="country code filter (default GB)")
    p.add_argument("--discipline", required=True, type=_flag_type(_name), help="discipline label")
    p.add_argument(
        "--window", type=_flag_type(PublicationWindow.parse), help="publication window START:END"
    )
    if with_years:
        p.add_argument(
            "--years", type=_flag_type(parse_years),
            help="measurement years, e.g. 2008..2014 or 2008,2010 (contiguous for correlate); "
            f"at most {MAX_YEARS}, each from 1000 to 9999",
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
    if args.years[0] <= args.window.start_year:
        raise ValueError(f"argument --years: measurement year {args.years[0]} must come after "
                         f"window start {args.window.start_year}")


def _label_year(flag: str, label: str) -> int | None:
    """``stats.h_label_year``, its refusal of an unknown label naming ``flag``."""
    try:
        return stats.h_label_year(label)
    except ValueError as exc:
        raise ValueError(f"argument {flag}: {exc}") from None


def _resolve_correlate(args: argparse.Namespace) -> None:
    _resolve_hindex(args)
    if args.years != list(range(args.years[0], args.years[-1] + 1)):
        raise ValueError(
            f"argument --years: correlate needs contiguous measurement years, got {args.years}"
        )
    for label in (label for pair in args.pairs for label in pair):
        if (year := _label_year("--pairs", label)) is not None and year not in args.years:
            raise ValueError(f"argument --pairs: {label} measures {year}, outside --years "
                             f"{args.years[0]}..{args.years[-1]}")


def _resolve_rank(args: argparse.Namespace) -> None:
    if args.preset:
        args.window = args.window or PRESETS[args.preset][0]
    if args.baseline_window and not args.baseline:
        raise ValueError("argument --baseline-window: needs --baseline")
    args.baseline_window = args.baseline_window or args.window
    for flag, label, window in (
        ("--measure", args.measure, args.window),
        ("--baseline", args.baseline, args.baseline_window),
    ):
        if label is None or (year := _label_year(flag, label)) is None:
            continue
        if window is None:
            raise ValueError(
                f"argument {flag}: {label} needs a publication window (--window or --preset)"
            )
        if year <= window.start_year:
            raise ValueError(f"argument {flag}: {label} measures {year}, which must come after "
                             f"window start {window.start_year}")


# SynthConfig field -> the synth flag that sets it
_SYNTH_FLAGS = {"seed": "--seed", "n_institutions": "--institutions",
                "papers_per_institution": "--papers", "window": "--window",
                "accrual": "--accrual", "quality_link": "--quality-link",
                "n_institutions * HI": "--institutions * --papers HI"}


def _resolve_synth(args: argparse.Namespace) -> None:
    try:
        args.config = synth.SynthConfig(
            seed=args.seed,
            n_institutions=args.institutions,
            papers_per_institution=args.papers,
            window=args.window,
            citation_model=args.model,
            accrual=args.accrual,
            quality_link=args.quality_link,
        )
    except synth.SynthConfigError as exc:
        raise ValueError(f"argument {_SYNTH_FLAGS[exc.field]}: {exc.problem}") from None


def build_parser() -> argparse.ArgumentParser:
    """The ``refh`` parser with every subcommand and its options."""
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
    p.add_argument("--discipline", type=_flag_type(_name), help="restrict to one discipline")
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
        help="comma-separated X:Y measure pairs, e.g. s:h_2008,s_prime:h_2008,s:i; "
        "an h_YYYY or h_hat_YYYY label must name one of --years",
    )

    p = command(
        "rank", cmd_rank, _resolve_rank, help="write a competition-ranked table for one measure"
    )
    _add_corpus_options(p)
    _add_run_options(p, with_years=False)
    _add_out_option(p)
    p.add_argument("--format", choices=list(RANK_SUFFIXES), default="csv")
    p.add_argument("--measure", required=True, type=_flag_type(_name),
                   help="s | s_prime | s_output | strength | i | h_YYYY | h_hat_YYYY")
    p.add_argument("--baseline", type=_flag_type(_name), help="baseline measure for movement markers")
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
    p.add_argument(
        "--institutions", type=int, required=True,
        help="number of groups (this times --papers HI may not exceed 2000000 records)",
    )
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
        type=_flag_type(lambda text: synth.parse_citation_model(text)),  # synth loads on use
        default="lognormal:1.8:0.6",
        help="citation model KIND:A:B (lognormal:MU:SIGMA or power_law:ALPHA:XMIN)",
    )
    p.add_argument("--accrual", type=float, default=0.35, help="per-year citation accrual decay in (0,1)")
    p.add_argument("--quality-link", type=float, default=0.7, help="quality coupling in [0,1]")

    return parser


def main(argv: list[str] | None = None) -> int:
    if name := os.environ.get("REFH_LOG", "").upper():
        import logging

        logging.basicConfig(
            level=logging.getLevelNamesMapping().get(name, logging.WARNING),
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
    except CorpusValidationError as exc:
        print("refh: " + "\n".join(exc.violations[:_SHOWN]), file=sys.stderr)
        more = Counter(_FILE_AND_FIELD.match(v).groups() for v in exc.violations[_SHOWN:])  # in first-seen order
        for (name, field), n in more.items():
            of_field = f" of {field}" if field else ""
            print(f"refh: {name}: {n:,} more violation{'s' * (n > 1)}{of_field}", file=sys.stderr)
        return 1
    except (UnknownDisciplineError, ValueError, OSError) as exc:
        print(f"refh: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    gc.freeze()  # modules live until exit: later collections, at shutdown too, would only re-scan them
    gc.disable()  # a command's profiles, scores and entries form no cycles; the process exits after it
    sys.exit(main())


if __name__ == "__main__":
    run()
