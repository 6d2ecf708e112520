"""refh: departmental h-index analytics for research assessment exercises.

Compute time-windowed departmental h-indices from citation corpora, quality
scores from graded assessment profiles, correlations between the two
families of measures, and competition-ranked institution tables with
movement markers.

Only ``refh.corpus``, which every command reads through, is imported here.
``refh.metrics``, ``refh.ranking``, ``refh.stats`` and ``refh.synth`` are
registered in ``sys.modules`` through ``importlib.util.LazyLoader``: each
module's body runs on the first access to one of its attributes, so a
command loads only the modules it calls.  Function-level imports would do
the same, but would leave a module out of ``sys.modules`` until its command
runs, and code that looks functions up there first (the benchmark's span
tracer, tests that patch a module) would miss it.  Their public names are
served from the package by ``__getattr__``.
"""

import importlib.util
import sys

from refh.corpus import (
    Corpus,
    CorpusValidationError,
    DisciplineMap,
    PublicationRecord,
    PublicationWindow,
    QualityProfile,
    UnknownDisciplineError,
    filter_documents,
    ingest_corpus,
    write_corpus,
)


def _lazy(name: str):
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


metrics = _lazy("refh.metrics")
ranking = _lazy("refh.ranking")
stats = _lazy("refh.stats")
synth = _lazy("refh.synth")

# public name -> the lazy module that defines it
_LAZY_NAMES = {
    name: module
    for module, names in (
        (metrics, "GroupMetrics ScoreSet citations_to_end_of compute_h departmental_h "
                  "group_metrics h_series score_profile score_s score_s_output "
                  "score_s_prime strength"),
        (ranking, "MovementReport RankedTable RankEntry movement rank_table render_table "
                  "with_movement"),
        (stats, "CorrelationReport CorrelationSeries InsufficientDataError correlation_series "
                "correlation_table fractional_ranks pearson significance spearman"),
        (synth, "Lognormal PowerLaw SynthConfig generate"),
    )
    for name in names.split()
}


def __getattr__(name: str):
    # read anew each time, not cached here: a function patched in its module stays visible
    module = _LAZY_NAMES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(module, name)


__version__ = "0.1.0"

# the names imported from refh.corpus above, then every lazy name
__all__ = sorted("Corpus CorpusValidationError DisciplineMap PublicationRecord PublicationWindow "
                 "QualityProfile UnknownDisciplineError filter_documents ingest_corpus "
                 "write_corpus".split() + list(_LAZY_NAMES))
