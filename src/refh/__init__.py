"""refh: departmental h-index analytics for research assessment exercises.

Compute time-windowed departmental h-indices from citation corpora, quality
scores from graded assessment profiles, correlations between the two
families of measures, and competition-ranked institution tables with
movement markers.
"""

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
from refh.metrics import (
    GroupMetrics,
    ScoreSet,
    citations_to_end_of,
    compute_h,
    departmental_h,
    group_metrics,
    h_series,
    score_profile,
    score_s,
    score_s_output,
    score_s_prime,
    strength,
)
from refh.ranking import (
    MovementReport,
    RankedTable,
    RankEntry,
    movement,
    rank_table,
    render_table,
    with_movement,
)
from refh.stats import (
    CorrelationReport,
    CorrelationSeries,
    InsufficientDataError,
    correlation_series,
    correlation_table,
    fractional_ranks,
    pearson,
    significance,
    spearman,
)
from refh.synth import Lognormal, PowerLaw, SynthConfig, generate

__version__ = "0.1.0"

__all__ = [
    "Corpus",
    "CorpusValidationError",
    "CorrelationReport",
    "CorrelationSeries",
    "DisciplineMap",
    "GroupMetrics",
    "InsufficientDataError",
    "Lognormal",
    "MovementReport",
    "PowerLaw",
    "PublicationRecord",
    "PublicationWindow",
    "QualityProfile",
    "RankEntry",
    "RankedTable",
    "ScoreSet",
    "SynthConfig",
    "UnknownDisciplineError",
    "citations_to_end_of",
    "compute_h",
    "correlation_series",
    "correlation_table",
    "departmental_h",
    "filter_documents",
    "fractional_ranks",
    "generate",
    "group_metrics",
    "h_series",
    "ingest_corpus",
    "movement",
    "pearson",
    "rank_table",
    "render_table",
    "score_profile",
    "score_s",
    "score_s_output",
    "score_s_prime",
    "significance",
    "spearman",
    "strength",
    "with_movement",
    "write_corpus",
]
