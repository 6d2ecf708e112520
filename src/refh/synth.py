"""Deterministic synthetic corpora for desk-scale pipeline verification.

One ``random.Random(seed)`` drives the whole generation through its
``random()`` method alone, whose sequence Python keeps the same across
versions for a given seed; the lognormal, power-law, integer and accrual
draws are written from it with ``math``, so one seed yields one
byte-identical corpus wherever ``math`` rounds alike.  Each institution
gets a latent quality in [0, 1]; ``quality_link`` controls how strongly
that latent value drives both its citation rates and its graded profile.
At 0 the profiles are independent noise, so quality scores and
h-indices decorrelate; at 1 both sides follow the latent quality and the
rank correlation between them approaches 1 on quiet citation models.

A small fraction of generated records deliberately fails each filter step
(foreign country, out-of-window year, unmapped category, secondary
affiliation), so filtering is exercised rather than vacuous.
"""

from __future__ import annotations

import math
from bisect import bisect
from collections.abc import Callable
from itertools import accumulate
from operator import itemgetter
from random import Random

from refh.corpus import (
    Corpus,
    DisciplineMap,
    PublicationRecord,
    PublicationWindow,
    QualityProfile,
    _Frozen,
)

SYNTH_DISCIPLINE = "synthetic"
SYNTH_CATEGORIES = ("Synthetic Studies", "Applied Synthetics")
OFF_CATEGORY = "Unrelated Arts"
HOME_COUNTRY = "GB"
FOREIGN_COUNTRY = "US"

# distractor fractions: enough to exercise every filter predicate without
# drowning the quality signal
_P_FOREIGN = 0.05
_P_OFF_WINDOW = 0.08
_P_OFF_CATEGORY = 0.05
_P_EXTRA_AFFILIATION = 0.05
_P_OUTPUT_PROFILE = 0.9
_P_NCI = 0.9

_CITE_QUALITY_GAIN = 2.5
_ACCRUAL_HORIZON = 15

_MICRO = 10**6  # percentages live on a 1e-6 grid so files round-trip exactly
_INT64_END = 2**63  # the benchmark's reference reads years and counts as int64
# the most citations one paper may draw, over 3x the most-cited paper known; the
# split across accrual years costs one draw per citation
MAX_CITATIONS = 10**6
# the most records (n_institutions * HI) a config may ask for: over 10x a
# national discipline of 4,000 groups of up to 40 papers, far below what fills memory
MAX_RECORDS = 2_000_000


def _normal(random: Callable[[], float]) -> float:
    """A standard normal draw: Box-Muller over two ``random()`` draws."""
    return math.sqrt(-2.0 * math.log(1.0 - random())) * math.cos(2.0 * math.pi * random())


class Lognormal(_Frozen):
    """Per-paper total citations ~ floor(lognormal(mu, sigma) * quality factor)."""

    mu: float
    sigma: float

    def __post_init__(self):
        if not self.sigma > 0 or not math.isfinite(self.mu) or not math.isfinite(self.sigma):
            raise ValueError(f"invalid lognormal parameters mu={self.mu}, sigma={self.sigma}")

    def draw(self, random: Callable[[], float]) -> float:
        try:
            return math.exp(self.mu + self.sigma * _normal(random))
        except OverflowError:  # exp exceeds the float range
            return math.inf


class PowerLaw(_Frozen):
    """Per-paper total citations from a Pareto tail with density ~ x^-alpha."""

    alpha: float
    x_min: float

    def __post_init__(self):
        if not 1 < self.alpha < math.inf or not 0 < self.x_min < math.inf:
            raise ValueError(f"invalid power-law parameters alpha={self.alpha}, x_min={self.x_min}")

    def draw(self, random: Callable[[], float]) -> float:
        try:
            return self.x_min * (1.0 - random()) ** (-1.0 / (self.alpha - 1.0))
        except OverflowError:  # alpha near 1: the power exceeds the float range
            return math.inf


CitationModel = Lognormal | PowerLaw


class SynthConfigError(ValueError):
    """A :class:`SynthConfig` field out of range: ``field`` names it (or the
    product of two) and ``problem`` says what is wrong, so a caller can name
    its own option."""

    def __init__(self, field: str, problem: str):
        super().__init__(f"{field} {problem}")
        self.field = field
        self.problem = problem


class SynthConfig(_Frozen):
    """What :func:`generate` draws; construction refuses a field out of its
    range with a :class:`SynthConfigError` naming it.

    - ``seed``: the ``random.Random`` seed, in [0, 2**64).
    - ``n_institutions``: the number of groups, at least 1.
    - ``papers_per_institution``: ``(LO, HI)``, each group's paper count drawn
      from LO..HI; 1 <= LO <= HI < 2**63, and ``n_institutions * HI`` is at
      most ``MAX_RECORDS``.
    - ``window``: the publication window, its years in [-2**63, 2**63).
    - ``citation_model``: a :class:`Lognormal` or :class:`PowerLaw`, which
      checks its own parameters.
    - ``accrual``: the geometric per-year citation decay, in (0, 1).
    - ``quality_link``: how strongly latent quality drives citations and
      profiles, in [0, 1].
    """

    seed: int
    n_institutions: int
    papers_per_institution: tuple[int, int]
    window: PublicationWindow
    citation_model: CitationModel
    accrual: float
    quality_link: float

    def __post_init__(self):
        if self.seed < 0 or self.seed >= 2**64:
            raise SynthConfigError("seed", f"must fit in 64 bits, got {self.seed}")
        if self.n_institutions < 1:
            raise SynthConfigError("n_institutions", f"must be at least 1, got {self.n_institutions}")
        lo, hi = self.papers_per_institution
        if not 1 <= lo <= hi:
            raise SynthConfigError(
                "papers_per_institution", f"must be LO:HI with 1 <= LO <= HI, got {lo}:{hi}"
            )
        if hi >= _INT64_END:
            raise SynthConfigError("papers_per_institution", f"HI must be below 2**63, got {hi}")
        if self.window.start_year < -_INT64_END or self.window.end_year >= _INT64_END:
            raise SynthConfigError("window", f"years must lie in [-2**63, 2**63), got {self.window}")
        if not 0.0 < self.accrual < 1.0:
            raise SynthConfigError("accrual", f"must be in (0, 1), got {self.accrual}")
        if not 0.0 <= self.quality_link <= 1.0:
            raise SynthConfigError("quality_link", f"must be in [0, 1], got {self.quality_link}")
        if self.n_institutions * hi > MAX_RECORDS:
            raise SynthConfigError(
                "n_institutions * HI", f"must be at most {MAX_RECORDS} records, got {self.n_institutions} * {hi}"
            )

    def to_dict(self) -> dict:
        kind = "lognormal" if isinstance(self.citation_model, Lognormal) else "power_law"
        return vars(self) | {
            "window": [self.window.start_year, self.window.end_year],
            "citation_model": {"kind": kind, **vars(self.citation_model)},
        }


def parse_citation_model(text: str) -> CitationModel:
    """Parse ``lognormal:MU:SIGMA`` or ``power_law:ALPHA:XMIN``."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"citation model must be KIND:A:B, got {text!r}")
    kind = parts[0].strip().lower()
    try:
        a, b = float(parts[1]), float(parts[2])
    except ValueError:
        raise ValueError(f"citation model parameters must be numbers: {text!r}") from None
    if kind == "lognormal":
        return Lognormal(mu=a, sigma=b)
    if kind in ("power_law", "powerlaw"):
        return PowerLaw(alpha=a, x_min=b)
    raise ValueError(f"unknown citation model kind {kind!r}")


def _grid_profile(mix: float) -> tuple[float, ...]:
    """Five band percentages on the micro-percent grid, summing to exactly 100.

    Band mass follows a binomial(4, mix) over grades 4*..U, so the expected
    grade (and every monotone score of the profile) rises with ``mix``.
    """
    mix = min(1.0, max(0.0, mix))
    rest = 1.0 - mix
    # comb(4, g) * mix**g * rest**(4 - g) for g = 4, 3, 2, 1, with the factors
    # that are exactly 1 left out; U takes what the four leave of 100
    micros = [
        round(mix**4 * 100 * _MICRO),
        round(4 * mix**3 * rest * 100 * _MICRO),
        round(6 * mix**2 * rest**2 * 100 * _MICRO),
        round(4 * mix * rest**3 * 100 * _MICRO),
    ]
    last = 100 * _MICRO - sum(micros)
    if last < 0:
        micros[micros.index(max(micros))] += last
        last = 0
    micros.append(last)
    return tuple(m / _MICRO for m in micros)


def _accrual_weights(accrual: float) -> list[float]:
    w = [accrual * (1.0 - accrual) ** t for t in range(_ACCRUAL_HORIZON)]
    total = sum(w)
    return [x / total for x in w]


def generate(config: SynthConfig) -> Corpus:
    """Generate a corpus; the same config always yields the same corpus.

    A citation draw that is not finite, or above ``MAX_CITATIONS``, raises
    ``ValueError`` naming the model and the pub_id.  ``lo + int(random() * n)``
    draws uniformly from ``range(lo, lo + n)``.  Each citation falls in the
    first accrual year whose cumulative weight exceeds its draw; the last year
    takes the rest, so weights whose sum rounds below 1 lose no citation.

    Every record goes through the checked :class:`PublicationRecord`
    constructor with integer years and counts.  Its label sets are clean
    frozensets made once per institution and per category, which the
    constructor keeps rather than copies, so the records share them.
    """
    random = Random(config.seed).random
    model = config.citation_model
    draw = model.draw
    start_year, end_year = config.window.start_year, config.window.end_year
    span = end_year - start_year + 1
    cuts = list(accumulate(_accrual_weights(config.accrual)))[:-1]
    lam = config.quality_link
    lo, hi = config.papers_per_institution
    n_institutions = config.n_institutions
    width = max(3, len(str(n_institutions)))
    names = [f"HEI{k + 1:0{width}d}" for k in range(n_institutions)]
    off_category = frozenset({OFF_CATEGORY})
    in_category = [frozenset({c}) for c in SYNTH_CATEGORIES]

    publications: list[PublicationRecord] = []
    profiles: list[QualityProfile] = []
    seq = 0
    for k, institution in enumerate(names):
        quality = random()
        noise = random()
        mix = lam * quality + (1.0 - lam) * noise
        n_papers = lo + int(random() * (hi - lo + 1))
        cite_scale = math.exp(_CITE_QUALITY_GAIN * lam * (quality - 0.5))
        home = frozenset({institution})

        for _ in range(n_papers):
            seq += 1
            pub_id = f"P{seq:06d}"
            u = random()
            if u < _P_OFF_WINDOW / 2:
                pub_year = start_year - 1 - int(random() * 2)
            elif u < _P_OFF_WINDOW:
                pub_year = end_year + 1 + int(random() * 2)
            else:
                pub_year = start_year + int(random() * span)
            country = FOREIGN_COUNTRY if random() < _P_FOREIGN else HOME_COUNTRY
            if random() < _P_OFF_CATEGORY:
                categories = off_category
            else:
                categories = in_category[int(random() * len(SYNTH_CATEGORIES))]
            affiliations = home
            if n_institutions > 1 and random() < _P_EXTRA_AFFILIATION:
                other = int(random() * (n_institutions - 1))
                affiliations = home | {names[other if other < k else other + 1]}
            expected = draw(random) * cite_scale
            if not expected <= MAX_CITATIONS:  # also refuses inf and nan
                raise ValueError(
                    f"citation model {model}: {pub_id} drew {expected!r} citations; "
                    f"a count must be finite and at most {MAX_CITATIONS}"
                )
            citations: dict[int, int] = {}
            if total := int(expected):
                counts = [0] * _ACCRUAL_HORIZON
                for _ in range(total):
                    counts[bisect(cuts, random())] += 1
                citations = dict(filter(itemgetter(1), enumerate(counts, pub_year)))
            publications.append(
                PublicationRecord(pub_id, pub_year, country, affiliations, categories, citations)
            )

        bands = _grid_profile(mix)
        outs: tuple[float, ...] | tuple[None, ...]
        if random() < _P_OUTPUT_PROFILE:
            mix_out = mix if lam == 1.0 else min(1.0, max(0.0, mix + (1.0 - lam) * 0.05 * _normal(random)))
            outs = _grid_profile(mix_out)
        else:
            outs = (None,) * 5
        staff_fte = float(5 + int(random() * 76))
        nci = None
        if random() < _P_NCI:
            raw = 0.5 + 1.5 * (lam * quality + (1.0 - lam) * random())
            nci = round(max(0.0, raw) * _MICRO) / _MICRO
        profiles.append(
            QualityProfile(
                institution=institution,
                discipline=SYNTH_DISCIPLINE,
                p4=bands[0], p3=bands[1], p2=bands[2], p1=bands[3], pu=bands[4],
                staff_fte=staff_fte,
                p4_out=outs[0], p3_out=outs[1], p2_out=outs[2],
                p1_out=outs[3], pu_out=outs[4],
                nci=nci,
            )
        )

    dmap = DisciplineMap(discipline=SYNTH_DISCIPLINE, categories=frozenset(SYNTH_CATEGORIES))
    return Corpus(
        publications=tuple(publications),
        profiles=tuple(profiles),
        discipline_maps=(dmap,),
    )
