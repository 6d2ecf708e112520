"""Deterministic synthetic corpora for desk-scale pipeline verification.

A single seeded PCG64 stream (``numpy.random.default_rng``) drives the
whole generation, so one seed yields one byte-identical corpus.  Each
institution gets a latent quality in [0, 1]; ``quality_link`` controls how
strongly that latent value drives both its citation rates and its graded
profile.  At 0 the profiles are independent noise, so quality scores and
h-indices decorrelate; at 1 both sides follow the latent quality and the
rank correlation between them approaches 1 on quiet citation models.

A small fraction of generated records deliberately fails each filter step
(foreign country, out-of-window year, unmapped category, secondary
affiliation), so filtering is exercised rather than vacuous.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from refh.corpus import (
    Corpus,
    DisciplineMap,
    PublicationRecord,
    PublicationWindow,
    QualityProfile,
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


@dataclass(frozen=True)
class Lognormal:
    """Per-paper total citations ~ floor(lognormal(mu, sigma) * quality factor)."""

    mu: float
    sigma: float

    def __post_init__(self):
        if not self.sigma > 0 or not math.isfinite(self.mu) or not math.isfinite(self.sigma):
            raise ValueError(f"invalid lognormal parameters mu={self.mu}, sigma={self.sigma}")

    def draw(self, rng: np.random.Generator) -> float:
        return float(rng.lognormal(self.mu, self.sigma))


@dataclass(frozen=True)
class PowerLaw:
    """Per-paper total citations from a Pareto tail with density ~ x^-alpha."""

    alpha: float
    x_min: float

    def __post_init__(self):
        if not self.alpha > 1 or not self.x_min > 0:
            raise ValueError(f"invalid power-law parameters alpha={self.alpha}, x_min={self.x_min}")

    def draw(self, rng: np.random.Generator) -> float:
        u = rng.random()
        return float(self.x_min * (1.0 - u) ** (-1.0 / (self.alpha - 1.0)))


CitationModel = Lognormal | PowerLaw


class SynthConfigError(ValueError):
    """A :class:`SynthConfig` field out of range: ``field`` names it and
    ``problem`` says what is wrong, so a caller can name its own option."""

    def __init__(self, field: str, problem: str):
        super().__init__(f"{field} {problem}")
        self.field = field
        self.problem = problem


@dataclass(frozen=True)
class SynthConfig:
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
        if not 0.0 < self.accrual < 1.0:
            raise SynthConfigError("accrual", f"must be in (0, 1), got {self.accrual}")
        if not 0.0 <= self.quality_link <= 1.0:
            raise SynthConfigError("quality_link", f"must be in [0, 1], got {self.quality_link}")

    def to_dict(self) -> dict:
        model: dict[str, float | str]
        if isinstance(self.citation_model, Lognormal):
            model = {"kind": "lognormal", "mu": self.citation_model.mu, "sigma": self.citation_model.sigma}
        else:
            model = {"kind": "power_law", "alpha": self.citation_model.alpha, "x_min": self.citation_model.x_min}
        return {
            "seed": self.seed,
            "n_institutions": self.n_institutions,
            "papers_per_institution": list(self.papers_per_institution),
            "window": [self.window.start_year, self.window.end_year],
            "citation_model": model,
            "accrual": self.accrual,
            "quality_link": self.quality_link,
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
    probs = [
        math.comb(4, g) * mix**g * (1.0 - mix) ** (4 - g) for g in (4, 3, 2, 1, 0)
    ]
    micros = [round(p * 100 * _MICRO) for p in probs[:4]]
    last = 100 * _MICRO - sum(micros)
    if last < 0:
        micros[micros.index(max(micros))] += last
        last = 0
    micros.append(last)
    return tuple(m / _MICRO for m in micros)


def _accrual_weights(accrual: float) -> np.ndarray:
    import numpy as np

    t = np.arange(_ACCRUAL_HORIZON)
    w = accrual * (1.0 - accrual) ** t
    return w / w.sum()


def generate(config: SynthConfig) -> Corpus:
    """Generate a corpus; the same config always yields the same corpus."""
    # imported here so that only synth, not every command, loads numpy
    import numpy as np

    rng = np.random.default_rng(config.seed)
    window = config.window
    weights = _accrual_weights(config.accrual)
    lam = config.quality_link
    width = max(3, len(str(config.n_institutions)))
    names = [f"HEI{k + 1:0{width}d}" for k in range(config.n_institutions)]

    publications: list[PublicationRecord] = []
    profiles: list[QualityProfile] = []
    seq = 0
    for k, institution in enumerate(names):
        quality = float(rng.random())
        noise = float(rng.random())
        mix = lam * quality + (1.0 - lam) * noise
        lo, hi = config.papers_per_institution
        n_papers = int(rng.integers(lo, hi + 1))
        cite_scale = math.exp(_CITE_QUALITY_GAIN * lam * (quality - 0.5))

        for _ in range(n_papers):
            seq += 1
            pub_id = f"P{seq:06d}"
            u = rng.random()
            if u < _P_OFF_WINDOW / 2:
                pub_year = window.start_year - 1 - int(rng.integers(0, 2))
            elif u < _P_OFF_WINDOW:
                pub_year = window.end_year + 1 + int(rng.integers(0, 2))
            else:
                pub_year = int(rng.integers(window.start_year, window.end_year + 1))
            country = FOREIGN_COUNTRY if rng.random() < _P_FOREIGN else HOME_COUNTRY
            if rng.random() < _P_OFF_CATEGORY:
                categories = frozenset({OFF_CATEGORY})
            else:
                categories = frozenset({SYNTH_CATEGORIES[int(rng.integers(0, len(SYNTH_CATEGORIES)))]})
            affiliations = {institution}
            if config.n_institutions > 1 and rng.random() < _P_EXTRA_AFFILIATION:
                other = int(rng.integers(0, config.n_institutions - 1))
                affiliations.add(names[other if other < k else other + 1])
            total = int(config.citation_model.draw(rng) * cite_scale)
            citations: dict[int, int] = {}
            if total > 0:
                counts = rng.multinomial(total, weights)
                citations = {
                    pub_year + t: int(c) for t, c in enumerate(counts) if c > 0
                }
            publications.append(
                PublicationRecord(
                    pub_id=pub_id,
                    pub_year=pub_year,
                    country=country,
                    affiliations=frozenset(affiliations),
                    categories=categories,
                    citations_by_year=citations,
                )
            )

        bands = _grid_profile(mix)
        outs: tuple[float, ...] | tuple[None, ...]
        if rng.random() < _P_OUTPUT_PROFILE:
            mix_out = mix if lam == 1.0 else min(1.0, max(0.0, mix + (1.0 - lam) * float(rng.normal(0.0, 0.05))))
            outs = _grid_profile(mix_out)
        else:
            outs = (None,) * 5
        staff_fte = float(int(rng.integers(5, 81)))
        nci = None
        if rng.random() < _P_NCI:
            raw = 0.5 + 1.5 * (lam * quality + (1.0 - lam) * float(rng.random()))
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
