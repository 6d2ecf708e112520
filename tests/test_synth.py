import hashlib
import re
import typing

import numpy as np
import pytest

from refh.cli import main
from refh.corpus import PublicationRecord, PublicationWindow, write_corpus
from refh.metrics import compute_h, group_metrics, score_profile
from refh.stats import pearson, spearman
from refh.synth import (
    Lognormal,
    PowerLaw,
    SynthConfig,
    _accrual_weights,
    generate,
    parse_citation_model,
)

from conftest import record
from oracles import oracle_h

WINDOW = PublicationWindow(2001, 2007)


def config(seed=1, **overrides):
    base = dict(
        seed=seed,
        n_institutions=8,
        papers_per_institution=(5, 15),
        window=WINDOW,
        citation_model=Lognormal(1.5, 0.6),
        accrual=0.4,
        quality_link=0.6,
    )
    base.update(overrides)
    return SynthConfig(**base)


class TestConfigValidation:
    def test_valid(self):
        config()

    @pytest.mark.parametrize(
        "overrides",
        [
            {"seed": -1},
            {"n_institutions": 0},
            {"papers_per_institution": (0, 5)},
            {"papers_per_institution": (6, 5)},
            {"accrual": 0.0},
            {"accrual": 1.0},
            {"quality_link": 1.5},
        ],
    )
    def test_invalid_config(self, overrides):
        with pytest.raises(ValueError):
            config(**overrides)

    @pytest.mark.parametrize(
        "model",
        [
            lambda: Lognormal(1.0, 0.0),
            lambda: Lognormal(float("nan"), 1.0),
            lambda: PowerLaw(1.0, 1.0),
            lambda: PowerLaw(2.5, 0.0),
        ],
    )
    def test_invalid_distribution_parameters(self, model):
        with pytest.raises(ValueError):
            model()

    def test_parse_citation_model(self):
        assert parse_citation_model("lognormal:1.5:0.5") == Lognormal(1.5, 0.5)
        assert parse_citation_model("power_law:2.5:1") == PowerLaw(2.5, 1.0)
        with pytest.raises(ValueError):
            parse_citation_model("zipf:1:2")
        with pytest.raises(ValueError):
            parse_citation_model("lognormal:1.5")


class TestDeterminism:
    def test_same_seed_same_corpus(self):
        assert generate(config(seed=42)) == generate(config(seed=42))

    def test_distinct_seeds_differ(self):
        assert generate(config(seed=1)) != generate(config(seed=2))

    def test_same_seed_byte_identical_files(self, tmp_path):
        p1 = write_corpus(generate(config(seed=9)), tmp_path / "a")
        p2 = write_corpus(generate(config(seed=9)), tmp_path / "b")
        for key in p1:
            assert p1[key].read_bytes() == p2[key].read_bytes()


class TestGeneratedInvariants:
    def test_corpus_valid_and_profiles_sum_exactly(self):
        corpus = generate(config(seed=3, n_institutions=20))
        assert len(corpus.profiles) == 20
        for p in corpus.profiles:
            assert abs(sum(p.percentages()) - 100.0) <= 1e-9
            if p.has_output_profile:
                assert abs(sum(p.output_percentages()) - 100.0) <= 1e-9

    def test_citing_years_never_precede_publication(self):
        corpus = generate(config(seed=4))
        for r in corpus.publications:
            assert all(y >= r.pub_year for y in r.citations_by_year)

    def test_every_institution_has_a_profile_and_some_publications(self):
        corpus = generate(config(seed=5, n_institutions=6))
        profile_insts = {p.institution for p in corpus.profiles}
        assert len(profile_insts) == 6
        assert profile_insts <= set(corpus.institutions())

    def test_distractor_records_present(self):
        corpus = generate(config(seed=6, n_institutions=20, papers_per_institution=(20, 30)))
        countries = {r.country for r in corpus.publications}
        years = {r.pub_year for r in corpus.publications}
        categories = {c for r in corpus.publications for c in r.categories}
        assert "US" in countries
        assert any(not WINDOW.contains(y) for y in years)
        assert "Unrelated Arts" in categories


class TestOracleH:
    def test_empty(self):
        assert oracle_h([], 2010) == 0

    def test_single_paper_capped_at_one(self):
        r = record("P1", 2003, citations={2004: 7})
        assert oracle_h([r], 2010) == 1

    def test_agrees_with_compute_h_on_10000_random_fixtures(self):
        rng = np.random.default_rng(17)
        for _ in range(10_000):
            n = int(rng.integers(0, 20))
            records = [
                record(
                    f"P{k}",
                    2003,
                    citations={2003 + int(t): int(c) for t, c in
                               zip(rng.integers(0, 10, size=2), rng.integers(0, 40, size=2))},
                )
                for k in range(n)
            ]
            cutoff = 2003 + int(rng.integers(0, 12))
            counts = [
                sum(c for y, c in r.citations_by_year.items() if y <= cutoff)
                for r in records
            ]
            assert oracle_h(records, cutoff) == compute_h(counts)


def _s_and_h(corpus, year=2008):
    metrics = {m.institution: m for m in group_metrics(corpus, "GB", WINDOW, "synthetic", [year])}
    xs, ys = [], []
    for p in corpus.profiles:
        m = metrics.get(p.institution)
        if m is None:
            continue
        xs.append(score_profile(p).s)
        ys.append(float(m.h_by_year[year]))
    return xs, ys


class TestQualityLink:
    def test_zero_link_decorrelates_scores_and_h(self):
        rs = []
        for seed in range(100):
            corpus = generate(
                config(seed=seed, quality_link=0.0, n_institutions=20,
                       papers_per_institution=(8, 15))
            )
            xs, ys = _s_and_h(corpus)
            rs.append(pearson(xs, ys))
        assert abs(float(np.mean(rs))) < 0.1

    def test_full_link_low_noise_gives_high_rank_correlation(self):
        corpus = generate(
            config(
                seed=20250101,
                quality_link=1.0,
                n_institutions=40,
                papers_per_institution=(40, 60),
                citation_model=Lognormal(2.0, 0.35),
                accrual=0.35,
            )
        )
        xs, ys = _s_and_h(corpus)
        assert len(xs) == 40
        assert spearman(xs, ys) > 0.9


# ---------------------------------------------------------------------------
# Pinned corpus bytes: the same seed and flags must keep writing the same
# files when the generator is changed.  TestDeterminism compares two runs of
# one build, which a change to the draw sequence would pass.  The cases reach
# every branch of generate: both citation models, quality_link 0, 0.7 and 1,
# a single institution (no second affiliation), a profile whose rounded bands
# overshoot 100, and the three benchmark workload shapes at reduced sizes.
# ---------------------------------------------------------------------------

# numpy's Generator distributions (integers, multinomial, lognormal) may change
# between numpy releases (NEP 19), so a seed fixes a corpus for one numpy version
PINNED_NUMPY = "2.4.6"
SYNTH_FILES = ("publications.csv", "citations.csv", "profiles.csv", "discipline_map.csv", "manifest.json")
DISCIPLINE_MAP_SHA256 = "73df0f2e509edb9014ab0b657cf5a5534ea8d8ae9f47a397ba3731258957eef0"

# case -> (refh synth flags, sha256 of each of SYNTH_FILES)
PINNED_CORPORA = {
    "lognormal-link0": (
        "--seed 7 --institutions 6 --papers 10:20 --model lognormal:1.8:0.6 --quality-link 0",
        (
            "b76f54d85c5d257f61f6ff83bb75263937f3430368294c77d20a6ba7146553ef",
            "f9d5dda02387e899b2f469f1039b33ccd68bd426fb572c40990edd11284a5011",
            "165c3f545c105a64b38434d6ba5cc7183271b15ce04e5caea409ce41e4a72111",
            DISCIPLINE_MAP_SHA256,
            "14471c1fa8465f0920c343d84d15b8540f4d51dde3792301512b2473233db10b",
        ),
    ),
    "lognormal-link1": (
        "--seed 23 --institutions 6 --papers 10:20 --model lognormal:2.2:0.9 --quality-link 1 --accrual 0.2",
        (
            "323e575573a638e83ebc4ffbbb974e1a8c6c2612e1c83f70b0d771e2dd3a6021",
            "44899ef1d766be9c91327f00aa7830d7a78b03c16de58c147dadbbe9875d6509",
            "54883bb798dda6fcbee2da93311df7802dbd3fed0e0d9b69824d85138c41fcd8",
            DISCIPLINE_MAP_SHA256,
            "cc490b22e6e0e0fccf16216054faeec0af0b218d21398c57f4983d5d8d47aad6",
        ),
    ),
    "power-law-link0.7": (
        "--seed 7 --institutions 6 --papers 10:20 --model power_law:2.5:1 --quality-link 0.7",
        (
            "9a5b36b64e40fe9b9028645361530fddba33472f1535d8909183ee5ff7d5c216",
            "4358d11a684d05e89e304d057dfde18bc05d30c90e93f6904405e346fd3050f4",
            "0a145b341077ad9bf86cf3f68bc0a130d9b11c87fa0cb2b20eda8c7c0107e95c",
            DISCIPLINE_MAP_SHA256,
            "0e4607c38edd8f1e80df69d97aede4df88c2c84a8066102d5339d944602b717d",
        ),
    ),
    "power-law-link1": (
        "--seed 23 --institutions 5 --papers 5:15 --model power_law:1.8:2 --quality-link 1",
        (
            "6e0468efeb508fef42a1bd27daa1ec8ea4424c4b55aa74bc25676a78943a2914",
            "af42cc31662d9808f76e28dff0580cd8234885a35a5d2e6b94ba9dfd8ad98c20",
            "eecc00d2a547eb49380d8bf4d252b8a5541c1e5080953d17877960316b1c6109",
            DISCIPLINE_MAP_SHA256,
            "4ae2b7a2af3dc7125684a88c72ab1f89608c696fe2fd6f9e81c10dfcfbc0bb42",
        ),
    ),
    "one-institution": (
        "--seed 7 --institutions 1 --papers 40:60",
        (
            "e2894f557b2552b344f4838e62918d5a0cb7e46813eb5c93b0c11fd223602212",
            "d21259cbfb5805069f4d1ab8b582657fbfc738ffd388e25189e2d2df963e0621",
            "e017844ad938e3a0123e0e1114cefbafc59158ca59b511de90990e0a8176a8c8",
            DISCIPLINE_MAP_SHA256,
            "a2d4442651809579f39cc611f60c0e8b210681fbb5d1fae4f8f98dc42f51bb0f",
        ),
    ),
    "wide-rae2008": (
        "--seed 7 --institutions 8 --papers 20:40 --window 2001:2007",
        (
            "f3893b09405bd71945239289a5c3df6f4bd919abfadbeacca5e620376ce01139",
            "06f6b64149a5bde33a54fb24c6ce70ef026daea45e567846a5fcc172a67c30e2",
            "cba482bf7d2b3f989d5edc1bdcf8768914c676fcb19f1d914d474e260583378b",
            DISCIPLINE_MAP_SHA256,
            "773e1bbfc777c95cb8b85dac0faf23dddc62619726bf27b8b599ec33b547aaed",
        ),
    ),
    "deep-ref2014": (
        "--seed 23 --institutions 3 --papers 150:250 --window 2008:2013",
        (
            "8b1553d271fbc0c9c63bd8c69d86a415ac7b6c5d943013498cf05daddb23d477",
            "63b47c15010ff938f84cfe029262ac382662229c2393d90cb4df352fc3144b09",
            "ade604acc1e83a1bdff92d7fec9e0c495bdb5512cc0f82c077eb44f13d2157d6",
            DISCIPLINE_MAP_SHA256,
            "532e63e0a06aefb3e735e7b70cfa3a07c656e2e4ec2212db91d9f0900940fc87",
        ),
    ),
    "rank-4k": (
        "--seed 7 --institutions 60 --papers 1:2 --window 2001:2007",
        (
            "872909a83f57b3bcd6e7e25c91bcd784bca82c8d9dfc93dfd296080129fc2bd4",
            "ec8b2bcb378d350ee61344fcc5fb0f551fa0b44f51a2d814154ec0717baea68e",
            "9e42d1d9890fe6ce1c6b8d9e1280e6d5eec6fdc82fe2e23a5ae9eb87a3b909be",
            DISCIPLINE_MAP_SHA256,
            "21c6ff6a5cbab800d7f8090ebd2fda1c4d48d9ee452e4a419823225dd3b10e32",
        ),
    ),
    "profile-rounding": (
        "--seed 23 --institutions 1000 --papers 1:1 --quality-link 1",
        (
            "12807fe5ddd3b934a1df42d42bd66a5663eb756add1c00663f70f231104084d4",
            "29ac84c1a67fc50f895876cbb2b7ad4afe92011e202f3a14f0729ff700f55efd",
            "8491818d10750937e506849bf62deca34bfccccbae735a2a589f6f8f8dc7f50a",
            DISCIPLINE_MAP_SHA256,
            "96088ba120784730faf6e81e9d8bbeb333de018e09fe95e30731959041748566",
        ),
    ),
}


@pytest.mark.skipif(
    np.__version__ != PINNED_NUMPY,
    reason=f"digests were computed with numpy {PINNED_NUMPY}, this is numpy {np.__version__}",
)
@pytest.mark.parametrize("case", list(PINNED_CORPORA))
def test_synth_writes_pinned_bytes(case, tmp_path):
    flags, digests = PINNED_CORPORA[case]
    assert main(["synth", *flags.split(), "--out", str(tmp_path)]) == 0
    written = tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in SYNTH_FILES)
    assert dict(zip(SYNTH_FILES, written)) == dict(zip(SYNTH_FILES, digests))


def test_every_generated_record_runs_the_checked_constructor(monkeypatch):
    calls = []
    checked = PublicationRecord.__init__

    def counting(self, *args, **kwargs):
        calls.append(args[0] if args else kwargs["pub_id"])
        checked(self, *args, **kwargs)

    monkeypatch.setattr(PublicationRecord, "__init__", counting)
    corpus = generate(config(seed=11, n_institutions=6))
    assert calls == [r.pub_id for r in corpus.publications]


@pytest.mark.parametrize("function, hints", [
    (Lognormal.draw, {"rng": np.random.Generator, "return": float}),
    (PowerLaw.draw, {"rng": np.random.Generator, "return": float}),
    (_accrual_weights, {"accrual": float, "return": np.ndarray}),
])
def test_type_hints_resolve(function, hints):
    assert typing.get_type_hints(function) == hints


class TestOverflowingModels:
    @pytest.mark.parametrize("model", [
        lambda: PowerLaw(float("inf"), 1.0),
        lambda: PowerLaw(2.5, float("inf")),
        lambda: PowerLaw(float("nan"), 1.0),
    ])
    def test_non_finite_power_law_parameters_refused(self, model):
        with pytest.raises(ValueError, match="invalid power-law parameters"):
            model()

    @pytest.mark.parametrize("model, drawn", [
        (PowerLaw(1.001, 1.0), "inf"),  # the float power overflows
        (Lognormal(45.0, 1.0), r"[0-9.]+e\+19"),  # finite, but above 2**63
        (Lognormal(800.0, 1.0), "inf"),  # numpy's lognormal itself overflows
    ])
    def test_draw_beyond_a_64_bit_count_names_model_and_pub_id(self, model, drawn):
        with pytest.raises(ValueError) as exc:
            generate(config(seed=1, citation_model=model))
        assert re.fullmatch(
            re.escape(f"citation model {model}: P000001 drew ") + drawn
            + re.escape(" citations; a count must be finite and below 2**63"),
            str(exc.value),
        )
