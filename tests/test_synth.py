import numpy as np
import pytest

from refh.corpus import PublicationWindow, write_corpus
from refh.metrics import compute_h, group_metrics, score_profile
from refh.stats import pearson, spearman
from refh.synth import (
    Lognormal,
    PowerLaw,
    SynthConfig,
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
