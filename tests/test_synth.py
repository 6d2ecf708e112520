import csv
import gc
import hashlib
import json
import math
import re
import tracemalloc
import typing
from collections.abc import Callable
from pathlib import Path
from random import Random

import numpy as np
import pytest

from refh import synth as synth_module
from refh.cli import main
from refh.corpus import PublicationRecord, PublicationWindow, load_publications, write_corpus
from refh.metrics import compute_h, group_metrics, score_profile
from refh.stats import pearson, spearman
from refh.synth import (
    _MICRO,
    MAX_CITATIONS,
    MAX_RECORDS,
    SYNTH_CATEGORIES,
    Lognormal,
    PowerLaw,
    SynthConfig,
    SynthConfigError,
    _accrual_weights,
    _grid_profile,
    generate,
    parse_citation_model,
)

from conftest import record
from oracles import oracle_h

WINDOW = PublicationWindow(2001, 2007)
FIXTURES = Path(__file__).parent / "fixtures"


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


def refuse_to_generate(config):
    raise AssertionError("a corpus was generated")


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

    @pytest.mark.parametrize("n, papers", [(4000, (1, 40)), (MAX_RECORDS // 40, (40, 40)), (1, (1, MAX_RECORDS))])
    def test_record_cap_accepts_up_to_max_records(self, n, papers, monkeypatch):
        monkeypatch.setattr(synth_module, "generate", refuse_to_generate)
        assert MAX_RECORDS >= 10 * 4000 * 40
        config(n_institutions=n, papers_per_institution=papers)

    @pytest.mark.parametrize("n, papers, overrides, field, problem", [
        (MAX_RECORDS // 40 + 1, (1, 40), {}, "n_institutions * HI",
         f"must be at most {MAX_RECORDS} records, got {MAX_RECORDS // 40 + 1} * 40"),
        (2, (1, MAX_RECORDS), {}, "n_institutions * HI",
         f"must be at most {MAX_RECORDS} records, got 2 * {MAX_RECORDS}"),
        # the cap is checked last: an over-cap config names any other bad field first
        (10**9, (1, 2**63), {}, "papers_per_institution", f"HI must be below 2**63, got {2**63}"),
        (10**9, (5, 1), {}, "papers_per_institution", "must be LO:HI with 1 <= LO <= HI, got 5:1"),
        (10**9, (1, 40), {"quality_link": 2.0}, "quality_link", "must be in [0, 1], got 2.0"),
    ])
    def test_record_cap_refuses_more(self, n, papers, overrides, field, problem, monkeypatch):
        monkeypatch.setattr(synth_module, "generate", refuse_to_generate)
        with pytest.raises(SynthConfigError) as exc:
            config(n_institutions=n, papers_per_institution=papers, **overrides)
        assert (exc.value.field, exc.value.problem) == (field, problem)

    @pytest.mark.parametrize(
        "model",
        [
            lambda: Lognormal(1.0, 0.0),
            lambda: Lognormal(float("nan"), 1.0),
            lambda: PowerLaw(1.0, 1.0),
            lambda: PowerLaw(2.5, 0.0),
        ],
        ids=["zero_sigma", "nan_mu", "alpha_one", "zero_x_min"],
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

# the digests are the generator's own output: a change to the draw sequence
# or to any transform of random() changes them, and must take them anew
SYNTH_FILES = ("publications.csv", "citations.csv", "profiles.csv", "discipline_map.csv", "manifest.json")
DISCIPLINE_MAP_SHA256 = "73df0f2e509edb9014ab0b657cf5a5534ea8d8ae9f47a397ba3731258957eef0"

# case -> (refh synth flags, sha256 of each of SYNTH_FILES)
PINNED_CORPORA = {
    "lognormal-link0": (
        "--seed 7 --institutions 6 --papers 10:20 --model lognormal:1.8:0.6 --quality-link 0",
        (
            "eee60f24e6ca81c88baaf4d2459c55200acf4b95bad034db5e5206537859c004",
            "87a15a3dcd802898be3b531272409f16704355d91a12f219b4c095bc04a6cd81",
            "e435883ffa329c1831d6f1ace01b38905d6e42cc1fcc9689fdc58b9f7201ee5f",
            DISCIPLINE_MAP_SHA256,
            "14471c1fa8465f0920c343d84d15b8540f4d51dde3792301512b2473233db10b",
        ),
    ),
    "lognormal-link1": (
        "--seed 23 --institutions 6 --papers 10:20 --model lognormal:2.2:0.9 --quality-link 1 --accrual 0.2",
        (
            "12a39164b001f79c41ccd939fc122f06cd632fff3b548e556c37cdd0a0335288",
            "6911b2abd1aea99f5154d965c309121c65164cd1dd42cfca1c6e8ef961e6b61f",
            "b0cda53ad2a66d5235b4d6bdfc1f0a07a0137f8ae81b0986fb0a193269d94225",
            DISCIPLINE_MAP_SHA256,
            "cc490b22e6e0e0fccf16216054faeec0af0b218d21398c57f4983d5d8d47aad6",
        ),
    ),
    "power-law-link0.7": (
        "--seed 7 --institutions 6 --papers 10:20 --model power_law:2.5:1 --quality-link 0.7",
        (
            "335a227b3318cbde7f3ddb6a10f2ae74986f9f2fc3fa145c11283cea21757d93",
            "9adb5de2b70e55ff8134ceb2812f739d04d68cf4a65fecc18436b07d9ecfe6bb",
            "449fbeeb5b5a6022107ec097179e5e6a167a4e26962396cc7e77f42b5d6570f8",
            DISCIPLINE_MAP_SHA256,
            "0e4607c38edd8f1e80df69d97aede4df88c2c84a8066102d5339d944602b717d",
        ),
    ),
    "power-law-link1": (
        "--seed 23 --institutions 5 --papers 5:15 --model power_law:1.8:2 --quality-link 1",
        (
            "22b9e1248e22eeaffff85cc5172927278949be0ce629d474e4b400753347f89b",
            "b0a2ffdb7161bc84c8608963605eb164f8f53f48ac7f272c721e910fab4e0d5e",
            "d75b7ebd56423c898544d27b6b88a1e1190e56ac619fd53fd72f63e557c6e88e",
            DISCIPLINE_MAP_SHA256,
            "4ae2b7a2af3dc7125684a88c72ab1f89608c696fe2fd6f9e81c10dfcfbc0bb42",
        ),
    ),
    "one-institution": (
        "--seed 7 --institutions 1 --papers 40:60",
        (
            "bb83d7822109d8624217322c5e6c72be55581f3f0f7a33351a3a614b418d2e5b",
            "bc3b4736d8cd1aabcf6963991ee29a47f959f2880fb0fd9e569b77c7bf200ce2",
            "e6ff201dec6482a3c809423df4f3ee05e0860c8f08433e0906be272a4e170b93",
            DISCIPLINE_MAP_SHA256,
            "a2d4442651809579f39cc611f60c0e8b210681fbb5d1fae4f8f98dc42f51bb0f",
        ),
    ),
    "wide-rae2008": (
        "--seed 7 --institutions 8 --papers 20:40 --window 2001:2007",
        (
            "311ddc833d97164ec4aea529d19e02689e12665590f245038a288390fae49c85",
            "74f95fbbc2e3733a9a82ab6fe445cf8aa10f09f0ad86788d07982e2562b315db",
            "e64ab6ad3e4d9ab08999fc16c5dfb4b0da1187791c4ff71e704263f10ea56404",
            DISCIPLINE_MAP_SHA256,
            "773e1bbfc777c95cb8b85dac0faf23dddc62619726bf27b8b599ec33b547aaed",
        ),
    ),
    "deep-ref2014": (
        "--seed 23 --institutions 3 --papers 150:250 --window 2008:2013",
        (
            "65410a110a0e2b0d012bdd17b2115caf99b87a04c34495da25b4625533c0fd01",
            "ea897348f5da63666890257ea8dd1587aede95b1dbecb19edffc355b71586f10",
            "1d2bbad4cb14a34a7fbf799d572cbd9188074a1c9779008a655a3a76de01186d",
            DISCIPLINE_MAP_SHA256,
            "532e63e0a06aefb3e735e7b70cfa3a07c656e2e4ec2212db91d9f0900940fc87",
        ),
    ),
    "rank-4k": (
        "--seed 7 --institutions 60 --papers 1:2 --window 2001:2007",
        (
            "69a29c1e01d436dde8fea44ecba3333da71262210ed8035331ae0ab1bc287f79",
            "73c736c3728ad9f501a3929ffc75487f19fe3053f15db2ea093a027948dc08fb",
            "30fc9fcfb1b06dc5a31d1545879942d5726e1a12986d742dd7fa32d416b1d005",
            DISCIPLINE_MAP_SHA256,
            "21c6ff6a5cbab800d7f8090ebd2fda1c4d48d9ee452e4a419823225dd3b10e32",
        ),
    ),
    "profile-rounding": (
        "--seed 23 --institutions 1000 --papers 1:1 --quality-link 1",
        (
            "851e2af89be5f1baf845761b3cfcb7a85791f7ad168b44f798f28e044a9af776",
            "d31d05986ec7391c25b12bf2cebf51050509191b0b7d825c13e1c7af0e9891c5",
            "aa2ee359f46c69b248c70c94aee04c4946369ef21cc2922392f8feaf248d7e3b",
            DISCIPLINE_MAP_SHA256,
            "96088ba120784730faf6e81e9d8bbeb333de018e09fe95e30731959041748566",
        ),
    ),
}


@pytest.mark.parametrize("case", list(PINNED_CORPORA))
def test_synth_writes_pinned_bytes(case, tmp_path):
    flags, digests = PINNED_CORPORA[case]
    assert main(["synth", *flags.split(), "--out", str(tmp_path)]) == 0
    written = tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in SYNTH_FILES)
    assert dict(zip(SYNTH_FILES, written)) == dict(zip(SYNTH_FILES, digests))


# ---------------------------------------------------------------------------
# Pinned command output bytes: each benchmark workload's writing commands,
# run over a committed corpus, must keep writing the same files.  The corpora
# under tests/fixtures/ are four of the cases above as the earlier numpy-based
# generator wrote them, so these digests do not move with the generator.  The
# correlations are over 3 to 8 groups, so their p-values come from 1 to 6
# degrees of freedom, at |t| on both sides of 2; the quality-link-0 corpus
# gives the weak ones.
# ---------------------------------------------------------------------------

WIDE_RAE2008 = (
    "hindex @corpus --discipline synthetic --preset rae2008",
    "score @profiles",
    "correlate @corpus --discipline synthetic --preset rae2008 --pairs s:h_2008,s_prime:h_2008,s:i",
    "rank @corpus --discipline synthetic --window 2001:2007 --measure h_2014 --baseline h_2008",
)

# case -> (tests/fixtures/ corpus, commands, {file written: sha256})
PINNED_OUTPUTS = {
    "wide-rae2008": ("wide-rae2008", WIDE_RAE2008, {
        "corr_series.csv": "11c3ce2d1e9cc9bcbc8eeab8a44686982fa5bf70738270b8c52a8bfeb48741d8",
        "correlations.csv": "bf79b9aeb82f42016e59087b8334db301f7cf9544ecc64e953c37ac86de60524",
        "fig_points.csv": "4f7612657372fba1f345d43715ae9ed3eee4e7008e8798fbb128e833268add30",
        "hseries.csv": "1e89e2c4c8d350b56012ed4e2236d27e94408461d8a3c07561317604bd6de59a",
        "rank_synthetic_h_2014.csv": "944808133794e226f0c87dd298c5eff2c83da0e0cda4e0de974adc0afb7b1dad",
        "scores.csv": "85a7fd32b31677cc78b90b5f1164f3f5ca4eeba6c8641fab299b61496f7b3e0c",
    }),
    "wide-rae2008-link0": ("lognormal-link0", WIDE_RAE2008, {
        "corr_series.csv": "37b8166f80979e86a4d5faeabe81369fbf5335cae01d4af0b59ce8804c86a63d",
        "correlations.csv": "06bd16da921b192383dd35b5baa75247fb52b89263d1a4e92f98fb4c9e942515",
        "fig_points.csv": "fbaa3a9271d0b5fe9b6ff8f45f313e130c4b525acbd851d7d65fae1c6895a527",
        "hseries.csv": "ce22f9e5611e806ddb7f795d6ccea1a40ee9a6cfc096aa0ffca2049fc5074ee9",
        "rank_synthetic_h_2014.csv": "18cdb69523239253a82ac9c4d96d80dd5ed67d0f3cb27ea13286913673477511",
        "scores.csv": "9c022bbb4131903c1a0dbd5ce43589fc61b7efc86c7dc0fbb443abc794c06c61",
    }),
    "deep-ref2014": ("deep-ref2014", (
        "hindex @corpus --discipline synthetic --preset ref2014",
        "correlate @corpus --discipline synthetic --preset ref2014 --pairs s:h_2014,s_prime:h_2014,s:i",
        "rank @corpus --discipline synthetic --preset ref2014 --measure h_2014 --baseline s",
    ), {
        "corr_series.csv": "f7907a62c1f45c78600b0c60814a2e18bcea9a5a7177e90d24f18de61174951f",
        "correlations.csv": "377b014abfd35e261c2bb5f11bbbdf862ff889b12246f0c2c8b9884b12f0c47f",
        "fig_points.csv": "69eef1a077831c1d940466c20f3e8d2449153289bb8ff356bbb3c37ac1ff5477",
        "hseries.csv": "b2974accd30ec021c022d6b83a581d0b5a339fa01a87084232d1c8abf6538224",
        "rank_synthetic_h_2014.csv": "831729d26170ae56252df04bb3855b14f57582f7d0ed714ceac7087f684f99f7",
    }),
    "rank-4k": ("rank-4k", (
        "score @profiles",
        "rank @corpus --discipline synthetic --measure strength --baseline i --format markdown",
    ), {
        "rank_synthetic_strength.md": "7bd05bafab5df3dae90c1e5f200e048a78a3b53dd3e0709d658c487c8e2d0690",
        "scores.csv": "ffc13d53e06841aac1a9470ae3f9ae2ef390e834127a57c4528db27ed5e12749",
    }),
}


@pytest.mark.parametrize("case", list(PINNED_OUTPUTS))
def test_workload_commands_write_pinned_bytes(case, tmp_path):
    fixture, commands, digests = PINNED_OUTPUTS[case]
    corpus, out = FIXTURES / fixture, tmp_path / "out"
    profiles = ["--profiles", str(corpus / "profiles.csv")]
    files = {
        "@corpus": ["--pubs", str(corpus / "publications.csv"), "--cites", str(corpus / "citations.csv"),
                    *profiles, "--map", str(corpus / "discipline_map.csv")],
        "@profiles": profiles,
    }
    for command in commands:
        argv = [arg for token in command.split() for arg in files.get(token, [token])]
        assert main([*argv, "--out", str(out)]) == 0
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()} == digests


def test_every_generated_record_runs_the_checked_constructor(monkeypatch):
    calls = []
    checked = PublicationRecord.__init__

    def counting(self, *args, **kwargs):
        calls.append(args[0] if args else kwargs["pub_id"])
        checked(self, *args, **kwargs)

    monkeypatch.setattr(PublicationRecord, "__init__", counting)
    corpus = generate(config(seed=11, n_institutions=6))
    assert calls == [r.pub_id for r in corpus.publications]


def _reference_bands(mix: float) -> list[int]:
    """The four rounded micro-percent bands 4*..1 from one generic product
    comb(4, g) * mix**g * (1 - mix)**(4 - g) over all five grades: the
    reference for ``_grid_profile``'s four direct expressions, which must
    round alike."""
    mix = min(1.0, max(0.0, mix))
    probs = [  # comb(4, g) for g = 4, 3, 2, 1, 0
        comb * mix**g * (1.0 - mix) ** (4 - g) for comb, g in zip((1, 4, 6, 4, 1), (4, 3, 2, 1, 0))
    ]
    return [round(p * 100 * _MICRO) for p in probs[:4]]


def _grid_profile_reference(mix: float) -> tuple[float, ...]:
    micros = _reference_bands(mix)
    last = 100 * _MICRO - sum(micros)
    if last < 0:
        micros[micros.index(max(micros))] += last
        last = 0
    micros.append(last)
    return tuple(m / _MICRO for m in micros)


# mixes whose four rounded bands sum above 100, so that U is clamped at 0
OVERSHOOTING_MIXES = (0.990831, 0.991015, 0.9955062640731493, 0.9999026771431976)


def test_grid_profile_matches_its_reference():
    assert all(sum(_reference_bands(mix)) > 100 * _MICRO for mix in OVERSHOOTING_MIXES)
    random = Random(2024).random
    mixes = [random() for _ in range(100_000)] + [0.0, 1.0, -0.1, 1.1, *OVERSHOOTING_MIXES]
    assert [mix for mix in mixes if _grid_profile(mix) != _grid_profile_reference(mix)] == []


@pytest.fixture(scope="module")
def twenty_groups():
    return generate(config(seed=13, n_institutions=20, papers_per_institution=(10, 30)))


def test_each_institution_shares_one_affiliations_set(twenty_groups):
    held = {}
    for r in twenty_groups.publications:
        if len(r.affiliations) == 1:
            held.setdefault(r.affiliations, set()).add(id(r.affiliations))
    assert any(len(r.affiliations) == 2 for r in twenty_groups.publications)  # extra affiliations occur
    assert len(held) == 20 and all(len(ids) == 1 for ids in held.values())


def test_in_discipline_records_share_two_category_sets(twenty_groups):
    in_discipline = set(SYNTH_CATEGORIES)
    held = {id(r.categories) for r in twenty_groups.publications if r.categories & in_discipline}
    assert len(held) == 2


def test_generated_records_retain_few_bytes():
    """The bytes a generated corpus holds per record, as tracemalloc counts
    them: about 955 B when each record copied its label sets, 536 B when
    records share them."""
    shape = config(seed=7, n_institutions=12, papers_per_institution=(200, 300),
                  citation_model=Lognormal(1.8, 0.6), accrual=0.35, quality_link=0.7)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        corpus = generate(shape)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained / len(corpus.publications) < 700


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """A written seed-7 corpus of 12 groups of 200-300 papers, with JSON
    copies of its publication and citation files."""
    shape = config(seed=7, n_institutions=12, papers_per_institution=(200, 300),
                  citation_model=Lognormal(1.8, 0.6), accrual=0.35, quality_link=0.7)
    paths = write_corpus(generate(shape), tmp_path_factory.mktemp("written"))
    numbers = {"pub_year", "citing_year", "count"}
    for name in ("publications", "citations"):
        with paths[name].open(newline="", encoding="utf-8") as fh:
            rows = [{k: int(v) if k in numbers else v for k, v in row.items()} for row in csv.DictReader(fh)]
        paths[f"{name}_json"] = paths[name].with_suffix(".json")
        paths[f"{name}_json"].write_text(json.dumps(rows), encoding="utf-8")
    return paths


def retained_per_record(pub_path, cite_path):
    """The bytes each loaded record holds, as tracemalloc counts them; a full
    collection empties the interpreter's free lists, which would otherwise
    count the load's freed tuples and dicts."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        records, violations = load_publications(pub_path, cite_path)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert violations == [] and len(records) > 2000
    return retained / len(records)


def test_loaded_records_retain_few_bytes(written):
    """454 B when each record held its own copy of its country string, 403 B
    when records with one country share one string."""
    assert retained_per_record(written["publications"], written["citations"]) < 425


def test_json_loaded_records_retain_few_bytes(written):
    """JSON input takes the validator: 526 B when it made an int for every
    year above 256, 396 B when equal years share one int, as they do in the
    clean pass."""
    assert retained_per_record(written["publications_json"], written["citations_json"]) < 450


@pytest.mark.parametrize("function, hints", [
    (Lognormal.draw, {"random": Callable[[], float], "return": float}),
    (PowerLaw.draw, {"random": Callable[[], float], "return": float}),
    (_accrual_weights, {"accrual": float, "return": list[float]}),
])
def test_type_hints_resolve(function, hints):
    assert typing.get_type_hints(function) == hints


class TestOverflowingModels:
    @pytest.mark.parametrize("model", [
        lambda: PowerLaw(float("inf"), 1.0),
        lambda: PowerLaw(2.5, float("inf")),
        lambda: PowerLaw(float("nan"), 1.0),
    ], ids=["inf_alpha", "inf_x_min", "nan_alpha"])
    def test_non_finite_power_law_parameters_refused(self, model):
        with pytest.raises(ValueError, match="invalid power-law parameters"):
            model()

    @pytest.mark.parametrize("model, drawn", [
        (PowerLaw(1.00001, 1.0), "inf"),  # the float power overflows
        (Lognormal(45.0, 1.0), r"[0-9.]+e\+19"),  # finite, but above 2**63
        (Lognormal(800.0, 1.0), "inf"),  # math.exp overflows, and that is caught
        (Lognormal(40.0, 0.1), r"[0-9.]+e\+17"),  # below 2**63, but above MAX_CITATIONS
    ])
    def test_draw_beyond_a_64_bit_count_names_model_and_pub_id(self, model, drawn):
        with pytest.raises(ValueError) as exc:
            generate(config(seed=1, citation_model=model))
        assert re.fullmatch(
            re.escape(f"citation model {model}: P000001 drew ") + drawn
            + re.escape(f" citations; a count must be finite and at most {MAX_CITATIONS}"),
            str(exc.value),
        )

    def test_a_draw_just_below_the_cap_is_split_in_full(self):
        corpus = generate(config(seed=1, n_institutions=1, papers_per_institution=(1, 1), quality_link=0.0,
                                 citation_model=Lognormal(math.log(MAX_CITATIONS - 0.5), 1e-9)))
        (r,) = corpus.publications
        assert sum(r.citations_by_year.values()) == MAX_CITATIONS - 1
        assert min(r.citations_by_year) == r.pub_year and max(r.citations_by_year) == r.pub_year + 14
