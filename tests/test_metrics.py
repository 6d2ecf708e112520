import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from refh.corpus import (
    Corpus,
    DisciplineMap,
    PublicationRecord,
    PublicationWindow,
    UnknownDisciplineError,
    matching_publications,
)
from refh.metrics import (
    GroupMetrics,
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
    write_hseries_csv,
    write_scores_csv,
)
from refh.stats import joined_points
from refh.synth import Lognormal, SynthConfig, generate

from conftest import profile, record
from oracles import h_core_boundary, oracle_filter, oracle_h

WINDOW = PublicationWindow(2001, 2007)


def brute_force_h(counts):
    """Definitional scan: largest n with at least n counts >= n."""
    best = 0
    for n in range(len(counts) + 1):
        if sum(1 for c in counts if c >= n) >= n:
            best = n
    return best


class TestCitationsToEndOf:
    def test_empty_history(self):
        assert citations_to_end_of(record("P1"), 2020) == 0

    def test_cutoff_sums_only_earlier_years(self):
        r = record("P1", pub_year=2002, citations={2002: 3, 2003: 5, 2008: 9})
        assert 3 + 5 == 8
        assert citations_to_end_of(r, 2007) == 8

    def test_cutoff_before_first_citing_year(self):
        r = record("P1", pub_year=2002, citations={2002: 3})
        assert citations_to_end_of(r, 2001) == 0

    @pytest.mark.parametrize("seed", range(6))
    def test_equals_the_definitional_sum_whatever_the_dict_order(self, seed):
        # the sum stops at the first later year; the record sorts its years
        rng = np.random.default_rng(seed)
        years = rng.permutation(np.arange(2002, 2015))[: rng.integers(1, 14)]
        citations = {int(y): int(rng.integers(0, 6)) for y in years}
        r = record("P1", pub_year=2002, citations=citations)
        for cutoff in range(2000, 2017):
            expected = sum(c for y, c in citations.items() if y <= cutoff)
            assert citations_to_end_of(r, cutoff) == expected


class TestComputeH:
    def test_empty(self):
        assert compute_h([]) == 0

    def test_descending_scan_example(self):
        counts = [10, 5, 3, 2, 1]
        assert brute_force_h(counts) == 3
        assert compute_h(counts) == 3

    def test_all_equal(self):
        counts = [4, 4, 4, 4]
        assert brute_force_h(counts) == 4
        assert compute_h(counts) == 4

    def test_matches_brute_force_on_random_multisets(self):
        rng = np.random.default_rng(77)
        for _ in range(300):
            size = int(rng.integers(0, 60))
            counts = rng.integers(0, 100, size=size).tolist()
            assert compute_h(counts) == brute_force_h(counts)

    def test_bounds(self):
        rng = np.random.default_rng(78)
        for _ in range(200):
            counts = rng.integers(0, 50, size=int(rng.integers(1, 40))).tolist()
            h = compute_h(counts)
            assert 0 <= h <= min(len(counts), max(counts))

    def test_monotone_in_any_single_count(self):
        rng = np.random.default_rng(79)
        for _ in range(200):
            counts = rng.integers(0, 30, size=int(rng.integers(1, 25))).tolist()
            i = int(rng.integers(0, len(counts)))
            bumped = list(counts)
            bumped[i] += int(rng.integers(1, 10))
            assert compute_h(bumped) >= compute_h(counts)


def three_paper_corpus():
    # citations to end of 2007: [2, 2, 1]; to end of 2008: [5, 2, 1]
    records = (
        record("P1", 2003, citations={2004: 2, 2008: 3}),
        record("P2", 2004, citations={2005: 1, 2006: 1}),
        record("P3", 2005, citations={2006: 1}),
    )
    dmap = DisciplineMap("chemistry", frozenset({"Chemistry"}))
    return Corpus(publications=records, discipline_maps=(dmap,))


class TestDepartmentalH:
    def test_no_matching_publications(self, small_corpus):
        assert departmental_h(small_corpus, "FR", WINDOW, "chemistry", "Alpha", 2008) == 0

    def test_three_paper_fixture_cutoff_2007(self):
        corpus = three_paper_corpus()
        counts = [
            citations_to_end_of(r, 2007) for r in corpus.publications
        ]
        assert sorted(counts, reverse=True) == [2, 2, 1]
        assert brute_force_h(counts) == 2
        assert departmental_h(corpus, "GB", WINDOW, "chemistry", "Alpha", 2008) == 2

    def test_next_measurement_year_same_h(self):
        corpus = three_paper_corpus()
        counts = [citations_to_end_of(r, 2008) for r in corpus.publications]
        assert sorted(counts, reverse=True) == [5, 2, 1]
        assert brute_force_h(counts) == 2
        assert departmental_h(corpus, "GB", WINDOW, "chemistry", "Alpha", 2009) == 2

    def test_measurement_year_must_follow_window_start(self):
        with pytest.raises(ValueError, match="measurement year"):
            departmental_h(three_paper_corpus(), "GB", WINDOW, "chemistry", "Alpha", 2001)

    def test_agrees_with_oracle_on_synthetic_corpora(self):
        for seed in range(5):
            cfg = SynthConfig(
                seed=seed, n_institutions=5, papers_per_institution=(4, 10),
                window=WINDOW, citation_model=Lognormal(1.2, 0.7),
                accrual=0.4, quality_link=0.5,
            )
            corpus = generate(cfg)
            for inst in corpus.institutions():
                for year in (2008, 2010, 2012):
                    expected = oracle_h(
                        oracle_filter(corpus, "GB", WINDOW, "synthetic", inst), year - 1
                    )
                    got = departmental_h(corpus, "GB", WINDOW, "synthetic", inst, year)
                    assert got == expected


class TestHSeries:
    def test_no_citations_all_zero(self, chem_map):
        corpus = Corpus(
            publications=(record("P1", 2003), record("P2", 2005)),
            discipline_maps=(chem_map,),
        )
        series = h_series(corpus, "GB", WINDOW, "chemistry", "Alpha", list(range(2008, 2015)))
        assert list(series.h_by_year.values()) == [0] * 7

    def test_single_year_matches_departmental_h(self):
        corpus = three_paper_corpus()
        series = h_series(corpus, "GB", WINDOW, "chemistry", "Alpha", [2008])
        assert series.h_by_year == {
            2008: departmental_h(corpus, "GB", WINDOW, "chemistry", "Alpha", 2008)
        }

    def test_non_decreasing_and_matches_per_year_recomputation(self):
        cfg = SynthConfig(
            seed=21, n_institutions=4, papers_per_institution=(6, 12),
            window=WINDOW, citation_model=Lognormal(1.8, 0.5),
            accrual=0.3, quality_link=0.7,
        )
        corpus = generate(cfg)
        years = list(range(2008, 2015))
        for inst in corpus.institutions():
            series = h_series(corpus, "GB", WINDOW, "synthetic", inst, years)
            values = [series.h_by_year[y] for y in years]
            assert values == sorted(values)
            for y in years:
                assert series.h_by_year[y] == departmental_h(
                    corpus, "GB", WINDOW, "synthetic", inst, y
                )

    def test_years_must_be_ascending(self):
        with pytest.raises(ValueError, match="ascending"):
            h_series(three_paper_corpus(), "GB", WINDOW, "chemistry", "Alpha", [2009, 2008])

    def test_series_type_rejects_decreasing_values(self):
        with pytest.raises(ValueError, match="must not decrease"):
            GroupMetrics("Alpha", "chemistry", WINDOW, {2008: 5, 2009: 4})
        # adjacent measurement years with a skipped year between them
        with pytest.raises(ValueError) as err:
            GroupMetrics("A", "x", WINDOW, {2008: 3, 2010: 2})
        assert str(err.value) == "A: h must not decrease between consecutive years (2008: 3, 2010: 2)"

    def test_series_type_rejects_negative_h(self):
        with pytest.raises(ValueError) as err:
            GroupMetrics("A", "x", WINDOW, {2008: -1})
        assert str(err.value) == "negative h -1 at 2008"


def exact_s(bands):
    p4, p3, p2, _, _ = (Fraction(str(b)) for b in bands)
    return p4 + Fraction(3, 7) * p3 + Fraction(1, 7) * p2


def exact_s_prime(bands):
    p4, p3, _, _, _ = (Fraction(str(b)) for b in bands)
    return p4 + Fraction(1, 3) * p3


class TestScores:
    def test_all_world_leading(self):
        assert score_s(profile(bands=(100.0, 0.0, 0.0, 0.0, 0.0))) == 100.0

    def test_weighted_sum_example(self):
        bands = (20.0, 40.0, 30.0, 10.0, 0.0)
        expected = float(exact_s(bands))
        assert score_s(profile(bands=bands)) == pytest.approx(expected, abs=1e-9)
        assert expected == pytest.approx(20 + 120 / 7 + 30 / 7, abs=1e-12)

    def test_unclassified_weightless(self):
        assert score_s(profile(bands=(0.0, 0.0, 0.0, 0.0, 100.0))) == 0.0

    def test_s_prime_examples(self):
        assert score_s_prime(profile(bands=(100.0, 0.0, 0.0, 0.0, 0.0))) == 100.0
        assert score_s_prime(profile(bands=(0.0, 60.0, 40.0, 0.0, 0.0))) == pytest.approx(20.0, abs=1e-12)
        assert score_s_prime(profile(bands=(0.0, 0.0, 100.0, 0.0, 0.0))) == 0.0

    def test_s_output_absent(self):
        assert score_s_output(profile()) is None
        assert profile().output_percentages() is None

    def test_s_output_examples(self):
        p = profile(out_bands=(100.0, 0.0, 0.0, 0.0, 0.0))
        assert score_s_output(p) == 100.0
        bands = (20.0, 40.0, 30.0, 10.0, 0.0)
        p = profile(out_bands=bands)
        assert score_s_output(p) == pytest.approx(float(exact_s(bands)), abs=1e-9)

    def test_strength_examples(self):
        assert strength(profile(bands=(100.0, 0.0, 0.0, 0.0, 0.0), staff_fte=1.0)) == 100.0
        bands = (20.0, 40.0, 30.0, 10.0, 0.0)
        expected = float(exact_s(bands)) * 10
        assert strength(profile(bands=bands, staff_fte=10.0)) == pytest.approx(expected, abs=1e-9)

    def test_zero_staff_rejected_at_construction(self):
        with pytest.raises(ValueError, match="staff_fte"):
            profile(staff_fte=0.0)

    def test_pure_3star_spot_checks(self):
        p = profile(bands=(0.0, 100.0, 0.0, 0.0, 0.0))
        assert abs(score_s(p) - float(Fraction(300, 7))) <= 1e-12
        assert abs(score_s_prime(p) - float(Fraction(100, 3))) <= 1e-12

    def test_linearity_under_profile_mixing(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            a = rng.dirichlet(np.ones(5)) * 100
            b = rng.dirichlet(np.ones(5)) * 100
            alpha = float(rng.random())
            mixed = alpha * a + (1 - alpha) * b
            # re-normalize the float dust so all three are valid profiles
            for v in (a, b, mixed):
                v[4] += 100.0 - v.sum()
            pa, pb, pm = (profile(bands=tuple(v)) for v in (a, b, mixed))
            assert score_s(pm) == pytest.approx(
                alpha * score_s(pa) + (1 - alpha) * score_s(pb), abs=1e-9
            )

    def test_score_set_bundles_all_four(self):
        p = profile(bands=(20.0, 40.0, 30.0, 10.0, 0.0), staff_fte=10.0,
                    out_bands=(20.0, 40.0, 30.0, 10.0, 0.0))
        s = score_profile(p)
        assert s.s == score_s(p)
        assert s.s_prime == score_s_prime(p)
        assert s.s_output == score_s_output(p)
        assert s.strength == strength(p)


class TestGroupMetrics:
    def test_roster_excludes_institutions_without_matching_publications(self, chem_map):
        corpus = Corpus(
            publications=(
                record("P1", 2003, affiliations=("Alpha",)),
                record("P2", 2000, affiliations=("Ghost",)),  # out of window only
            ),
            discipline_maps=(chem_map,),
        )
        metrics = group_metrics(corpus, "GB", WINDOW, "chemistry", [2008])
        assert [m.institution for m in metrics] == ["Alpha"]

    def test_nci_attached_from_profile(self, chem_map):
        corpus = Corpus(
            publications=(record("P1", 2003),),
            profiles=(profile(nci=1.5),),
            discipline_maps=(chem_map,),
        )
        metrics = group_metrics(corpus, "GB", WINDOW, "chemistry", [2008])
        scores = [score_profile(p) for p in corpus.profiles]
        points, _ = joined_points(scores, metrics, "i", "h_2008")
        assert [(inst, x) for inst, x, _ in points] == [("Alpha", 1.5)]

    def test_affiliation_whitespace_stripped_before_roster_and_profile_join(self, chem_map):
        corpus = Corpus(
            publications=(record("P1", 2003, affiliations=(" Alpha",)),),
            profiles=(profile(nci=1.5),),
            discipline_maps=(chem_map,),
        )
        metrics = group_metrics(corpus, "GB", WINDOW, "chemistry", [2008])
        assert [m.institution for m in metrics] == ["Alpha"]
        scores = [score_profile(p) for p in corpus.profiles]
        points, _ = joined_points(scores, metrics, "i", "h_2008")
        assert [(inst, x) for inst, x, _ in points] == [("Alpha", 1.5)]

    def test_profile_institution_whitespace_stripped_before_join(self, chem_map):
        corpus = Corpus(
            publications=(record("P1", 2003, affiliations=("Alpha",)),),
            profiles=(profile(institution="Alpha ", nci=1.5),),
            discipline_maps=(chem_map,),
        )
        assert corpus.profiles[0].institution == "Alpha"
        metrics = group_metrics(corpus, "GB", WINDOW, "chemistry", [2008])
        scores = [score_profile(p) for p in corpus.profiles]
        assert joined_points(scores, metrics, "i", "h_2008") == ([("Alpha", 1.5, 0.0)], 0)

    @pytest.mark.parametrize("blank", ["", "  "])
    def test_blank_profile_institution_rejected(self, blank):
        with pytest.raises(ValueError, match="institution must be non-empty"):
            profile(institution=blank)


class TestHSeriesMatchesGroupMetrics:
    def test_each_institution_equals_its_group_metrics_entry(self):
        cfg = SynthConfig(
            seed=5, n_institutions=12, papers_per_institution=(4, 10),
            window=WINDOW, citation_model=Lognormal(1.5, 0.6),
            accrual=0.4, quality_link=0.5,
        )
        corpus = generate(cfg)
        years = list(range(2008, 2015))
        grouped = group_metrics(corpus, "GB", WINDOW, "synthetic", years)
        assert len(grouped) > 1
        for metrics in grouped:
            assert h_series(corpus, "GB", WINDOW, "synthetic", metrics.institution, years) == metrics
            assert h_series(corpus, "GB", WINDOW, "synthetic", f" {metrics.institution} ", years) == metrics
        absent = h_series(corpus, "GB", WINDOW, "synthetic", "No Such HEI", years)
        assert absent.h_by_year == dict.fromkeys(years, 0)

    def test_one_shot_years_for_present_and_absent_groups(self):
        corpus = three_paper_corpus()
        years = [2008, 2009, 2010]
        present = h_series(corpus, "GB", WINDOW, "chemistry", "Alpha", (y for y in years))
        assert present == group_metrics(corpus, "GB", WINDOW, "chemistry", years)[0]
        assert present.h_by_year == {2008: 2, 2009: 2, 2010: 2}
        absent = h_series(corpus, "GB", WINDOW, "chemistry", "Beta", iter(years))
        assert absent.h_by_year == dict.fromkeys(years, 0)
        assert group_metrics(corpus, "GB", WINDOW, "chemistry", iter(years)) == [present]
        assert departmental_h(corpus, "GB", WINDOW, "chemistry", "Alpha", 2009) == 2
        assert departmental_h(corpus, "GB", WINDOW, "chemistry", "Beta", 2009) == 0

    def test_absent_padded_name_gives_stripped_all_zero_series(self):
        years = [2008, 2009]
        absent = h_series(three_paper_corpus(), "GB", WINDOW, "chemistry", " No Such HEI ", years)
        assert absent == GroupMetrics("No Such HEI", "chemistry", WINDOW, {2008: 0, 2009: 0})


# each public h entry point, taking the corpus, the discipline and the years
H_CALLS = {
    "group_metrics": lambda corpus, d, years: group_metrics(corpus, "GB", WINDOW, d, years),
    "h_series": lambda corpus, d, years: h_series(corpus, "GB", WINDOW, d, "Alpha", years),
    "h_series_absent": lambda corpus, d, years: h_series(corpus, "GB", WINDOW, d, "Beta", years),
}


@pytest.mark.parametrize("call", H_CALLS.values(), ids=H_CALLS)
class TestErrorPrecedence:
    @pytest.mark.parametrize("years", [[2009, 2008], [2001]])
    def test_unknown_discipline_before_bad_years(self, call, years):
        with pytest.raises(UnknownDisciplineError):
            call(three_paper_corpus(), "nonexistent", years)

    def test_ascending_before_window_start(self, call):
        # both checks fail on [2001, 2000]; the order check is reported
        with pytest.raises(ValueError, match="strictly ascending, got \\[2001, 2000\\]"):
            call(three_paper_corpus(), "chemistry", [2001, 2000])

    def test_year_at_window_start_refused(self, call):
        with pytest.raises(ValueError, match="^measurement year 2001 must come after window start 2001$"):
            call(three_paper_corpus(), "chemistry", [2001, 2008])


class TestWriters:
    def test_hseries_csv(self, tmp_path):
        series = [
            GroupMetrics("Beta", "chemistry", WINDOW, {2008: 1, 2009: 2}),
            GroupMetrics("Alpha", "chemistry", WINDOW, {2008: 3}),
        ]
        path = tmp_path / "hseries.csv"
        write_hseries_csv(series, path)
        text = path.read_text()
        lines = text.splitlines()
        assert lines[0] == "institution,discipline,window_start,window_end,measurement_year,h"
        assert lines[1] == "Alpha,chemistry,2001,2007,2008,3"
        assert lines[2] == "Beta,chemistry,2001,2007,2008,1"

    def test_scores_csv(self, tmp_path):
        p = profile(bands=(20.0, 40.0, 30.0, 10.0, 0.0), staff_fte=10.0, nci=1.25)
        path = tmp_path / "scores.csv"
        write_scores_csv([p], path)
        lines = path.read_text().splitlines()
        assert lines[0] == "institution,discipline,s,s_prime,s_output,strength,nci"
        assert lines[1] == "Alpha,chemistry,41.428571,33.333333,,414.285714,1.250000"


# ---------------------------------------------------------------------------
# Semantic invariants of h on seeded synth corpora
# ---------------------------------------------------------------------------

RAE_YEARS = list(range(2008, 2015))


def seeded(seed, papers):
    return generate(SynthConfig(seed=seed, n_institutions=12, papers_per_institution=papers,
                                window=WINDOW, citation_model=Lognormal(1.5, 0.8),
                                accrual=0.35, quality_link=0.7))


@pytest.fixture(scope="module", params=[(41, (5, 30)), (42, (1, 2)), (43, (2, 12))],
                ids=lambda param: f"seed{param[0]}")
def seeded_corpus(request):
    return seeded(*request.param)


def h_table(corpus):
    return {g.institution: dict(g.h_by_year)
            for g in group_metrics(corpus, "GB", WINDOW, "synthetic", RAE_YEARS)}


def with_records(corpus, drop=(), add=()):
    kept = tuple(r for r in corpus.publications if r.pub_id not in {d.pub_id for d in drop})
    return dataclasses.replace(corpus, publications=kept + tuple(add))


class TestSemanticInvariants:
    def test_zero_citation_record_leaves_every_h_unchanged(self, seeded_corpus):
        rng = np.random.default_rng(500)
        before = h_table(seeded_corpus)
        matching = matching_publications(seeded_corpus, "GB", WINDOW, "synthetic")
        for k in rng.choice(len(matching), size=5, replace=False):
            r = matching[k]
            group = sorted(r.affiliations)[0]
            added = PublicationRecord(f"Z{k}", int(rng.integers(2001, 2008)), "GB", {group}, r.categories)
            variant = with_records(seeded_corpus, add=[added])
            assert added in matching_publications(variant, "GB", WINDOW, "synthetic")
            assert h_table(variant) == before

    def test_one_more_citation_raises_only_its_groups_h_by_at_most_one(self, seeded_corpus):
        rng = np.random.default_rng(501)
        before = h_table(seeded_corpus)
        matching = matching_publications(seeded_corpus, "GB", WINDOW, "synthetic")
        picks = []
        for k in rng.choice(len(matching), size=8, replace=False):
            r = matching[k]
            picks.append((r, int(rng.integers(r.pub_year, RAE_YEARS[-1]))))  # counted from year + 1 on
        # and a record at an h-core boundary, whose citation in its publication year raises an h
        edge = h_core_boundary(seeded_corpus, "GB", WINDOW, "synthetic", RAE_YEARS)
        picks.append((edge, edge.pub_year))
        rises = 0
        for r, year in picks:
            citations = dict(r.citations_by_year)
            citations[year] = citations.get(year, 0) + 1
            cited = dataclasses.replace(r, citations_by_year=citations)
            after = h_table(with_records(seeded_corpus, drop=[r], add=[cited]))
            assert after.keys() == before.keys()
            for institution, series in before.items():
                for y, h in series.items():
                    if institution in r.affiliations:
                        assert after[institution][y] - h in (0, 1), (r.pub_id, institution, y)
                        rises += after[institution][y] - h
                    else:
                        assert after[institution][y] == h, (r.pub_id, institution, y)
        assert rises  # some citation reached an h-core

    def test_record_moved_before_the_window_is_as_if_removed(self, seeded_corpus):
        rng = np.random.default_rng(502)
        matching = matching_publications(seeded_corpus, "GB", WINDOW, "synthetic")
        for k in rng.choice(len(matching), size=6, replace=False):
            r = matching[k]
            moved = dataclasses.replace(r, pub_year=WINDOW.start_year - 1)
            got = h_table(with_records(seeded_corpus, drop=[r], add=[moved]))
            assert got == h_table(with_records(seeded_corpus, drop=[r]))

    def test_a_group_whose_only_record_moves_out_disappears(self):
        corpus = seeded(42, (1, 2))  # one- and two-paper groups
        before = h_table(corpus)
        matching = matching_publications(corpus, "GB", WINDOW, "synthetic")
        sizes = {g: sum(g in m.affiliations for m in matching) for g in before}
        singles = [r for r in matching if any(sizes[g] == 1 for g in r.affiliations)]
        assert len(singles) >= 3
        for r in singles:
            moved = dataclasses.replace(r, pub_year=WINDOW.start_year - 1)
            got = h_table(with_records(corpus, drop=[r], add=[moved]))
            assert got == h_table(with_records(corpus, drop=[r]))
            assert got.keys() == {g for g in before if g not in r.affiliations or sizes[g] > 1}
