import math
import re

import numpy as np
import pytest

from refh.corpus import PublicationWindow
from refh.metrics import GroupMetrics, ScoreSet
from refh.stats import (
    CorrelationReport,
    InsufficientDataError,
    correlation_series,
    correlation_table,
    fractional_ranks,
    h_label_year,
    joined_points,
    measure_values,
    pearson,
    significance,
    spearman,
    write_corr_series_csv,
    write_correlations_csv,
    write_fig_points_csv,
)

from oracles import naive_pearson, naive_ranks

WINDOW = PublicationWindow(2001, 2007)


class TestPearson:
    def test_identity(self):
        assert pearson([1, 2, 3], [1, 2, 3]) == 1.0

    def test_perfect_reversal(self):
        assert pearson([1, 2, 3], [3, 2, 1]) == -1.0

    def test_textbook_four_point_example(self):
        # cov = 4, var = 5 each, so r = 4/5
        x, y = [1, 2, 3, 4], [1, 3, 2, 4]
        assert naive_pearson(x, y) == pytest.approx(0.8, abs=1e-15)
        assert pearson(x, y) == pytest.approx(0.8, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            pearson([1, 2, 3], [1, 2])

    def test_too_short(self):
        with pytest.raises(ValueError, match="at least 3"):
            pearson([1, 2], [1, 2])

    def test_constant_vector(self):
        # the float mean of 0.1, 0.1, 0.1 is not 0.1, so the deviations are not 0
        for constant in ([5, 5, 5], [0.1] * 3, [0.7] * 7, [2.675] * 7):
            ramp = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0][: len(constant)]
            with pytest.raises(ValueError, match="constant"):
                pearson(constant, ramp)
            with pytest.raises(ValueError, match="constant"):
                pearson(ramp, constant)

    def test_tiny_values_keep_their_correlation(self):
        # unscaled, the squared deviations of 1e-170 steps underflow to 0
        # and the vector would be refused as constant
        expected = pearson([0.0, 1.0, 2.0], [1.0, 2.0, 4.0])
        assert expected == pytest.approx(0.9819805060619656, abs=1e-15)
        assert pearson([0.0, 1e-170, 2e-170], [1.0, 2.0, 4.0]) == expected
        assert pearson([1.0, 2.0, 4.0], [0.0, 1e-170, 2e-170]) == expected

    def test_symmetry_and_affine_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(3, 40))
            x = rng.normal(size=n)
            y = rng.normal(size=n)
            r = pearson(x, y)
            assert abs(r - pearson(y, x)) <= 1e-12
            a, b = float(rng.uniform(0.1, 5)), float(rng.normal())
            assert abs(pearson(a * x + b, y) - r) <= 1e-12

    def test_clamped_to_unit_interval(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            x = rng.normal(size=10)
            assert abs(pearson(x, 3.0 * x + 1.0)) <= 1.0


class TestNonFiniteInput:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_pearson_and_spearman_refuse(self, bad):
        # a NaN once slipped through min(1.0, nan) and came back as r = 1
        with pytest.raises(ValueError, match="non-finite"):
            pearson([1, 2, bad, 4], [1, 2, 3, 4])
        with pytest.raises(ValueError, match="non-finite"):
            pearson([1, 2, 3, 4], [1, 2, bad, 4])
        with pytest.raises(ValueError, match="non-finite"):
            spearman([1, 2, bad, 4], [1, 2, 3, 4])

    def test_fractional_ranks_refuse(self):
        with pytest.raises(ValueError, match="non-finite"):
            fractional_ranks([1.0, math.nan, 2.0])


class TestNotOneDimensional:
    @pytest.mark.parametrize("bad", [
        [[1.0], [2.0], [3.0], [4.0]],
        [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]],
        np.arange(8.0).reshape(4, 2),
        np.arange(4.0).reshape(4, 1),
        "1234",  # a string is one value, not its characters
    ])
    def test_refused(self, bad):
        flat = [1.0, 3.0, 2.0, 4.0][: len(bad)]
        for call in (lambda: pearson(bad, flat), lambda: spearman(bad, flat),
                     lambda: fractional_ranks(bad)):
            with pytest.raises(ValueError, match="x must be one-dimensional"):
                call()
        with pytest.raises(ValueError, match="y must be one-dimensional"):
            pearson(flat, bad)


class TestFractionalRanks:
    def test_no_ties(self):
        assert fractional_ranks([10, 20, 30]) == [1.0, 2.0, 3.0]

    def test_pair_tie_gets_mean_of_positions(self):
        assert naive_ranks([1, 2, 2, 3]) == [1.0, 2.5, 2.5, 4.0]
        assert fractional_ranks([1, 2, 2, 3]) == [1.0, 2.5, 2.5, 4.0]

    def test_full_tie(self):
        assert fractional_ranks([5, 5, 5]) == [2.0, 2.0, 2.0]

    def test_matches_naive_positions_on_random_data(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            x = rng.integers(0, 6, size=int(rng.integers(1, 30))).tolist()
            assert fractional_ranks(x) == pytest.approx(naive_ranks(x))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fractional_ranks([])


class TestSpearman:
    def test_identity(self):
        assert spearman([3, 7, 20, 21], [3, 7, 20, 21]) == 1.0

    def test_tied_example(self):
        # Pearson on ranks [1, 2.5, 2.5, 4] vs [1, 2, 3, 4]
        expected = naive_pearson([1, 2.5, 2.5, 4], [1, 2, 3, 4])
        assert expected == pytest.approx(0.9486832980505138, abs=1e-12)
        assert spearman([1, 2, 2, 3], [10, 20, 30, 40]) == pytest.approx(expected, abs=1e-12)

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            n = int(rng.integers(3, 30))
            x = rng.normal(size=n)
            y = rng.normal(size=n)
            rho = spearman(x, y)
            assert abs(spearman(np.exp(x), y) - rho) <= 1e-12
            assert abs(spearman(x ** 3, y) - rho) <= 1e-12

    def test_equals_pearson_on_rank_permutations(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            n = int(rng.integers(3, 20))
            x = rng.permutation(np.arange(1, n + 1)).astype(float)
            y = rng.permutation(np.arange(1, n + 1)).astype(float)
            assert spearman(x, y) == pytest.approx(pearson(x, y), abs=1e-14)

    def test_tie_free_matches_classical_d_squared_formula(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            n = int(rng.integers(3, 60))
            x = rng.permutation(n) + rng.random(n) * 0.001  # distinct values
            y = rng.permutation(n) + rng.random(n) * 0.001
            rx = np.asarray(fractional_ranks(x))
            ry = np.asarray(fractional_ranks(y))
            d2 = float(np.sum((rx - ry) ** 2))
            classical = 1.0 - 6.0 * d2 / (n * (n * n - 1))
            assert spearman(x, y) == pytest.approx(classical, abs=1e-12)


def t_tail_by_quadrature(t, df, grid=200001, span=400.0):
    """Two-sided tail mass of Student's t by trapezoidal quadrature."""
    xs = np.linspace(t, t + span, grid)
    pdf = (
        math.gamma((df + 1) / 2)
        / (math.sqrt(df * math.pi) * math.gamma(df / 2))
        * (1 + xs ** 2 / df) ** (-(df + 1) / 2)
    )
    return 2.0 * float(np.trapezoid(pdf, xs))


class TestSignificance:
    def test_zero_correlation_has_p_one(self):
        for n in (4, 10, 50):
            p, sig = significance(0.0, n)
            assert p == 1.0 and not sig

    def test_strong_correlation_large_sample(self):
        t = 0.8 * math.sqrt(28 / (1 - 0.64))
        assert t == pytest.approx(7.0553, abs=1e-3)
        p, sig = significance(0.8, 30)
        assert sig and p < 1e-6
        assert p == pytest.approx(t_tail_by_quadrature(t, 28), rel=1e-4)

    def test_moderate_correlation_small_sample(self):
        # r = 0.5, n = 5 gives t = 1 at 3 degrees of freedom
        p, sig = significance(0.5, 5)
        assert not sig
        assert p == pytest.approx(0.391, abs=5e-4)
        assert p == pytest.approx(t_tail_by_quadrature(1.0, 3), rel=1e-4)

    def test_perfect_correlation_convention(self):
        assert significance(1.0, 10) == (0.0, True)
        assert significance(-1.0, 10) == (0.0, True)

    def test_monotone_in_abs_r(self):
        ps = [significance(r, 20)[0] for r in (0.1, 0.3, 0.5, 0.7, 0.9)]
        assert ps == sorted(ps, reverse=True)

    def test_monotone_in_n(self):
        ps = [significance(0.4, n)[0] for n in (5, 10, 20, 40, 80)]
        assert ps == sorted(ps, reverse=True)

    def test_matches_scipy_stats_t_sf(self):
        # scipy is a test-time oracle only: significance computes the tail
        # itself, so this compares two independent implementations
        from scipy.stats import t as student_t

        rng = np.random.default_rng(12)
        ns = [*range(3, 200), 500, 1_000, 4_000, 10_000, 100_000]
        # t^2 underflows to 0 for the last three
        edges = [0.0, 1e-12, -1e-12, 0.9999999, -0.9999999, 1e-200, -1e-200, 5e-324]
        for n in ns:
            rs = [*edges, *rng.uniform(-1.0, 1.0, size=300).tolist()]
            ts = [r * math.sqrt((n - 2) / (1.0 - r * r)) for r in rs]
            tails = student_t.sf(np.abs(ts), n - 2)
            for r, tail in zip(rs, tails.tolist()):
                expected = max(0.0, min(1.0, 2.0 * tail))
                p, sig = significance(r, n)
                assert f"{p:.6f}" == f"{expected:.6f}", (r, n)
                assert sig == (expected < 0.05), (r, n)
                assert abs(p - expected) <= 1e-12, (r, n, p, expected)
                if expected > 0.0:
                    assert abs(p - expected) <= 1e-10 * expected, (r, n, p, expected)

    def test_matches_mpmath_betainc(self):
        # mpmath is a second test-time oracle: its regularized incomplete beta
        # at 30 digits gives the two-sided tail I_x(df/2, 1/2), x = df/(df+t^2)
        import mpmath

        def tail(t, df):
            with mpmath.workdps(30):
                t2 = mpmath.mpf(t) ** 2
                return float(mpmath.betainc(mpmath.mpf(df) / 2, 0.5, 0, df / (df + t2),
                                            regularized=True))

        def r_of(t, df):  # r = t / sqrt(df + t^2) gives back t at n = df + 2
            return t / math.sqrt(df + t * t)

        def t_max(df):  # the t where p reaches 1e-300, or r rounds to 1
            lo, hi = 1.0, 1e10
            for _ in range(100):
                mid = math.sqrt(lo * hi)
                lo, hi = (mid, hi) if significance(r_of(mid, df), df + 2)[0] >= 1e-300 else (lo, mid)
            return lo

        # df 100 and 102 sit on either side of _LGAMMA_MAX_A = 50 = df / 2
        dfs = [1, 2, 3, 5, 10, 30, 98, 99, 100, 101, 102, 200, 1_000, 10_000, 100_000]
        checked, smallest = 0, 1.0
        for df in dfs:
            switch = math.sqrt(3 * df / (df + 2))  # t^2 = 3 df / (df + 2)
            top = math.log10(t_max(df))
            ts = [switch * f for f in (0.9, 0.999, 1 - 1e-9, 1 + 1e-9, 1.001, 1.1)]
            ts += [10 ** (-8 + (top + 8) * k / 26) for k in range(27)]
            for t in ts:
                r = r_of(t, df)
                if abs(r) == 1.0:
                    continue
                # significance's own t from r, so both sides see the same t
                t_seen = abs(r * math.sqrt(df / (1.0 - r * r)))
                try:
                    expected = tail(t_seen, df)
                except (ArithmeticError, ValueError):  # mpmath gives up: no oracle here
                    continue
                p, _ = significance(r, df + 2)
                checked, smallest = checked + 1, min(smallest, expected)
                if expected > 0.0:
                    assert abs(p - expected) <= 1e-10 * expected, (df, t, p, expected)
                else:
                    assert p == 0.0, (df, t, p)
        assert checked >= 450 and smallest < 1e-299

    @pytest.mark.parametrize(
        "df", [1, 2, 3, 4, 9, 10, 37, 98, 99, 100, 101, 102, 198, 998, 9_998, 99_998]
    )
    def test_monotone_across_series_fraction_switch(self, df):
        # the tail goes from the continued fraction through I_x's symmetry to
        # the fraction itself at t^2 = 3 df / (df + 2).  p must not rise as |t|
        # crosses that point, nor |t| = 2, a plain point kept as a second
        # check.  r = t / sqrt(df + t^2) gives back t at n = df + 2.
        for switch in (2.0, math.sqrt(3 * df / (df + 2))):
            ts = [switch - 0.1 + k * 1e-4 for k in range(2_001)]
            ps = [significance(t / math.sqrt(df + t * t), df + 2)[0] for t in ts]
            assert all(b <= a for a, b in zip(ps, ps[1:])), switch

    def test_monotone_in_n_across_series_fraction_switch(self):
        # df = 100 is the last whose log(Gamma(a + 1/2) / Gamma(a)) is a
        # difference of lgammas; above it, an asymptotic series
        for r in [k / 100 for k in range(-99, 100)] + [1e-12, -1e-9]:
            ps = [significance(r, n)[0] for n in range(95, 110)]
            assert all(b <= a for a, b in zip(ps, ps[1:])), r

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            significance(0.5, 2)
        with pytest.raises(ValueError):
            significance(1.5, 10)


def make_scores(values, discipline="chemistry", nci=None):
    return [
        ScoreSet(institution=inst, discipline=discipline, s=v, s_prime=v / 2,
                 s_output=None, strength=v * 10,
                 nci=None if nci is None else nci.get(inst))
        for inst, v in values.items()
    ]


def make_metrics(h_values, discipline="chemistry", years=(2008,)):
    return [
        GroupMetrics(
            institution=inst,
            discipline=discipline,
            window=WINDOW,
            h_by_year={y: int(v) + k for k, y in enumerate(sorted(years))},
        )
        for inst, v in h_values.items()
    ]


class TestCorrelationTable:
    def test_proportional_columns_give_unit_correlations(self):
        svals = {f"I{k}": 10.0 * k for k in range(1, 6)}
        scores = make_scores(svals)
        metrics = make_metrics({inst: v / 5 for inst, v in svals.items()})
        (report,) = correlation_table(scores, metrics, [("s", "h_2008")])
        assert report.pearson_r == 1.0
        assert report.spearman_rho == 1.0
        assert report.n == 5
        assert report.significant_pearson and report.significant_spearman

    def test_twenty_institution_fixture_matches_definitional_oracle(self):
        rng = np.random.default_rng(123)
        insts = [f"I{k:02d}" for k in range(20)]
        svals = {i: float(rng.uniform(0, 100)) for i in insts}
        hvals = {i: float(rng.integers(5, 60)) for i in insts}
        scores = make_scores(svals)
        metrics = make_metrics(hvals)
        (report,) = correlation_table(scores, metrics, [("s", "h_2008")])
        xs = [svals[i] for i in insts]
        ys = [hvals[i] for i in insts]
        assert report.pearson_r == pytest.approx(naive_pearson(xs, ys), abs=1e-10)
        assert report.spearman_rho == pytest.approx(
            naive_pearson(naive_ranks(xs), naive_ranks(ys)), abs=1e-10
        )

    def test_missing_s_output_everywhere_is_insufficient(self):
        scores = make_scores({"A": 1.0, "B": 2.0, "C": 3.0})
        metrics = make_metrics({"A": 1, "B": 2, "C": 3})
        with pytest.raises(InsufficientDataError, match="s_output"):
            correlation_table(scores, metrics, [("s_output", "h_2008")])

    def test_rows_missing_either_side_are_dropped_and_counted(self):
        scores = make_scores({"A": 1.0, "B": 2.0, "C": 3.0, "D": 4.0},
                             nci={"A": 1.0, "B": 2.0, "C": 3.0})
        metrics = make_metrics({"A": 1, "B": 2, "C": 3, "D": 4})
        (report,) = correlation_table(scores, metrics, [("s", "i")])
        assert report.n == 3
        assert report.n_dropped == 1

    def test_constant_vector_names_its_pair(self):
        scores = make_scores({"A": 1.0, "B": 2.0, "C": 3.0})
        metrics = make_metrics({"A": 4, "B": 4, "C": 4}, years=(2008, 2009, 2010))
        message = r"^pair \(s, h_2010\): correlation undefined for a constant vector$"
        with pytest.raises(ValueError, match=message):
            correlation_table(scores, metrics, [("s", "h_2010")])
        with pytest.raises(ValueError, match=message.replace("s,", "s_prime,")):
            correlation_series(scores, metrics, "s_prime", [2010])

    @pytest.mark.parametrize("pairs", [
        [("s", "h_2008"), ("s", "i"), ("s_prime", "h_2008"), ("h_2008", "s")],
        [("s", "h_2008"), ("s", "sigma"), ("s", "i")],
        [("s", "i"), ("s_output", "h_2008"), ("s", "h_2008")],
        [("s", "h_2008"), ("s", "h_2009")],
    ])
    def test_table_equals_its_pairs_taken_one_at_a_time(self, pairs):
        scores = make_scores({f"I{k}": float(k * k % 7) for k in range(1, 8)},
                             nci={f"I{k}": float(k) for k in range(1, 6)})
        metrics = make_metrics({f"I{k}": k % 4 for k in range(2, 9)}, years=(2008, 2009))

        def outcome(call):
            try:
                return call()
            except ValueError as exc:  # InsufficientDataError too
                return type(exc), str(exc)

        one_at_a_time = []
        for pair in pairs:
            got = outcome(lambda: correlation_table(scores, metrics, [pair]))
            if not isinstance(got, list):  # the table stops at its first failing pair
                one_at_a_time = got
                break
            one_at_a_time += got
        assert outcome(lambda: correlation_table(scores, metrics, pairs)) == one_at_a_time

    def test_unknown_labels_rejected(self):
        scores = make_scores({"A": 1.0, "B": 2.0, "C": 3.0})
        metrics = make_metrics({"A": 1, "B": 2, "C": 3})
        with pytest.raises(ValueError, match="unknown measure"):
            correlation_table(scores, metrics, [("sigma", "h_2008")])
        with pytest.raises(ValueError, match="unknown measure"):
            correlation_table(scores, metrics, [("s", "g_2008")])


class TestMeasureValues:
    def test_profile_labels_read_scores_and_h_labels_read_metrics(self):
        scores = make_scores({"A": 10.0, "B": 20.0}, nci={"A": 1.5})
        metrics = make_metrics({"A": 3, "C": 5}, years=(2008, 2009))
        assert measure_values("s", scores, metrics) == {"A": 10.0, "B": 20.0}
        assert measure_values("s_prime", scores, metrics) == {"A": 5.0, "B": 10.0}
        assert measure_values("strength", scores, metrics) == {"A": 100.0, "B": 200.0}
        assert measure_values("s_output", scores, metrics) == {}
        assert measure_values("i", scores, metrics) == {"A": 1.5}
        assert measure_values("h_2009", scores, metrics) == {"A": 4.0, "C": 6.0}
        assert measure_values("h_hat_2008", scores, metrics) == {"A": 3.0, "C": 5.0}
        assert measure_values("h_2014", scores, metrics) == {}

    @pytest.mark.parametrize("label", ["nci", "h_08", "h2008", "S", "", "h_2008\n", " s",
                                       "h_\u0662\u0660\u0660\u0668"])
    def test_unknown_label(self, label):
        with pytest.raises(ValueError, match="unknown measure label"):
            measure_values(label, [], [])
        with pytest.raises(ValueError, match=f"^unknown measure label {re.escape(repr(label))} "
                                             r"\(s, s_prime, s_output, strength, i, h_YYYY or h_hat_YYYY\)$"):
            h_label_year(label)

    def test_h_label_year_classifies_every_label(self):
        assert [h_label_year(label) for label in ("s", "s_prime", "s_output", "strength", "i")] == [None] * 5
        assert [h_label_year(label) for label in ("h_2008", "h_hat_2014", "h_0000")] == [2008, 2014, 0]


class TestJoin:
    def test_either_side_takes_any_label(self):
        scores = make_scores({"A": 1.0, "B": 2.0, "C": 3.0, "D": 4.0},
                             nci={"A": 0.5, "B": 0.7, "C": 0.6})
        metrics = make_metrics({"A": 1, "B": 2, "C": 3})
        points, dropped = joined_points(scores, metrics, "h_2008", "i")
        assert points == [("A", 1.0, 0.5), ("B", 2.0, 0.7), ("C", 3.0, 0.6)]
        assert dropped == 0  # D has no metrics: outside the join universe
        points, dropped = joined_points(scores, metrics, "s", "s_prime")
        assert points == [("A", 1.0, 0.5), ("B", 2.0, 1.0), ("C", 3.0, 1.5)]

    def test_join_ignores_discipline_case_and_reports_metrics_discipline(self):
        scores = make_scores({"A": 1.0, "B": 2.0, "C": 3.0}, discipline="chemistry")
        metrics = make_metrics({"A": 1, "B": 3, "C": 2}, discipline="Chemistry")
        (report,) = correlation_table(scores, metrics, [("s", "h_2008")])
        assert report.n == 3
        assert report.discipline == "Chemistry"

    def test_more_than_one_discipline_rejected(self):
        scores = make_scores({"A": 1.0, "B": 2.0, "C": 3.0}, discipline="chemistry")
        metrics = make_metrics({"A": 1, "B": 3, "C": 2}, discipline="physics")
        with pytest.raises(ValueError, match="more than one discipline"):
            joined_points(scores, metrics, "s", "h_2008")
        with pytest.raises(ValueError, match="more than one discipline"):
            correlation_table(scores + make_scores({"D": 4.0}, discipline="physics"),
                              make_metrics({"A": 1, "B": 3, "C": 2}), [("s", "h_2008")])

    def test_mixed_disciplines_refused_before_any_pair(self):
        # the join is built, and the disciplines checked, before the first pair
        scores = make_scores({"A": 1.0, "B": 2.0, "C": 3.0}, discipline="chemistry")
        metrics = make_metrics({"A": 1, "B": 3, "C": 2}, discipline="physics")
        with pytest.raises(ValueError, match="more than one discipline"):
            correlation_table(scores, metrics, [])
        with pytest.raises(ValueError, match="more than one discipline"):
            correlation_series(scores, metrics, "i", [])


class TestCorrelationSeries:
    def test_constant_h_across_years_gives_identical_reports(self):
        svals = {f"I{k}": float(k) for k in range(1, 7)}
        scores = make_scores(svals)
        metrics = [
            GroupMetrics(institution=i, discipline="chemistry", window=WINDOW,
                         h_by_year={2008: int(v), 2009: int(v), 2010: int(v)})
            for i, v in svals.items()
        ]
        series = correlation_series(scores, metrics, "s", [2008, 2009, 2010])
        reports = list(series.by_year.values())
        assert all(r.pearson_r == reports[0].pearson_r for r in reports)
        assert all(r.spearman_rho == reports[0].spearman_rho for r in reports)
        assert series.baseline is None

    def test_recomposition_matches_per_year_table_calls(self):
        rng = np.random.default_rng(55)
        insts = [f"I{k}" for k in range(12)]
        svals = {i: float(rng.uniform(0, 100)) for i in insts}
        # per institution: three h draws, then the nci draw
        draws = {
            i: (sorted(int(rng.integers(0, 40)) for _ in range(3)), float(rng.uniform(0.5, 3.0)))
            for i in insts
        }
        scores = make_scores(svals, nci={i: nci for i, (_, nci) in draws.items()})
        metrics = [
            GroupMetrics(
                institution=i, discipline="chemistry", window=WINDOW,
                h_by_year=dict(zip((2008, 2009, 2010), draws[i][0])),
            )
            for i in insts
        ]
        series = correlation_series(scores, metrics, "s", [2008, 2009, 2010])
        for year in (2008, 2009, 2010):
            (expected,) = correlation_table(scores, metrics, [("s", f"h_{year}")])
            assert series.by_year[year] == expected
        (expected_baseline,) = correlation_table(scores, metrics, [("s", "i")])
        assert series.baseline == expected_baseline

    def test_nci_baseline_needs_three_joined_groups(self):
        svals = {f"I{k}": float(k) for k in range(1, 7)}
        metrics = make_metrics({i: 7 - v for i, v in svals.items()})
        sparse = make_scores(svals, nci={"I1": 1.0, "I2": 2.0})
        assert correlation_series(sparse, metrics, "s", [2008]).baseline is None
        # a pair that names i still needs 3 points
        with pytest.raises(InsufficientDataError, match=r"^pair \(s, i\): only 2 complete"):
            correlation_table(sparse, metrics, [("s", "i")])
        three = make_scores(svals, nci={"I1": 1.0, "I2": 2.0, "I3": 2.5})
        (expected,) = correlation_table(three, metrics, [("s", "i")])
        assert correlation_series(three, metrics, "s", [2008]).baseline == expected
        assert expected.n == 3 and expected.n_dropped == 3

    def test_x_resolved_once_per_series(self, monkeypatch):
        import refh.stats

        labels = []

        def counting(label, scores, metrics):
            labels.append(label)
            return measure_values(label, scores, metrics)

        monkeypatch.setattr(refh.stats, "measure_values", counting)
        svals = {f"I{k}": float(k) for k in range(1, 7)}
        metrics = [
            GroupMetrics(institution=i, discipline="chemistry", window=WINDOW,
                         h_by_year={2008: int(v), 2009: int(v) + 1, 2010: int(v) + 2})
            for i, v in svals.items()
        ]
        nci = {i: 7.0 - v for i, v in svals.items()}
        correlation_series(make_scores(svals, nci=nci), metrics, "s", [2008, 2009, 2010])
        assert sorted(labels) == ["h_2008", "h_2009", "h_2010", "i", "s"]

    def test_table_resolves_each_label_once(self, monkeypatch):
        import refh.stats

        labels = []

        def counting(label, scores, metrics):
            labels.append(label)
            return measure_values(label, scores, metrics)

        monkeypatch.setattr(refh.stats, "measure_values", counting)
        svals = {f"I{k}": float(k) for k in range(1, 7)}
        scores = make_scores(svals, nci={i: 7.0 - v for i, v in svals.items()})
        metrics = make_metrics({i: 7 - v for i, v in svals.items()})
        correlation_table(scores, metrics, [("s", "h_2008"), ("s", "i"), ("s_prime", "h_2008")])
        assert sorted(labels) == ["h_2008", "i", "s", "s_prime"]

    def test_i_as_x_has_no_baseline_against_itself(self):
        svals = {f"I{k}": float(k) for k in range(1, 7)}
        scores = make_scores(svals, nci={i: v / 2 for i, v in svals.items()})
        metrics = make_metrics({i: 7 - v for i, v in svals.items()})
        series = correlation_series(scores, metrics, "i", [2008])
        assert series.baseline is None
        (expected,) = correlation_table(scores, metrics, [("i", "h_2008")])
        assert series.by_year == {2008: expected}
        # any other x keeps its nci line
        assert correlation_series(scores, metrics, "s", [2008]).baseline.measure_y == "i"

    def test_single_year(self):
        scores = make_scores({"A": 1.0, "B": 2.0, "C": 3.0})
        metrics = make_metrics({"A": 3, "B": 1, "C": 2})
        series = correlation_series(scores, metrics, "s", [2008])
        assert list(series.by_year) == [2008]

    def test_non_contiguous_years_rejected(self):
        scores = make_scores({"A": 1.0, "B": 2.0, "C": 3.0})
        metrics = [
            GroupMetrics(institution=i, discipline="chemistry", window=WINDOW,
                         h_by_year={2008: k, 2010: k})
            for k, i in enumerate(("A", "B", "C"))
        ]
        with pytest.raises(ValueError, match="contiguous"):
            correlation_series(scores, metrics, "s", [2008, 2010])


class TestReportInvariants:
    def test_small_n_rejected(self):
        with pytest.raises(ValueError, match="n >= 3"):
            CorrelationReport(
                discipline="d", measure_x="s", measure_y="h_2008", n=2,
                pearson_r=0.5, spearman_rho=0.5, p_pearson=0.5, p_spearman=0.5,
                significant_pearson=False, significant_spearman=False,
            )

    def test_coefficient_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError) as err:
            CorrelationReport(
                discipline="d", measure_x="s", measure_y="h_2008", n=3,
                pearson_r=1.5, spearman_rho=0.5, p_pearson=0.5, p_spearman=0.5,
                significant_pearson=False, significant_spearman=False,
            )
        assert str(err.value) == "pearson_r outside [-1, 1]"


class TestWriters:
    def test_csv_headers_and_shape(self, tmp_path):
        scores = make_scores({"A": 1.0, "B": 2.0, "C": 3.0}, nci={"A": 1.0, "B": 2.0, "C": 3.0})
        metrics = make_metrics({"A": 1, "B": 2, "C": 3})
        reports = correlation_table(scores, metrics, [("s", "h_2008"), ("s", "i")])
        write_correlations_csv(reports, tmp_path / "correlations.csv")
        lines = (tmp_path / "correlations.csv").read_text().splitlines()
        assert lines[0] == (
            "discipline,x,y,n,pearson_r,p_pearson,sig_pearson,"
            "spearman_rho,p_spearman,sig_spearman"
        )
        assert len(lines) == 3
        assert lines[1].startswith("chemistry,s,h_2008,3,")

        series = correlation_series(scores, metrics, "s", [2008])
        write_corr_series_csv([series], tmp_path / "corr_series.csv")
        lines = (tmp_path / "corr_series.csv").read_text().splitlines()
        assert lines[0].endswith(",measurement_year")
        assert lines[1].endswith(",")      # baseline row carries no year
        assert lines[2].endswith(",2008")

        points, _ = joined_points(scores, metrics, "s", "h_2008")
        write_fig_points_csv(points, tmp_path / "fig_points.csv")
        lines = (tmp_path / "fig_points.csv").read_text().splitlines()
        assert lines[0] == "x_value,y_value,institution"
        assert lines[1] == "1.000000,1.000000,A"
