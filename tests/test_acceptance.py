"""Acceptance suite: one test per release criterion, each printing a
[PASS]/[FAIL] line (run with ``pytest tests/test_acceptance.py -v -s``).
"""

import csv
import io
import time
from fractions import Fraction

import numpy as np

import golden_tables as gt
from refh.cli import main
from refh.corpus import PublicationWindow
from refh.metrics import (
    compute_h,
    departmental_h,
    h_series,
    score_s,
    score_s_output,
    score_s_prime,
)
from refh.ranking import movement, rank_table
from refh.stats import fractional_ranks, pearson, spearman
from refh.synth import Lognormal, PowerLaw, SynthConfig, generate

from conftest import profile
from oracles import naive_pearson, naive_ranks, oracle_filter, oracle_h

WINDOW = PublicationWindow(2001, 2007)


def _report(criterion: str, ok: bool, detail: str = ""):
    line = f"[{'PASS' if ok else 'FAIL'}] {criterion}"
    if detail:
        line += f": {detail}"
    print(line)
    assert ok, line


def test_criterion_1_h_index_oracle_equivalence():
    """compute_h equals the definitional scan on 10,000 random multisets."""
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    checked = 0
    for _ in range(10_000):
        size = int(rng.integers(0, 201))
        counts = rng.integers(0, 1001, size=size)
        # brute force: count |{c >= n}| for every candidate n
        ns = np.arange(size + 1)
        satisfied = (counts[None, :] >= ns[:, None]).sum(axis=1) >= ns
        brute = int(ns[satisfied].max()) if size else 0
        assert compute_h(counts.tolist()) == brute
        checked += 1
    elapsed = time.perf_counter() - start
    _report(
        "criterion 1 (h oracle equivalence)",
        checked == 10_000 and elapsed < 5.0,
        f"{checked} multisets in {elapsed:.2f}s",
    )


def test_criterion_2_windowed_pipeline_equivalence():
    """departmental_h == oracle_h composed with oracle_filter, exactly."""
    years = (2008, 2010, 2012)
    mismatches = 0
    checked = 0
    for seed in range(100):
        model = Lognormal(1.4, 0.7) if seed % 2 else PowerLaw(2.4, 1.0)
        corpus = generate(
            SynthConfig(
                seed=seed,
                n_institutions=5,
                papers_per_institution=(4, 9),
                window=WINDOW,
                citation_model=model,
                accrual=0.25 + 0.5 * (seed % 3) / 3,
                quality_link=(seed % 5) / 4,
            )
        )
        for inst in corpus.institutions():
            for year in years:
                expected = oracle_h(
                    oracle_filter(corpus, "GB", WINDOW, "synthetic", inst), year - 1
                )
                got = departmental_h(corpus, "GB", WINDOW, "synthetic", inst, year)
                checked += 1
                mismatches += got != expected
    _report(
        "criterion 2 (windowed pipeline equivalence)",
        mismatches == 0,
        f"{checked} (institution, year) pairs over 100 corpora, {mismatches} mismatches",
    )


def _random_grid_profile(rng, with_output):
    micro = 10**6
    weights = rng.dirichlet(np.ones(5))
    micros = [round(float(w) * 100 * micro) for w in weights[:4]]
    last = 100 * micro - sum(micros)
    if last < 0:
        micros[micros.index(max(micros))] += last
        last = 0
    bands = tuple(m / micro for m in micros) + (last / micro,)
    outs = (None,) * 5
    if with_output:
        weights = rng.dirichlet(np.ones(5))
        micros = [round(float(w) * 100 * micro) for w in weights[:4]]
        last = 100 * micro - sum(micros)
        if last < 0:
            micros[micros.index(max(micros))] += last
            last = 0
        outs = tuple(m / micro for m in micros) + (last / micro,)
    return profile(bands=bands, out_bands=None if outs[0] is None else outs,
                   staff_fte=float(rng.integers(1, 100)))


def test_criterion_3_score_formulas_match_rational_oracle():
    rng = np.random.default_rng(1003)
    w3, w1_7, w1_3 = Fraction(3, 7), Fraction(1, 7), Fraction(1, 3)
    worst = 0.0
    for k in range(1000):
        p = _random_grid_profile(rng, with_output=k % 3 != 0)
        exact_s = Fraction(p.p4) + w3 * Fraction(p.p3) + w1_7 * Fraction(p.p2)
        exact_sp = Fraction(p.p4) + w1_3 * Fraction(p.p3)
        worst = max(worst, abs(score_s(p) - float(exact_s)))
        worst = max(worst, abs(score_s_prime(p) - float(exact_sp)))
        if p.has_output_profile:
            exact_out = (
                Fraction(p.p4_out) + w3 * Fraction(p.p3_out) + w1_7 * Fraction(p.p2_out)
            )
            worst = max(worst, abs(score_s_output(p) - float(exact_out)))
    pure3 = profile(bands=(0.0, 100.0, 0.0, 0.0, 0.0))
    spot_s = abs(score_s(pure3) - float(Fraction(300, 7)))
    spot_sp = abs(score_s_prime(pure3) - float(Fraction(100, 3)))
    _report(
        "criterion 3 (score formulas vs rational oracle)",
        worst <= 1e-9 and spot_s <= 1e-12 and spot_sp <= 1e-12,
        f"worst |error| = {worst:.2e}; pure-3* offsets {spot_s:.2e}, {spot_sp:.2e}",
    )


def test_criterion_4_correlation_oracles():
    rng = np.random.default_rng(1004)
    worst_pearson = worst_spearman = worst_classical = 0.0
    for k in range(1000):
        n = int(rng.integers(3, 101))
        if k % 2:  # heavy ties
            x = rng.integers(0, 8, size=n).astype(float)
            y = rng.integers(0, 8, size=n).astype(float)
            if len(set(x.tolist())) < 2 or len(set(y.tolist())) < 2:
                continue
        else:  # continuous, tie-free almost surely
            x = rng.normal(size=n)
            y = rng.normal(size=n)
        worst_pearson = max(worst_pearson, abs(pearson(x, y) - naive_pearson(x.tolist(), y.tolist())))
        naive_rho = naive_pearson(naive_ranks(x.tolist()), naive_ranks(y.tolist()))
        worst_spearman = max(worst_spearman, abs(spearman(x, y) - naive_rho))
        if k % 2 == 0:
            rx = np.asarray(fractional_ranks(x))
            ry = np.asarray(fractional_ranks(y))
            d2 = float(np.sum((rx - ry) ** 2))
            classical = 1.0 - 6.0 * d2 / (n * (n * n - 1))
            worst_classical = max(worst_classical, abs(spearman(x, y) - classical))
    _report(
        "criterion 4 (correlation oracles)",
        worst_pearson <= 1e-10 and worst_spearman <= 1e-10 and worst_classical <= 1e-12,
        f"worst errors: pearson {worst_pearson:.2e}, spearman {worst_spearman:.2e}, "
        f"tie-free classical {worst_classical:.2e}",
    )


def test_criterion_5_published_tables_reproduced():
    failures = []
    for discipline, (baseline_rows, comparison_rows) in sorted(gt.TABLES.items()):
        baseline = rank_table(gt.values(baseline_rows), "h_2008", discipline)
        comparison = rank_table(gt.values(comparison_rows), "h_hat_2014", discipline)
        for rows, table in ((baseline_rows, baseline), (comparison_rows, comparison)):
            printed = gt.printed_ranks(rows)
            for e in table.entries:
                if e.rank != printed[e.institution]:
                    failures.append((discipline, e.institution, "rank", e.rank, printed[e.institution]))
        report = movement(baseline, comparison)
        for inst, arrow in gt.printed_movements(comparison_rows).items():
            if report.moves[inst].movement != arrow:
                failures.append((discipline, inst, "arrow", report.moves[inst].movement, arrow))
    strict = [f for f in failures if f[0] in ("chemistry", "physics")]
    flagged = [f for f in failures if f[0] in ("biology", "sociology")]
    if flagged:
        print(f"flagged biology/sociology mismatches: {flagged}")
    _report(
        "criterion 5 (published rank/arrow reproduction)",
        not strict and not flagged,
        f"{sum(len(t[0]) + len(t[1]) for t in gt.TABLES.values())} printed rows checked, "
        f"{len(failures)} mismatches",
    )


def test_criterion_6_diagnostic_biology_rho():
    """Non-blocking: rank correlation from the published biology columns."""
    quality_rank = {inst: rank for rank, inst in gt.BIOLOGY_QUALITY_RANKS}
    h_values = gt.values(gt.BIOLOGY_H2008)
    assert set(quality_rank) == set(h_values)
    insts = sorted(quality_rank)
    assert len(insts) == 38
    rho = spearman([-quality_rank[i] for i in insts], [h_values[i] for i in insts])
    delta = abs(rho - gt.PUBLISHED_BIOLOGY_RHO)
    detail = (
        f"rho = {rho:.4f} over n = 38 vs published {gt.PUBLISHED_BIOLOGY_RHO} "
        f"(published n = {gt.PUBLISHED_BIOLOGY_N}); |delta| = {delta:.4f}"
    )
    if delta <= 0.05:
        print(f"[PASS] criterion 6 (diagnostic, non-blocking): {detail}")
    else:
        print(f"[WARN] criterion 6 (diagnostic, non-blocking): deviation reported, {detail}")
    assert -1.0 <= rho <= 1.0


def test_criterion_7_monotone_h_evolution():
    years = list(range(2008, 2015))
    violations = 0
    series_checked = 0
    for seed in range(30):
        model = Lognormal(1.6, 0.6) if seed % 2 else PowerLaw(2.2, 1.0)
        corpus = generate(
            SynthConfig(
                seed=3000 + seed,
                n_institutions=6,
                papers_per_institution=(5, 12),
                window=WINDOW,
                citation_model=model,
                accrual=0.2 + 0.6 * (seed % 4) / 4,
                quality_link=(seed % 3) / 2,
            )
        )
        for inst in corpus.institutions():
            series = h_series(corpus, "GB", WINDOW, "synthetic", inst, years)
            values = [series.h_by_year[y] for y in years]
            series_checked += 1
            violations += values != sorted(values)
    _report(
        "criterion 7 (monotone h evolution)",
        violations == 0,
        f"{series_checked} series over 30 corpora, {violations} violations",
    )


def _corpus_argv(out):
    return [
        "--pubs", str(out / "publications.csv"),
        "--cites", str(out / "citations.csv"),
        "--profiles", str(out / "profiles.csv"),
        "--map", str(out / "discipline_map.csv"),
    ]


def test_criterion_8_determinism(tmp_path):
    corpus_files = ("publications.csv", "citations.csv", "profiles.csv",
                    "discipline_map.csv", "manifest.json")
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["synth", "--seed", "55", "--institutions", "8", "--out", str(out)]) == 0
    synth_identical = all(
        (a / name).read_bytes() == (b / name).read_bytes() for name in corpus_files
    )

    commands = {
        "hseries.csv": ["hindex", *_corpus_argv(a), "--discipline", "synthetic",
                        "--preset", "rae2008"],
        "scores.csv": ["score", "--profiles", str(a / "profiles.csv")],
        "correlations.csv": ["correlate", *_corpus_argv(a), "--discipline", "synthetic",
                             "--preset", "rae2008", "--pairs", "s:h_2008,s:i"],
        "rank_synthetic_h_2014.csv": ["rank", *_corpus_argv(a), "--discipline", "synthetic",
                                      "--window", "2001:2007", "--measure", "h_2014",
                                      "--baseline", "h_2008"],
    }
    reruns_identical = True
    for fname, argv in commands.items():
        outs = []
        for name in ("run1", "run2"):
            out = tmp_path / f"{fname}.{name}"
            assert main([*argv, "--out", str(out)]) == 0
            outs.append((out / fname).read_bytes())
        reruns_identical = reruns_identical and outs[0] == outs[1]
    _report(
        "criterion 8 (determinism)",
        synth_identical and reruns_identical,
        "synth corpora and repeated hindex/score/correlate/rank runs byte-identical",
    )


def test_criterion_9_end_to_end_desk_run(tmp_path):
    start = time.perf_counter()
    corpus_dir = tmp_path / "corpus"
    out = tmp_path / "out"
    steps = [
        ["synth", "--seed", "99", "--institutions", "40", "--out", str(corpus_dir),
         "--papers", "20:40"],
        ["hindex", *_corpus_argv(corpus_dir), "--discipline", "synthetic",
         "--preset", "rae2008", "--out", str(out)],
        ["score", "--profiles", str(corpus_dir / "profiles.csv"), "--out", str(out)],
        ["correlate", *_corpus_argv(corpus_dir), "--discipline", "synthetic",
         "--preset", "rae2008",
         "--pairs", "s:h_2008,s_prime:h_2008,s_output:h_2008,s:i", "--out", str(out)],
        ["rank", *_corpus_argv(corpus_dir), "--discipline", "synthetic",
         "--window", "2001:2007", "--measure", "h_2014", "--baseline", "h_2008",
         "--out", str(out)],
    ]
    for argv in steps:
        assert main(argv) == 0, argv
    elapsed = time.perf_counter() - start

    expected_headers = {
        "hseries.csv": ["institution", "discipline", "window_start", "window_end",
                        "measurement_year", "h"],
        "scores.csv": ["institution", "discipline", "s", "s_prime", "s_output",
                       "strength", "nci"],
        "correlations.csv": ["discipline", "x", "y", "n", "pearson_r", "p_pearson",
                             "sig_pearson", "spearman_rho", "p_spearman", "sig_spearman"],
        "corr_series.csv": ["discipline", "x", "y", "n", "pearson_r", "p_pearson",
                            "sig_pearson", "spearman_rho", "p_spearman", "sig_spearman",
                            "measurement_year"],
        "fig_points.csv": ["x_value", "y_value", "institution"],
        "rank_synthetic_h_2014.csv": ["rank", "institution", "value", "movement"],
    }
    schema_ok = True
    for fname, header in expected_headers.items():
        rows = list(csv.reader(io.StringIO((out / fname).read_text())))
        if rows[0] != header or len(rows) < 2:
            schema_ok = False
        for row in rows[1:]:
            if len(row) != len(header):
                schema_ok = False
    _report(
        "criterion 9 (end-to-end desk run)",
        elapsed < 10.0 and schema_ok,
        f"synth > hindex > score > correlate > rank on 40 institutions in "
        f"{elapsed:.2f}s; all declared files conform",
    )
