"""Correlating peer-review scores with citation measures.

Pearson r sees the values, Spearman rho sees only the ranks (with tied
values given fractional ranks).  Significance is flagged at alpha = 0.05
via the t approximation.  A correlation series tracks one score against
h measured in successive years, answering "does waiting for citations to
accumulate make the citation side more informative?"
"""

from refh import (
    Lognormal,
    PublicationWindow,
    SynthConfig,
    correlation_series,
    correlation_table,
    generate,
    group_metrics,
    score_profile,
)

window = PublicationWindow(2001, 2007)
corpus = generate(
    SynthConfig(
        seed=11,
        n_institutions=35,
        papers_per_institution=(25, 45),
        window=window,
        citation_model=Lognormal(1.8, 0.5),
        accrual=0.35,
        quality_link=0.8,
    )
)

years = list(range(2008, 2015))
metrics = group_metrics(corpus, "GB", window, "synthetic", years)
scores = [score_profile(p) for p in corpus.profiles]

# one row per measure pair, like a published coefficient table; the last
# pair sets the two citation measures (h and the supplied nci) side by side
pairs = [("s", "h_2008"), ("s_prime", "h_2008"), ("s_output", "h_2008"), ("s", "i"),
         ("h_2008", "i")]
print(f"{'pair':>22} {'n':>4} {'r':>8} {'rho':>8}  significant?")
for report in correlation_table(scores, metrics, pairs):
    print(
        f"{report.measure_x + ' vs ' + report.measure_y:>22} {report.n:>4}"
        f" {report.pearson_r:>8.3f} {report.spearman_rho:>8.3f}"
        f"  r: {report.significant_pearson}, rho: {report.significant_spearman}"
    )

# the per-year series, with the s-vs-nci line as a fixed comparison point
series = correlation_series(scores, metrics, "s", years)
print("\nyear   r(s, h_year)   rho(s, h_year)")
for year, report in series.by_year.items():
    print(f"{year}   {report.pearson_r:>12.3f}   {report.spearman_rho:>14.3f}")
if series.baseline is not None:
    print(
        f"s vs nci baseline: r = {series.baseline.pearson_r:.3f}, "
        f"rho = {series.baseline.spearman_rho:.3f}"
    )
