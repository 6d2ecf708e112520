"""Seeded synthetic corpora.

The generator draws everything from one ``random.Random(seed)`` through
``random()`` alone, so a seed fully determines the corpus.  ``quality_link`` couples a latent institutional
quality to both citation rates and graded profiles: at 0 the two families
of measures decorrelate, at 1 they rank institutions almost identically.
"""

from statistics import fmean

from refh import (
    Lognormal,
    PublicationWindow,
    SynthConfig,
    generate,
    group_metrics,
    pearson,
    score_profile,
    spearman,
)

window = PublicationWindow(2001, 2007)


def make(seed, quality_link, n=30):
    return generate(
        SynthConfig(
            seed=seed,
            n_institutions=n,
            papers_per_institution=(20, 40),
            window=window,
            citation_model=Lognormal(1.8, 0.5),
            accrual=0.35,
            quality_link=quality_link,
        )
    )


corpus = make(seed=7, quality_link=0.7)
print("publications:", len(corpus.publications))
print("profiles:", len(corpus.profiles))
print("same seed reproduces the corpus:", corpus == make(seed=7, quality_link=0.7))

# score-vs-h correlation as the quality link varies
def s_vs_h(corpus):
    metrics = {m.institution: m for m in group_metrics(corpus, "GB", window, "synthetic", [2008])}
    xs, ys = [], []
    for p in corpus.profiles:
        m = metrics.get(p.institution)
        if m is not None:
            xs.append(score_profile(p).s)
            ys.append(m.h_by_year[2008])
    return xs, ys


print("\nquality_link   pearson r   spearman rho")
for link in (0.0, 0.5, 1.0):
    rs, rhos = [], []
    for seed in range(5):
        xs, ys = s_vs_h(make(seed=100 + seed, quality_link=link))
        rs.append(pearson(xs, ys))
        rhos.append(spearman(xs, ys))
    print(f"{link:>12.1f}   {fmean(rs):>9.3f}   {fmean(rhos):>12.3f}")
