"""Departmental h-index basics.

A department's h-index is the largest n such that n of its publications
have at least n citations each.  Measuring "at year Y" counts citations
to the end of Y-1, so the index can be computed immediately after a
publication window closes and only grows as later years are added.
"""

from refh import (
    Corpus,
    DisciplineMap,
    PublicationRecord,
    PublicationWindow,
    citations_to_end_of,
    compute_h,
    departmental_h,
    h_series,
)

# the raw definition, on a plain multiset of citation counts
print("h of [10, 5, 3, 2, 1] =", compute_h([10, 5, 3, 2, 1]))   # 3 papers with >= 3
print("h of [4, 4, 4, 4]    =", compute_h([4, 4, 4, 4]))        # all 4 papers with >= 4
print("h of []              =", compute_h([]))

# a tiny department: three papers published 2003-2005
papers = (
    PublicationRecord(
        pub_id="P1", pub_year=2003, country="GB",
        affiliations=frozenset({"Alpha"}), categories=frozenset({"Chemistry"}),
        citations_by_year={2004: 2, 2008: 3},
    ),
    PublicationRecord(
        pub_id="P2", pub_year=2004, country="GB",
        affiliations=frozenset({"Alpha"}), categories=frozenset({"Chemistry"}),
        citations_by_year={2005: 1, 2006: 1},
    ),
    PublicationRecord(
        pub_id="P3", pub_year=2005, country="GB",
        affiliations=frozenset({"Alpha"}), categories=frozenset({"Chemistry"}),
        citations_by_year={2006: 1},
    ),
)
corpus = Corpus(
    publications=papers,
    discipline_maps=(DisciplineMap("chemistry", frozenset({"Chemistry"})),),
)

# citation counts depend on the cutoff year
for cutoff in (2005, 2007, 2008):
    counts = [citations_to_end_of(p, cutoff) for p in papers]
    print(f"citations to end of {cutoff}: {counts}")

# the windowed departmental h: filter (country, window, discipline,
# institution), then apply the definition with the measurement-year cutoff
window = PublicationWindow(2001, 2007)
for year in (2008, 2009):
    h = departmental_h(corpus, "GB", window, "chemistry", "Alpha", year)
    print(f"h_{year} for Alpha = {h}")

# a measurement-year series is non-decreasing: citations only accumulate
series = h_series(corpus, "GB", window, "chemistry", "Alpha", list(range(2006, 2011)))
print("h series 2006-2010:", series.h_by_year)
