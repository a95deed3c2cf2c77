"""The three citation measures, computed from raw counts.

A journal's impact factor divides recent citations by recent citable
articles; the annual total counts every citation received this year; the
annual citation rate divides this year's citations by this year's articles.
"""

from citemetrics import RawCounts, annual_citations, citation_rate, derive_rates, impact_factor
from citemetrics.synthgen import build_fixture

# Impact factor from the two-year window.
raw = RawCounts(
    cites_to_y_minus_1=5200,
    cites_to_y_minus_2=4800,
    articles_y_minus_1=2600,
    articles_y_minus_2=2400,
)
print(f"impact factor      I = {impact_factor(raw):.3f}")

# Annual citations as a plain sum over all papers ever published.
per_paper = [12, 0, 3, 41, 7, 0, 2]
print(f"annual citations   n = {annual_citations(per_paper)}")

# Citation rate: citations this year per article published this year.
print(f"citation rate      r = {citation_rate(154983, 5410):.3f}")

# Set-wide rates: journals without articles are dropped and reported.
fixture = build_fixture("sci_set_i", 2000)
derived = derive_rates(fixture)
print(f"\nfixture set: {len(derived.rates)} rates derived, "
      f"{len(derived.dropped)} journals dropped")
print(f"rank-1 journal {derived.ids[0]}: r = {derived.rates[0]:.2f}")
