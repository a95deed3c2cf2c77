"""Year-to-year and cross-measure correlations.

Positions in a citation ranking are sticky: consecutive years correlate
near unity in both rank and value, more weakly for impact-factor rankings.
Across measures, the citation rate tracks the impact factor far better
than raw citations, and mean impact factor drifts gently downward with
article count.
"""

from citemetrics import (
    Measure,
    binned_trend,
    correlation_matrix,
    cross_measure_correlation,
    dynamic_correlation,
    set_overlap,
)
from citemetrics.synthgen import build_fixture

# Strength of year-to-year ordering for both rankings.
for profile, field in (("sci_set_i", Measure.CITATIONS),
                       ("sci_set_ii", Measure.IMPACT_FACTOR)):
    a = build_fixture(profile, 2005)
    b = build_fixture(profile, 2006)
    _, common = set_overlap(a, b)
    rank_r = dynamic_correlation(a, b, Measure.RANK).r_value
    value_r = dynamic_correlation(a, b, field).r_value
    print(f"{profile} 2005~2006: {common} common journals, "
          f"rank R = {rank_r:.3f}, value R = {value_r:.3f}")

# All-pairs matrix over a span of years (citations basis).
sets = [build_fixture("sci_set_i", year) for year in range(2004, 2008)]
years, cells = correlation_matrix(sets, Measure.RANK)
print("\nrank-correlation matrix (citations basis):")
header = "      " + "  ".join(f"{y}" for y in years)
print(header)
for yi in years:
    row = "  ".join(f"{cells[(yi, yj)].r_value:.3f}" for yj in years)
    print(f"{yi}  {row}")

# The rate is a per-article measure like the impact factor, so they
# correlate; raw citation totals do not track the rate nearly as well.
set_i = build_fixture("sci_set_i", 2005)
set_ii = build_fixture("sci_set_ii", 2005)
r_if = cross_measure_correlation(set_i, Measure.IMPACT_FACTOR, Measure.RATE)
r_n = cross_measure_correlation(set_ii, Measure.CITATIONS, Measure.RATE)
print(f"\nIF vs rate within the citation ranking:   R = {r_if.r_value:.4f}")
print(f"citations vs rate within the IF ranking:  R = {r_n.r_value:.4f}")

# Mean impact factor over article-count bins.
xs, ys = set_ii.column("articles"), set_ii.column("if")
print("\nmean IF per article-count bin:")
for center, mean, stderr in binned_trend(xs, ys, n_bins=8):
    print(f"  N ~ {center:7.0f}: <I> = {mean:6.2f} ± {stderr:.2f}")
