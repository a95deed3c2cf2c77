"""Journal citation statistics: indices, rank laws, distribution fits, correlations."""

from .errors import (
    CitemetricsError,
    FitConvergenceError,
    ValidationError,
    WorkspaceError,
)
from .model import (
    Basis,
    Discipline,
    FitMethod,
    FitResult,
    JournalYearRecord,
    Measure,
    RankedSet,
    build_ranked_set,
)
from .indices import (
    RawCounts,
    annual_citations,
    citation_rate,
    derive_rates,
    impact_factor,
)
from .ingest import load_dataset, parse_csv, read_manifest, store_dataset, write_csv
from .rankstats import (
    RankSeries,
    SeriesLabel,
    binned_rank_average,
    rank_scatter,
    rank_series,
    scale_by_mean,
    set_overlap,
    zipf_fit,
)
from .distfit import (
    EmpiricalDistribution,
    GumbelParams,
    Scaling,
    empirical_pdf,
    gumbel_cdf,
    gumbel_curve_ks,
    gumbel_fit,
    gumbel_log_pdf,
    ks_critical_value,
    ks_statistic,
    ks_statistic_samples,
    pareto_tail_fit,
    pdf_peak_location,
    zipf_pareto_predict,
)
from .correlate import (
    CorrelationReport,
    Transform,
    binned_trend,
    correlation_matrix,
    cross_measure_correlation,
    dynamic_correlation,
    pearson,
)
from .synthgen import (
    FixtureProfile,
    build_fixture,
    fixture_metadata,
    sample_gumbel_log,
    sample_pareto,
)

__version__ = "0.1.0"
