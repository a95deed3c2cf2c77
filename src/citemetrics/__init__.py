"""Journal citation statistics: indices, rank laws, distribution fits, correlations.

Each public name loads its module on first use (PEP 562), so ``import
citemetrics`` loads no numpy and ``python -m citemetrics.cli`` reaches the
command line module before numpy loads.
"""

from importlib import import_module

__version__ = "0.1.0"

# Public name -> the module that defines it.
_MODULE_OF = {
    name: module
    for module, names in {
        "errors": "CitemetricsError FitConvergenceError ValidationError WorkspaceError",
        "model": "Basis Discipline FitMethod FitResult FixtureProfile JournalTable Measure "
                 "RankedSet build_ranked_set",
        "indices": "RawCounts annual_citations citation_rate derive_rates impact_factor",
        "ingest": "load_dataset parse_csv read_manifest store_dataset write_csv",
        "rankstats": "RankSeries SeriesLabel rank_scatter rank_series scale_by_mean set_overlap "
                     "zipf_fit",
        "distfit": "EmpiricalDistribution GumbelParams Scaling empirical_pdf gumbel_cdf "
                   "gumbel_curve_ks gumbel_fit gumbel_log_pdf ks_critical_value ks_statistic "
                   "pareto_tail_fit pdf_peak_location zipf_pareto_predict",
        "correlate": "CorrelationReport Transform binned_trend correlation_matrix "
                     "cross_measure_correlation dynamic_correlation pearson",
        "synthgen": "build_fixture fixture_metadata sample_gumbel_log sample_pareto",
    }.items()
    for name in names.split()
}
__all__ = list(_MODULE_OF)


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    return value
