"""Temporal complex-network analytics for power-grid event logs.

Importing the package loads none of its modules: each public name below
is imported from its home module on first use (PEP 562), so a command
pays only for the modules it runs.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "communities": ("CommunityAssignment", "detect_communities", "modularity"),
    "degree_fit": ("Ccdf", "FitComparison", "FitResult", "build_ccdf", "compare_fits", "fit_model"),
    "evolution": (
        "CorrelationReport",
        "compute_timeseries",
        "correlate_with_line_count",
        "pearson",
    ),
    "generators": ("GeneratorSpec", "barabasi_albert", "erdos_renyi", "generate", "watts_strogatz"),
    "graphs": ("ComponentPartition", "GraphSnapshot", "build_snapshot", "connected_components", "to_edgelist"),
    "grid_log": (
        "EdgeRecord",
        "GridLogError",
        "NodeRecord",
        "TemporalGridLog",
        "active_elements",
        "line_count_series",
        "load_log",
        "parse_log",
    ),
    "metrics": (
        "METRICS_CSV_HEADER",
        "DegreeStats",
        "MetricsRecord",
        "average_path_length",
        "clustering_coefficient",
        "compute_metrics_record",
        "degree_stats",
        "diameter",
        "random_baselines",
        "small_world_sigma",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)


def __getattr__(name: str):
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this function
    return value
