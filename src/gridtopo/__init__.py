"""Temporal complex-network analytics for power-grid event logs."""

from .communities import CommunityAssignment, detect_communities
from .degree_fit import Ccdf, FitComparison, FitResult, build_ccdf, compare_fits, fit_model
from .evolution import (
    CorrelationReport,
    MetricTimeSeries,
    SigmaCrossings,
    compute_metrics_record,
    compute_timeseries,
    correlate_with_line_count,
    pearson,
    small_world_transition,
)
from .generators import GeneratorSpec, barabasi_albert, erdos_renyi, generate, watts_strogatz
from .graphs import (
    ComponentPartition,
    GraphSnapshot,
    build_snapshot,
    connected_components,
    to_edgelist,
)
from .grid_log import (
    EdgeRecord,
    GridLogError,
    NodeRecord,
    TemporalGridLog,
    active_elements,
    line_count_series,
    load_log,
    parse_log,
)
from .metrics import (
    METRICS_CSV_HEADER,
    DegreeStats,
    MetricsRecord,
    average_path_length,
    clustering_coefficient,
    degree_stats,
    diameter,
    modularity,
    random_baselines,
    small_world_sigma,
)

__version__ = "0.1.0"
