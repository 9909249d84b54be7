"""Long-term binary freshness of flat and clustered gossip networks.

Exact values (closed forms plus a generic renewal recursion), event-driven
Monte Carlo validation, and a config-driven experiment runner.
"""

from .core import (
    DC_POLICIES,
    Clustered,
    Flat,
    FreshnessValue,
    GossipPolicy,
    NetworkSpec,
    Rates,
    per_stale_rate,
    validate,
)
from .analytic import (
    ClusteredBreakdown,
    RecursionTrace,
    closed_clustered,
    closed_flat,
    closed_sizes,
    clustered_freshness,
    clustered_profiles,
    divisors,
    optimal_cluster_size,
    oracle_flat,
    oracle_sizes,
    renewal_freshness,
)
from .simulator import (
    DecompositionReport,
    FreshnessEstimate,
    SimState,
    TrajectorySim,
    decomposition_check,
    estimate_freshness_cycles,
    estimate_freshness_time,
)
from .experiments import (
    ConfigError,
    ExperimentConfig,
    OptimalKReport,
    ResultRow,
    emit_plot_data,
    read_csv,
    report_optimal_k,
    run_experiment,
    write_csv,
)

__version__ = "0.1.0"

__all__ = [
    "DC_POLICIES",
    "Clustered",
    "ClusteredBreakdown",
    "ConfigError",
    "DecompositionReport",
    "ExperimentConfig",
    "Flat",
    "FreshnessEstimate",
    "FreshnessValue",
    "GossipPolicy",
    "NetworkSpec",
    "OptimalKReport",
    "Rates",
    "RecursionTrace",
    "ResultRow",
    "SimState",
    "TrajectorySim",
    "closed_clustered",
    "closed_flat",
    "closed_sizes",
    "clustered_freshness",
    "clustered_profiles",
    "decomposition_check",
    "divisors",
    "emit_plot_data",
    "estimate_freshness_cycles",
    "estimate_freshness_time",
    "optimal_cluster_size",
    "oracle_flat",
    "oracle_sizes",
    "per_stale_rate",
    "read_csv",
    "renewal_freshness",
    "report_optimal_k",
    "run_experiment",
    "validate",
    "write_csv",
]
