"""Power side-channel acquisition and analysis.

Implements the attacker's measurement apparatus: acquiring total-current
traces from the crossbar (with optional measurement noise and query
accounting), recovering the per-column conductance sums ``G_j`` via
basis-vector probing (Section II-B of the paper), estimating them from
arbitrary query sets, and locating the largest column 1-norm with fewer
probes than inputs (the search strategies sketched at the end of Section III).
"""

from repro.sidechannel.coresident import (
    CoResidentEstimate,
    CoResidentTrace,
    estimate_victim_norms,
    run_coresident_attack,
    visible_ticks,
)
from repro.sidechannel.measurement import PowerMeasurement, QueryBudgetExceeded
from repro.sidechannel.probing import ColumnNormProber, ProbeResult
from repro.sidechannel.shardprobe import PerShardProber, ShardProbeResult
from repro.sidechannel.estimators import estimate_column_sums_ridge
from repro.sidechannel.search import (
    SearchResult,
    exhaustive_search,
    random_subset_search,
    greedy_neighbourhood_search,
    coarse_to_fine_search,
)

__all__ = [
    "CoResidentEstimate",
    "CoResidentTrace",
    "estimate_victim_norms",
    "run_coresident_attack",
    "visible_ticks",
    "PowerMeasurement",
    "QueryBudgetExceeded",
    "ColumnNormProber",
    "ProbeResult",
    "PerShardProber",
    "ShardProbeResult",
    "estimate_column_sums_ridge",
    "SearchResult",
    "exhaustive_search",
    "random_subset_search",
    "greedy_neighbourhood_search",
    "coarse_to_fine_search",
]
