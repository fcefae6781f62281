"""Power side-channel acquisition and analysis.

Implements the attacker's analysis of the power channel.  Acquisition goes
through the one attacker instrument, :class:`~repro.attacks.oracle.Oracle`
(instrument noise, query budget and accounting); on top of it this package
recovers the per-column conductance sums ``G_j`` via basis-vector probing
(Section II-B of the paper, with an optional acquisition ADC), estimates
them from arbitrary query sets, and locates the largest column 1-norm with
fewer probes than inputs (the search strategies sketched at the end of
Section III).
"""

from repro.sidechannel.coresident import (
    CoResidentEstimate,
    CoResidentTrace,
    estimate_victim_norms,
    run_coresident_attack,
    visible_ticks,
)
from repro.attacks.oracle import QueryBudgetExceeded
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
