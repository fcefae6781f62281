"""The co-resident cross-tenant attacker on the coalescing query service.

PR 5–8 built a multi-tenant service in which requests from *different*
tenants coalesce into one fused crossbar traversal.  The paper's side
channel — the total supply current of a traversal — therefore becomes a
*shared* observable: a tick's rail power is the sum over every batch-mate's
rows, so an attacker co-resident with a victim tenant can learn about the
victim's traffic from the rail even though its own API responses only ever
describe its own rows.

Threat model
------------
* The attacker rents a tenant on the same service as the victim and holds a
  probe on the accelerator's supply rail, recording one aggregate power
  value per dispatched tick (the
  :class:`~repro.service.coalescer.TickTrace` ledger).  Under
  ``tile-isolated`` placement each tenant's ticks run on its own tile bank
  with an electrically disjoint rail, so the attacker's probe only sees
  ticks on banks it can reach (:meth:`TickTrace.visible_to`).
* The attacker chooses its own probe inputs and submits them through the
  service, so under ``shared`` placement they coalesce with victim rows.
  It knows its own rows exactly and can subtract their contribution from
  any shared tick total.
* Profiling assumption (standard for side-channel evaluation): the victim's
  submitted inputs are known to the attacker.  What the attacker does *not*
  know — the secret — is the victim model's weight-column 1-norms, which
  the rail leaks through ``i_tick = Σ_rows x · G``.

Each victim-bearing, attacker-visible tick yields one linear equation
``(Σ_rows x) · G = rail_power``; :func:`estimate_victim_norms` solves the
stacked system with ridge regression
(:func:`~repro.sidechannel.estimators.estimate_column_sums_ridge`).  The
placement policy controls how well conditioned that system is:

* ``shared`` — the attacker floods single-row probes so every victim row is
  pinned in a small mixed tick; after subtracting its own known
  contribution it gets near per-row victim equations (fine-grained, well
  conditioned).
* ``partitioned`` — no mixed ticks; victim rows aggregate into whole-tick
  sums (few, coarse equations — the estimate degrades).
* ``tile-isolated`` — victim ticks are invisible to the attacker's probe;
  no equations exist and no estimate can be formed.
* ``noise_budget`` — the per-tick dummy draw jams every equation's
  right-hand side, degrading the estimate smoothly with the budget.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from functools import partial
from itertools import islice
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.service.coalescer import QueryService, TickTrace
from repro.sidechannel.estimators import estimate_column_sums_ridge
from repro.utils.results import compact_repr
from repro.utils.validation import check_non_negative_int


@dataclass(frozen=True, repr=False)
class CoResidentTrace:
    """Everything the co-resident attacker recorded during one attack run.

    Attributes
    ----------
    ticks:
        The rail ledger entries *visible to the attacker's probe* (bank
        filtering already applied), in dispatch order.
    rows_by_tick:
        ``tick_id -> (n_features,) summed input vector`` over every row the
        attacker can account for in that tick: its own chosen probes plus
        the profiled victim rows.
    victim_rows_by_tick:
        ``tick_id -> number of victim rows`` (victim-bearing ticks only).
    """

    ticks: Tuple[TickTrace, ...]
    rows_by_tick: Dict[int, np.ndarray]
    victim_rows_by_tick: Dict[int, int] = field(default_factory=dict)

    __repr__ = compact_repr

    @property
    def n_mixed_ticks(self) -> int:
        """Visible ticks carrying both victim rows and other tenants' rows."""
        return sum(
            1
            for tick in self.ticks
            if tick.tick_id in self.victim_rows_by_tick and len(tick.tenants) > 1
        )

    @property
    def n_victim_ticks(self) -> int:
        """Visible ticks carrying at least one victim row."""
        return len(self.victim_rows_by_tick)


@dataclass(frozen=True)
class CoResidentEstimate:
    """Outcome of the cross-tenant column-norm estimation.

    ``column_norms`` is ``None`` when the attacker observed no
    victim-bearing tick at all (tile isolation): there is no equation to
    solve and no attack can be mounted from this channel.
    """

    column_norms: Optional[np.ndarray]
    n_equations: int
    n_mixed_ticks: int
    mean_victim_rows_per_equation: float

    @property
    def mounted(self) -> bool:
        """Whether the channel produced any estimate to attack with."""
        return self.column_norms is not None


def visible_ticks(
    traces: Sequence[TickTrace], tenant: Optional[str]
) -> List[TickTrace]:
    """The ledger entries ``tenant``'s physical rail probe can observe.

    On the shared bank (``bank is None``) every tick is observable; under
    ``tile-isolated`` placement only ticks on the tenant's own bank are.
    Ticks without a power observable are useless to the probe and dropped.
    """
    return [
        tick
        for tick in traces
        if tick.visible_to(tenant) and tick.rail_power is not None
    ]


def estimate_victim_norms(
    trace: CoResidentTrace,
    n_features: int,
    *,
    regularization: float = 1e-3,
) -> CoResidentEstimate:
    """Solve the stacked shared-tick equations for the victim column norms.

    One equation per visible victim-bearing tick:
    ``(Σ_rows x) · G = rail_power`` — the attacker's own rows are part of
    the known left-hand side, which is exactly "subtracting its own
    contribution" expressed as a joint solve.  The system is solved with
    ridge regression (stable under aggregation and rail noise) and clipped
    at zero, since column conductance sums are physically non-negative.
    """
    designs: List[np.ndarray] = []
    targets: List[float] = []
    victim_rows = 0
    for tick in trace.ticks:
        if tick.tick_id not in trace.victim_rows_by_tick:
            continue  # attacker-only tick: nothing cross-tenant to learn
        summed = trace.rows_by_tick.get(tick.tick_id)
        if summed is None:
            continue
        designs.append(np.asarray(summed, dtype=float))
        targets.append(float(tick.rail_power))
        victim_rows += trace.victim_rows_by_tick[tick.tick_id]
    if not designs:
        return CoResidentEstimate(
            column_norms=None,
            n_equations=0,
            n_mixed_ticks=trace.n_mixed_ticks,
            mean_victim_rows_per_equation=0.0,
        )
    estimate = estimate_column_sums_ridge(
        np.vstack(designs),
        np.asarray(targets, dtype=float),
        regularization=regularization,
    )
    return CoResidentEstimate(
        column_norms=np.clip(estimate, 0.0, None),
        n_equations=len(designs),
        n_mixed_ticks=trace.n_mixed_ticks,
        mean_victim_rows_per_equation=victim_rows / len(designs),
    )


async def run_coresident_attack(
    service: QueryService,
    victim_inputs: np.ndarray,
    probe_inputs: Iterable[np.ndarray],
    *,
    flood_ratio: int,
    victim: str = "victim",
    attacker: str = "attacker",
) -> CoResidentTrace:
    """Drive one co-residency round through a started :class:`QueryService`.

    Victim traffic and attacker probes are enqueued as interleaved
    single-row requests by this one coroutine, under the service's
    backpressure: ``flood_ratio`` probes ahead of every victim row (the
    attacker times its probes against the victim's request stream).  Under
    shared placement the flood dilutes each tick down to ~one victim row,
    pinning fine-grained equations; under tenant-grouped placement it peels
    off into attacker-only ticks and buys nothing, which is exactly the
    defence's point.

    ``probe_inputs`` is any iterable of ``(n_features,)`` rows and is drawn
    lazily, ``flood_ratio`` rows at a time; it must supply ``flood_ratio``
    rows per victim row (a :class:`ValueError` is raised when it runs out).
    Each request's ``on_dispatch`` observer adds its row into its tick's
    known-row sum as the tick dispatches, and a done-callback reads its
    outcome, so the round holds the queued requests and one tick's
    responses, never the whole flood.  When a tick fails, the round raises
    the exception of the earliest-enqueued failed request once every
    request has settled.  A round whose first tick the bounded ledger has
    already evicted (:data:`~repro.service.coalescer.TICK_LEDGER_TICKS`)
    raises :class:`RuntimeError` rather than return a partial view.

    Returns the attacker's view: the bank-filtered rail ledger plus the
    per-tick known-row sums.  The service is *not* stopped — callers own
    its lifecycle.
    """
    victim_inputs = np.atleast_2d(np.asarray(victim_inputs, dtype=float))
    flood_ratio = check_non_negative_int(flood_ratio, "flood_ratio")
    probes = iter(probe_inputs)
    # Tick ids are 1-based and dispatch in order; the ledger is bounded, so
    # the round's ticks are picked by id, not by position.
    first_tick = service.stats.n_ticks + 1

    sums: Dict[int, np.ndarray] = {}
    victim_counts: Dict[int, int] = {}

    def observe(row: np.ndarray, is_victim: bool, tick_id: int) -> None:
        # ``_dispatch`` calls observers in request order within a tick, so
        # each sum accumulates its rows in the order they were enqueued.
        if tick_id not in sums:
            sums[tick_id] = np.zeros(row.shape, dtype=float)
        sums[tick_id] += row
        if is_victim:
            victim_counts[tick_id] = victim_counts.get(tick_id, 0) + 1

    unsettled = len(victim_inputs) * (flood_ratio + 1)
    settled = asyncio.get_running_loop().create_future()
    failure: Optional[Tuple[int, BaseException]] = None

    def on_settled(sequence: int, future: asyncio.Future) -> None:
        nonlocal unsettled, failure
        # Reading the outcome retrieves it, so no failed request's error
        # goes unreported when the round raises another request's.
        error = asyncio.CancelledError() if future.cancelled() else future.exception()
        if error is not None and (failure is None or sequence < failure[0]):
            failure = (sequence, error)
        unsettled -= 1
        if not unsettled and not settled.done():
            settled.set_result(None)

    def requests():
        for victim_row in victim_inputs:
            flood = list(islice(probes, flood_ratio))
            if len(flood) < flood_ratio:
                raise ValueError(
                    f"probe_inputs ran out: {flood_ratio} probes are needed "
                    f"ahead of each of the {len(victim_inputs)} victim rows"
                )
            for row in flood:
                yield attacker, np.asarray(row, dtype=float)
            yield victim, victim_row

    for sequence, (tenant, row) in enumerate(requests()):
        _, future = await service.enqueue(
            row[np.newaxis, :],
            tenant=tenant,
            on_dispatch=partial(observe, row, tenant == victim),
        )
        future.add_done_callback(partial(on_settled, sequence))
    if len(victim_inputs):
        await settled
    if failure is not None:
        raise failure[1]

    ledger = service.tick_trace
    if ledger and ledger[0].tick_id > first_tick:
        raise RuntimeError(
            f"the tick ledger keeps the newest {ledger.maxlen} ticks and has "
            f"evicted this round's first tick ({first_tick})"
        )
    ticks = visible_ticks(
        [tick for tick in ledger if tick.tick_id >= first_tick], attacker
    )
    visible_ids = {tick.tick_id for tick in ticks}
    return CoResidentTrace(
        ticks=tuple(ticks),
        rows_by_tick={
            tick_id: row for tick_id, row in sums.items() if tick_id in visible_ids
        },
        victim_rows_by_tick={
            tick_id: count
            for tick_id, count in victim_counts.items()
            if tick_id in visible_ids
        },
    )
