"""Query-efficient search for the input with the largest column 1-norm.

The end of Section III notes that probing every input costs N queries, and
that when the 1-norm map is spatially smooth (MNIST) the maximum could be
located with fewer queries using standard search strategies, whereas a
rapidly varying map (CIFAR-10) makes that hard.  This module implements the
strategies needed to study that trade-off:

* :func:`exhaustive_search` — probe everything (the baseline, always correct).
* :func:`random_subset_search` — probe a random subset of the inputs.
* :func:`greedy_neighbourhood_search` — hill-climb over the image grid from a
  few random restarts, exploiting smoothness.
* :func:`coarse_to_fine_search` — probe a coarse grid, then refine around the
  best coarse cell.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence, Tuple

import numpy as np

from repro.sidechannel.probing import ColumnNormProber
from repro.utils.rng import RandomState, as_rng
from repro.utils.validation import check_positive_int


@dataclass
class SearchResult:
    """Outcome of a max-column-norm search.

    Attributes
    ----------
    best_index:
        Flat input index believed to carry the largest column 1-norm.
    best_value:
        The conductance sum measured at that index.
    queries_used:
        Number of power queries spent.
    probed_indices:
        All indices that were probed during the search.
    """

    best_index: int
    best_value: float
    queries_used: int
    probed_indices: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.probed_indices = np.asarray(self.probed_indices, dtype=int)


def _probe(prober: ColumnNormProber, indices: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
    """Probe indices, returning (indices, values)."""
    result = prober.probe_indices(indices)
    return result.indices, result.column_sums


def exhaustive_search(prober: ColumnNormProber) -> SearchResult:
    """Probe every input column and return the maximum (N queries)."""
    result = prober.probe_all()
    return SearchResult(
        best_index=result.argmax(),
        best_value=float(result.column_sums.max()),
        queries_used=result.queries_used,
        probed_indices=result.indices,
        metadata={"strategy": "exhaustive"},
    )


def random_subset_search(
    prober: ColumnNormProber,
    budget: int,
    *,
    random_state: RandomState = None,
) -> SearchResult:
    """Probe a uniformly random subset of ``budget`` columns."""
    check_positive_int(budget, "budget")
    budget = min(budget, prober.n_inputs)
    rng = as_rng(random_state)
    indices = rng.choice(prober.n_inputs, size=budget, replace=False)
    probed_idx, values = _probe(prober, indices)
    best = int(np.argmax(values))
    return SearchResult(
        best_index=int(probed_idx[best]),
        best_value=float(values[best]),
        queries_used=len(probed_idx),
        probed_indices=probed_idx,
        metadata={"strategy": "random_subset", "budget": budget},
    )


def _grid_neighbours(index: int, image_shape: Tuple[int, int]) -> list[int]:
    """4-connected neighbours of a flat index in an image grid."""
    height, width = image_shape
    row, col = divmod(index, width)
    neighbours = []
    for d_row, d_col in ((-1, 0), (1, 0), (0, -1), (0, 1)):
        n_row, n_col = row + d_row, col + d_col
        if 0 <= n_row < height and 0 <= n_col < width:
            neighbours.append(n_row * width + n_col)
    return neighbours


def greedy_neighbourhood_search(
    prober: ColumnNormProber,
    image_shape: Tuple[int, int],
    *,
    budget: int = 100,
    n_restarts: int = 4,
    random_state: RandomState = None,
) -> SearchResult:
    """Hill-climb over the image grid from random restarts.

    Effective when the 1-norm map changes smoothly over the image plane (the
    MNIST-like case); much less effective on rapidly varying maps.
    """
    check_positive_int(budget, "budget")
    check_positive_int(n_restarts, "n_restarts")
    height, width = image_shape
    if height * width != prober.n_inputs:
        raise ValueError(
            f"image_shape {image_shape} does not cover {prober.n_inputs} inputs"
        )
    rng = as_rng(random_state)

    known: dict[int, float] = {}
    queries_before = prober.oracle.queries_used

    def value_of(indices: list[int]) -> None:
        """Probe any indices not yet measured (respecting the budget)."""
        unknown = [i for i in indices if i not in known]
        remaining = budget - (prober.oracle.queries_used - queries_before)
        unknown = unknown[: max(0, remaining)]
        if unknown:
            probed_idx, values = _probe(prober, unknown)
            known.update(dict(zip(probed_idx.tolist(), values.tolist())))

    starts = rng.choice(prober.n_inputs, size=min(n_restarts, prober.n_inputs), replace=False)
    value_of(list(starts))
    for start in starts:
        current = int(start)
        while True:
            if prober.oracle.queries_used - queries_before >= budget:
                break
            neighbours = _grid_neighbours(current, (height, width))
            value_of(neighbours)
            candidates = [n for n in neighbours if n in known]
            if not candidates:
                break
            best_neighbour = max(candidates, key=lambda n: known[n])
            if known.get(best_neighbour, -np.inf) > known.get(current, -np.inf):
                current = best_neighbour
            else:
                break

    best_index = max(known, key=known.get)
    return SearchResult(
        best_index=int(best_index),
        best_value=float(known[best_index]),
        queries_used=prober.oracle.queries_used - queries_before,
        probed_indices=np.asarray(sorted(known), dtype=int),
        metadata={"strategy": "greedy_neighbourhood", "budget": budget, "n_restarts": n_restarts},
    )


def coarse_to_fine_search(
    prober: ColumnNormProber,
    image_shape: Tuple[int, int],
    *,
    coarse_stride: int = 4,
    refine_radius: int = 2,
) -> SearchResult:
    """Probe a coarse grid, then densely refine around the best coarse point."""
    check_positive_int(coarse_stride, "coarse_stride")
    check_positive_int(refine_radius, "refine_radius")
    height, width = image_shape
    if height * width != prober.n_inputs:
        raise ValueError(
            f"image_shape {image_shape} does not cover {prober.n_inputs} inputs"
        )
    queries_before = prober.oracle.queries_used

    coarse_rows = np.arange(coarse_stride // 2, height, coarse_stride)
    coarse_cols = np.arange(coarse_stride // 2, width, coarse_stride)
    coarse_indices = [int(r * width + c) for r in coarse_rows for c in coarse_cols]
    probed_idx, values = _probe(prober, coarse_indices)
    best_flat = int(probed_idx[int(np.argmax(values))])
    best_row, best_col = divmod(best_flat, width)

    refine_indices = []
    for row in range(max(0, best_row - refine_radius), min(height, best_row + refine_radius + 1)):
        for col in range(max(0, best_col - refine_radius), min(width, best_col + refine_radius + 1)):
            index = row * width + col
            if index not in set(probed_idx.tolist()):
                refine_indices.append(index)
    all_indices = probed_idx.tolist()
    all_values = values.tolist()
    if refine_indices:
        refined_idx, refined_values = _probe(prober, refine_indices)
        all_indices.extend(refined_idx.tolist())
        all_values.extend(refined_values.tolist())

    best = int(np.argmax(all_values))
    return SearchResult(
        best_index=int(all_indices[best]),
        best_value=float(all_values[best]),
        queries_used=prober.oracle.queries_used - queries_before,
        probed_indices=np.asarray(sorted(all_indices), dtype=int),
        metadata={
            "strategy": "coarse_to_fine",
            "coarse_stride": coarse_stride,
            "refine_radius": refine_radius,
        },
    )
