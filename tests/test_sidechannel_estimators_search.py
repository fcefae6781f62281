"""Tests for repro.sidechannel.estimators and repro.sidechannel.search."""

import numpy as np
import pytest

from repro.attacks.oracle import Oracle
from repro.crossbar import CrossbarAccelerator
from repro.crossbar.array import CrossbarArray
from repro.nn.network import SingleLayerNetwork
from repro.sidechannel.estimators import estimate_column_sums_ridge
from repro.sidechannel.probing import ColumnNormProber
from repro.sidechannel.search import (
    coarse_to_fine_search,
    exhaustive_search,
    greedy_neighbourhood_search,
    random_subset_search,
)


def make_linear_system(rng, n_queries, n_features, noise=0.0):
    true_sums = np.abs(rng.normal(size=n_features)) + 0.1
    queries = rng.uniform(0, 1, size=(n_queries, n_features))
    currents = queries @ true_sums
    if noise:
        currents = currents + rng.normal(0, noise, size=n_queries)
    return queries, currents, true_sums


class TestEstimators:
    def test_unregularized_ridge_recovers_basis_probe_sums(self, rng):
        array = CrossbarArray(rng.normal(size=(4, 9)), random_state=0)
        probes = np.eye(9)
        estimate = estimate_column_sums_ridge(
            probes, array.traverse(probes)[1], regularization=0.0
        )
        np.testing.assert_allclose(estimate, array.column_conductance_sums, atol=1e-12)

    def test_unregularized_ridge_is_exact_on_random_queries(self, rng):
        queries, currents, true_sums = make_linear_system(rng, 40, 20)
        estimate = estimate_column_sums_ridge(queries, currents, regularization=0.0)
        np.testing.assert_allclose(estimate, true_sums, rtol=1e-8)

    def test_regularization_shrinks_the_estimate(self, rng):
        queries, currents, _ = make_linear_system(rng, 30, 10)
        norms = [
            np.linalg.norm(estimate_column_sums_ridge(queries, currents, regularization=lam))
            for lam in (0.0, 1e-2, 1.0, 100.0)
        ]
        assert all(smaller < larger for larger, smaller in zip(norms, norms[1:]))

    @pytest.mark.parametrize("shape", [(6,), (2, 3, 3)], ids=["vector", "three-dims"])
    def test_queries_must_be_a_matrix(self, shape, rng):
        with pytest.raises(ValueError):
            estimate_column_sums_ridge(rng.uniform(size=shape), rng.uniform(size=shape[0]))

    def test_ridge_is_stable_with_noise(self, rng):
        queries, currents, true_sums = make_linear_system(rng, 60, 20, noise=0.05)
        estimate = estimate_column_sums_ridge(queries, currents, regularization=1e-2)
        relative_error = np.linalg.norm(true_sums - estimate) / np.linalg.norm(true_sums)
        assert relative_error < 0.2

    def test_ridge_regularization_validation(self, rng):
        queries, currents, _ = make_linear_system(rng, 10, 5)
        with pytest.raises(ValueError):
            estimate_column_sums_ridge(queries, currents, regularization=-1.0)

    def test_shape_validation(self, rng):
        with pytest.raises(ValueError):
            estimate_column_sums_ridge(rng.uniform(size=(5, 3)), rng.uniform(size=4))


def make_prober_with_image(rng, height, width, smooth=True, seed=0):
    """Build a crossbar whose column 1-norm map is smooth or rough."""
    n = height * width
    if smooth:
        yy, xx = np.mgrid[0:height, 0:width]
        profile = np.exp(-(((yy - height / 2) ** 2 + (xx - width / 2) ** 2) / (2 * (height / 4) ** 2)))
    else:
        profile = rng.uniform(0.1, 1.0, size=(height, width))
    weights = rng.normal(size=(5, n)) * profile.ravel()[np.newaxis, :]
    network = SingleLayerNetwork(n, 5, random_state=0)
    network.weights = weights
    accelerator = CrossbarAccelerator(network, random_state=seed)
    (array,) = accelerator.physical_arrays
    prober = ColumnNormProber(Oracle(accelerator, random_state=seed), n)
    true_best = int(np.argmax(array.column_conductance_sums))
    return prober, true_best


class TestSearchStrategies:
    def test_exhaustive_finds_true_maximum(self, rng):
        prober, true_best = make_prober_with_image(rng, 8, 8)
        result = exhaustive_search(prober)
        assert result.best_index == true_best
        assert result.queries_used == 64

    def test_random_subset_respects_budget(self, rng):
        prober, _ = make_prober_with_image(rng, 8, 8)
        result = random_subset_search(prober, budget=20, random_state=0)
        assert result.queries_used == 20
        assert len(result.probed_indices) == 20

    def test_random_subset_budget_clipped_to_n(self, rng):
        prober, true_best = make_prober_with_image(rng, 4, 4)
        result = random_subset_search(prober, budget=100, random_state=0)
        assert result.queries_used == 16
        assert result.best_index == true_best

    def test_greedy_search_on_smooth_map_beats_random(self, rng):
        """The paper's smoothness argument: hill-climbing works when the
        1-norm map changes gradually over the image plane."""
        found_greedy, found_random = 0, 0
        for seed in range(5):
            local_rng = np.random.default_rng(seed)
            prober_g, true_best = make_prober_with_image(local_rng, 12, 12, smooth=True, seed=seed)
            greedy = greedy_neighbourhood_search(
                prober_g, (12, 12), budget=50, n_restarts=4, random_state=seed
            )
            prober_r, _ = make_prober_with_image(
                np.random.default_rng(seed), 12, 12, smooth=True, seed=seed
            )
            random_result = random_subset_search(prober_r, budget=50, random_state=seed)
            found_greedy += int(greedy.best_index == true_best)
            found_random += int(random_result.best_index == true_best)
        assert found_greedy >= found_random

    def test_greedy_respects_budget(self, rng):
        prober, _ = make_prober_with_image(rng, 10, 10)
        result = greedy_neighbourhood_search(prober, (10, 10), budget=30, random_state=0)
        assert result.queries_used <= 30 + 4  # neighbour batch may finish the last step

    def test_greedy_shape_mismatch(self, rng):
        prober, _ = make_prober_with_image(rng, 6, 6)
        with pytest.raises(ValueError):
            greedy_neighbourhood_search(prober, (5, 5), budget=10)

    def test_coarse_to_fine_on_smooth_map(self, rng):
        prober, true_best = make_prober_with_image(rng, 16, 16, smooth=True)
        result = coarse_to_fine_search(prober, (16, 16), coarse_stride=4, refine_radius=3)
        assert result.queries_used < 16 * 16
        # On a smooth unimodal map the refined search should land at (or next
        # to) the true maximum.
        best_row, best_col = divmod(result.best_index, 16)
        true_row, true_col = divmod(true_best, 16)
        assert abs(best_row - true_row) <= 1 and abs(best_col - true_col) <= 1

    def test_coarse_to_fine_shape_mismatch(self, rng):
        prober, _ = make_prober_with_image(rng, 6, 6)
        with pytest.raises(ValueError):
            coarse_to_fine_search(prober, (7, 7))

    def test_search_results_record_strategy(self, rng):
        prober, _ = make_prober_with_image(rng, 6, 6)
        assert exhaustive_search(prober).metadata["strategy"] == "exhaustive"
