"""Property-based tests (hypothesis) on the library's core invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.analysis.correlation import pearson_correlation
from repro.crossbar.array import CrossbarArray
from repro.crossbar.mapping import ConductanceMapping, MappingScheme
from repro.datasets.transforms import from_one_hot, one_hot
from repro.nn.activations import ReLU, Softmax
from repro.nn.gradients import weight_column_norms
from repro.nn.losses import CategoricalCrossEntropy, MeanSquaredError

# Bounded float strategies keep the numerics well-conditioned.
finite_floats = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False)
small_shapes = st.tuples(st.integers(2, 6), st.integers(2, 8))


def weight_matrices(min_rows=2, max_rows=6, min_cols=2, max_cols=8):
    return small_shapes.flatmap(
        lambda shape: arrays(np.float64, shape, elements=finite_floats)
    )


class TestActivationProperties:
    @given(arrays(np.float64, (3, 5), elements=finite_floats))
    @settings(max_examples=40, deadline=None)
    def test_softmax_is_a_probability_distribution(self, logits):
        out = Softmax().forward(logits)
        assert np.all(out >= 0)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-9)

    @given(arrays(np.float64, (4, 6), elements=finite_floats))
    @settings(max_examples=40, deadline=None)
    def test_relu_idempotent_and_non_negative(self, x):
        relu = ReLU()
        once = relu.forward(x)
        assert np.all(once >= 0)
        np.testing.assert_array_equal(relu.forward(once), once)


class TestLossProperties:
    @given(
        arrays(np.float64, (5, 4), elements=finite_floats),
        arrays(np.float64, (5, 4), elements=finite_floats),
    )
    @settings(max_examples=40, deadline=None)
    def test_mse_non_negative_and_symmetric(self, a, b):
        loss = MeanSquaredError()
        assert loss.value(a, b) >= 0
        assert loss.value(a, b) == pytest.approx(loss.value(b, a))

    @given(arrays(np.float64, (4, 5), elements=finite_floats), st.integers(0, 4))
    @settings(max_examples=40, deadline=None)
    def test_cross_entropy_non_negative(self, logits, label):
        probabilities = Softmax().forward(logits)
        targets = np.tile(np.eye(5)[label], (4, 1))
        assert CategoricalCrossEntropy().value(probabilities, targets) >= 0


class TestOneHotProperties:
    @given(st.lists(st.integers(0, 9), min_size=1, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_one_hot_roundtrip(self, labels):
        labels = np.asarray(labels)
        encoded = one_hot(labels, 10)
        assert encoded.shape == (len(labels), 10)
        np.testing.assert_array_equal(encoded.sum(axis=1), 1.0)
        np.testing.assert_array_equal(from_one_hot(encoded), labels)


class TestCrossbarProperties:
    @given(weight_matrices())
    @settings(max_examples=30, deadline=None)
    def test_min_power_mapping_roundtrip(self, weights):
        mapping = ConductanceMapping()
        g_plus, g_minus = mapping.map(weights, random_state=0)
        assert np.all(g_plus >= 0) and np.all(g_minus >= 0)
        np.testing.assert_allclose(mapping.unmap(g_plus, g_minus, weights), weights, atol=1e-9)
        # at most one of the pair is non-zero per device under min-power
        assert np.all((g_plus == 0) | (g_minus == 0))

    @given(weight_matrices())
    @settings(max_examples=30, deadline=None)
    def test_column_sums_equal_scaled_1_norms(self, weights):
        mapping = ConductanceMapping()
        g_plus, g_minus = mapping.map(weights, random_state=0)
        sums = mapping.column_conductance_sums(g_plus, g_minus)
        scale = mapping.conductance_per_unit_weight(weights)
        np.testing.assert_allclose(sums, scale * np.abs(weights).sum(axis=0), atol=1e-9)

    @given(weight_matrices())
    @settings(max_examples=30, deadline=None)
    def test_balanced_mapping_leaks_nothing(self, weights):
        mapping = ConductanceMapping(scheme=MappingScheme.BALANCED)
        g_plus, g_minus = mapping.map(weights, random_state=0)
        sums = mapping.column_conductance_sums(g_plus, g_minus)
        np.testing.assert_allclose(sums, sums[0], atol=1e-9)

    @given(weight_matrices(), st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_total_current_linearity(self, weights, seed):
        """Eq. 5 is linear in the input voltages: i(a u + b v) = a i(u) + b i(v)."""
        array = CrossbarArray(weights, random_state=0)
        rng = np.random.default_rng(seed)
        u = rng.uniform(0, 1, size=weights.shape[1])
        v = rng.uniform(0, 1, size=weights.shape[1])
        _, (combined, at_u, at_v) = array.traverse(np.stack([0.3 * u + 0.6 * v, u, v]))
        separate = 0.3 * at_u + 0.6 * at_v
        assert combined == pytest.approx(separate, rel=1e-9, abs=1e-12)

    @given(weight_matrices())
    @settings(max_examples=30, deadline=None)
    def test_total_current_non_negative_for_non_negative_inputs(self, weights):
        array = CrossbarArray(weights, random_state=0)
        u = np.abs(weights[0]) / (np.abs(weights[0]).max() + 1e-9)
        assert array.traverse(u[np.newaxis])[1][0] >= -1e-12


class TestSideChannelProperties:
    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_basis_probing_solves_the_linear_system(self, seed):
        rng = np.random.default_rng(seed)
        weights = rng.normal(size=(4, 9))
        array = CrossbarArray(weights, random_state=0)
        probes = np.eye(9)
        _, currents = array.traverse(probes)
        # basis probes make the system the identity: each current is one G_j
        np.testing.assert_allclose(currents, array.column_conductance_sums, atol=1e-9)

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_column_norm_scale_invariance_of_correlation(self, seed):
        """The attack only needs the ordering: correlations are scale invariant."""
        rng = np.random.default_rng(seed)
        norms = np.abs(rng.normal(size=20)) + 0.01
        other = np.abs(rng.normal(size=20)) + 0.01
        original = pearson_correlation(norms, other)
        scaled = pearson_correlation(norms * 123.4, other)
        assert original == pytest.approx(scaled, abs=1e-12)

    @given(weight_matrices())
    @settings(max_examples=30, deadline=None)
    def test_weight_column_norms_triangle_inequality(self, weights):
        """||a + b||_1 <= ||a||_1 + ||b||_1 column-wise."""
        half = weights / 2.0
        combined = weight_column_norms(half + half)
        parts = weight_column_norms(half) + weight_column_norms(half)
        assert np.all(combined <= parts + 1e-9)
