"""Tests for repro.nn.initializers."""

import numpy as np

from repro.nn.initializers import XavierUniform, Zeros


class TestBasicInitializers:
    def test_zeros(self, rng):
        values = Zeros()((3, 4), rng)
        np.testing.assert_array_equal(values, np.zeros((3, 4)))


class TestVarianceScaling:
    def test_xavier_uniform_limit(self, rng):
        shape = (10, 40)
        limit = np.sqrt(6.0 / (10 + 40))
        values = XavierUniform()(shape, rng)
        assert np.all(np.abs(values) <= limit + 1e-12)


class TestDeterminism:
    def test_initialize_with_seed_is_deterministic(self):
        init = XavierUniform()
        a = init((5, 5), np.random.default_rng(3))
        b = init((5, 5), np.random.default_rng(3))
        np.testing.assert_array_equal(a, b)
