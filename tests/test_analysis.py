"""Tests for the repro.analysis subpackage."""

import numpy as np
import pytest

from repro.analysis.correlation import (
    correlation_of_mean,
    mean_correlation,
    pearson_correlation,
    per_sample_correlations,
    sensitivity_norm_correlations,
)
from repro.analysis.sensitivity import sensitivity_norm_maps, spatial_smoothness
from repro.analysis.statistics import independent_ttest
from repro.nn.gradients import weight_column_norms


class TestPearson:
    def test_perfect_correlation(self, rng):
        x = rng.normal(size=50)
        assert pearson_correlation(x, 2 * x + 1) == pytest.approx(1.0)
        assert pearson_correlation(x, -x) == pytest.approx(-1.0)

    def test_constant_vector_returns_zero(self, rng):
        assert pearson_correlation(np.ones(10), rng.normal(size=10)) == 0.0

    def test_matches_numpy(self, rng):
        x, y = rng.normal(size=30), rng.normal(size=30)
        assert pearson_correlation(x, y) == pytest.approx(np.corrcoef(x, y)[0, 1])

    def test_length_mismatch(self, rng):
        with pytest.raises(ValueError):
            pearson_correlation(rng.normal(size=5), rng.normal(size=6))


class TestTable1Metrics:
    def test_per_sample_correlations_shape(self, rng):
        sensitivities = rng.uniform(size=(7, 12))
        norms = rng.uniform(size=12)
        assert per_sample_correlations(sensitivities, norms).shape == (7,)

    def test_mean_correlation_is_average(self, rng):
        sensitivities = rng.uniform(size=(5, 10))
        norms = rng.uniform(size=10)
        assert mean_correlation(sensitivities, norms) == pytest.approx(
            per_sample_correlations(sensitivities, norms).mean()
        )

    def test_correlation_of_mean_uses_average_map(self, rng):
        sensitivities = rng.uniform(size=(5, 10))
        norms = rng.uniform(size=10)
        assert correlation_of_mean(sensitivities, norms) == pytest.approx(
            pearson_correlation(sensitivities.mean(axis=0), norms)
        )

    def test_correlation_of_mean_exceeds_mean_correlation_for_noisy_samples(self, rng):
        """The paper's key Table I observation: averaging the sensitivity over
        the set yields a much higher correlation with the 1-norms than
        individual samples do."""
        norms = rng.uniform(0.1, 1.0, size=50)
        # per-sample sensitivities = noisy versions of the norms
        sensitivities = norms[np.newaxis, :] + rng.normal(0, 0.8, size=(200, 50))
        assert correlation_of_mean(sensitivities, norms) > mean_correlation(
            sensitivities, norms
        )

    def test_summary_on_trained_network(self, trained_softmax, mnist_small):
        summary = sensitivity_norm_correlations(
            trained_softmax, mnist_small.test_inputs, mnist_small.test_targets
        )
        assert summary.n_samples == mnist_small.n_test
        assert summary.correlation_of_mean > summary.mean_correlation
        assert summary.correlation_of_mean > 0.5

    def test_summary_with_external_norms(self, trained_softmax, mnist_small):
        norms = weight_column_norms(trained_softmax.weights)
        with_true = sensitivity_norm_correlations(
            trained_softmax, mnist_small.test_inputs, mnist_small.test_targets
        )
        with_external = sensitivity_norm_correlations(
            trained_softmax,
            mnist_small.test_inputs,
            mnist_small.test_targets,
            column_norms=norms * 3.0,  # scaling must not change correlations
        )
        assert with_external.mean_correlation == pytest.approx(with_true.mean_correlation)


class TestSensitivityMaps:
    def test_grayscale_maps(self, trained_softmax, mnist_small):
        maps = sensitivity_norm_maps(
            trained_softmax,
            mnist_small.test_inputs,
            mnist_small.test_targets,
            mnist_small.image_shape,
        )
        assert maps.sensitivity.shape == (28, 28)
        assert maps.column_norms.shape == (28, 28)
        assert maps.channel is None

    def test_color_maps_select_channel(self, cifar_small):
        from repro.nn.trainer import train_single_layer

        network, _ = train_single_layer(cifar_small, output="linear", epochs=3, random_state=0)
        maps = sensitivity_norm_maps(
            network,
            cifar_small.test_inputs,
            cifar_small.test_targets,
            cifar_small.image_shape,
            channel=0,
        )
        assert maps.sensitivity.shape == (32, 32)
        assert maps.channel == 0

    def test_invalid_channel(self, cifar_small):
        from repro.nn.trainer import train_single_layer

        network, _ = train_single_layer(cifar_small, output="linear", epochs=2, random_state=0)
        with pytest.raises(ValueError):
            sensitivity_norm_maps(
                network,
                cifar_small.test_inputs,
                cifar_small.test_targets,
                cifar_small.image_shape,
                channel=5,
            )

    def test_spatial_smoothness_orders_maps_correctly(self, rng):
        smooth = np.outer(np.hanning(20), np.hanning(20))
        rough = rng.uniform(size=(20, 20))
        assert spatial_smoothness(smooth) < spatial_smoothness(rough)

    def test_spatial_smoothness_constant_map(self):
        assert spatial_smoothness(np.ones((5, 5))) == 0.0

    def test_spatial_smoothness_requires_2d(self):
        with pytest.raises(ValueError):
            spatial_smoothness(np.ones(5))


class TestStatistics:
    def test_detects_clear_difference(self, rng):
        a = rng.normal(1.0, 0.1, size=30)
        b = rng.normal(0.0, 0.1, size=30)
        result = independent_ttest(a, b)
        assert result.significant
        assert result.p_value < 1e-6
        assert result.mean_difference == pytest.approx(1.0, abs=0.1)
        assert result.marker() == "*"

    def test_no_difference_not_significant(self, rng):
        a = rng.normal(0.0, 1.0, size=30)
        b = rng.normal(0.0, 1.0, size=30)
        result = independent_ttest(a, b)
        assert result.p_value > 0.01

    def test_constant_samples_handled(self):
        result = independent_ttest(np.ones(5), np.ones(5) * 2)
        assert not result.significant
        assert result.p_value == 1.0

    def test_small_samples_rejected(self, rng):
        with pytest.raises(ValueError):
            independent_ttest(np.array([1.0]), rng.normal(size=5))

    @pytest.mark.parametrize("n_a, n_b", [(10, 40), (5, 5), (30, 12)])
    def test_statistic_uses_pooled_variance(self, rng, n_a, n_b):
        """The paper's Student's t-test: one pooled variance, n_a + n_b - 2 dof.

        The samples' spreads differ fivefold, so Welch's correction would
        change the statistic (unequal sizes) or the degrees of freedom.
        """
        from scipy import stats

        a = rng.normal(0.5, 1.0, size=n_a)
        b = rng.normal(0.0, 5.0, size=n_b)
        dof = n_a + n_b - 2
        pooled = ((n_a - 1) * a.var(ddof=1) + (n_b - 1) * b.var(ddof=1)) / dof
        expected = (a.mean() - b.mean()) / np.sqrt(pooled * (1 / n_a + 1 / n_b))
        result = independent_ttest(a, b)
        assert result.statistic == pytest.approx(expected, rel=1e-10)
        assert result.p_value == pytest.approx(2 * stats.t.sf(abs(expected), dof), rel=1e-8)

    def test_alpha_validation(self, rng):
        with pytest.raises(ValueError):
            independent_ttest(rng.normal(size=5), rng.normal(size=5), alpha=2.0)
