"""Tests for repro.crossbar.adc_dac and repro.crossbar.power."""

import numpy as np
import pytest

from repro.crossbar.adc_dac import ADC, DAC
from repro.crossbar.power import PowerReport


class TestDAC:
    def test_ideal_dac_only_clips(self):
        dac = DAC(n_bits=None, voltage_range=(0.0, 1.0))
        np.testing.assert_allclose(dac.convert(np.array([-0.5, 0.3, 2.0])), [0.0, 0.3, 1.0])

    def test_quantization_levels(self):
        dac = DAC(n_bits=2, voltage_range=(0.0, 1.0))
        values = dac.convert(np.linspace(0, 1, 11))
        levels = np.array([0.0, 1 / 3, 2 / 3, 1.0])
        distances = np.abs(values[:, np.newaxis] - levels[np.newaxis, :]).min(axis=1)
        assert np.all(distances < 1e-12)

    def test_n_levels(self):
        assert DAC(n_bits=4).n_levels == 16
        assert DAC(n_bits=None).n_levels is None

    def test_quantization_error_bounded(self, rng):
        dac = DAC(n_bits=8, voltage_range=(0.0, 1.0))
        values = rng.uniform(0, 1, size=100)
        error = np.abs(dac.convert(values) - values)
        assert error.max() <= 0.5 / 255 + 1e-12

    def test_invalid_configuration(self):
        with pytest.raises(ValueError):
            DAC(n_bits=0)
        with pytest.raises(ValueError):
            DAC(voltage_range=(1.0, 0.0))


class TestADC:
    def test_symmetric_range(self):
        adc = ADC(n_bits=None, current_range=(-2.0, 2.0))
        np.testing.assert_allclose(adc.convert(np.array([-3.0, 0.5, 3.0])), [-2.0, 0.5, 2.0])

    def test_quantization_is_monotonic(self, rng):
        adc = ADC(n_bits=4, current_range=(-1.0, 1.0))
        values = np.sort(rng.uniform(-1, 1, size=50))
        converted = adc.convert(values)
        assert np.all(np.diff(converted) >= 0)


class TestPowerReport:
    def test_report_with_per_tile_currents(self):
        report = PowerReport(np.array([3.0]), np.array([[1.0, 2.0]]))
        assert report.n_samples == 1
        assert report.n_tiles == 2
        np.testing.assert_allclose(report.per_tile_current, [[1.0, 2.0]])

    def test_report_validation(self):
        with pytest.raises(ValueError):
            PowerReport(total_current=np.zeros((2, 2)), per_tile_current=np.zeros((2, 1)))
        with pytest.raises(ValueError, match="1 tile labels for 2 current columns"):
            PowerReport(np.ones(2), np.ones((2, 2)), tile_labels=("layer0",))

    def test_current_for_unknown_label_names_available_labels(self):
        """Regression: the KeyError must list the labels that do exist."""
        report = PowerReport(
            total_current=np.ones(2),
            per_tile_current=np.ones((2, 2)),
            tile_labels=("layer0", "layer1"),
        )
        with pytest.raises(KeyError) as excinfo:
            report.current_for("layer7")
        message = str(excinfo.value)
        assert "layer7" in message
        assert "layer0" in message and "layer1" in message

    def test_current_for_without_labels(self):
        report = PowerReport(
            total_current=np.ones(2),
            per_tile_current=np.ones((2, 1)),
        )
        with pytest.raises(ValueError, match="no tile labels"):
            report.current_for("layer0")
