"""Tests for repro.crossbar.array — Eq. 3-5 correctness and non-idealities."""

from dataclasses import fields

import numpy as np
import pytest

from repro.crossbar.array import CrossbarArray
from repro.crossbar.devices import IDEAL_DEVICE
from repro.crossbar.mapping import ConductanceMapping
from repro.crossbar.nonidealities import NonidealityConfig


class TestIdealBehaviour:
    def test_matvec_equals_weight_product(self, rng):
        """Eq. 3-4: the ideal crossbar computes s = W u exactly (up to scale)."""
        weights = rng.normal(size=(4, 7))
        array = CrossbarArray(weights, random_state=0)
        u = rng.uniform(0, 1, size=7)
        scale = array.mapping.conductance_per_unit_weight(weights)
        outputs, _ = array.traverse(u[np.newaxis])
        np.testing.assert_allclose(outputs[0] / scale, weights @ u, atol=1e-12)

    def test_matvec_batched(self, rng):
        weights = rng.normal(size=(3, 5))
        array = CrossbarArray(weights, random_state=0)
        batch = rng.uniform(0, 1, size=(6, 5))
        scale = array.mapping.conductance_per_unit_weight(weights)
        outputs, _ = array.traverse(batch)
        np.testing.assert_allclose(outputs / scale, batch @ weights.T, atol=1e-12)

    def test_total_current_equals_eq5(self, rng):
        """Eq. 5: i_total = sum_j v_j * G_j."""
        weights = rng.normal(size=(5, 6))
        array = CrossbarArray(weights, random_state=0)
        u = rng.uniform(0, 1, size=6)
        expected = float(u @ array.column_conductance_sums)
        assert array.traverse(u[np.newaxis])[1][0] == pytest.approx(expected)

    def test_total_current_batched_shape(self, rng):
        weights = rng.normal(size=(5, 6))
        array = CrossbarArray(weights, random_state=0)
        batch = rng.uniform(0, 1, size=(4, 6))
        assert array.traverse(batch)[1].shape == (4,)

    def test_effective_weights_match_programmed(self, rng):
        weights = rng.normal(size=(4, 4))
        array = CrossbarArray(weights, random_state=0)
        np.testing.assert_allclose(array.effective_weights, weights, atol=1e-12)

    def test_wrong_input_size_raises(self, rng):
        array = CrossbarArray(rng.normal(size=(3, 4)), random_state=0)
        with pytest.raises(ValueError):
            array.traverse(np.zeros((1, 5)), want_totals=False)
        with pytest.raises(ValueError):
            array.traverse(np.zeros((2, 5)))

    def test_batch_must_be_2d(self, rng):
        """The single-vector convention lives at the accelerator, not here."""
        array = CrossbarArray(rng.normal(size=(3, 4)), random_state=0)
        with pytest.raises(ValueError):
            array.traverse(np.zeros(4))

    def test_one_seed_per_row_required(self, rng):
        array = CrossbarArray(rng.normal(size=(3, 4)), random_state=0)
        batch = np.zeros((2, 4))
        for seeds in (np.arange(3), np.arange(2).reshape(1, 2)):
            with pytest.raises(ValueError, match="one seed per batch row"):
                array.traverse(batch, seeds)

    def test_shape_properties(self, rng):
        array = CrossbarArray(rng.normal(size=(3, 4)), random_state=0)
        assert array.shape == (3, 4)
        assert array.n_rows == 3
        assert array.n_columns == 4


NONIDEALITY_FIELDS = [
    "stuck_at_off_fraction",
    "stuck_at_on_fraction",
    "wire_resistance_ohm",
    "current_measurement_noise",
]


class TestNonidealities:
    def test_read_noise_makes_outputs_stochastic(self, rng):
        device = IDEAL_DEVICE.with_noise(read_noise=0.05)
        weights = rng.normal(size=(4, 6))
        array = CrossbarArray(
            weights, mapping=ConductanceMapping(device=device), random_state=0
        )
        u = rng.uniform(0, 1, size=6)
        first, _ = array.traverse(u[np.newaxis], want_totals=False)
        second, _ = array.traverse(u[np.newaxis], want_totals=False)
        assert not np.allclose(first, second)

    def test_stuck_devices_change_effective_weights(self, rng):
        weights = rng.normal(size=(10, 10))
        config = NonidealityConfig(stuck_at_off_fraction=0.3, stuck_at_on_fraction=0.1)
        array = CrossbarArray(weights, nonidealities=config, random_state=0)
        assert not np.allclose(array.effective_weights, weights)

    def test_stuck_at_on_raises_total_current(self, rng):
        weights = rng.normal(size=(8, 8))
        ideal = CrossbarArray(weights, random_state=0)
        stuck_on = CrossbarArray(
            weights,
            nonidealities=NonidealityConfig(stuck_at_on_fraction=0.5),
            random_state=0,
        )
        u = np.ones(8)
        assert stuck_on.traverse(u[np.newaxis])[1][0] > ideal.traverse(u[np.newaxis])[1][0]

    def test_ir_drop_attenuates_current(self, rng):
        weights = np.abs(rng.normal(size=(6, 6)))
        ideal = CrossbarArray(weights, random_state=0)
        lossy = CrossbarArray(
            weights,
            nonidealities=NonidealityConfig(wire_resistance_ohm=0.5),
            random_state=0,
        )
        u = np.ones(6)
        lossy_out, lossy_total = lossy.traverse(u[np.newaxis])
        ideal_out, ideal_total = ideal.traverse(u[np.newaxis])
        assert lossy_total[0] < ideal_total[0]
        assert np.all(np.abs(lossy_out[0]) <= np.abs(ideal_out[0]) + 1e-12)

    def test_measurement_noise_on_total_current(self, rng):
        weights = rng.normal(size=(4, 4))
        array = CrossbarArray(
            weights,
            nonidealities=NonidealityConfig(current_measurement_noise=0.05),
            random_state=0,
        )
        u = np.ones(4)
        readings = np.array([array.traverse(u[np.newaxis])[1][0] for _ in range(50)])
        assert readings.std() > 0

    def test_nonideality_validation(self):
        with pytest.raises(ValueError):
            NonidealityConfig(stuck_at_off_fraction=0.7, stuck_at_on_fraction=0.7)
        with pytest.raises(ValueError):
            NonidealityConfig(wire_resistance_ohm=-1.0)

    def test_is_ideal_flag(self):
        assert NonidealityConfig().is_ideal
        assert not NonidealityConfig(wire_resistance_ohm=1.0).is_ideal

    def test_every_field_is_checked_for_finiteness(self):
        assert {f.name for f in fields(NonidealityConfig)} == set(NONIDEALITY_FIELDS)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("field", NONIDEALITY_FIELDS)
    def test_non_finite_values_rejected(self, field, value):
        with pytest.raises(ValueError):
            NonidealityConfig(**{field: value})


def droop_reference(total, resistance):
    """Cell-by-cell transcription of the 2-D droop formula."""
    n_rows, n_cols = total.shape
    column_g = total.sum(axis=0)
    row_g = total.sum(axis=1)
    droop = np.empty_like(total)
    for i in range(n_rows):
        for j in range(n_cols):
            load = column_g[j] * (i + 1) + row_g[i] * (j + 1)
            droop[i, j] = 1.0 / (1.0 + resistance * load)
    return droop


class TestWireDroop:
    """The 2-D IR-drop model, the only wire physics the engine has."""

    @pytest.mark.parametrize("resistance", [1e-3, 0.05, 0.5])
    def test_outputs_and_current_follow_the_droop_formula(self, resistance, rng):
        weights = rng.normal(size=(5, 7))
        wired = CrossbarArray(
            weights,
            nonidealities=NonidealityConfig(wire_resistance_ohm=resistance),
            random_state=0,
        )
        droop = droop_reference(wired.g_plus + wired.g_minus, resistance)
        u = rng.uniform(0, 1, size=7)
        np.testing.assert_allclose(
            wired.traverse(u[np.newaxis])[0][0],
            ((wired.g_plus - wired.g_minus) * droop) @ u,
            rtol=1e-12,
        )
        np.testing.assert_allclose(
            wired.traverse(np.eye(7))[1],
            ((wired.g_plus + wired.g_minus) * droop).sum(axis=0),
            rtol=1e-12,
        )

    def test_current_falls_as_resistance_grows(self, rng):
        weights = rng.normal(size=(6, 8))
        u = rng.uniform(0.1, 1, size=8)
        currents = [
            CrossbarArray(
                weights,
                nonidealities=NonidealityConfig(wire_resistance_ohm=resistance),
                random_state=0,
            ).traverse(u[np.newaxis])[1][0]
            for resistance in (0.0, 1e-3, 1e-2, 1e-1)
        ]
        assert all(far < near for near, far in zip(currents, currents[1:]))

    def test_columns_farther_along_the_row_wire_droop_more(self):
        """Equal weights: every column carries the same load, so the leaked
        column sums fall with the column's distance along the row wire."""
        wired = CrossbarArray(
            np.ones((4, 6)),
            nonidealities=NonidealityConfig(wire_resistance_ohm=0.05),
            random_state=0,
        )
        _, sums = wired.traverse(np.eye(6))
        assert np.all(np.diff(sums) < 0)


NOISY = IDEAL_DEVICE.with_noise(read_noise=0.05)


class TestSingleTraversal:
    """Seeded traversals key every draw on the row, not on the batch."""

    @pytest.mark.parametrize(
        "device, config",
        [
            (IDEAL_DEVICE, NonidealityConfig()),
            (NOISY, NonidealityConfig()),
            (NOISY, NonidealityConfig(wire_resistance_ohm=0.5)),
            (NOISY, NonidealityConfig(wire_resistance_ohm=1e-3)),
            (NOISY, NonidealityConfig(current_measurement_noise=0.05)),
        ],
        ids=["ideal", "read-noise", "ir-drop", "wire-droop", "rail-noise"],
    )
    def test_seeded_views_agree_row_by_row(self, device, config, rng):
        array = CrossbarArray(
            rng.normal(size=(5, 9)),
            mapping=ConductanceMapping(device=device),
            nonidealities=config,
            random_state=0,
        )
        batch = rng.uniform(0, 1, size=(4, 9))
        seeds = np.arange(10, 14, dtype=np.uint64)
        outputs, totals = array.traverse(batch, seeds)
        np.testing.assert_array_equal(
            array.traverse(batch, seeds, want_totals=False)[0], outputs
        )
        for i in range(len(batch)):
            row_out, row_total = array.traverse(batch[i : i + 1], seeds[i : i + 1])
            np.testing.assert_array_equal(row_out[0], outputs[i])
            assert row_total[0] == totals[i]


class TestEffectiveStateCache:
    """The realised state lives exactly as long as the programmed conductances."""

    def test_state_is_cached_until_invalidated(self, rng):
        array = CrossbarArray(rng.normal(size=(5, 16)), random_state=0)
        state = array._realize_state()
        assert array._realize_state() is state
        array.invalidate_state_cache()
        assert array._realize_state() is not state

    def test_program_drops_state_and_changes_results(self, rng):
        array = CrossbarArray(rng.normal(size=(5, 16)), random_state=0)
        inputs = rng.uniform(0, 1, size=(9, 16))
        before, _ = array.traverse(inputs)
        state = array._realize_state()
        array.program(rng.normal(size=(5, 16)))
        rebuilt = array._realize_state()
        assert rebuilt is not state
        after, _ = array.traverse(inputs)
        assert not np.array_equal(after, before)
        np.testing.assert_allclose(after, inputs @ rebuilt.effective.T, rtol=1e-12)

    def test_seeded_einsum_agrees_with_unseeded_blas(self, rng):
        array = CrossbarArray(rng.normal(size=(5, 16)), random_state=0)
        inputs = rng.uniform(0, 1, size=(9, 16))
        seeds = np.arange(len(inputs), dtype=np.uint64)
        np.testing.assert_allclose(
            array.traverse(inputs, seeds)[0], array.traverse(inputs)[0], rtol=1e-12
        )

    def test_invalidated_state_is_rebuilt_bit_for_bit(self, rng):
        """A read-noise-free read is deterministic: the rebuilt state is equal."""
        array = CrossbarArray(
            rng.normal(size=(5, 16)),
            nonidealities=NonidealityConfig(wire_resistance_ohm=1e-3),
            random_state=0,
        )
        state = array._realize_state()
        array.invalidate_state_cache()
        rebuilt = array._realize_state()
        np.testing.assert_array_equal(rebuilt.effective, state.effective)
        np.testing.assert_array_equal(rebuilt.column_sums, state.column_sums)

    def test_cached_state_is_one_realization(self, rng):
        array = CrossbarArray(rng.normal(size=(5, 16)), random_state=0)
        inputs = rng.uniform(0, 1, size=(3, 16))
        for _ in range(4):
            array.traverse(inputs)
        assert array.n_operations == 4
        assert array.n_realizations == 1

    def test_read_noise_realizes_every_traversal(self, rng):
        array = CrossbarArray(
            rng.normal(size=(5, 16)),
            mapping=ConductanceMapping(device=NOISY),
            random_state=0,
        )
        inputs = rng.uniform(0, 1, size=(3, 16))
        first, _ = array.traverse(inputs, want_totals=False)
        second, _ = array.traverse(inputs, want_totals=False)
        assert array.n_realizations == 2
        assert array._state_cache is None
        assert not np.array_equal(first, second)


#: Read-noise-free physics: every traversal reads the one cached state.
DETERMINISTIC_PHYSICS = [
    NonidealityConfig(),
    NonidealityConfig(wire_resistance_ohm=0.5),
    NonidealityConfig(wire_resistance_ohm=1e-3),
    NonidealityConfig(stuck_at_off_fraction=0.1, stuck_at_on_fraction=0.05),
    NonidealityConfig(
        stuck_at_off_fraction=0.1, stuck_at_on_fraction=0.05, wire_resistance_ohm=0.5
    ),
]
DETERMINISTIC_IDS = ["ideal", "ir-drop", "wire-droop", "stuck", "stuck-ir-drop"]


class TestFloat64Engine:
    """The engine computes Eq. 3 and Eq. 5 as float64 numpy products."""

    @pytest.mark.parametrize("config", DETERMINISTIC_PHYSICS, ids=DETERMINISTIC_IDS)
    def test_seeded_einsum_agrees_with_unseeded_blas(self, config, rng):
        array = CrossbarArray(
            rng.normal(size=(5, 16)), nonidealities=config, random_state=0
        )
        inputs = rng.uniform(0, 1, size=(9, 16))
        seeds = np.arange(len(inputs), dtype=np.uint64)
        seeded_out, seeded_total = array.traverse(inputs, seeds)
        out, total = array.traverse(inputs)
        np.testing.assert_allclose(seeded_out, out, rtol=1e-12)
        np.testing.assert_allclose(seeded_total, total, rtol=1e-12)

    @pytest.mark.parametrize("config", DETERMINISTIC_PHYSICS, ids=DETERMINISTIC_IDS)
    def test_unseeded_traverse_is_the_blas_products(self, config, rng):
        """Outputs and totals are one matmul each, with or without the rail."""
        array = CrossbarArray(
            rng.normal(size=(5, 16)), nonidealities=config, random_state=0
        )
        inputs = rng.uniform(0, 1, size=(9, 16))
        outputs, totals = array.traverse(inputs)
        state = array._realize_state()
        np.testing.assert_array_equal(outputs, np.matmul(inputs, state.effective.T))
        np.testing.assert_array_equal(totals, np.matmul(inputs, state.column_sums))
        np.testing.assert_array_equal(
            array.traverse(inputs, want_totals=False)[0], outputs
        )

    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.int64])
    def test_inputs_are_read_as_float64(self, dtype, rng):
        array = CrossbarArray(rng.normal(size=(5, 16)), random_state=0)
        inputs = rng.integers(0, 4, size=(6, 16)).astype(dtype)
        reference = inputs.astype(np.float64)
        outputs, totals = array.traverse(inputs)
        assert outputs.dtype == np.float64 and totals.dtype == np.float64
        reference_outputs, reference_totals = array.traverse(reference)
        np.testing.assert_array_equal(outputs, reference_outputs)
        np.testing.assert_array_equal(totals, reference_totals)

    def test_float32_conductances_are_stored_as_float64(self, rng):
        programmed = CrossbarArray(rng.normal(size=(5, 16)), random_state=0)
        mapping = ConductanceMapping(weight_scale=1.0)
        wide = CrossbarArray.from_conductances(
            programmed.g_plus, programmed.g_minus, mapping=mapping
        )
        narrow = CrossbarArray.from_conductances(
            programmed.g_plus.astype(np.float32),
            programmed.g_minus.astype(np.float32),
            mapping=mapping,
        )
        state = narrow._realize_state()
        assert state.effective.dtype == np.float64
        assert state.column_sums.dtype == np.float64
        inputs = rng.uniform(0, 1, size=(4, 16))
        np.testing.assert_allclose(
            narrow.traverse(inputs)[0], wide.traverse(inputs)[0], rtol=1e-6
        )


class TestNoEngineKnobs:
    """No constructor of the engine takes a backend or dtype knob."""

    @staticmethod
    def _constructors():
        from repro.crossbar.accelerator import CrossbarAccelerator
        from repro.crossbar.tile import CrossbarTile
        from repro.nn.layers import Dense
        from repro.nn.network import Sequential

        weights = np.random.default_rng(0).normal(size=(3, 4))
        layer = Dense(4, 3, activation="softmax", random_state=0)
        return {
            "array": lambda **kw: CrossbarArray(weights, **kw),
            "from_conductances": lambda **kw: CrossbarArray.from_conductances(
                np.ones((3, 4)),
                np.ones((3, 4)),
                mapping=ConductanceMapping(weight_scale=1.0),
                **kw,
            ),
            "tile": lambda **kw: CrossbarTile(layer, **kw),
            "accelerator": lambda **kw: CrossbarAccelerator(Sequential([layer]), **kw),
        }

    @pytest.mark.parametrize(
        "name", ["array", "from_conductances", "tile", "accelerator"]
    )
    def test_removed_knobs_are_rejected(self, name):
        build = self._constructors()[name]
        build(random_state=0)
        for knob, value in (("backend", "numpy"), ("dtype", "float64")):
            with pytest.raises(TypeError, match=knob):
                build(random_state=0, **{knob: value})
