"""The crossbar array: differential MVM and total-current measurement.

Implements the ideal behaviour of Eq. 3-5 of the paper plus the opt-in
non-idealities configured through
:class:`~repro.crossbar.nonidealities.NonidealityConfig`.

Fused single-pass engine
------------------------
Every analogue operation starts from the array's *effective state* — the
differential matrix ``(G+ - G-) * d`` and the column conductance sums
``Σ_i (G+ + G-) * d``, with ``d`` the 2-D IR-drop droop (``1`` on an ideal
wire) — realised from one conductance read.  Three properties of that state
drive the engine:

* **Fusion.**  :meth:`traverse` is the array's one analogue operation: it
  computes the output currents (Eq. 3) *and* the total supply current
  (Eq. 5) of a ``(B, N)`` batch from a *single* conductance realization, so
  the functional outputs and the power side channel observed by an attacker
  are physically consistent (one read, one noise draw) and the array is
  traversed once instead of twice.
* **Caching.**  When the device has no read noise the effective state is
  deterministic, so it is computed lazily once and reused by every
  subsequent :meth:`traverse`.  The cache is invalidated whenever
  ``g_plus`` / ``g_minus`` are rebound (it is keyed on the identity of both
  arrays); code that mutates the conductance matrices *in place* must call
  :meth:`invalidate_state_cache` afterwards.
  With read noise enabled the cache is bypassed and every operation draws a
  fresh realization, exactly as before.
* **Accounting.**  :attr:`n_operations` counts analogue array traversals and
  :attr:`n_realizations` counts physical conductance reads (cache hits
  realise nothing).  Tests and benchmarks use these to prove the fused path
  traverses the array exactly once per batch.

Measurement noise (``current_measurement_noise``) is applied *after* the
cached dot product, so repeated total-current reads remain independently
noisy even when the effective state is cached.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

import numpy as np

from repro.crossbar.devices import NVMDeviceModel
from repro.crossbar.mapping import ConductanceMapping
from repro.crossbar.nonidealities import NonidealityConfig
from repro.utils.rng import RandomState, as_rng, sample_stream, seeded_noise_factors
from repro.utils.validation import check_matrix

#: Stream-path domain tag for array-level noise (see :func:`sample_stream`).
_ARRAY_DOMAIN = 1
#: Channel tags within the array domain.
_READ_CHANNEL = 0
_RAIL_CHANNEL = 1


class _EffectiveState(NamedTuple):
    """One realised view of the array, shared by outputs and power.

    ``g_plus`` / ``g_minus`` are the *programmed* arrays the state was built
    from (identity-checked on cache lookup); ``effective`` and ``column_sums``
    are the droop-weighted differential matrix and conductance sums.
    """

    g_plus: np.ndarray
    g_minus: np.ndarray
    effective: np.ndarray
    column_sums: np.ndarray


class CrossbarArray:
    """A programmed NVM crossbar holding one weight matrix.

    The array is created by programming a weight matrix through a
    :class:`~repro.crossbar.mapping.ConductanceMapping`; afterwards
    :meth:`traverse` performs the analogue operation the paper uses.  For a
    ``(B, N)`` batch of input voltages it returns the differential
    matrix-vector product ``i_s = (G+ - G-) v_u`` (Eq. 3) and the summed
    current through all devices ``i_total = Σ_j v_j Σ_i (G+_ij + G-_ij)``
    (Eq. 5), i.e. the power side channel, from one conductance realization
    (see the module docstring).

    Parameters
    ----------
    weights:
        The weight matrix ``(M, N)`` to program.
    mapping:
        Conductance mapping (device model + scheme).  Defaults to the ideal
        min-power mapping assumed in the paper.
    nonidealities:
        Optional non-ideal effects.
    random_state:
        Seed for programming noise, stuck devices and read noise.
    """

    def __init__(
        self,
        weights: np.ndarray,
        *,
        mapping: Optional[ConductanceMapping] = None,
        nonidealities: Optional[NonidealityConfig] = None,
        random_state: RandomState = None,
    ):
        weights = check_matrix(weights, "weights")
        self.mapping = mapping if mapping is not None else ConductanceMapping()
        self.nonidealities = (
            nonidealities if nonidealities is not None else NonidealityConfig()
        )
        self._rng = as_rng(random_state)
        self._reference_weights = weights.copy()
        self._state_cache: Optional[_EffectiveState] = None
        self._n_operations = 0
        self._n_realizations = 0
        self.noise_tag = 0

        self.g_plus, self.g_minus = self.mapping.map(weights, random_state=self._rng)
        self._apply_static_nonidealities()

    @classmethod
    def from_conductances(
        cls,
        g_plus: np.ndarray,
        g_minus: np.ndarray,
        *,
        mapping: ConductanceMapping,
        nonidealities: Optional[NonidealityConfig] = None,
        reference_weights: Optional[np.ndarray] = None,
        random_state: RandomState = None,
    ) -> "CrossbarArray":
        """Build an array from already-programmed conductance matrices.

        Multi-tile sharding programs a logical weight matrix *once* (so the
        physical devices are identical to the single-tile placement) and then
        hands each shard its slice of ``G+`` / ``G-`` through this
        constructor.  Programming noise, quantization and static
        non-idealities are therefore **not** re-applied here — they already
        happened on the full matrix; only dynamic effects (read noise, IR
        drop, measurement noise) act per sub-array.

        ``mapping`` must carry an explicit ``weight_scale`` (the full-matrix
        scale) so :attr:`effective_weights` and the current-to-logical
        conversion agree with the unsharded array; ``reference_weights``
        defaults to the unmapped conductance difference.
        """
        if mapping.weight_scale is None:
            raise ValueError(
                "from_conductances requires a mapping with an explicit "
                "weight_scale (the scale resolved on the full weight matrix)"
            )
        g_plus = check_matrix(np.array(g_plus, dtype=float, copy=True), "g_plus")
        g_minus = check_matrix(np.array(g_minus, dtype=float, copy=True), "g_minus")
        if g_plus.shape != g_minus.shape:
            raise ValueError(
                f"g_plus shape {g_plus.shape} != g_minus shape {g_minus.shape}"
            )
        array = cls.__new__(cls)
        array.mapping = mapping
        array.nonidealities = (
            nonidealities if nonidealities is not None else NonidealityConfig()
        )
        array._rng = as_rng(random_state)
        array.g_plus = g_plus
        array.g_minus = g_minus
        if reference_weights is None:
            reference_weights = mapping.unmap(g_plus, g_minus, g_plus)
        array._reference_weights = np.asarray(reference_weights, dtype=float).copy()
        array._state_cache = None
        array._n_operations = 0
        array._n_realizations = 0
        array.noise_tag = 0
        return array

    def program(self, weights: np.ndarray) -> None:
        """Re-program the array with a new weight matrix.

        Runs the full programming path — mapping, programming noise, static
        non-idealities — on ``weights`` using the array's own generator, and
        drops the cached effective state so the next operation realises the
        new devices.
        """
        weights = check_matrix(weights, "weights")
        self._reference_weights = weights.copy()
        self.g_plus, self.g_minus = self.mapping.map(weights, random_state=self._rng)
        self._apply_static_nonidealities()

    # ----------------------------------------------------------- properties

    @property
    def shape(self) -> tuple[int, int]:
        """(rows, columns) = (outputs, inputs)."""
        return self.g_plus.shape

    @property
    def n_rows(self) -> int:
        """Number of output rows M."""
        return self.g_plus.shape[0]

    @property
    def n_columns(self) -> int:
        """Number of input columns N."""
        return self.g_plus.shape[1]

    @property
    def device(self) -> NVMDeviceModel:
        """The underlying device model."""
        return self.mapping.device

    @property
    def effective_weights(self) -> np.ndarray:
        """The weights actually implemented after programming non-idealities."""
        return self.mapping.unmap(self.g_plus, self.g_minus, self._reference_weights)

    @property
    def column_conductance_sums(self) -> np.ndarray:
        """``G_j`` for every column — the quantity leaked by the power channel."""
        return self.mapping.column_conductance_sums(self.g_plus, self.g_minus)

    # ------------------------------------------------------------ accounting

    @property
    def n_operations(self) -> int:
        """Analogue array traversals performed (fused ops count once)."""
        return self._n_operations

    @property
    def n_realizations(self) -> int:
        """Physical conductance reads realised (cache hits realise none)."""
        return self._n_realizations

    def reset_counters(self) -> None:
        """Reset the operation/realization counters."""
        self._n_operations = 0
        self._n_realizations = 0

    # -------------------------------------------------- static non-idealities

    def _apply_static_nonidealities(self) -> None:
        config = self.nonidealities
        if config.stuck_at_off_fraction > 0 or config.stuck_at_on_fraction > 0:
            total = self.g_plus.size + self.g_minus.size
            n_off = int(round(config.stuck_at_off_fraction * total))
            n_on = int(round(config.stuck_at_on_fraction * total))
            flat_indices = self._rng.permutation(total)
            off_idx = flat_indices[:n_off]
            on_idx = flat_indices[n_off : n_off + n_on]
            stacked = np.concatenate([self.g_plus.ravel(), self.g_minus.ravel()])
            stacked[off_idx] = self.device.g_min
            stacked[on_idx] = self.device.g_max
            split = self.g_plus.size
            self.g_plus = stacked[:split].reshape(self.g_plus.shape)
            self.g_minus = stacked[split:].reshape(self.g_minus.shape)
        self.invalidate_state_cache()

    # ------------------------------------------------------------- dynamics

    def invalidate_state_cache(self) -> None:
        """Drop the cached effective state.

        Required after mutating ``g_plus`` / ``g_minus`` *in place*; rebinding
        either attribute to a new array is detected automatically.  The next
        operation re-realises the state.
        """
        self._state_cache = None

    def _read_conductances(self, rng) -> tuple[np.ndarray, np.ndarray]:
        """Conductances as seen by one read operation (read noise from ``rng``)."""
        g_plus = self.device.apply_read_noise(self.g_plus, rng)
        g_minus = self.device.apply_read_noise(self.g_minus, rng)
        return g_plus, g_minus

    def _wire_droop(self, total: np.ndarray) -> Optional[np.ndarray]:
        """Per-cell voltage-droop factor of the 2-D IR-drop model, or ``None``.

        With ``wire_resistance_ohm = R`` per unit cell, the cell at grid
        position ``(i, j)`` sees its drive voltage attenuated by the column
        wire feeding it (``i + 1`` cells deep, loaded by the column's total
        conductance) and its current attenuated along the row wire collecting
        it (``j + 1`` cells long, loaded by the row's total conductance),
        both taken from ``total = G+ + G-``:

        ``droop[i, j] = 1 / (1 + R * (G_col[j] * (i+1) + G_row[i] * (j+1)))``

        Both loads and both distances scale with the *physical* array shape,
        so sharding a layer across smaller tiles shrinks the droop
        quadratically.  Returns ``None`` when ``R == 0`` so the default
        configuration skips the multiply entirely (bitwise old behaviour).
        """
        resistance = self.nonidealities.wire_resistance_ohm
        if resistance == 0:
            return None
        column_g = total.sum(axis=0)
        row_g = total.sum(axis=1)
        row_depth = np.arange(1, total.shape[0] + 1, dtype=float)
        col_length = np.arange(1, total.shape[1] + 1, dtype=float)
        drop = resistance * (
            column_g[np.newaxis, :] * row_depth[:, np.newaxis]
            + row_g[:, np.newaxis] * col_length[np.newaxis, :]
        )
        return 1.0 / (1.0 + drop)

    def _effective(
        self, g_plus: np.ndarray, g_minus: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(effective, column_sums)`` of one conductance read.

        Applies the 2-D wire droop, when ``wire_resistance_ohm`` is set, to
        the differential matrix and to the column conductance sums.
        """
        g_diff = g_plus - g_minus
        g_sum = g_plus + g_minus
        droop = self._wire_droop(g_sum)
        if droop is not None:
            g_diff = g_diff * droop
            g_sum = g_sum * droop
        return g_diff, g_sum.sum(axis=0)

    def _realize_state(self) -> _EffectiveState:
        """One physical conductance read, shared by outputs and power.

        When the device is read-noise free the realised state is cached and
        reused until ``g_plus`` / ``g_minus`` change; otherwise each call
        draws a fresh realization.
        """
        deterministic = self.device.read_noise == 0
        if deterministic:
            cache = self._state_cache
            if (
                cache is not None
                and cache.g_plus is self.g_plus
                and cache.g_minus is self.g_minus
            ):
                return cache
        state = _EffectiveState(
            self.g_plus,
            self.g_minus,
            *self._effective(*self._read_conductances(self._rng)),
        )
        self._n_realizations += 1
        if deterministic:
            self._state_cache = state
        return state

    def _rail_factors(self, n_rows: int, seeds) -> Optional[np.ndarray]:
        """Multiplicative rail-noise factors, ``None`` when noise-free.

        Unseeded factors come from the array's own generator; seeded ones
        from each row's ``(seed, noise_tag, rail channel)`` stream.
        """
        noise = self.nonidealities.current_measurement_noise
        if noise <= 0:
            return None
        if seeds is None:
            return 1.0 + self._rng.normal(0.0, noise, size=(n_rows,))
        return seeded_noise_factors(
            seeds, _ARRAY_DOMAIN, self.noise_tag, _RAIL_CHANNEL, std=noise
        )

    def traverse(
        self, batch: np.ndarray, sample_seeds=None, *, want_totals: bool = True
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """One analogue traversal of a ``(B, N)`` batch: ``(outputs, totals)``.

        ``outputs`` are the differential output currents ``(B, M)`` of Eq. 3;
        ``totals`` the supply currents ``(B,)`` of Eq. 5 (``None`` without
        ``want_totals``, which skips the rail measurement).  Both come from
        one conductance realization.  Inputs are read as float64.

        Unseeded, the effective state is read through the array's own
        generator (and cached when read-noise free), and the products run on
        BLAS ``matmul``.  With ``sample_seeds`` (one seed per row) every
        stochastic effect — read-noise conductance realizations and rail
        measurement noise — is drawn from a stream derived from
        ``(row seed, noise_tag, channel)`` instead, making row ``i``'s
        observables a pure function of ``(batch[i], sample_seeds[i])``:
        independent of batch composition and of any previous operation.  A
        seeded noisy device realises one read per row; a read-noise-free one
        reuses the cached state.
        """
        batch = np.asarray(batch, dtype=float)
        if batch.ndim != 2 or batch.shape[1] != self.n_columns:
            raise ValueError(
                f"expected a (B, {self.n_columns}) batch of input voltages, "
                f"got shape {batch.shape}"
            )
        seeds = None
        if sample_seeds is not None:
            seeds = np.asarray(sample_seeds, dtype=np.uint64)
            if seeds.ndim != 1 or len(seeds) != len(batch):
                raise ValueError(
                    f"sample_seeds must be 1-D with one seed per batch row "
                    f"({len(batch)}), got shape {seeds.shape}"
                )
        self._n_operations += 1
        if seeds is not None and self.device.read_noise > 0:
            outputs = np.empty((len(batch), self.n_rows))
            totals = np.empty(len(batch)) if want_totals else None
            for i, (row, seed) in enumerate(zip(batch, seeds)):
                rng = sample_stream(seed, _ARRAY_DOMAIN, self.noise_tag, _READ_CHANNEL)
                effective, column_sums = self._effective(*self._read_conductances(rng))
                self._n_realizations += 1
                outputs[i] = effective @ row
                if want_totals:
                    totals[i] = row @ column_sums
            factors = self._rail_factors(len(batch), seeds) if want_totals else None
            if factors is not None:
                totals = totals * factors
            return outputs, totals

        state = self._realize_state()
        # einsum, not BLAS matmul, whenever rows must not depend on their
        # batch: its per-row reduction order is independent of the batch size
        # (BLAS gemm/gemv pick different kernels per shape and break that).
        if seeds is None:
            outputs = np.matmul(batch, state.effective.T)
        else:
            outputs = np.einsum("ij,kj->ik", batch, state.effective)
        if not want_totals:
            return outputs, None
        if seeds is None:
            totals = np.matmul(batch, state.column_sums)
        else:
            totals = np.einsum("ij,j->i", batch, state.column_sums)
        factors = self._rail_factors(len(batch), seeds)
        if factors is not None:
            totals = totals * factors
        return outputs, totals

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CrossbarArray(shape={self.shape}, device={self.device.name!r}, "
            f"scheme={self.mapping.scheme.value!r}, ideal={self.nonidealities.is_ideal})"
        )
