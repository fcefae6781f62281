"""The attacker's interface to the victim model ("oracle").

The paper's black-box experiments assume the attacker can query the victim
accelerator with inputs of their choice and observe some combination of:

* only the predicted label (Figure 5, rows 1 and 3),
* the raw output vector (Figure 5, rows 2 and 4),
* the power side channel (total crossbar current) for each query.

:class:`Oracle` wraps either a software network or a
:class:`~repro.crossbar.accelerator.CrossbarAccelerator` and exposes exactly
those observation channels, while counting queries.  It is the attacker's
only instrument: the power-channel probers of :mod:`repro.sidechannel` read
the rail through :attr:`OracleResponse.power` as well.

Queries run on the accelerator's fused single-pass engine: when the target is
a :class:`~repro.crossbar.accelerator.CrossbarAccelerator` and power is
exposed, :meth:`Oracle.query` calls
:meth:`~repro.crossbar.accelerator.CrossbarAccelerator.forward_with_power`
once per batch, so the observed outputs and the power trace come from the
*same* conductance realization and the hardware is traversed exactly once —
the legacy engine ran two independent passes (one for outputs, one for
power), which both doubled the cost of every power-exposed query and made
the two channels physically inconsistent under read noise.  Software
(:class:`~repro.nn.network.Sequential`) targets keep the analytic
ideal-crossbar power model.  All observation channels are batched: a single
:meth:`Oracle.query` call with ``(Q, N)`` inputs performs one traversal for
the whole batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from repro.crossbar.accelerator import CrossbarAccelerator
from repro.datasets.transforms import one_hot
from repro.nn.network import Sequential
from repro.utils.results import compact_repr
from repro.utils.rng import RandomState, as_rng, sample_stream
from repro.utils.validation import check_array, check_non_negative, check_positive_int

#: Stream-path domain tag for the oracle's instrument noise.
_ORACLE_DOMAIN = 2
_TOTAL_CHANNEL = 0
_PER_TILE_CHANNEL = 1


class QueryBudgetExceeded(RuntimeError):
    """Raised when a query would exceed the oracle's query budget."""


@dataclass(repr=False)
class OracleResponse:
    """What the oracle returned for a batch of queries.

    Attributes
    ----------
    queries:
        The query inputs ``(Q, N)``.
    outputs:
        The observable outputs ``(Q, M)``: raw output vectors in ``raw`` mode,
        one-hot encoded argmax labels in ``label`` mode.
    labels:
        Predicted integer labels ``(Q,)`` (always available).
    power:
        Total-current measurements ``(Q,)`` or ``None`` when the attacker
        cannot observe power.
    output_mode:
        ``"raw"`` or ``"label"``.
    per_tile_power:
        ``(Q, n_physical_tiles)`` per-rail current measurements when the
        attacker can probe each crossbar tile individually
        (``expose_per_tile_power=True`` against hardware targets); the tile
        labels are recorded under ``metadata["tile_labels"]``.  ``None``
        otherwise.
    """

    queries: np.ndarray
    outputs: np.ndarray
    labels: np.ndarray
    power: Optional[np.ndarray]
    output_mode: str
    per_tile_power: Optional[np.ndarray] = None
    metadata: dict = field(default_factory=dict)

    __repr__ = compact_repr

    @property
    def n_queries(self) -> int:
        """Number of queried inputs."""
        return len(self.queries)


class Oracle:
    """Query interface to the victim crossbar accelerator.

    Parameters
    ----------
    target:
        A :class:`~repro.crossbar.accelerator.CrossbarAccelerator` (preferred —
        power comes from the simulated hardware) or a plain
        :class:`~repro.nn.network.Sequential` network (power is then computed
        analytically from the weight-column 1-norms, i.e. the ideal-crossbar
        value).  Any target with ``forward_with_power`` counts as hardware,
        so a :class:`~repro.defenses.noise_injection.PowerNoiseDefense` over
        an accelerator is one too; anything else raises :class:`TypeError`.
    output_mode:
        ``"raw"`` to reveal output vectors, ``"label"`` to reveal only the
        argmax label.
    expose_power:
        Whether queries also return the power measurement.
    expose_per_tile_power:
        Whether queries additionally reveal each physical tile's supply
        current (the paper's hardware model: every crossbar tile's rail is
        individually observable).  Only hardware targets have tiles; software
        targets ignore this flag.  Requires ``expose_power``.
    power_noise_std:
        Relative measurement noise added to the power observations.  The
        noise magnitude scales with *each observation's own* magnitude
        (zero observations fall back to unit scale), never with a batch
        aggregate — so splitting or merging a batch cannot change any
        individual measurement's noise level.
    query_budget:
        Optional hard cap on the number of queried inputs; queries that would
        exceed it raise :class:`QueryBudgetExceeded` before touching the
        hardware.  Queries are charged only after a successful
        traversal — a failing forward costs the attacker nothing.
    random_state:
        Seed for the measurement noise.
    """

    VALID_MODES = ("raw", "label")

    def __init__(
        self,
        target: Union[CrossbarAccelerator, Sequential],
        *,
        output_mode: str = "raw",
        expose_power: bool = True,
        expose_per_tile_power: bool = False,
        power_noise_std: float = 0.0,
        query_budget: Optional[int] = None,
        random_state: RandomState = None,
    ):
        output_mode = str(output_mode).lower()
        if output_mode not in self.VALID_MODES:
            raise ValueError(
                f"output_mode must be one of {self.VALID_MODES}, got {output_mode!r}"
            )
        if expose_per_tile_power and not expose_power:
            raise ValueError("expose_per_tile_power requires expose_power")
        self.target = target
        self.output_mode = output_mode
        self.expose_power = bool(expose_power)
        self.expose_per_tile_power = bool(expose_per_tile_power)
        self.power_noise_std = check_non_negative(power_noise_std, "power_noise_std")
        if query_budget is not None:
            check_positive_int(query_budget, "query_budget")
        self.query_budget = query_budget
        self._rng = as_rng(random_state)
        self._queries_used = 0
        # Hardware-like targets expose the fused traversal; this also admits
        # wrappers such as PowerNoiseDefense that decorate an accelerator.
        self._hardware = hasattr(target, "forward_with_power")
        if not self._hardware and not isinstance(target, Sequential):
            raise TypeError(
                f"an Oracle needs a hardware target (with forward_with_power) "
                f"or a Sequential network, got {type(target).__name__}"
            )

        self._n_outputs = target.n_outputs

    # ----------------------------------------------------------- accounting

    @property
    def queries_used(self) -> int:
        """Number of inputs queried so far."""
        return self._queries_used

    @property
    def queries_remaining(self) -> Optional[int]:
        """Remaining budget, or ``None`` when unbounded."""
        if self.query_budget is None:
            return None
        return max(0, self.query_budget - self._queries_used)

    def _check_budget(self, n_queries: int) -> None:
        if (
            self.query_budget is not None
            and self._queries_used + n_queries > self.query_budget
        ):
            raise QueryBudgetExceeded(
                f"query of {n_queries} inputs would exceed the budget of "
                f"{self.query_budget} (already used {self._queries_used})"
            )

    def reset_counter(self) -> None:
        """Reset the query counter."""
        self._queries_used = 0

    @property
    def n_outputs(self) -> int:
        """Output dimensionality of the victim."""
        return self._n_outputs

    # -------------------------------------------------------------- queries

    def _forward(self, inputs: np.ndarray, seeds=None) -> np.ndarray:
        if self._hardware:
            return np.atleast_2d(self.target.forward(inputs, sample_seeds=seeds))
        return np.atleast_2d(self.target.predict(inputs))

    def _apply_power_noise(
        self, power: np.ndarray, seeds=None, channel: int = _TOTAL_CHANNEL
    ) -> np.ndarray:
        """Add instrument noise scaled by each observation's own magnitude.

        The scale is per element (zero observations fall back to 1.0), so a
        measurement's noise level never depends on what else happened to be
        in the batch.  With per-request ``seeds``, row ``i``'s draw comes
        from a stream derived from ``seeds[i]`` — independent of batch
        composition and call order — instead of the oracle's generator.
        """
        if self.power_noise_std <= 0:
            return power
        scale = np.abs(power)
        scale = np.where(scale > 0, scale, 1.0)
        if seeds is None:
            noise = self._rng.normal(0.0, 1.0, size=power.shape)
        else:
            noise = np.empty(power.shape)
            for i, seed in enumerate(np.asarray(seeds, dtype=np.uint64)):
                stream = sample_stream(seed, _ORACLE_DOMAIN, channel)
                noise[i] = stream.normal(0.0, 1.0, size=power[i].shape)
        return power + self.power_noise_std * scale * noise

    def _analytic_power(self, inputs: np.ndarray) -> np.ndarray:
        """Ideal-crossbar analytic power, summed over *every* layer.

        Per layer, ``i_total = Σ_j u_j Σ_i |w_ij|`` with ``u`` the layer's
        input activations; the observable supply current of a multi-layer
        accelerator is the sum of the per-layer tile currents, so the
        software model propagates activations and accumulates each layer's
        contribution (a single-layer network reduces to the historical
        ``inputs @ column_norms``).
        """
        activations = np.atleast_2d(inputs)
        total = np.zeros(len(activations))
        for layer in self.target.layers:
            column_norms = np.abs(layer.weights).sum(axis=0)
            total = total + activations @ column_norms
            activations = np.atleast_2d(layer.forward(activations))
        return total

    def query(self, inputs: np.ndarray, *, seeds=None) -> OracleResponse:
        """Query the oracle with a batch of inputs.

        Hardware targets with power exposed take the fused path: outputs and
        power are measured in one accelerator traversal per batch.

        Parameters
        ----------
        inputs:
            ``(Q, N)`` query batch (a single ``(N,)`` vector is promoted).
        seeds:
            Optional per-row noise seeds (one ``uint64`` per query), as
            derived by :func:`~repro.utils.rng.derive_request_seeds`.  When
            given, every stochastic effect along the measurement path is
            keyed on the row's seed, so against hardware targets each row's
            response is bit-identical no matter how the rows are batched —
            the contract the coalescing query service relies on.  (Software
            ``Sequential`` targets remain subject to BLAS batch-shape
            rounding in the forward pass itself.)
        """
        # A non-finite row has no defined response; reject it before charging.
        inputs = np.atleast_2d(check_array(inputs, "inputs"))
        if seeds is not None:
            seeds = np.asarray(seeds, dtype=np.uint64)
            if seeds.ndim != 1 or len(seeds) != len(inputs):
                raise ValueError(
                    f"seeds must be 1-D with one entry per query row "
                    f"({len(inputs)}), got shape {seeds.shape}"
                )
        self._check_budget(len(inputs))

        per_tile_power = None
        metadata = {"expose_power": self.expose_power}
        if self.expose_power and self._hardware:
            raw_outputs, report = self.target.forward_with_power(
                inputs, sample_seeds=seeds
            )
            raw_outputs = np.atleast_2d(raw_outputs)
            power = self._apply_power_noise(np.atleast_1d(report.total_current), seeds)
            if self.expose_per_tile_power:
                per_tile_power = self._apply_power_noise(
                    np.atleast_2d(report.per_tile_current), seeds, _PER_TILE_CHANNEL
                )
                metadata["tile_labels"] = report.tile_labels
        else:
            raw_outputs = self._forward(inputs, seeds)
            if self.expose_power:  # a software target: analytic power
                power = self._apply_power_noise(self._analytic_power(inputs), seeds)
            else:
                power = None

        # Charge only after the traversal succeeded: a failing forward (bad
        # input width, budget-free hardware fault) must not cost the attacker.
        self._queries_used += len(inputs)

        labels = np.argmax(raw_outputs, axis=1)
        if self.output_mode == "raw":
            outputs = raw_outputs
        else:
            outputs = one_hot(labels, self._n_outputs)
        return OracleResponse(
            queries=inputs,
            outputs=outputs,
            labels=labels,
            power=power,
            output_mode=self.output_mode,
            per_tile_power=per_tile_power,
            metadata=metadata,
        )

    def predict_labels(self, inputs: np.ndarray) -> np.ndarray:
        """Victim labels for evaluation purposes (not counted as attack queries)."""
        return np.argmax(self._forward(inputs), axis=1)

    def accuracy(self, inputs: np.ndarray, targets: np.ndarray) -> float:
        """Victim accuracy on a labelled set (evaluation helper)."""
        labels = self.predict_labels(inputs)
        true_labels = np.argmax(np.atleast_2d(targets), axis=1)
        return float(np.mean(labels == true_labels))
