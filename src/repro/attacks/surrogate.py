"""Surrogate-model black-box attacks with power information (Section IV).

The attacker queries the oracle with ``Q`` inputs drawn from the training set
and records, for every query, the observable output (raw vector or label) and
optionally the power measurement.  A linear single-layer surrogate is then
trained with the paper's combined loss (Eq. 9)::

    L = L_out + λ · L_power

where ``L_out`` is the MSE between surrogate and oracle outputs and
``L_power`` is the MSE between the surrogate's *predicted* power consumption
and the measured one.  Under the ideal min-power crossbar mapping the
predicted power for query ``u`` is ``Σ_j u_j Σ_i |w_ij|`` — differentiable in
the surrogate weights (almost everywhere), so the power term can be folded
into ordinary gradient descent.  Finally, FGSM adversarial examples crafted on
the surrogate are transferred to the oracle (Figure 5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.attacks.base import AttackResult
from repro.attacks.fgsm import FastGradientSignMethod
from repro.attacks.oracle import Oracle, OracleResponse
from repro.nn.losses import MeanSquaredError
from repro.nn.metrics import accuracy
from repro.nn.network import SingleLayerNetwork
from repro.nn.optimizers import Adam
from repro.utils.rng import RandomState, as_rng
from repro.utils.validation import (
    check_array,
    check_non_negative,
    check_positive,
    check_positive_int,
)


@dataclass(frozen=True)
class SurrogateConfig:
    """Hyper-parameters for surrogate training.

    Attributes
    ----------
    power_loss_weight:
        The λ of Eq. 9.  ``0`` disables the power term (the paper's baseline).
    epochs:
        Training epochs over the query set.
    learning_rate:
        Step size of the mini-batch Adam updates.
    batch_size:
        Mini-batch size; query sets smaller than this are trained full-batch.
    power_normalization:
        ``"absolute"`` (default, the paper's setting) — the measured power is
        compared directly against the surrogate's predicted power
        ``Σ_j u_j Σ_i |w_ij|``; both are expressed in the paper's normalised
        units, so this is valid whenever the attacker knows the victim's
        conductance normalisation (or measures through the analytic ideal
        oracle).  ``"relative"`` — measured and predicted powers are each
        normalised by their mean before the MSE, making the loss invariant to
        an unknown conductance scale of the victim hardware at the cost of a
        much weaker training signal.
    """

    power_loss_weight: float = 0.0
    epochs: int = 300
    learning_rate: float = 0.01
    batch_size: int = 128
    power_normalization: str = "absolute"

    def __post_init__(self) -> None:
        check_non_negative(self.power_loss_weight, "power_loss_weight")
        check_positive_int(self.epochs, "epochs")
        check_positive(self.learning_rate, "learning_rate")
        check_positive_int(self.batch_size, "batch_size")
        if self.power_normalization not in ("relative", "absolute"):
            raise ValueError(
                "power_normalization must be 'relative' or 'absolute', got "
                f"{self.power_normalization!r}"
            )


class SurrogateTrainer:
    """Trains a linear single-layer surrogate from oracle query data.

    Parameters
    ----------
    n_inputs / n_outputs:
        Dimensions of the surrogate (matching the victim's interface).
    config:
        A :class:`SurrogateConfig`.
    random_state:
        Seed for weight initialisation and mini-batch shuffling.
    """

    def __init__(
        self,
        n_inputs: int,
        n_outputs: int,
        *,
        config: Optional[SurrogateConfig] = None,
        random_state: RandomState = None,
    ):
        self.n_inputs = check_positive_int(n_inputs, "n_inputs")
        self.n_outputs = check_positive_int(n_outputs, "n_outputs")
        self.config = config if config is not None else SurrogateConfig()
        self._rng = as_rng(random_state)
        self.loss_history: list[Dict[str, float]] = []

    # ------------------------------------------------------------- training

    def _power_prediction(self, weights: np.ndarray, queries: np.ndarray) -> np.ndarray:
        """Predicted total current under the ideal min-power mapping."""
        column_norms = np.abs(weights).sum(axis=0)
        return queries @ column_norms

    def _normalize(self, values: np.ndarray) -> tuple[np.ndarray, float]:
        """Return (normalised values, normalisation constant)."""
        if self.config.power_normalization == "absolute":
            return values, 1.0
        scale = float(np.mean(np.abs(values)))
        if scale == 0.0:
            return values, 1.0
        return values / scale, scale

    def fit(
        self,
        queries: np.ndarray,
        outputs: np.ndarray,
        power: Optional[np.ndarray] = None,
    ) -> SingleLayerNetwork:
        """Train and return the surrogate network.

        Parameters
        ----------
        queries:
            ``(Q, N)`` oracle query inputs.
        outputs:
            ``(Q, M)`` observed oracle outputs (raw vectors or one-hot labels).
        power:
            ``(Q,)`` measured total currents, or ``None`` when the attacker
            has no power access (the power term is then skipped regardless of
            λ).

        Raises ``ValueError`` before the first step when the queries or
        outputs are empty, or when any of the arrays holds NaN or ±inf.
        """
        queries = np.atleast_2d(check_array(queries, "queries", allow_empty=False))
        outputs = np.atleast_2d(check_array(outputs, "outputs", allow_empty=False))
        if queries.shape[1] != self.n_inputs:
            raise ValueError(
                f"queries have {queries.shape[1]} features, expected {self.n_inputs}"
            )
        if outputs.shape != (len(queries), self.n_outputs):
            raise ValueError(
                f"outputs must have shape ({len(queries)}, {self.n_outputs}), "
                f"got {outputs.shape}"
            )
        if power is not None:
            power = np.atleast_1d(check_array(power, "power"))
            if len(power) != len(queries):
                raise ValueError("power measurements disagree with queries on count")
        config = self.config
        use_power = power is not None and config.power_loss_weight > 0
        if use_power:
            power_target, _ = self._normalize(power)

        surrogate = SingleLayerNetwork(
            self.n_inputs, self.n_outputs, output="linear", random_state=self._rng
        )
        layer = surrogate.layer
        # Adam updates this array in place, so it always holds the current W.
        weights = layer.weights
        optimizer = Adam(learning_rate=config.learning_rate)
        n_queries = len(queries)
        batch_size = min(config.batch_size, n_queries)
        self.loss_history = []

        for _ in range(config.epochs):
            order = self._rng.permutation(n_queries)
            epoch_out_loss = 0.0
            epoch_power_loss = 0.0
            n_batches = 0
            for start in range(0, n_queries, batch_size):
                idx = order[start : start + batch_size]
                batch_queries = queries[idx]
                batch_outputs = outputs[idx]

                predictions = batch_queries @ weights.T
                residual = predictions - batch_outputs
                out_loss = float(np.mean(residual**2))
                grad = (2.0 / residual.size) * residual.T @ batch_queries

                power_loss = 0.0
                if use_power:
                    predicted_power = self._power_prediction(weights, batch_queries)
                    predicted_norm, predicted_scale = self._normalize(predicted_power)
                    power_residual = predicted_norm - power_target[idx]
                    power_loss = float(np.mean(power_residual**2))
                    # d predicted_norm_q / d w_ij = u_qj sign(w_ij) / predicted_scale
                    # (the normalisation constant is treated as detached).
                    coefficient = (
                        2.0 / (len(idx) * predicted_scale)
                    ) * (power_residual @ batch_queries)
                    grad = grad + config.power_loss_weight * np.sign(weights) * coefficient[
                        np.newaxis, :
                    ]

                layer.grad_weights = grad
                optimizer.step(surrogate)
                epoch_out_loss += out_loss
                epoch_power_loss += power_loss
                n_batches += 1

            self.loss_history.append(
                {
                    "output_loss": epoch_out_loss / n_batches,
                    "power_loss": epoch_power_loss / n_batches,
                    "total_loss": (
                        epoch_out_loss + config.power_loss_weight * epoch_power_loss
                    )
                    / n_batches,
                }
            )

        return surrogate


@dataclass
class SurrogateAttackResult:
    """Outcome of one surrogate-based black-box attack.

    Attributes
    ----------
    surrogate:
        The trained surrogate network.
    surrogate_test_accuracy:
        Surrogate accuracy on the victim's test set (Figure 5 left column).
    oracle_clean_accuracy:
        Victim accuracy on the clean test set.
    oracle_adversarial_accuracy:
        Victim accuracy on FGSM examples crafted on the surrogate
        (Figure 5 centre column).
    n_queries:
        Number of oracle queries used to train the surrogate.
    power_loss_weight:
        The λ used.
    attack_result:
        The FGSM :class:`~repro.attacks.base.AttackResult`.
    """

    surrogate: SingleLayerNetwork
    surrogate_test_accuracy: float
    oracle_clean_accuracy: float
    oracle_adversarial_accuracy: float
    n_queries: int
    power_loss_weight: float
    attack_result: Optional[AttackResult] = None
    metadata: dict = field(default_factory=dict)

    @property
    def accuracy_degradation(self) -> float:
        """How much the attack lowered the victim's accuracy."""
        return self.oracle_clean_accuracy - self.oracle_adversarial_accuracy


class SurrogateAttack:
    """End-to-end surrogate-based black-box FGSM attack (Figure 5 pipeline).

    Parameters
    ----------
    oracle:
        The victim :class:`~repro.attacks.oracle.Oracle`.
    config:
        Surrogate training configuration (λ lives here).
    attack_strength:
        FGSM ε used when attacking the oracle (0.1 in the paper).
    random_state:
        Seed for query sampling and surrogate initialisation.
    """

    def __init__(
        self,
        oracle: Oracle,
        *,
        config: Optional[SurrogateConfig] = None,
        attack_strength: float = 0.1,
        random_state: RandomState = None,
    ):
        self.oracle = oracle
        self.config = config if config is not None else SurrogateConfig()
        self.attack_strength = check_non_negative(attack_strength, "attack_strength")
        self._rng = as_rng(random_state)

    def run(
        self,
        query_inputs: np.ndarray,
        test_inputs: np.ndarray,
        test_targets: np.ndarray,
    ) -> SurrogateAttackResult:
        """Query, train the surrogate, attack, and evaluate on the oracle.

        Parameters
        ----------
        query_inputs:
            ``(Q, N)`` inputs the attacker sends to the oracle (typically a
            subset of the training set, as in the paper).
        test_inputs / test_targets:
            The victim's test set, used to evaluate surrogate fidelity and
            attack efficacy.
        """
        query_inputs = np.atleast_2d(np.asarray(query_inputs, dtype=float))
        test_inputs = np.atleast_2d(np.asarray(test_inputs, dtype=float))
        test_targets = np.atleast_2d(np.asarray(test_targets, dtype=float))

        response: OracleResponse = self.oracle.query(query_inputs)
        trainer = SurrogateTrainer(
            n_inputs=query_inputs.shape[1],
            n_outputs=self.oracle.n_outputs,
            config=self.config,
            random_state=self._rng,
        )
        surrogate = trainer.fit(response.queries, response.outputs, response.power)

        surrogate_test_accuracy = accuracy(surrogate.predict(test_inputs), test_targets)
        oracle_clean_accuracy = self.oracle.accuracy(test_inputs, test_targets)

        attack = FastGradientSignMethod(surrogate, loss=MeanSquaredError())
        attack_result = attack.attack(test_inputs, test_targets, self.attack_strength)
        adversarial_labels = self.oracle.predict_labels(attack_result.adversarial_inputs)
        true_labels = np.argmax(test_targets, axis=1)
        oracle_adversarial_accuracy = float(np.mean(adversarial_labels == true_labels))

        return SurrogateAttackResult(
            surrogate=surrogate,
            surrogate_test_accuracy=surrogate_test_accuracy,
            oracle_clean_accuracy=oracle_clean_accuracy,
            oracle_adversarial_accuracy=oracle_adversarial_accuracy,
            n_queries=len(query_inputs),
            power_loss_weight=self.config.power_loss_weight,
            attack_result=attack_result,
            metadata={
                "output_mode": self.oracle.output_mode,
                "attack_strength": self.attack_strength,
            },
        )
