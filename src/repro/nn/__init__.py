"""From-scratch numpy neural-network substrate.

This package holds what the paper's experiments train and attack: dense
layers (Glorot-uniform weights), the linear, ReLU and softmax activations,
the MSE and cross-entropy losses, one mini-batch Adam training loop
(:class:`Trainer`, which also folds in the column-norm defence), metrics,
and analytic input-gradient (sensitivity) computation.  The attacker's
surrogate (:mod:`repro.attacks.surrogate`) steps the same :class:`Adam`.
"""

from repro.nn.activations import (
    Activation,
    Identity,
    ReLU,
    Softmax,
    get_activation,
)
from repro.nn.losses import (
    Loss,
    MeanSquaredError,
    CategoricalCrossEntropy,
    get_loss,
)
from repro.nn.initializers import XavierUniform, Zeros
from repro.nn.layers import Dense
from repro.nn.network import SingleLayerNetwork, Sequential
from repro.nn.optimizers import Adam
from repro.nn.trainer import Trainer
from repro.nn.metrics import accuracy
from repro.nn.gradients import (
    input_gradients,
    mean_sensitivity,
    sensitivity_map,
    weight_column_norms,
)

__all__ = [
    "Activation",
    "Identity",
    "ReLU",
    "Softmax",
    "get_activation",
    "Loss",
    "MeanSquaredError",
    "CategoricalCrossEntropy",
    "get_loss",
    "Zeros",
    "XavierUniform",
    "Dense",
    "SingleLayerNetwork",
    "Sequential",
    "Adam",
    "Trainer",
    "accuracy",
    "input_gradients",
    "mean_sensitivity",
    "sensitivity_map",
    "weight_column_norms",
]
