"""From-scratch numpy neural-network substrate.

This package implements everything the paper's experiments need from a deep
learning framework: dense layers, activations, losses, optimizers, a trainer,
metrics, and analytic input-gradient (sensitivity) computation.  Only
single-layer and small sequential networks are exercised by the paper, but the
implementation is general.
"""

from repro.nn.activations import (
    Activation,
    Identity,
    ReLU,
    Sigmoid,
    Softmax,
    Tanh,
    get_activation,
)
from repro.nn.losses import (
    Loss,
    MeanSquaredError,
    CategoricalCrossEntropy,
    get_loss,
)
from repro.nn.initializers import (
    Initializer,
    Zeros,
    Constant,
    NormalInitializer,
    UniformInitializer,
    XavierUniform,
    XavierNormal,
    HeNormal,
    get_initializer,
)
from repro.nn.layers import Dense
from repro.nn.network import SingleLayerNetwork, Sequential
from repro.nn.optimizers import SGD, Momentum, Adam, Optimizer, get_optimizer
from repro.nn.trainer import Trainer, TrainingHistory
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
    "Sigmoid",
    "Softmax",
    "Tanh",
    "get_activation",
    "Loss",
    "MeanSquaredError",
    "CategoricalCrossEntropy",
    "get_loss",
    "Initializer",
    "Zeros",
    "Constant",
    "NormalInitializer",
    "UniformInitializer",
    "XavierUniform",
    "XavierNormal",
    "HeNormal",
    "get_initializer",
    "Dense",
    "SingleLayerNetwork",
    "Sequential",
    "SGD",
    "Momentum",
    "Adam",
    "Optimizer",
    "get_optimizer",
    "Trainer",
    "TrainingHistory",
    "accuracy",
    "input_gradients",
    "mean_sensitivity",
    "sensitivity_map",
    "weight_column_norms",
]
