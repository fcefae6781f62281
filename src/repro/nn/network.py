"""Network containers: the paper's single-layer model and a general Sequential.

The experiments use :class:`SingleLayerNetwork`, a thin convenience wrapper
around one :class:`~repro.nn.layers.Dense` layer with either a linear output
(MSE loss) or a softmax output (categorical cross-entropy loss), exactly the
two configurations evaluated in the paper.  :class:`Sequential` supports
multi-layer stacks for the paper's stated future-work direction.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

import numpy as np

from repro.nn.layers import Dense
from repro.nn.losses import CategoricalCrossEntropy, Loss, MeanSquaredError
from repro.utils.rng import RandomState


class Sequential:
    """A simple stack of :class:`Dense` layers trained by backpropagation."""

    def __init__(self, layers: Optional[Iterable[Dense]] = None):
        self.layers: List[Dense] = list(layers) if layers is not None else []

    def add(self, layer: Dense) -> "Sequential":
        """Append a layer and return self (chainable)."""
        if self.layers and layer.n_inputs != self.layers[-1].n_outputs:
            raise ValueError(
                f"layer expects {layer.n_inputs} inputs but previous layer "
                f"produces {self.layers[-1].n_outputs} outputs"
            )
        self.layers.append(layer)
        return self

    @property
    def n_inputs(self) -> int:
        """Input dimensionality of the first layer."""
        self._require_layers()
        return self.layers[0].n_inputs

    @property
    def n_outputs(self) -> int:
        """Output dimensionality of the last layer."""
        self._require_layers()
        return self.layers[-1].n_outputs

    def _require_layers(self) -> None:
        if not self.layers:
            raise RuntimeError("the network has no layers")

    # -------------------------------------------------------------- forward

    def forward(self, inputs: np.ndarray, *, training: bool = False) -> np.ndarray:
        """Forward pass through all layers."""
        self._require_layers()
        output = np.atleast_2d(np.asarray(inputs, dtype=float))
        for layer in self.layers:
            output = layer.forward(output, training=training)
        return output

    def predict(self, inputs: np.ndarray) -> np.ndarray:
        """Alias of :meth:`forward` in inference mode."""
        return self.forward(inputs, training=False)

    def predict_labels(self, inputs: np.ndarray) -> np.ndarray:
        """Return argmax class labels for a batch of inputs."""
        return np.argmax(self.predict(inputs), axis=1)

    def __call__(self, inputs: np.ndarray) -> np.ndarray:
        return self.forward(inputs)

    # ------------------------------------------------------------- backward

    def backward(self, grad_output: np.ndarray, *, skip_last_activation: bool = False) -> np.ndarray:
        """Back-propagate a loss gradient through all layers."""
        self._require_layers()
        grad = grad_output
        for index, layer in enumerate(reversed(self.layers)):
            is_last = index == 0
            grad = layer.backward(
                grad, skip_activation=skip_last_activation and is_last
            )
        return grad

    def zero_gradients(self) -> None:
        """Clear gradients on all layers."""
        for layer in self.layers:
            layer.zero_gradients()


class SingleLayerNetwork(Sequential):
    """The paper's model: one dense layer with linear or softmax output.

    Parameters
    ----------
    n_inputs:
        Number of input features (784 for MNIST-like, 3072 for CIFAR-like).
    n_outputs:
        Number of classes (10 in the paper).
    output:
        ``"linear"`` (paired with MSE loss) or ``"softmax"`` (paired with
        categorical cross-entropy), matching the two configurations in the
        paper's Table I and Figures 3-5.
    use_bias:
        Optional bias term; defaults to False to match the crossbar mapping.
    random_state:
        Seed or generator for weight initialization.
    """

    VALID_OUTPUTS = ("linear", "softmax")

    def __init__(
        self,
        n_inputs: int,
        n_outputs: int,
        *,
        output: str = "linear",
        use_bias: bool = False,
        random_state: RandomState = None,
    ):
        output = str(output).lower()
        if output not in self.VALID_OUTPUTS:
            raise ValueError(
                f"output must be one of {self.VALID_OUTPUTS}, got {output!r}"
            )
        layer = Dense(
            n_inputs,
            n_outputs,
            activation=output,
            use_bias=use_bias,
            random_state=random_state,
        )
        super().__init__([layer])
        self.output_type = output

    @property
    def layer(self) -> Dense:
        """The single dense layer."""
        return self.layers[0]

    @property
    def weights(self) -> np.ndarray:
        """The weight matrix ``W`` of shape ``(n_outputs, n_inputs)``."""
        return self.layer.weights

    @weights.setter
    def weights(self, value: np.ndarray) -> None:
        self.layer.set_weights(value)

    def default_loss(self) -> Loss:
        """The loss the paper pairs with this output type."""
        if self.output_type == "softmax":
            return CategoricalCrossEntropy()
        return MeanSquaredError()

    def clone_architecture(self, random_state: RandomState = None) -> "SingleLayerNetwork":
        """Create a new, freshly initialized network with the same shape."""
        return SingleLayerNetwork(
            self.layer.n_inputs,
            self.layer.n_outputs,
            output=self.output_type,
            use_bias=self.layer.use_bias,
            random_state=random_state,
        )
