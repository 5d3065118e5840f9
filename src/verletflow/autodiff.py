"""The coefficient nets' multilayer perceptron and its explicit
vector-Jacobian product.

``Mlp.__call__`` can record its layer inputs, and ``Mlp.vjp`` runs the
reverse sweep over such a record for the input and parameter cotangents.
Training and the RK4 traces differentiate through it and through the
other hand-written VJPs (``operators.step_vjp``, ``flow.coefficient_vjp``,
``VerletFlow.field_vjp``, ``integrators.verlet_vjp``); the library has no
generic autodiff.  Everything runs in float64.
"""

from __future__ import annotations

import numpy as np


# ``grad`` and ``Mlp.forward`` (like ``CoefficientNet.taped`` and
# ``VerletFlow.eval_field_taped``) are placeholders for the retired closure
# tape: perfbench/tracing.py still wraps these names, until ROADMAP item 1(a)
# re-points its trace table and removes them.
def grad(output, seed, wrt):
    """Retired tape reverse pass; nothing calls it."""
    raise NotImplementedError("the closure tape is retired")


class Mlp:
    """Fully connected net: tanh hidden layers, affine output.

    Weights are drawn uniformly in [-1/sqrt(n_in), 1/sqrt(n_in)], biases
    start at zero.
    """

    def __init__(self, layer_sizes, seed=0):
        if len(layer_sizes) < 2 or any(n <= 0 for n in layer_sizes):
            raise ValueError(f"bad layer sizes {layer_sizes}")
        self.layer_sizes = list(layer_sizes)
        rng = np.random.default_rng(seed)
        self.weights = []
        self.biases = []
        for n_in, n_out in zip(layer_sizes[:-1], layer_sizes[1:]):
            bound = 1.0 / np.sqrt(n_in)
            self.weights.append(rng.uniform(-bound, bound, size=(n_out, n_in)))
            self.biases.append(np.zeros(n_out))

    @property
    def in_dim(self):
        return self.layer_sizes[0]

    @property
    def out_dim(self):
        return self.layer_sizes[-1]

    def __call__(self, x, acts=None):
        """Plain numpy forward pass; ``x`` is ``(in_dim,)`` or ``(n, in_dim)``.

        ``acts``, if given, is a list that receives the input of every
        layer (``x`` and each hidden activation), which ``vjp`` reads back.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1] != self.in_dim:
            raise ValueError(
                f"input dim {x.shape[-1]} != first layer size {self.in_dim}"
            )
        if acts is not None:
            acts.append(x)
        # bias and tanh in place on the matmul result: one fresh array per layer
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            x = x @ w.T
            x += b
            np.tanh(x, out=x)
            if acts is not None:
                acts.append(x)
        x = x @ self.weights[-1].T
        x += self.biases[-1]
        return x

    def vjp(self, acts, g, grad=None):
        """Reverse sweep of one recorded ``__call__``.

        ``acts`` are the layer inputs that call recorded and ``g`` is the
        cotangent of its output.  Parameter gradients are added into the
        flat array ``grad`` (``get_params`` layout); the input cotangent is
        returned.  ``grad=None`` skips the parameter products, and then
        ``g`` may carry leading (seed) axes in front of the recorded shape.
        """
        views = []
        if grad is not None:
            i = 0
            for w, b in zip(self.weights, self.biases):
                views.append((grad[i : i + w.size].reshape(w.shape),
                              grad[i + w.size : i + w.size + b.size]))
                i += w.size + b.size
        for li in range(len(self.weights) - 1, -1, -1):
            a = acts[li]
            if grad is not None:
                gw, gb = views[li]
                g2 = g.reshape(-1, g.shape[-1])
                gw += g2.T @ a.reshape(-1, a.shape[-1])
                gb += g2.sum(axis=0)
            g = g @ self.weights[li]
            if li > 0:
                g *= 1.0 - a * a  # a = tanh of the layer below
        return g

    def forward(self, x):
        """Retired tape forward pass (see ``grad``)."""
        raise NotImplementedError("the closure tape is retired")

    def get_params(self):
        """Flatten parameters layer-major (W then b per layer), row-major."""
        parts = []
        for w, b in zip(self.weights, self.biases):
            parts.append(w.ravel())
            parts.append(b.ravel())
        return np.concatenate(parts)

    def set_params(self, flat):
        flat = np.asarray(flat, dtype=np.float64)
        i = 0
        for li, (w, b) in enumerate(zip(self.weights, self.biases)):
            self.weights[li] = flat[i : i + w.size].reshape(w.shape).copy()
            i += w.size
            self.biases[li] = flat[i : i + b.size].reshape(b.shape).copy()
            i += b.size
        if i != flat.size:
            raise ValueError(f"expected {i} parameters, got {flat.size}")

    @property
    def num_params(self):
        return sum(w.size + b.size for w, b in zip(self.weights, self.biases))

    def zero_(self):
        """Zero the output layer so the net is identically zero."""
        self.weights[-1][:] = 0.0
        self.biases[-1][:] = 0.0
        return self
