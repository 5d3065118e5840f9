"""The coefficient nets' multilayer perceptron and its explicit
vector-Jacobian product.

``Mlp.__call__`` can record its layer inputs, and ``Mlp.vjp`` runs the
reverse sweep over such a record for the input and parameter cotangents.
Training and the RK4 traces differentiate through it and through the
other hand-written VJPs (``operators.step_vjp``, ``operators.coefficient_vjp``,
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


def param_count(layer_sizes):
    """Number of parameters of an ``Mlp`` with these layer sizes."""
    return sum((n_in + 1) * n_out for n_in, n_out in zip(layer_sizes[:-1], layer_sizes[1:]))


def layer_views(flat, layer_sizes):
    """Per-layer ``(W, b)`` views of the flat vector ``flat``.

    The one statement of the parameter layout, which the nets, their
    gradients, Adam and checkpoints share: layer after layer, the
    ``(n_out, n_in)`` weight matrix row-major, then the bias.  ``flat`` must
    hold exactly ``param_count(layer_sizes)`` values.
    """
    n = param_count(layer_sizes)
    if flat.shape != (n,):
        raise ValueError(f"expected {n} parameters, got shape {flat.shape}")
    views, i = [], 0
    for n_in, n_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        j = i + n_out * n_in
        views.append((flat[i:j].reshape(n_out, n_in), flat[j : j + n_out]))
        i = j + n_out
    return views


def _rebuilt(cls, args, params):
    obj = cls(*args)
    obj.set_params(params)
    return obj


class ParamVector:
    """Parameters held in one flat float64 array, ``params``, that the
    weights view; reading copies it.

    ``params`` is read-only and ``set_params`` is its one write: it fills the
    array in place through a view taken before the lock (``_lock``), then
    remakes whatever the owner derives from the values (``_remake``).  A
    pickled vector is rebuilt from its constructor's arguments (``_args``)
    and its values, so that its views come back as read-only views.
    """

    def _lock(self, params):
        self._writer = params.view()
        params.flags.writeable = False
        self.params = params

    def __reduce__(self):
        return _rebuilt, (type(self), self._args, self.params)

    def get_params(self):
        return self.params.copy()

    def set_params(self, flat):
        flat = np.asarray(flat, dtype=np.float64)
        if flat.shape != self.params.shape:
            raise ValueError(f"expected {self.params.size} parameters, got shape {flat.shape}")
        self._writer[:] = flat
        self._remake()

    @property
    def num_params(self):
        return self.params.size


class Mlp(ParamVector):
    """Fully connected net: tanh hidden layers, affine output.

    Weights are drawn uniformly in [-1/sqrt(n_in), 1/sqrt(n_in)], biases
    start at zero.  ``params``, if given, is the flat array the net draws
    into and keeps (a coefficient net's slice of its flow's vector);
    otherwise the net gets its own.
    """

    def __init__(self, layer_sizes, seed=0, params=None):
        if len(layer_sizes) < 2 or any(n <= 0 for n in layer_sizes):
            raise ValueError(f"bad layer sizes {layer_sizes}")
        self.layer_sizes = list(layer_sizes)
        params = np.empty(param_count(layer_sizes)) if params is None else params
        layers = layer_views(params, self.layer_sizes)
        self.weights = [w for w, _ in layers]
        self.biases = [b for _, b in layers]
        rng = np.random.default_rng(seed)
        for w, b in layers:
            bound = 1.0 / np.sqrt(w.shape[1])
            w[:] = rng.uniform(-bound, bound, size=w.shape)
            b[:] = 0.0
        self._lock(params)
        for w in self.weights[1:-1]:
            w.flags.writeable = False
        last = len(self.weights) - 1
        self._rhs = [w.T.copy() if 0 < i < last else w.T for i, w in enumerate(self.weights)]

    @property
    def _args(self):
        return (self.layer_sizes,)

    def _remake(self):
        """Refill the weight copies in ``_rhs``, the right operand of each
        layer's product.

        A hidden-to-hidden layer multiplies by a C-contiguous copy of
        ``W.T``: a 64x64 product of 128 rows runs about 1.4x faster that way
        than by the transposed view on OpenBLAS, and from 19 rows of a 2-D
        input both give the same bits.  Its ``W`` view is read-only, so that
        only ``set_params`` changes it and the copy is never stale.  The
        first and output layers keep the view (a contiguous copy of a 64->2
        output layer changes bits at 1024 rows).
        """
        for rhs, w in zip(self._rhs[1:-1], self.weights[1:-1]):
            rhs[:] = w.T

    @property
    def in_dim(self):
        return self.layer_sizes[0]

    @property
    def out_dim(self):
        return self.layer_sizes[-1]

    def __call__(self, x, acts=None):
        """Plain numpy forward pass; ``x`` is ``(in_dim,)`` or ``(n, in_dim)``.

        ``acts``, if given, is the list that holds the input of every layer
        (``x`` and each hidden activation), which ``vjp`` reads back.  A
        hidden layer overwrites the list's array in its place when the
        shapes match and takes a fresh one otherwise: a new list is a
        record, and a list passed again a workspace that keeps the large
        activations off the allocator.  The output is always fresh.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1] != self.in_dim:
            raise ValueError(
                f"input dim {x.shape[-1]} != first layer size {self.in_dim}"
            )
        if acts is None:
            acts = []
        del acts[len(self.weights):]
        acts[:1] = [x]
        shapes = [x.shape[:-1] + (n,) for n in self.layer_sizes[1:-1]]
        if [a.shape for a in acts[1:]] != shapes:
            old = acts[1:]
            acts[1:] = [old[i] if i < len(old) and old[i].shape == s else np.empty(s)
                        for i, s in enumerate(shapes)]
        # bias and tanh in place on the matmul result
        for a, w, b in zip(acts[1:], self._rhs, self.biases):
            x = np.matmul(x, w, out=a)
            x += b
            np.tanh(x, out=x)
        x = x @ self._rhs[-1]
        x += self.biases[-1]
        return x

    def vjp(self, acts, g, grad=None):
        """Reverse sweep of one recorded ``__call__``.

        ``acts`` are the layer inputs that call recorded and ``g`` is the
        cotangent of its output.  Parameter gradients are added into the
        flat array ``grad`` (``layer_views`` layout); the input cotangent is
        returned.  ``grad=None`` skips the parameter products, and then
        ``g`` may carry leading (seed) axes in front of the recorded shape.
        """
        if grad is not None:
            views = layer_views(grad, self.layer_sizes)
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

    def zero_(self):
        """Zero the output layer so the net is identically zero."""
        self.weights[-1][:] = 0.0
        self.biases[-1][:] = 0.0
        return self
