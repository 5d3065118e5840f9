"""Minimal reverse-mode automatic differentiation over dense numpy arrays.

A ``Tape`` records primitive operations in topological order; ``backward``
replays them in reverse to accumulate gradients.  Arrays are treated as
"feature-last": a value may be a scalar, a vector ``(d,)`` or a batch
``(n, d)``, and every primitive broadcasts over leading batch axes.

Nothing in the library records on the tape any more: training and the RK4
traces use the MLP's explicit ``vjp``.  The tape stays for its unit tests
and for the benchmark's trace table, which wraps ``grad`` and
``Mlp.forward`` by name.  The primitives are add,
sub, mul, neg, linear (affine) layers, tanh, exp, log, integer/constant
powers, last-axis sum, full sum/mean, dot and last-axis concatenation.
Everything runs in float64.
"""

from __future__ import annotations

import numpy as np


class Tape:
    """Append-only record of primitive operations.

    Every node stores its parent ``Var``s and one vector-Jacobian-product
    closure per parent.  Nodes are appended in evaluation order, so every
    node's operands precede it and a reverse sweep is a valid reverse
    topological order.
    """

    def __init__(self):
        self.nodes = []

    def var(self, value):
        """Create a leaf variable recorded on this tape."""
        return Var(np.asarray(value, dtype=np.float64), self, parents=(), vjps=())

    def __len__(self):
        return len(self.nodes)

    def clear(self):
        """Drop every node.  Each node refers back to its tape, so a tape
        that is done with is cyclic garbage until cleared."""
        self.nodes.clear()


class Var:
    """A value recorded on a tape (or a constant, if ``tape`` is None)."""

    __slots__ = ("value", "tape", "index", "parents", "vjps")

    def __init__(self, value, tape=None, parents=(), vjps=()):
        self.value = np.asarray(value, dtype=np.float64)
        self.tape = tape
        self.parents = parents
        self.vjps = vjps
        if tape is not None:
            self.index = len(tape.nodes)
            tape.nodes.append(self)
        else:
            self.index = -1

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Var(shape={self.value.shape}, tape={'yes' if self.tape else 'no'})"

    # -- operator sugar (dispatches to the module-level primitives) --

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return neg(self)


def _tape_of(*xs):
    for x in xs:
        if isinstance(x, Var) and x.tape is not None:
            return x.tape
    raise ValueError("no taped operand")


def _val(x):
    return x.value if isinstance(x, Var) else np.asarray(x, dtype=np.float64)


def _unbroadcast(grad, shape):
    """Sum ``grad`` down to ``shape`` (reverse of numpy broadcasting)."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


def _record(value, operands, vjps):
    tape = _tape_of(*operands)
    parents = tuple(x for x in operands if isinstance(x, Var))
    vjps = tuple(f for x, f in zip(operands, vjps) if isinstance(x, Var))
    return Var(value, tape, parents=parents, vjps=vjps)


# ---------------------------------------------------------------------------
# primitives


def add(a, b):
    if not isinstance(a, Var) and not isinstance(b, Var):
        return _val(a) + _val(b)
    av, bv = _val(a), _val(b)
    return _record(
        av + bv,
        (a, b),
        (lambda g: _unbroadcast(g, av.shape), lambda g: _unbroadcast(g, bv.shape)),
    )


def sub(a, b):
    if not isinstance(a, Var) and not isinstance(b, Var):
        return _val(a) - _val(b)
    av, bv = _val(a), _val(b)
    return _record(
        av - bv,
        (a, b),
        (lambda g: _unbroadcast(g, av.shape), lambda g: _unbroadcast(-g, bv.shape)),
    )


def mul(a, b):
    if not isinstance(a, Var) and not isinstance(b, Var):
        return _val(a) * _val(b)
    av, bv = _val(a), _val(b)
    return _record(
        av * bv,
        (a, b),
        (
            lambda g: _unbroadcast(g * bv, av.shape),
            lambda g: _unbroadcast(g * av, bv.shape),
        ),
    )


def neg(a):
    if not isinstance(a, Var):
        return -_val(a)
    av = _val(a)
    return _record(-av, (a,), (lambda g: -g,))


def tanh(a):
    if not isinstance(a, Var):
        return np.tanh(_val(a))
    y = np.tanh(a.value)
    return _record(y, (a,), (lambda g: g * (1.0 - y * y),))


def exp(a):
    if not isinstance(a, Var):
        return np.exp(_val(a))
    y = np.exp(a.value)
    return _record(y, (a,), (lambda g: g * y,))


def log(a):
    if not isinstance(a, Var):
        return np.log(_val(a))
    av = a.value
    return _record(np.log(av), (a,), (lambda g: g / av,))


def powc(a, c):
    """Elementwise power with a constant exponent.

    Negative bases are allowed only for integer exponents (the closed-form
    operators need integer powers of signed coordinates).
    """
    c = float(c)
    if not isinstance(a, Var):
        return _val(a) ** c
    av = a.value
    if c != round(c) and np.any(av <= 0.0):
        raise ValueError("powc: fractional exponent requires positive base")
    y = av ** c
    return _record(y, (a,), (lambda g: g * c * av ** (c - 1.0),))


def linear(x, w, b):
    """Affine map ``x @ w.T + b`` over the last axis; broadcasts over batches."""
    if not isinstance(x, Var) and not isinstance(w, Var) and not isinstance(b, Var):
        return _val(x) @ _val(w).T + _val(b)
    xv, wv, bv = _val(x), _val(w), _val(b)
    y = xv @ wv.T + bv

    def gx(g):
        return g @ wv

    def gw(g):
        if g.ndim == 1:
            return np.outer(g, xv)
        gz = g.reshape(-1, g.shape[-1])
        xz = np.broadcast_to(xv, g.shape[:-1] + (xv.shape[-1],)).reshape(
            -1, xv.shape[-1]
        )
        return gz.T @ xz

    def gb(g):
        return _unbroadcast(g, bv.shape)

    return _record(y, (x, w, b), (gx, gw, gb))


def sum_last(a):
    """Sum over the last axis (per-sample reduction for batched values)."""
    if not isinstance(a, Var):
        return _val(a).sum(axis=-1)
    av = a.value
    return _record(
        av.sum(axis=-1), (a,), (lambda g: np.broadcast_to(g[..., None], av.shape).copy(),)
    )


def sum_all(a):
    if not isinstance(a, Var):
        return _val(a).sum()
    av = a.value
    return _record(av.sum(), (a,), (lambda g: np.broadcast_to(g, av.shape).copy(),))


def mean_all(a):
    if not isinstance(a, Var):
        return _val(a).mean()
    av = a.value
    n = av.size
    return _record(av.mean(), (a,), (lambda g: np.broadcast_to(g / n, av.shape).copy(),))


def dot(a, b):
    if not isinstance(a, Var) and not isinstance(b, Var):
        return float(_val(a) @ _val(b))
    av, bv = _val(a), _val(b)
    return _record(av @ bv, (a, b), (lambda g: g * bv, lambda g: g * av))


def concat_last(a, b):
    """Concatenate along the last axis."""
    av, bv = _val(a), _val(b)
    if av.ndim != bv.ndim:
        # allow appending a constant column to a batch, e.g. the time feature
        bv = np.broadcast_to(bv, av.shape[:-1] + bv.shape[-1:])
    if not isinstance(a, Var) and not isinstance(b, Var):
        return np.concatenate([av, bv], axis=-1)
    na = av.shape[-1]
    return _record(
        np.concatenate([av, bv], axis=-1),
        (a, b),
        (
            lambda g: g[..., :na],
            lambda g: _unbroadcast(g[..., na:], _val(b).shape),
        ),
    )


# ---------------------------------------------------------------------------
# reverse sweep


# kept by name: the benchmark's trace table wraps it
def grad(output, seed, wrt):
    """General reverse pass: propagate ``seed`` from ``output`` to ``wrt`` Vars.

    Returns one gradient array per entry of ``wrt`` (zeros for unused leaves).
    """
    if not isinstance(output, Var) or output.tape is None:
        raise ValueError("output is not recorded on a tape")
    tape = output.tape
    seed = np.asarray(seed, dtype=np.float64)
    if seed.shape != output.value.shape:
        raise ValueError("seed shape must match output shape")
    grads = {output.index: seed.copy()}
    keep = {v.index for v in wrt}
    for node in reversed(tape.nodes[: output.index + 1]):
        # a node's cotangent is complete once the sweep reaches it
        g = grads.get(node.index) if node.index in keep else grads.pop(node.index, None)
        if g is None:
            continue
        for parent, vjp in zip(node.parents, node.vjps):
            contrib = vjp(g)
            acc = grads.get(parent.index)
            if acc is None:
                grads[parent.index] = np.array(contrib, dtype=np.float64)
            else:
                acc += contrib
    return [grads.get(v.index, np.zeros_like(v.value)) for v in wrt]


def backward(tape, output, leaves):
    """Gradients of a scalar ``output`` with respect to the given leaf Vars."""
    if not isinstance(output, Var) or output.tape is not tape:
        raise ValueError("output is not recorded on this tape")
    if output.value.shape != ():
        raise ValueError("backward requires a scalar output")
    return grad(output, 1.0, leaves)


def jacobian(f, x):
    """Exact Jacobian of a vector map ``f: R^n -> R^n`` via n reverse passes."""
    x = np.asarray(x, dtype=np.float64)
    tape = Tape()
    xv = tape.var(x)
    y = f(xv)
    if not isinstance(y, Var):
        raise ValueError("f must be evaluated through the tape")
    n = x.shape[-1]
    if y.value.shape != x.shape:
        raise ValueError("jacobian requires a square (n -> n) map")
    rows = []
    for i in range(n):
        seed = np.zeros_like(y.value)
        seed[..., i] = 1.0
        rows.append(grad(y, seed, [xv])[0])
    return np.stack(rows, axis=-2)


# ---------------------------------------------------------------------------
# multilayer perceptron


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

    # kept by name: the benchmark's trace table wraps it
    def forward(self, x):
        """Forward pass recorded on the tape of a Var input."""
        if isinstance(x, Var) and x.value.shape[-1] != self.in_dim:
            raise ValueError("input dim mismatch")
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            x = tanh(linear(x, w, b))
        return linear(x, self.weights[-1], self.biases[-1])

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
