"""Phase-space state and the order-N Verlet flow parameterization.

The vector field has truncated Taylor form per side: the q-component is
``sum_k s_k^q(p, t) applied to q^k`` and symmetrically for p.  Each Taylor
coefficient ``s_k`` is a small MLP of the opposite variable with the time
appended as one raw scalar feature.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .autodiff import Mlp, ParamVector, param_count


class OrderError(ValueError):
    pass


class NumericError(RuntimeError):
    """Non-finite value produced during evaluation."""


@dataclass(frozen=True)
class PhaseState:
    """A point (q, p) in phase space at time t plus the accumulated
    log-density change.  ``q``/``p`` are vectors ``(d,)`` or batches
    ``(n, d)``."""

    q: np.ndarray
    p: np.ndarray
    t: float
    dlogp: object = 0.0

    def __post_init__(self):
        object.__setattr__(self, "q", np.asarray(self.q, dtype=np.float64))
        object.__setattr__(self, "p", np.asarray(self.p, dtype=np.float64))
        if self.q.shape[-1] < 1 or self.p.shape[-1] < 1:
            raise ValueError("q and p must each have dimension >= 1")
        if not (np.all(np.isfinite(self.q)) and np.all(np.isfinite(self.p))):
            raise ValueError("non-finite phase-space coordinates")
        if not 0.0 <= self.t <= 1.0 + 1e-12:
            raise ValueError(f"t={self.t} outside [0, 1]")

    @property
    def d_q(self):
        return self.q.shape[-1]

    @property
    def d_p(self):
        return self.p.shape[-1]

    def with_(self, **kw):
        return replace(self, **kw)


# output forms for the k=1 coefficient
DIAGONAL = "diagonal"
DENSE = "dense"


@dataclass
class CoefficientNet:
    """One Taylor coefficient s_k for a given side.

    Output form by order: k=0 vector, k=1 diagonal (default) or dense
    matrix, k>=2 the sparse on-diagonal tensor (a vector of per-component
    coefficients).  ``span`` is where the net's parameters sit in its
    flow's vector.
    """

    side: str  # "q" or "p"
    order: int
    net: Mlp
    form: str = DIAGONAL  # meaningful for order 1 only
    span: slice = None

    def __call__(self, opposite, t, acts=None, work=None):
        """Realize the coefficient at (opposite-variable, t); plain numpy.

        ``acts`` and ``work`` are passed on to ``Mlp.__call__``: a list to
        record the activations in, or a ``workspace`` to reuse.
        """
        opposite = np.asarray(opposite, dtype=np.float64)
        x = np.empty(opposite.shape[:-1] + (opposite.shape[-1] + 1,))
        x[..., :-1] = opposite
        x[..., -1] = t
        return self.net(x, acts, work)

    def taped(self, opposite, t):
        """Retired tape placeholder (see ``autodiff.grad``)."""
        raise NotImplementedError("the closure tape is retired")


class VerletFlow(ParamVector):
    """An order-N bundle of coefficient nets defining the split vector field.

    All parameters live in one flat array, ``params``, in checkpoint order:
    q-side nets k ascending, then p-side, each in the ``layer_views``
    layout; every net's weights and biases are views into it.
    """

    def __init__(self, d_q, d_p, order, hidden=(64, 64, 64), seed=0, k1_form=DIAGONAL):
        hidden = list(hidden)
        if order < 0:
            raise OrderError(f"negative order {order}")
        if k1_form not in (DIAGONAL, DENSE):
            raise ValueError(f"bad k=1 form {k1_form!r}")
        # a checkpoint header cannot name an empty hidden list
        if not hidden or min([d_q, d_p] + hidden) < 1:
            raise ValueError(f"dims and hidden sizes must be >= 1, got "
                             f"d_q={d_q}, d_p={d_p}, hidden={hidden}")
        self.d_q = d_q
        self.d_p = d_p
        self.order = order
        self.k1_form = k1_form if order >= 1 else DIAGONAL
        self.hidden_sizes = hidden
        layout, size = [], 0
        for side, d_self, d_opp in (("q", d_q, d_p), ("p", d_p, d_q)):
            for k in range(order + 1):
                form = self.k1_form if k == 1 else DIAGONAL
                sizes = [d_opp + 1] + hidden + [d_self * d_self if form == DENSE else d_self]
                span = slice(size, size + param_count(sizes))
                layout.append((side, k, form, sizes, span))
                size = span.stop
        self.params = np.empty(size)
        self.q_nets, self.p_nets = [], []
        # each net draws its initial values straight into its span
        for sub, (side, k, form, sizes, span) in enumerate(layout):
            mlp = Mlp(sizes, seed=(seed, sub), params=self.params[span])
            self.nets(side).append(CoefficientNet(side, k, mlp, form, span))

    def nets(self, side):
        return self.q_nets if side == "q" else self.p_nets

    def zero_(self):
        """Zero every coefficient net's output layer (identity flow)."""
        for c in self.q_nets + self.p_nets:
            c.net.zero_()
        return self

    # -- field evaluation ---------------------------------------------------

    def eval_field(self, state: PhaseState, record):
        """(dq/dt, dp/dt): per side, the sum over k = 0..order of the
        Taylor term s_k applied k-fold to the same-side variable.

        The list ``record`` receives ``(coeff, acts)`` per (side, k),
        q-side first and k ascending: the realized coefficient and its
        net's layer inputs, for ``field_vjp``.
        """
        out = []
        for side, x, opp in (("q", state.q, state.p), ("p", state.p, state.q)):
            terms = []
            for c in self.nets(side):
                acts = []
                coeff = c(opp, state.t, acts)
                record.append((coeff, acts))
                terms.append(apply_coefficient(coeff, x, c.order, c.form))
            total = terms[0]
            for term in terms[1:]:
                total = total + term
            if not np.all(np.isfinite(total)):
                bad = [k for k, y in enumerate(terms) if not np.all(np.isfinite(y))]
                raise NumericError(f"non-finite {side}-field terms at orders {bad}")
            out.append(total)
        return tuple(out)

    def field_vjp(self, state: PhaseState, record, g_q, g_p):
        """Cotangents of (q, p) given cotangents ``g_q``, ``g_p`` of the
        field that ``eval_field(state, record)`` evaluated.

        A cotangent may be None (zero; its side's nets are then skipped) or
        carry leading seed axes in front of the state's shape.  Each side
        runs k descending, the order a reverse sweep over the evaluation
        takes, and the result for a side is its own terms' cotangent plus
        the opposite side's nets' input cotangent.
        """
        out = {"q": None, "p": None}
        for j, (side, opp, g) in enumerate((("q", "p", g_q), ("p", "q", g_p))):
            if g is None:
                continue
            x = state.q if side == "q" else state.p
            g_x = g_opp = None
            for k in range(self.order, -1, -1):
                coeff, acts = record[j * (self.order + 1) + k]
                c = self.nets(side)[k]
                gx_k, g_c = coefficient_vjp(coeff, x, k, c.form, g)
                if gx_k is not None:
                    g_x = gx_k if g_x is None else g_x + gx_k
                # the last input column is the time feature
                g_in = c.net.vjp(acts, g_c)[..., :-1]
                g_opp = g_in if g_opp is None else g_opp + g_in
            if g_x is None:  # order 0: no term depends on its own side
                g_x = np.zeros(np.broadcast_shapes(g.shape, x.shape))
            out[side] = g_x if out[side] is None else out[side] + g_x
            out[opp] = g_opp if out[opp] is None else out[opp] + g_opp
        return out["q"], out["p"]

    def eval_field_taped(self, q, p, t):
        """Retired tape placeholder (see ``autodiff.grad``)."""
        raise NotImplementedError("the closure tape is retired")


def apply_coefficient(coeff, x, k, form=DIAGONAL):
    """Apply a realized order-k coefficient to the same-side variable.

    k=0 ignores x, k=1 is diagonal (elementwise) or dense (matrix-vector),
    k>=2 is the sparse on-diagonal contraction, an elementwise product with
    x^k.
    """
    if k == 0:
        return coeff
    if k == 1:
        if form == DENSE:
            d = x.shape[-1]
            mat = coeff.reshape(coeff.shape[:-1] + (d, d))
            return np.einsum("...ij,...j->...i", mat, x)
        return coeff * x
    return coeff * x ** float(k)


def coefficient_vjp(coeff, x, k, form, g):
    """Cotangents (g_x, g_coeff) of ``apply_coefficient(coeff, x, k, form)``
    given its output cotangent ``g``, which may carry leading seed axes.

    ``g_x`` is None for k=0, whose term does not depend on x.  The products
    are grouped as a reverse sweep over ``coeff * x**k`` groups them.
    """
    if k == 0:
        return None, g
    if k == 1:
        if form == DENSE:
            # y = M x:  g_x = M^T g,  g_M = g (outer) x
            d = x.shape[-1]
            mat = coeff.reshape(coeff.shape[:-1] + (d, d))
            g_x = np.einsum("...ij,...i->...j", mat, g)
            g_m = g[..., :, None] * x[..., None, :]
            return g_x, g_m.reshape(g_m.shape[:-2] + (d * d,))
        return g * coeff, g * x
    c = float(k)
    return g * coeff * c * x ** (c - 1.0), g * x ** c
