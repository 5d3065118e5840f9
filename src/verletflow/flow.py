"""Phase-space state and the order-N Verlet flow parameterization.

The vector field has truncated Taylor form per side: the q-component is
``sum_k s_k^q(p, t) applied to q^k`` and symmetrically for p.  Each Taylor
coefficient ``s_k`` is a small MLP of the opposite variable with the time
appended as one raw scalar feature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .autodiff import Mlp, ParamVector, param_count
from .operators import DENSE, DIAGONAL, apply_coefficient, coefficient_vjp, operand_vjp


class OrderError(ValueError):
    pass


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


@dataclass
class CoefficientNet:
    """One Taylor coefficient s_k for a given side.

    Output form by order: k=0 vector, k=1 diagonal (default) or a dense
    ``(d, d)`` matrix (the net's outputs row-major), k>=2 the sparse
    on-diagonal tensor (a vector of per-component coefficients).  ``span``
    is where the net's parameters sit in its flow's vector.
    """

    side: str  # "q" or "p"
    order: int
    net: Mlp
    form: str = DIAGONAL  # meaningful for order 1 only
    span: slice = None

    def __call__(self, opposite, t, acts=None):
        """Realize the coefficient at (opposite-variable, t), ``(..., d, d)``
        if dense; the net's activations go to ``acts`` (see ``Mlp.__call__``)."""
        opposite = np.asarray(opposite, dtype=np.float64)
        x = np.empty(opposite.shape[:-1] + (opposite.shape[-1] + 1,))
        x[..., :-1] = opposite
        x[..., -1] = t
        out = self.net(x, acts)
        if self.form == DENSE:
            return out.reshape(out.shape[:-1] + (math.isqrt(out.shape[-1]),) * 2)
        return out

    def vjp(self, acts, g, grad=None):
        """``Mlp.vjp`` of one recorded call, from the coefficient's cotangent
        ``g`` to the opposite variable's (the time column dropped)."""
        g = g.reshape(g.shape[:-2] + (-1,)) if self.form == DENSE else g
        return self.net.vjp(acts, g, grad)[..., :-1]

    def taped(self, opposite, t):
        """Retired tape placeholder (see ``autodiff.grad``)."""
        raise NotImplementedError("the closure tape is retired")


class VerletFlow(ParamVector):
    """An order-N bundle of coefficient nets defining the split vector field.

    All parameters live in one flat array, ``params``, in checkpoint order:
    q-side nets k ascending, then p-side, each in the ``layer_views``
    layout; every net's weights and biases are views into it, and
    ``set_params`` remakes every net's weight copies (``Mlp._remake``).
    """

    def __init__(self, d_q, d_p, order, hidden=(64, 64, 64), seed=0, k1_form=DIAGONAL):
        layout, size = self.layout(d_q, d_p, order, hidden, k1_form)
        self.d_q = d_q
        self.d_p = d_p
        self.order = order
        self.k1_form = k1_form if order >= 1 else DIAGONAL
        self.hidden_sizes = list(hidden)
        self.params = np.empty(size)
        self.q_nets, self.p_nets = [], []
        # each net draws its initial values straight into its span
        for sub, (side, k, form, sizes, span) in enumerate(layout):
            mlp = Mlp(sizes, seed=(seed, sub), params=self.params[span])
            self.nets(side).append(CoefficientNet(side, k, mlp, form, span))
        self._lock(self.params)

    @property
    def _args(self):
        return (self.d_q, self.d_p, self.order, self.hidden_sizes, 0, self.k1_form)

    def _remake(self):
        for c in self.q_nets + self.p_nets:
            c.net._remake()

    @staticmethod
    def layout(d_q, d_p, order, hidden, k1_form=DIAGONAL):
        """``(nets, size)`` of the flow of this shape, which it checks and
        allocates nothing for: ``(side, k, form, layer sizes, span)`` per
        coefficient net in ``params`` order, and the parameter count."""
        hidden = list(hidden)
        if order < 0:
            raise OrderError(f"negative order {order}")
        if k1_form not in (DIAGONAL, DENSE):
            raise ValueError(f"bad k=1 form {k1_form!r}")
        # a checkpoint header cannot name an empty hidden list
        if not hidden or min([d_q, d_p] + hidden) < 1:
            raise ValueError(f"dims and hidden sizes must be >= 1, got "
                             f"d_q={d_q}, d_p={d_p}, hidden={hidden}")
        nets, size = [], 0
        for side, d_self, d_opp in (("q", d_q, d_p), ("p", d_p, d_q)):
            for k in range(order + 1):
                form = k1_form if k == 1 else DIAGONAL
                sizes = [d_opp + 1] + hidden + [d_self * d_self if form == DENSE else d_self]
                span = slice(size, size + param_count(sizes))
                nets.append((side, k, form, sizes, span))
                size = span.stop
        return nets, size

    def nets(self, side):
        return self.q_nets if side == "q" else self.p_nets

    def zero_(self):
        """Zero every coefficient net's output layer (identity flow)."""
        for c in self.q_nets + self.p_nets:
            c.net.zero_()
        return self

    # -- field evaluation ---------------------------------------------------

    def eval_field(self, q, p, t, record):
        """(dq/dt, dp/dt) at the arrays ``q``, ``p`` and time ``t``: per
        side, the sum over k = 0..order of the Taylor term s_k applied
        k-fold to the same-side variable.  Nothing is checked: the caller
        passes a state it has checked (``PhaseState`` or ``_hold``).

        The list ``record`` holds ``(coeff, acts)`` per (side, k), q-side
        first and k ascending: the realized coefficient and its net's layer
        inputs, for ``field_vjp``.  A record passed again is refilled.
        """
        out = []
        i = 0
        for side, x, opp in (("q", q, p), ("p", p, q)):
            total = None
            for c in self.nets(side):
                acts = record[i][1] if i < len(record) else []
                coeff = c(opp, t, acts)
                record[i:i + 1] = [(coeff, acts)]
                i += 1
                term = apply_coefficient(coeff, x, c.order, c.form)
                total = term if total is None else total + term
            out.append(total)
        return tuple(out)

    def field_vjp(self, q, p, record, g_q, g_p):
        """Cotangents of (q, p) given cotangents ``g_q``, ``g_p`` of the
        field that ``eval_field(q, p, t, record)`` evaluated.

        A cotangent may be None (zero) or carry leading seed axes in front
        of the state's shape.  A side's nets read only the opposite
        variable, so they are swept backward (``CoefficientNet.vjp``) only
        when both sides have a cotangent: a side given None comes back
        None, and ``(g_q, None)`` costs the q-side terms' ``operand_vjp``
        alone, which forms no coefficient cotangent.  Each side runs k
        descending, the order a reverse sweep over the evaluation takes, and
        the result for a side is its own terms' cotangent plus the opposite
        side's nets' input cotangent.
        """
        both = g_q is not None and g_p is not None
        out = {"q": None, "p": None}
        for j, (side, opp, x, g) in enumerate((("q", "p", q, g_q), ("p", "q", p, g_p))):
            if g is None:
                continue
            g_x = g_opp = None
            for k in range(self.order, -1, -1):
                coeff, acts = record[j * (self.order + 1) + k]
                c = self.nets(side)[k]
                if both:
                    gx_k, g_c = coefficient_vjp(coeff, x, k, c.form, g)
                    g_in = c.vjp(acts, g_c)
                    g_opp = g_in if g_opp is None else g_opp + g_in
                else:
                    gx_k = operand_vjp(coeff, x, k, c.form, g)
                if gx_k is not None:
                    g_x = gx_k if g_x is None else g_x + gx_k
            if g_x is None:  # an order-0 field does not depend on x
                g_x = np.zeros(np.broadcast_shapes(np.shape(g), np.shape(x)))
            out[side] = g_x if out[side] is None else out[side] + g_x
            if both:
                out[opp] = g_opp if out[opp] is None else out[opp] + g_opp
        return out["q"], out["p"]

    def eval_field_taped(self, q, p, t):
        """Retired tape placeholder (see ``autodiff.grad``)."""
        raise NotImplementedError("the closure tape is retired")
