"""NICE and RealNVP coupling layers on the fixed (q, p) partition, and their
reconstruction as compositions of closed-form split operator steps.

An additive layer equals a single order-0 step with coefficient t/tau; an
affine layer equals an order-0 step with the exp-rescaled shift followed by
an order-1 diagonal step with coefficient s/tau, the two same-side steps
grouped together.  The step duration tau cancels by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import operators as ops
from .autodiff import Mlp

ADDITIVE = "additive"
AFFINE = "affine"


@dataclass
class CouplingLayer:
    """One coupling update acting on ``side`` using the opposite variable."""

    kind: str
    side: str  # "q" or "p"
    shift_net: Mlp
    scale_net: Mlp = None  # affine only

    def __post_init__(self):
        if self.kind not in (ADDITIVE, AFFINE):
            raise ValueError(f"bad kind {self.kind!r}")
        if self.side not in ("q", "p"):
            raise ValueError(f"bad side {self.side!r}")
        if self.kind == AFFINE and self.scale_net is None:
            raise ValueError("affine layer needs a scale net")


def apply_coupling(layer: CouplingLayer, q, p):
    """Apply the layer directly; returns (q', p', log-det).

    Additive: x + t(opposite), log-det 0.  Affine: x * exp(s(opposite)) +
    t(opposite), log-det sum(s).
    """
    q = np.asarray(q, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    x, opp = (q, p) if layer.side == "q" else (p, q)
    shift = layer.shift_net(opp)
    if layer.kind == ADDITIVE:
        x_new = x + shift
        logdet = np.zeros(x.shape[:-1])
    else:
        scale = layer.scale_net(opp)
        x_new = x * np.exp(scale) + shift
        logdet = scale.sum(axis=-1)
    if layer.side == "q":
        return x_new, p, logdet
    return q, x_new, logdet


@dataclass
class VerletStepSpec:
    """A split step whose coefficient is realized lazily from the current
    opposite variable (layer nets are time-independent)."""

    side: str
    order: int
    tau: float
    coeff_fn: object  # callable(opposite) -> coefficient array

    def realize(self, opposite):
        return ops.OperatorStep(
            self.side, self.order, self.tau, self.coeff_fn(opposite)
        )


def as_verlet_steps(layer: CouplingLayer, tau):
    """The ordered split steps whose composition reproduces the layer.

    Additive: one order-0 step with coefficient t/tau.  Affine: order-0
    step with coefficient t / (tau * exp(s)) then an order-1 diagonal step
    with coefficient s/tau (both same-side steps grouped before any
    opposite-side layer, the rearranged grouping of the RealNVP
    construction).
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    if layer.kind == ADDITIVE:
        return [
            VerletStepSpec(
                layer.side, 0, tau, lambda opp: layer.shift_net(opp) / tau
            )
        ]

    # both steps act on layer.side, so they read one opposite array: the
    # shift step hands its scale on to the scale step, and the scale net
    # runs once per composition
    held = []

    def shift_coeff(opp):
        scale = layer.scale_net(opp)
        held[:] = [(opp, scale)]
        return layer.shift_net(opp) / (tau * np.exp(scale))

    def scale_coeff(opp):
        scale = held[0][1] if held and held[0][0] is opp else layer.scale_net(opp)
        held.clear()
        return scale / tau

    return [
        VerletStepSpec(layer.side, 0, tau, shift_coeff),
        VerletStepSpec(layer.side, 1, tau, scale_coeff),
    ]


def apply_verlet_steps(steps, q, p):
    """Realize and apply step specs in order; returns (q', p', total log-det)."""
    q = np.asarray(q, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    total = np.zeros(q.shape[:-1])
    for spec in steps:
        x, opp = (q, p) if spec.side == "q" else (p, q)
        x, logdet = ops.apply_step(spec.realize(opp), x)
        total = total + logdet
        if spec.side == "q":
            q = x
        else:
            p = x
    return q, p, total
