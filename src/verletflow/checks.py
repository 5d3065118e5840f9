"""The exactness checks: one case generator per check, shared by the
``check`` CLI command and the acceptance criteria.

Each generator yields one dict per case, its ``error`` the measured
distance from exactness.  ``SUITES`` names each generator, and
``failures`` keeps the cases whose error is above their check's tolerance
(``TOLERANCE``), so the CLI can emit a machine-readable report; the
acceptance criteria grade the worst error of the same cases.  A suite
takes a second or two.
"""

from __future__ import annotations

import numpy as np

from . import operators as ops
from .autodiff import Mlp
from .couplings import (
    ADDITIVE,
    AFFINE,
    CouplingLayer,
    apply_coupling,
    apply_verlet_steps,
    as_verlet_steps,
)
from .flow import PhaseState, VerletFlow
from .integrators import IntegratorConfig, verlet_integrate

SEED = 0  # every generator draws its cases from this seed
TAUS = (0.01, 0.5, 1.0)  # coupling step durations; tau cancels by construction
STEPS = 100  # integration steps of a round-trip case
TOLERANCE = {
    "operator-logdet": 1e-5,
    "coupling-equivalence": 1e-10,
    "roundtrip": 1e-8,
    "roundtrip-logdet": 1e-4,
}


def fd_logdet(apply_fn, x):
    """log|det| of the map's Jacobian by central differences, step h."""
    h = 1e-6
    d = x.size
    jac = np.empty((d, d))
    for j in range(d):
        dx = np.zeros(d)
        dx[j] = h
        jac[:, j] = (apply_fn(x + dx) - apply_fn(x - dx)) / (2 * h)
    sign, logabs = np.linalg.slogdet(jac)
    return logabs


def operator_cases():
    """1000 trials, each one split update per Taylor order 0-3: its
    reported log-det against a finite-difference Jacobian."""
    rng = np.random.default_rng(SEED)
    d = 3
    for trial in range(1000):
        for order in (0, 1, 2, 3):
            tau = rng.uniform(0.05, 0.5)
            coeff = rng.uniform(-1.0, 1.0, size=d)
            if order >= 2:
                # clear of the singular set: |tau (k-1) s| <= 0.3 stays
                # below |x|^(1-k) >= 4/9, so no base crosses zero
                x = rng.uniform(0.5, 1.5, size=d)
                if order % 2 == 1:
                    x *= rng.choice([-1.0, 1.0], size=d)
                coeff *= 0.3
            else:
                x = rng.uniform(-2.0, 2.0, size=d)
            step = ops.OperatorStep("q", order, tau, coeff)
            _, logdet = ops.apply_step(step, x)
            fd = fd_logdet(lambda v: ops.apply_step(step, v)[0], x)
            yield {"check": "operator-logdet", "order": order, "trial": trial,
                   "error": float(abs(logdet - fd))}


def coupling_cases():
    """250 trials, each four random coupling layers (additive and affine,
    each side) against their split-step compositions at every tau in
    ``TAUS``: 1000 layer draws per tau."""
    rng = np.random.default_rng(SEED)
    d_q, d_p = 2, 3
    for trial in range(250):
        layers = [
            CouplingLayer(ADDITIVE, "q", Mlp([d_p, 8, d_q], seed=(SEED, trial, 0))),
            CouplingLayer(ADDITIVE, "p", Mlp([d_q, 8, d_p], seed=(SEED, trial, 1))),
            CouplingLayer(
                AFFINE, "q",
                Mlp([d_p, 8, d_q], seed=(SEED, trial, 2)),
                Mlp([d_p, 8, d_q], seed=(SEED, trial, 3)),
            ),
            CouplingLayer(
                AFFINE, "p",
                Mlp([d_q, 8, d_p], seed=(SEED, trial, 4)),
                Mlp([d_q, 8, d_p], seed=(SEED, trial, 5)),
            ),
        ]
        q = rng.standard_normal(d_q)
        p = rng.standard_normal(d_p)
        for tau in TAUS:
            for layer in layers:
                q1, p1, ld1 = apply_coupling(layer, q, p)
                q2, p2, ld2 = apply_verlet_steps(as_verlet_steps(layer, tau), q, p)
                err = max(
                    np.abs(q1 - q2).max(),
                    np.abs(p1 - p2).max(),
                    abs(float(ld1) - float(ld2)),
                )
                yield {"check": "coupling-equivalence", "kind": layer.kind,
                       "side": layer.side, "tau": tau, "trial": trial,
                       "error": float(err)}


def roundtrip_cases():
    """20 trials, each a random order-1 flow integrated forward and back over
    ``STEPS`` Taylor-Verlet steps: two cases, the round trip's distance
    from the start point and zero log-density change (``roundtrip``), and
    the forward map's log-det against a finite-difference Jacobian
    (``roundtrip-logdet``)."""
    rng = np.random.default_rng(SEED)
    forward = IntegratorConfig(t0=0.0, t1=1.0, steps=STEPS)
    reverse = IntegratorConfig(t0=1.0, t1=0.0, steps=STEPS)
    for trial in range(20):
        flow = VerletFlow(2, 2, order=1, hidden=[16], seed=(SEED, trial))
        q = rng.standard_normal(2)
        p = rng.standard_normal(2)
        fwd = verlet_integrate(flow, PhaseState(q=q, p=p, t=0.0), forward)
        back = verlet_integrate(flow, fwd.state, reverse)
        err = max(
            np.abs(back.state.q - q).max(),
            np.abs(back.state.p - p).max(),
            abs(float(back.dlogp)),
        )
        yield {"check": "roundtrip", "trial": trial, "error": float(err)}

        def composed(x):
            res = verlet_integrate(flow, PhaseState(q=x[:2], p=x[2:], t=0.0), forward)
            return np.concatenate([res.state.q, res.state.p])

        # dlogp = -log|det J| of the forward map
        fd = fd_logdet(composed, np.concatenate([q, p]))
        yield {"check": "roundtrip-logdet", "trial": trial,
               "error": float(abs(fwd.dlogp + fd))}


def failures(cases):
    """The cases whose error is above their check's tolerance."""
    return [case for case in cases if case["error"] > TOLERANCE[case["check"]]]


SUITES = {
    "operators": operator_cases,
    "couplings": coupling_cases,
    "roundtrip": roundtrip_cases,
}
