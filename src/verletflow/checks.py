"""Self-contained property suites behind the ``check`` CLI command.

Each suite returns a list of failure dicts (empty on success) so the CLI
can emit a machine-readable report.
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

SEED = 0  # every suite draws its cases from this seed


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


def check_operators(trials=200):
    """Every operator's reported log-det vs a finite-difference Jacobian."""
    rng = np.random.default_rng(SEED)
    failures = []
    d = 3
    for trial in range(trials):
        tau = rng.uniform(0.05, 0.5)
        for order in (0, 1, 2, 3):
            coeff = rng.uniform(-1.0, 1.0, size=d)
            if order >= 2:
                # stay clear of the singular set
                x = rng.uniform(0.5, 1.5, size=d)
                if order % 2 == 1:
                    x *= rng.choice([-1.0, 1.0], size=d)
                coeff *= 0.3
            else:
                x = rng.uniform(-2.0, 2.0, size=d)
            step = ops.OperatorStep("q", order, tau, coeff)

            def fwd(v, step=step):
                return ops.apply_step(step, v)[0]

            try:
                _, logdet = ops.apply_step(step, x)
                err = abs(float(logdet) - fd_logdet(fwd, x))
            except ops.SingularityError:
                continue
            if err > 1e-5:
                failures.append(
                    {"check": "operator-logdet", "order": order,
                     "trial": trial, "error": err}
                )
    return failures


def check_couplings(trials=200, tol=1e-10, taus=(0.01, 0.5, 1.0)):
    """Coupling layers vs their split-step compositions."""
    rng = np.random.default_rng(SEED)
    failures = []
    d_q, d_p = 2, 3
    for trial in range(trials):
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
        for tau in taus:
            for layer in layers:
                q1, p1, ld1 = apply_coupling(layer, q, p)
                q2, p2, ld2 = apply_verlet_steps(as_verlet_steps(layer, tau), q, p)
                err = max(
                    np.abs(q1 - q2).max(),
                    np.abs(p1 - p2).max(),
                    abs(float(ld1) - float(ld2)),
                )
                if err > tol:
                    failures.append(
                        {"check": "coupling-equivalence", "kind": layer.kind,
                         "side": layer.side, "tau": tau, "trial": trial,
                         "error": float(err)}
                    )
    return failures


def check_roundtrip(trials=20):
    """Forward-then-reverse Taylor-Verlet integration on random flows."""
    rng = np.random.default_rng(SEED)
    failures = []
    for trial in range(trials):
        flow = VerletFlow(2, 2, order=1, hidden=[16], seed=(SEED, trial))
        q = rng.standard_normal(2)
        p = rng.standard_normal(2)
        fwd = verlet_integrate(
            flow, PhaseState(q=q, p=p, t=0.0),
            IntegratorConfig(t0=0.0, t1=1.0, steps=25),
        )
        back = verlet_integrate(
            flow, fwd.state.with_(dlogp=fwd.dlogp),
            IntegratorConfig(t0=1.0, t1=0.0, steps=25),
        )
        err = max(
            np.abs(back.state.q - q).max(),
            np.abs(back.state.p - p).max(),
            abs(float(back.dlogp)),
        )
        if err > 1e-8:
            failures.append(
                {"check": "roundtrip", "trial": trial, "error": float(err)}
            )
    return failures


SUITES = {
    "operators": check_operators,
    "couplings": check_couplings,
    "roundtrip": check_roundtrip,
}
