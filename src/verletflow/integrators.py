"""Integration of Verlet flows.

Two families:

* the Taylor-Verlet integrator, a composition of the closed-form split
  updates with exact per-step log-det accumulation (invertible, so reverse
  integration applies the exact inverse sub-updates); and
* a fixed-step RK4 baseline that integrates the continuous change of
  variables.  One routine takes the trace of the field Jacobian from field
  vector-Jacobian products over a bank of seeds: each side's basis vectors
  (rk4-exact, as reverse-mode autodiff takes it) or the caller's
  Hutchinson probes (rk4-hutchinson).  Nothing here draws random numbers.

Both operate on vector states or on batches ``(n, d)``.  A Taylor-Verlet run
can record its substeps, and ``verlet_vjp`` then differentiates it with
explicit vector-Jacobian products, which is how training gets its gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import operators as ops
from .flow import NumericError, PhaseState, VerletFlow

TAYLOR_VERLET = "taylor-verlet"
RK4_EXACT = "rk4-exact"
RK4_HUTCHINSON = "rk4-hutchinson"

METHODS = (TAYLOR_VERLET, RK4_EXACT, RK4_HUTCHINSON)


class IntegrationError(RuntimeError):
    """Numeric or singularity failure, annotated with the failing step."""

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


class DivergenceError(IntegrationError):
    """The trajectory produced non-finite values: the field itself (not a
    singular draw) is pathological, so callers should treat the current
    parameters as diverged rather than retry other samples."""


@dataclass
class IntegratorConfig:
    t0: float = 0.0
    t1: float = 1.0
    steps: int = 100
    method: str = TAYLOR_VERLET
    hutchinson_probes: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("steps must be positive")
        if self.t0 == self.t1 or not (0 <= self.t0 <= 1 and 0 <= self.t1 <= 1):
            raise ValueError(f"t0={self.t0}, t1={self.t1}: must differ and lie in [0, 1]")
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.hutchinson_probes < 1:
            raise ValueError("hutchinson_probes must be positive")

    @property
    def tau(self):
        return (self.t1 - self.t0) / self.steps


@dataclass
class IntegrationResult:
    state: PhaseState
    dlogp: object
    # per trajectory: coefficient-net calls (Verlet) or field calls (RK4)
    field_evaluations: int


@dataclass
class Substep:
    """What the backward sweep needs from one recorded substep: the step as
    applied (an inverse step is stored as the forward step at -tau), the
    state after it, and the coefficient net's layer inputs."""

    step: ops.OperatorStep
    q: np.ndarray
    p: np.ndarray
    acts: list


# ---------------------------------------------------------------------------
# Taylor-Verlet


def _substeps(flow, q, p, t, tau, dlogp, record, acts):
    """One Taylor-Verlet step at frozen time t, or its exact inverse.

    ``tau`` is the duration every substep applies, and its sign picks the
    direction.  A forward step (tau > 0) runs k ascending, q before p; the
    inverse of a forward step of duration d runs p before q, k descending,
    each substep ``apply_step`` at ``tau = -d``.  Coefficients are
    re-evaluated from the current values, which equal the ones the forward
    pass saw because a same-side step never moves the opposite side.
    ``acts`` is the run's activation list; a recorded run takes a new one.
    """
    forward = tau > 0
    orders = range(flow.order + 1) if forward else range(flow.order, -1, -1)
    sides = ("q", "p") if forward else ("p", "q")
    for k in orders:
        for side in sides:
            x, opp = (q, p) if side == "q" else (p, q)
            acts = [] if record is not None else acts
            net = flow.nets(side)[k]
            step = ops.OperatorStep(side, k, tau, net(opp, t, acts), net.form)
            x, logdet = ops.apply_step(step, x)
            dlogp = dlogp - logdet
            if side == "q":
                q = x
            else:
                p = x
            if record is not None:
                record.append(Substep(step, q, p, acts))
    return q, p, dlogp


def verlet_integrate(flow: VerletFlow, state: PhaseState, cfg: IntegratorConfig,
                     record=None):
    """Taylor-Verlet integration from cfg.t0 to cfg.t1.

    ``t1 < t0`` runs the exact inverse of the forward integrator that maps
    t1 up to t0.  ``record``, if a list, receives one ``Substep`` per
    substep for ``verlet_vjp``.  An unrecorded run passes one activation
    list to all its net calls, which share ``hidden`` and so its arrays.
    """
    if cfg.method != TAYLOR_VERLET:
        raise ValueError(f"verlet_integrate got method {cfg.method!r}")
    if abs(state.t - cfg.t0) > 1e-12:
        raise ValueError(f"state.t={state.t} != cfg.t0={cfg.t0}")
    tau = cfg.tau
    q, p, dlogp = state.q, state.p, state.dlogp
    acts = []
    for i in range(cfg.steps):
        # a reverse step (tau < 0) undoes the forward step of duration -tau
        # that ran at frozen time t0 + (i + 1) * tau
        t = cfg.t0 + (i if tau > 0 else i + 1) * tau
        try:
            q, p, dlogp = _substeps(flow, q, p, t, tau, dlogp, record, acts)
        except ops.SingularityError as err:
            raise IntegrationError(f"step {i}: {err}", step=i) from err
    try:
        final = PhaseState(q=q, p=p, t=cfg.t1, dlogp=dlogp)
    except ValueError as err:
        raise DivergenceError(
            f"non-finite state after {cfg.steps} steps: {err}", step=cfg.steps - 1
        ) from err
    return IntegrationResult(
        state=final,
        dlogp=dlogp,
        field_evaluations=cfg.steps * 2 * (flow.order + 1),
    )


def verlet_vjp(flow: VerletFlow, start: PhaseState, record, g_q, g_p, g_dlogp):
    """Reverse sweep of a recorded ``verlet_integrate`` run: returns
    ``(grad, g_q0, g_p0)``, the gradient w.r.t. the flow parameters (laid
    out as ``flow.params``) and the cotangents of the start q and p.

    ``start`` is the state the run began from, ``record`` the ``Substep``
    list it filled, and ``g_q``, ``g_p``, ``g_dlogp`` the cotangents of the
    final q, p and per-sample dlogp.  The sweep pops the substeps off
    ``record`` in reverse and leaves it empty: each substep is released once
    swept, so the sweep's temporaries reuse its memory instead of growing
    the heap.  Each substep's input is the same-side value of the state
    before it.  dlogp subtracts every substep's log-det, so each log-det's
    cotangent is ``-g_dlogp``.
    """
    grad = np.zeros_like(flow.params)
    g_logdet = -np.asarray(g_dlogp, dtype=np.float64)
    g = {"q": g_q, "p": g_p}
    while record:
        sub = record.pop()
        step = sub.step
        side, opp = step.side, "p" if step.side == "q" else "q"
        before = record[-1] if record else start
        x = before.q if side == "q" else before.p
        y = sub.q if side == "q" else sub.p
        g[side], g_coeff = ops.step_vjp(step, x, y, g[side], g_logdet)
        c = flow.nets(side)[step.order]
        g[opp] = g[opp] + c.vjp(sub.acts, g_coeff, grad[c.span])
    return grad, g["q"], g["p"]


# ---------------------------------------------------------------------------
# RK4 baseline with trace integration


def _seed_bank(cfg, q, p, eps):
    """``(bank, draws)``: the seeds ``_trace`` takes at every RK4 stage, and
    the number of draws its sum is averaged over.

    rk4-exact's one draw is each side's d basis vectors on a leading axis,
    the other side unseeded: one VJP per side, as reverse-mode autodiff
    takes a trace.  rk4-hutchinson takes one VJP per probe of the caller's
    bank ``eps``, shaped ``q.shape[:-1] + (probes, d_q + d_p)``.
    """
    d_q = q.shape[-1]
    if cfg.method == RK4_EXACT:
        if eps is not None:
            raise ValueError("rk4-exact takes no probe bank")
        e_q, e_p = (np.zeros((x.shape[-1],) + x.shape) for x in (q, p))
        for e in (e_q, e_p):
            for i in range(len(e)):
                e[i, ..., i] = 1.0
        return [(e_q, None), (None, e_p)], 1
    shape = q.shape[:-1] + (cfg.hutchinson_probes, d_q + p.shape[-1])
    if eps is None or eps.shape != shape:
        raise ValueError(f"rk4-hutchinson needs a probe bank of shape {shape}")
    probes = [eps[..., j, :].astype(np.float64) for j in range(shape[-2])]
    return [(v[..., :d_q], v[..., d_q:]) for v in probes], len(probes)


def _trace(flow, state, record, bank):
    """Per-sample sum of v . (v^T J) over the seeds v of ``bank``, with J
    the field Jacobian restricted to (q, p) that ``record`` evaluated.

    Each ``(v_q, v_p)`` of ``bank`` is one ``field_vjp``; a side's seed is
    None (unseeded) or stacks seeds on leading axes in front of the state's
    shape.  Terms are added seed after seed, q side before p side.
    """
    lead = state.q.shape[:-1]
    total = np.zeros(lead)
    for seeds in bank:
        for v, g in zip(seeds, flow.field_vjp(state, record, *seeds)):
            if v is not None:
                for term in (g * v).sum(axis=-1).reshape((-1,) + lead):
                    total = total + term
    return total


def rk4_integrate(flow: VerletFlow, state: PhaseState, cfg: IntegratorConfig,
                  hutchinson_eps=None):
    """Classic RK4 on (q, p, l) from ``state.dlogp`` with dl/dt = -tr J.

    Each stage evaluates the field into the run's one record, refilled in
    place, and takes the trace with ``_trace`` over that record.
    rk4-hutchinson takes its probe bank ``hutchinson_eps`` from the caller
    (``importance.rademacher_probes``) and rk4-exact takes none.  A
    non-finite stage input or field raises ``IntegrationError`` with the
    failing step.
    """
    if cfg.method not in (RK4_EXACT, RK4_HUTCHINSON):
        raise ValueError(f"rk4_integrate got method {cfg.method!r}")
    if abs(state.t - cfg.t0) > 1e-12:
        raise ValueError(f"state.t={state.t} != cfg.t0={cfg.t0}")
    tau = cfg.tau
    q = state.q.copy()
    p = state.p.copy()
    ell = np.zeros(q.shape[:-1]) + state.dlogp
    bank, draws = _seed_bank(cfg, q, p, hutchinson_eps)
    record = []  # one record for the run, refilled at every stage

    def deriv(qq, pp, t):
        try:
            st = PhaseState(q=qq, p=pp, t=min(max(t, 0.0), 1.0))
        except ValueError as err:  # a stage input overflowed
            raise NumericError(str(err)) from err
        fq, fp = flow.eval_field(st, record)
        return fq, fp, -(_trace(flow, st, record, bank) / draws)

    t = cfg.t0
    for i in range(cfg.steps):
        try:
            k1 = deriv(q, p, t)
            k2 = deriv(q + 0.5 * tau * k1[0], p + 0.5 * tau * k1[1], t + 0.5 * tau)
            k3 = deriv(q + 0.5 * tau * k2[0], p + 0.5 * tau * k2[1], t + 0.5 * tau)
            k4 = deriv(q + tau * k3[0], p + tau * k3[1], t + tau)
        except NumericError as err:
            raise IntegrationError(f"step {i}: {err}", step=i) from err
        q = q + tau / 6.0 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        p = p + tau / 6.0 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        ell = ell + tau / 6.0 * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2])
        if not (np.all(np.isfinite(q)) and np.all(np.isfinite(p))):
            raise IntegrationError(f"non-finite state at step {i}", step=i)
        t = cfg.t0 + (i + 1) * tau
    final = PhaseState(q=q, p=p, t=cfg.t1, dlogp=ell)
    return IntegrationResult(
        state=final,
        dlogp=ell,
        field_evaluations=4 * cfg.steps,
    )


def integrate(flow, state, cfg, hutchinson_eps=None):
    """Dispatch on cfg.method."""
    if cfg.method == TAYLOR_VERLET:
        return verlet_integrate(flow, state, cfg)
    return rk4_integrate(flow, state, cfg, hutchinson_eps=hutchinson_eps)
