"""Integration of Verlet flows.

Two families:

* the Taylor-Verlet integrator, a composition of the closed-form split
  updates with exact per-step log-det accumulation (invertible, so reverse
  integration applies the exact inverse sub-updates); and
* a fixed-step RK4 baseline that integrates the continuous change of
  variables, with the trace of the field Jacobian computed either exactly
  with one field vector-Jacobian product per basis vector, as reverse-mode
  autodiff takes it, or estimated with Hutchinson probes.

Both operate on vector states or on batches ``(n, d)``.  A Taylor-Verlet run
can record its substeps, and ``verlet_vjp`` then differentiates it with
explicit vector-Jacobian products, which is how training gets its gradient.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import operators as ops
from .autodiff import workspace
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
        if self.t0 == self.t1:
            raise ValueError("t0 and t1 must differ")
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
    wall_time: float
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


def _substeps(flow, q, p, t, tau, dlogp, record, work):
    """One Taylor-Verlet step at frozen time t, or its exact inverse.

    ``tau`` is the duration every substep applies, and its sign picks the
    direction.  A forward step (tau > 0) runs k ascending, q before p; the
    inverse of a forward step of duration d runs p before q, k descending,
    each substep ``apply_step`` at ``tau = -d``.  Coefficients are
    re-evaluated from the current values, which equal the ones the forward
    pass saw because a same-side step never moves the opposite side.
    ``work`` is the nets' activation workspace, or None.
    """
    forward = tau > 0
    orders = range(flow.order + 1) if forward else range(flow.order, -1, -1)
    sides = ("q", "p") if forward else ("p", "q")
    for k in orders:
        for side in sides:
            x, opp = (q, p) if side == "q" else (p, q)
            acts = [] if record is not None else None
            net = flow.nets(side)[k]
            step = ops.OperatorStep(side, k, tau, net(opp, t, acts, work), net.form)
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
    substep for ``verlet_vjp``.  An unrecorded batch run gives every net
    call one reused activation workspace.
    """
    if cfg.method != TAYLOR_VERLET:
        raise ValueError(f"verlet_integrate got method {cfg.method!r}")
    if abs(state.t - cfg.t0) > 1e-12:
        raise ValueError(f"state.t={state.t} != cfg.t0={cfg.t0}")
    start = time.perf_counter()
    tau = cfg.tau
    q, p, dlogp = state.q, state.p, state.dlogp
    work = None
    if record is None and q.ndim == 2:
        work = workspace(flow._all_nets(), q.shape[0])
    for i in range(cfg.steps):
        # a reverse step (tau < 0) undoes the forward step of duration -tau
        # that ran at frozen time t0 + (i + 1) * tau
        t = cfg.t0 + (i if tau > 0 else i + 1) * tau
        try:
            q, p, dlogp = _substeps(flow, q, p, t, tau, dlogp, record, work)
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
        wall_time=time.perf_counter() - start,
        field_evaluations=cfg.steps * 2 * (flow.order + 1),
    )


def verlet_vjp(flow: VerletFlow, start: PhaseState, record, g_q, g_p, g_dlogp):
    """Reverse sweep of a recorded ``verlet_integrate`` run: returns
    ``(grad, g_q0, g_p0)``, the gradient w.r.t. the flow parameters (in
    ``flow.get_params`` order) and the cotangents of the start q and p.

    ``start`` is the state the run began from, ``record`` the ``Substep``
    list it filled, and ``g_q``, ``g_p``, ``g_dlogp`` the cotangents of the
    final q, p and per-sample dlogp.  The sweep pops the substeps off
    ``record`` in reverse and leaves it empty: each substep is released once
    swept, so the sweep's temporaries reuse its memory instead of growing
    the heap.  Each substep's input is the same-side value of the state
    before it.  dlogp subtracts every substep's log-det, so each log-det's
    cotangent is ``-g_dlogp``.
    """
    grad = np.zeros(flow.num_params)
    offsets, i = {}, 0
    for side in ("q", "p"):
        for k, coeff in enumerate(flow.nets(side)):
            offsets[(side, k)] = i
            i += coeff.net.num_params
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
        net = flow.nets(side)[step.order].net
        lo = offsets[(side, step.order)]
        g_in = net.vjp(sub.acts, g_coeff, grad[lo : lo + net.num_params])
        # the last input column is the time feature
        g[opp] = g[opp] + g_in[..., :-1]
    return grad, g["q"], g["p"]


# ---------------------------------------------------------------------------
# RK4 baseline with trace integration


def _exact_trace(flow, state, record):
    """Per-sample trace of the field Jacobian restricted to (q, p), the way
    a generic CNF takes it with reverse-mode autodiff: one full VJP (the
    side's coefficient nets included) per basis vector.  A side's d basis
    seeds are stacked on a leading axis and pushed through that side only.
    """
    trace = np.zeros(state.q.shape[0]) if state.q.ndim == 2 else 0.0
    for side, x in (("q", state.q), ("p", state.p)):
        d = x.shape[-1]
        seeds = np.zeros((d,) + x.shape)
        for i in range(d):
            seeds[i, ..., i] = 1.0
        if side == "q":
            g = flow.field_vjp(state, record, seeds, None)[0]
        else:
            g = flow.field_vjp(state, record, None, seeds)[1]
        for i in range(d):
            trace = trace + g[i, ..., i]
    return trace


def rademacher_probes(seed, sample_indices, probes, dim):
    """Per-sample Rademacher probe bank, split from (seed, sample-index) so
    estimates are independent of batching and worker count.

    Each sample's probes are drawn once and held fixed for every field
    evaluation along its trajectory, so the integrated trace estimate stays
    unbiased while the estimation error is coherent within a trajectory.

    Returns int8 array of shape (n, probes, dim) with entries +/-1.
    """
    out = np.empty((len(sample_indices), probes, dim), dtype=np.int8)
    for row, idx in enumerate(sample_indices):
        rng = np.random.default_rng((seed, 0x48, idx))
        out[row] = rng.integers(0, 2, size=(probes, dim), dtype=np.int8) * 2 - 1
    return out


def _hutchinson_trace(flow, state, record, eps_bank):
    """Rademacher estimate of the restricted Jacobian trace, batched: the
    mean over probes eps of eps . (eps^T J), one field VJP per probe.

    ``eps_bank`` holds the per-sample probes: (n, probes, d) for a batch or
    (probes, d) for a single state.
    """
    est = np.zeros(state.q.shape[0]) if state.q.ndim == 2 else 0.0
    dq = state.d_q
    probes = eps_bank.shape[-2]
    for j in range(probes):
        eps = eps_bank[..., j, :].astype(np.float64)
        eq, ep = eps[..., :dq], eps[..., dq:]
        vjp_q, vjp_p = flow.field_vjp(state, record, eq, ep)
        est = est + (vjp_q * eq).sum(axis=-1) + (vjp_p * ep).sum(axis=-1)
    return est / probes


def rk4_integrate(flow: VerletFlow, state: PhaseState, cfg: IntegratorConfig,
                  hutchinson_eps=None):
    """Classic RK4 on (q, p, l) with dl/dt = -tr J of the field.

    Each stage evaluates the field once, recording its coefficients and net
    activations, and takes the trace from field VJPs over that record.
    ``hutchinson_eps`` optionally supplies the probe bank (as produced by
    ``rademacher_probes``); otherwise it is built from cfg.seed with
    per-sample splitting at offset zero.  A non-finite stage input or field
    raises ``IntegrationError`` with the failing step.
    """
    if cfg.method not in (RK4_EXACT, RK4_HUTCHINSON):
        raise ValueError(f"rk4_integrate got method {cfg.method!r}")
    if abs(state.t - cfg.t0) > 1e-12:
        raise ValueError(f"state.t={state.t} != cfg.t0={cfg.t0}")
    start = time.perf_counter()
    tau = cfg.tau
    q = state.q.copy()
    p = state.p.copy()
    batch = q.ndim == 2
    ell = np.zeros(q.shape[0]) if batch else 0.0
    if cfg.method == RK4_HUTCHINSON and hutchinson_eps is None:
        n = q.shape[0] if batch else 1
        hutchinson_eps = rademacher_probes(
            cfg.seed, range(n), cfg.hutchinson_probes,
            q.shape[-1] + p.shape[-1],
        )

    def deriv(qq, pp, t):
        try:
            st = PhaseState(q=qq, p=pp, t=min(max(t, 0.0), 1.0))
        except ValueError as err:  # a stage input overflowed
            raise NumericError(str(err)) from err
        record = []
        fq, fp = flow.eval_field(st, record)
        if cfg.method == RK4_EXACT:
            tr = _exact_trace(flow, st, record)
        else:
            bank = hutchinson_eps if batch else hutchinson_eps[0]
            tr = _hutchinson_trace(flow, st, record, bank)
        return fq, fp, -tr

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
        wall_time=time.perf_counter() - start,
        field_evaluations=4 * cfg.steps,
    )


def integrate(flow, state, cfg, hutchinson_eps=None):
    """Dispatch on cfg.method."""
    if cfg.method == TAYLOR_VERLET:
        return verlet_integrate(flow, state, cfg)
    return rk4_integrate(flow, state, cfg, hutchinson_eps=hutchinson_eps)
