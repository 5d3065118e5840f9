"""Integration of Verlet flows.

Two families:

* the Taylor-Verlet integrator, a composition of the closed-form split
  updates with exact per-step log-det accumulation (invertible, so reverse
  integration applies the exact inverse sub-updates); and
* a fixed-step RK4 baseline that integrates the continuous change of
  variables.  One routine takes the trace of the field Jacobian from field
  vector-Jacobian products over a bank of seeds: each side's basis vectors
  (rk4-exact) or the caller's Hutchinson probes (rk4-hutchinson).  A side's
  coefficient nets read only the opposite variable, so rk4-exact's diagonal
  blocks pass through no net: its trace costs the closed-form
  ``coefficient_vjp`` of every term and no net backward pass, as
  reverse-mode autodiff prunes it when q and p are separate inputs.  Each
  probe of rk4-hutchinson sweeps every net backward once.  Nothing here
  draws random numbers.

Both operate on vector states or on batches ``(n, d)``.  A Taylor-Verlet run
can record its substeps, and ``verlet_vjp`` then differentiates it with
explicit vector-Jacobian products, which is how training gets its gradient.

Neither raises for a row that goes non-finite: ``FAILURE`` records where, and
one rule, ``_hold``, keeps it at its last good state while the rest run on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import operators as ops
from .flow import PhaseState, VerletFlow

TAYLOR_VERLET = "taylor-verlet"
RK4_EXACT = "rk4-exact"
RK4_HUTCHINSON = "rk4-hutchinson"

METHODS = (TAYLOR_VERLET, RK4_EXACT, RK4_HUTCHINSON)


class IntegrationError(RuntimeError):
    """A batch or run failed numerically.  An integrator raises none: it
    records each row's failure in ``IntegrationResult.failures``."""


class DivergenceError(IntegrationError):
    """The trajectory produced non-finite values: the field itself (not a
    singular draw) is pathological, so callers should treat the current
    parameters as diverged."""


# where a row's integration first went non-finite: the step, the substep's
# side and Taylor order (RK4: the field term's; -1 for the state or the sum)
# and the first non-finite component; step -1 if it did not.  A Verlet
# substep's log-det fails at the substep's own site, component 0; an RK4
# step's dlogp at side "" and order -1.  ``_hold`` sets a failed row back at
# every update from then on: a Verlet substep to the state and dlogp from
# before that substep, an RK4 stage input or step end to the step's start.
FAILURE = np.dtype([("step", np.int64), ("side", "U1"), ("order", np.int64),
                    ("component", np.int64)])
NO_FAILURE = np.array((-1, "", -1, -1), FAILURE)


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
    # per trajectory: coefficient-net calls (Verlet) or field calls (RK4)
    field_evaluations: int
    failures: np.ndarray  # per row, a ``FAILURE`` record

    @property
    def dlogp(self):
        return self.state.dlogp

    @property
    def failed(self):
        """Per row, whether its integration failed."""
        return self.failures["step"] >= 0


def _mark(failures, where, values):
    """Record the rows of ``values`` (``(..., d)``) with a non-finite
    component that have not failed yet in ``failures`` as failing at
    ``where``, a (step, side, order) triple, in their first such component."""
    new = ~np.isfinite(values).all(axis=-1) & (failures["step"] < 0)
    failures[new] = where + (0,)
    failures["component"][new] = np.argmin(np.isfinite(values[new]), axis=-1)


def _hold(failures, checks, old, new):
    """``new`` (a tuple of per-row values) with every failed row set back to
    ``old``, after each check ``(where, values)`` has its rows that went
    non-finite marked at ``where``.  While no row has failed, ``new`` as is."""
    if failures["step"].max(initial=-1) < 0 and all(np.isfinite(v).all() for _, v in checks):
        return new
    for where, values in checks:
        _mark(failures, where, values)
    rows = failures["step"] >= 0
    return tuple(np.where(rows[..., None] if np.ndim(n) > rows.ndim else rows, o, n)
                 for o, n in zip(old, new))


@dataclass
class Substep:
    """What the backward sweep needs from one recorded substep: the step as
    applied (an inverse step is stored as the forward step at -tau), its
    input ``x`` and output ``y`` on the step's side, and the coefficient
    net's layer inputs."""

    step: ops.OperatorStep
    x: np.ndarray
    y: np.ndarray
    acts: list


# ---------------------------------------------------------------------------
# Taylor-Verlet


def verlet_integrate(flow: VerletFlow, state: PhaseState, cfg: IntegratorConfig,
                     record=None):
    """Taylor-Verlet integration from cfg.t0 to cfg.t1.

    ``t1 < t0`` runs the exact inverse of the forward integrator that maps
    t1 up to t0, each substep ``apply_step`` at ``tau < 0``.  Coefficients
    are evaluated from the current values, which in an inverse step equal
    the ones the forward step saw because a same-side step never moves the
    opposite side.  ``record``, if a list, receives one ``Substep`` per
    substep for ``verlet_vjp``.  An unrecorded run passes one activation
    list to all its net calls, which share ``hidden`` and so its arrays.
    """
    if cfg.method != TAYLOR_VERLET:
        raise ValueError(f"verlet_integrate got method {cfg.method!r}")
    if abs(state.t - cfg.t0) > 1e-12:
        raise ValueError(f"state.t={state.t} != cfg.t0={cfg.t0}")
    tau = cfg.tau
    # a forward step runs k ascending, q before p; a reverse step (tau < 0)
    # undoes the forward step of duration -tau in the opposite order
    substeps = [(k, side) for k in range(flow.order + 1) for side in "qp"]
    if tau < 0:
        substeps.reverse()
    q, p, dlogp = state.q, state.p, state.dlogp
    acts = []
    failures = np.full(q.shape[:-1], NO_FAILURE)
    for i in range(cfg.steps):
        # the reverse step's forward step ran at frozen time t0 + (i + 1) * tau
        t = cfg.t0 + (i if tau > 0 else i + 1) * tau
        for k, side in substeps:
            x, opp = (q, p) if side == "q" else (p, q)
            acts = [] if record is not None else acts
            net = flow.nets(side)[k]
            step = ops.OperatorStep(side, k, tau, net(opp, t, acts), net.form)
            y, logdet = ops.apply_step(step, x)
            y, logdet = _hold(failures, [((i, side, k), y), ((i, side, k), logdet[..., None])],
                              (x, 0.0), (y, logdet))
            dlogp = dlogp - logdet
            q, p = (y, p) if side == "q" else (q, y)
            if record is not None:
                record.append(Substep(step, x, y, acts))
    return IntegrationResult(PhaseState(q=q, p=p, t=cfg.t1, dlogp=dlogp),
                             cfg.steps * 2 * (flow.order + 1), failures)


def verlet_vjp(flow: VerletFlow, record, g_q, g_p, g_dlogp):
    """Reverse sweep of a recorded ``verlet_integrate`` run: returns
    ``(grad, g_q0, g_p0)``, the gradient w.r.t. the flow parameters (laid
    out as ``flow.params``) and the cotangents of the start q and p.

    ``record`` is the ``Substep`` list the run filled, and ``g_q``, ``g_p``,
    ``g_dlogp`` the cotangents of the final q, p and per-sample dlogp.  The
    sweep reads nothing but the record: it pops the substeps off in reverse
    and leaves it empty, so each substep is released once swept and the
    sweep's temporaries reuse its memory instead of growing the heap.  dlogp
    subtracts every substep's log-det, so each log-det's cotangent is
    ``-g_dlogp``.
    """
    grad = np.zeros_like(flow.params)
    g_logdet = -np.asarray(g_dlogp, dtype=np.float64)
    g = {"q": g_q, "p": g_p}
    while record:
        sub = record.pop()
        side, opp = sub.step.side, "p" if sub.step.side == "q" else "q"
        g[side], g_coeff = ops.step_vjp(sub.step, sub.x, sub.y, g[side], g_logdet)
        c = flow.nets(side)[sub.step.order]
        g[opp] = g[opp] + c.vjp(sub.acts, g_coeff, grad[c.span])
    return grad, g["q"], g["p"]


# ---------------------------------------------------------------------------
# RK4 baseline with trace integration


def _seed_bank(cfg, q, p, eps):
    """``(bank, draws)``: the seeds ``_trace`` takes at every RK4 stage, and
    the number of draws its sum is averaged over.

    rk4-exact's one draw is each side's d basis vectors on a leading axis,
    the other side unseeded: one VJP per side, which reads only that side's
    own terms and sweeps no net (``VerletFlow.field_vjp``).  rk4-hutchinson
    takes one VJP per probe of the caller's bank ``eps``, shaped
    ``q.shape[:-1] + (probes, d_q + d_p)``, each through every net.
    """
    d_q = q.shape[-1]
    if cfg.method == RK4_EXACT:
        if eps is not None:
            raise ValueError("rk4-exact takes no probe bank")
        # read-only views of one identity: a seed is only read
        e_q, e_p = (np.broadcast_to(np.eye(d).reshape((d,) + (1,) * (x.ndim - 1) + (d,)),
                                    (d,) + x.shape) for x in (q, p) for d in [x.shape[-1]])
        return [(e_q, None), (None, e_p)], 1
    shape = q.shape[:-1] + (cfg.hutchinson_probes, d_q + p.shape[-1])
    if eps is None or eps.shape != shape:
        raise ValueError(f"rk4-hutchinson needs a probe bank of shape {shape}")
    probes = [eps[..., j, :].astype(np.float64) for j in range(shape[-2])]
    return [(v[..., :d_q], v[..., d_q:]) for v in probes], len(probes)


def _trace(flow, q, p, record, bank):
    """Per-sample sum of v . (v^T J) over the seeds v of ``bank``, with J
    the field Jacobian restricted to (q, p) that ``record`` evaluated at
    ``q`` and ``p``.

    Each ``(v_q, v_p)`` of ``bank`` is one ``field_vjp``; a side's seed is
    None (unseeded) or stacks seeds on leading axes in front of the state's
    shape.  Terms are added seed after seed, q side before p side.
    """
    lead = q.shape[:-1]
    total = np.zeros(lead)
    for seeds in bank:
        for v, g in zip(seeds, flow.field_vjp(q, p, record, *seeds)):
            if v is not None:
                for term in (g * v).sum(axis=-1).reshape((-1,) + lead):
                    total = total + term
    return total


def rk4_integrate(flow: VerletFlow, state: PhaseState, cfg: IntegratorConfig,
                  hutchinson_eps=None):
    """Classic RK4 on (q, p, l) from ``state.dlogp`` with dl/dt = -tr J.

    Each stage evaluates the field into the run's one record, refilled in
    place, and takes the trace with ``_trace`` over that record.  A stage
    input is checked once, by ``_hold``, and handed on as arrays.
    rk4-hutchinson takes its probe bank ``hutchinson_eps`` from the caller
    (``importance.rademacher_probes``) and rk4-exact takes none.  A row
    whose stage input, field, end state or end dlogp goes non-finite in
    step i is marked in ``failures`` and keeps the values it started step i
    with.
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
    failures = np.full(q.shape[:-1], NO_FAILURE)

    def deriv(i, qq, pp, t):
        qq, pp = _hold(failures, [((i, "q", -1), qq), ((i, "p", -1), pp)], (q, p), (qq, pp))
        field = flow.eval_field(qq, pp, min(max(t, 0.0), 1.0), record)
        for j, (side, x, f) in enumerate(zip("qp", (qq, pp), field)):
            if not np.isfinite(f).all():
                for k, c in enumerate(flow.nets(side)):
                    coeff = record[j * (flow.order + 1) + k][0]
                    _mark(failures, (i, side, k), ops.apply_coefficient(coeff, x, k, c.form))
                _mark(failures, (i, side, -1), f)
        return (*field, -(_trace(flow, qq, pp, record, bank) / draws))

    t = cfg.t0
    for i in range(cfg.steps):
        k1 = deriv(i, q, p, t)
        k2 = deriv(i, q + 0.5 * tau * k1[0], p + 0.5 * tau * k1[1], t + 0.5 * tau)
        k3 = deriv(i, q + 0.5 * tau * k2[0], p + 0.5 * tau * k2[1], t + 0.5 * tau)
        k4 = deriv(i, q + tau * k3[0], p + tau * k3[1], t + tau)
        q1 = q + tau / 6.0 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        p1 = p + tau / 6.0 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        ell1 = ell + tau / 6.0 * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2])
        q, p, ell = _hold(failures, [((i, "q", -1), q1), ((i, "p", -1), p1),
                                     ((i, "", -1), ell1[..., None])],
                          (q, p, ell), (q1, p1, ell1))
        t = cfg.t0 + (i + 1) * tau
    return IntegrationResult(PhaseState(q=q, p=p, t=cfg.t1, dlogp=ell),
                             4 * cfg.steps, failures)


def integrate(flow, state, cfg, hutchinson_eps=None):
    """Dispatch on cfg.method."""
    if cfg.method == TAYLOR_VERLET:
        return verlet_integrate(flow, state, cfg)
    return rk4_integrate(flow, state, cfg, hutchinson_eps=hutchinson_eps)
