"""End-to-end acceptance suite.

Each test prints one ``ACCEPTANCE <n> PASS|FAIL`` line with its measured
quantities.  The expensive artifacts (the trained reference flow and the
three importance-sampling runs on it) are computed once per session; the
trained checkpoint is cached under the pytest cache, keyed on the training
config, the package sources and numpy's version, so iterative runs on
unchanged code skip the ~3 minute training (a run with the cache plugin
off trains it every time).  Reference-run magnitudes are
recorded in docs/reference_run.md.
"""

import csv
import hashlib
import json
import time
from pathlib import Path

import numpy as np
import pytest

import verletflow
import verletflow.checks as checks
import verletflow.operators as ops
from verletflow import (
    IntegratorConfig,
    PhaseState,
    VerletFlow,
    estimate_logZ,
    verlet_integrate,
)
from verletflow.autodiff import Mlp
from verletflow.cli import main as cli_main
from verletflow.densities import UnnormalizedDensity, default_trimodal
from verletflow.flow import DENSE, DIAGONAL, apply_coefficient, coefficient_vjp
from verletflow.persist import load_checkpoint, save_checkpoint
from verletflow.training import TrainConfig, nll_batch, train

LOG2 = float(np.log(2.0))

REFERENCE_TRAIN = dict(
    epochs=3000, batch_size=256, steps=20, seed=0, hidden_sizes=(64, 64, 64)
)
# keyed on the code too, so a cached checkpoint and wall time from other
# sources or another numpy are never graded
SOURCE_SHA256 = hashlib.sha256(b"".join(
    path.read_bytes()
    for path in sorted(Path(verletflow.__file__).parent.glob("*.py"))
)).hexdigest()
CACHE_KEY = "verletflow/reference-flow-" + "-".join(
    [f"{k}={v}" for k, v in sorted(REFERENCE_TRAIN.items())]
    + [f"numpy={np.__version__}", f"src={SOURCE_SHA256}"]
)


# one line per criterion; echoed in the terminal summary by conftest.py
ACCEPTANCE_LINES = []


def report(num, name, ok, detail):
    line = f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'} [{name}]: {detail}"
    print(line)
    ACCEPTANCE_LINES.append(line)
    assert ok, line


# -- session-scoped heavy artifacts ------------------------------------------


@pytest.fixture(scope="session")
def trained(request, tmp_path_factory):
    """(flow, training wall seconds) for the reference trimodal run; without
    pytest's cache (``-p no:cacheprovider``) it is trained uncached."""
    cache = getattr(request.config, "cache", None)
    cached = cache.get(CACHE_KEY, None) if cache is not None else None
    path = tmp_path_factory.mktemp("reference") / "checkpoint.txt"
    if cached is not None:
        path.write_text(cached["checkpoint"])
        return load_checkpoint(path), float(cached["wall"])
    flow, rep = train(default_trimodal(), TrainConfig(**REFERENCE_TRAIN))
    assert not rep.diverged and rep.skipped_batches == 0
    save_checkpoint(path, flow)
    if cache is not None:
        cache.set(CACHE_KEY, {"checkpoint": path.read_text(), "wall": rep.wall_time})
    return flow, rep.wall_time


@pytest.fixture(scope="session")
def target():
    return UnnormalizedDensity(default_trimodal(), logZ_true=LOG2)


@pytest.fixture(scope="session")
def weight_runs(trained, target):
    """Importance-sampling reports on the trained flow, one per method."""
    flow, _ = trained
    runs = {}
    for method, n in (
        ("taylor-verlet", 100_000),
        ("rk4-exact", 10_000),
        ("rk4-hutchinson", 10_000),
    ):
        cfg = IntegratorConfig(steps=100, seed=1, method=method)
        runs[method] = estimate_logZ(flow, target, n, cfg)
    return runs


# -- criteria ----------------------------------------------------------------


def test_criterion_1_operator_exactness():
    start = time.perf_counter()
    cases = list(checks.operator_cases())
    elapsed = time.perf_counter() - start
    worst = {k: max(c["error"] for c in cases if c["order"] == k) for k in range(4)}
    draws = len(cases) // len(worst)
    ok = max(worst.values()) < 1e-5 and elapsed < 10.0
    report(
        1, "operator exactness", ok,
        f"worst |logdet - FD| per order {{" +
        ", ".join(f"{k}: {v:.1e}" for k, v in worst.items()) +
        f"}} (tol 1e-5), {draws} draws/order in {elapsed:.1f}s (limit 10s)",
    )


def test_criterion_2_integrator_exact_likelihood():
    cases = list(checks.roundtrip_cases())
    worst = {kind: max(c["error"] for c in cases if c["check"] == kind)
             for kind in ("roundtrip-logdet", "roundtrip")}
    ok = worst["roundtrip-logdet"] < 1e-4 and worst["roundtrip"] < 1e-8
    report(
        2, "integrator exact likelihood", ok,
        f"worst over {len(cases) // 2} flows at {checks.STEPS} steps: "
        f"|dlogp - FD log|det|| = {worst['roundtrip-logdet']:.2e} (tol 1e-4), "
        f"roundtrip = {worst['roundtrip']:.2e} (tol 1e-8)",
    )


def test_criterion_3_analytic_linear_flow():
    rng = np.random.default_rng(103)
    s1 = np.array([0.6, -0.35])
    flow = VerletFlow(2, 2, order=1, hidden=[4], seed=0).zero_()
    flow.q_nets[1].net.biases[-1][:] = s1
    worst = 0.0
    for steps in (1, 10, 100):
        q0 = rng.standard_normal(2)
        p0 = rng.standard_normal(2)
        res = verlet_integrate(
            flow, PhaseState(q=q0, p=p0, t=0.0), IntegratorConfig(steps=steps)
        )
        worst = max(
            worst,
            np.abs(res.state.q - np.exp(s1) * q0).max(),
            np.abs(res.state.p - p0).max(),
            abs(float(res.dlogp) + s1.sum()),
        )
    ok = worst < 1e-10
    report(
        3, "analytic frozen-p linear flow", ok,
        f"worst error over steps {{1,10,100}} = {worst:.2e} (tol 1e-10)",
    )


def test_criterion_4_coupling_equivalence():
    cases = list(checks.coupling_cases())
    worst = max(c["error"] for c in cases)
    ok = worst < 1e-10
    report(
        4, "coupling-layer equivalence", ok,
        f"{len(cases) // len(checks.TAUS)} layer draws x tau in "
        f"{{{', '.join(map(str, checks.TAUS))}}}: "
        f"{len(checks.failures(cases))} failures, worst error {worst:.2e} "
        f"(tol 1e-10)",
    )


def test_criterion_5_logz_reproduction(trained, weight_runs):
    _, train_wall = trained
    tv = weight_runs["taylor-verlet"]
    ex = weight_runs["rk4-exact"]
    err = abs(tv.logZ - LOG2)
    gap = abs(tv.logZ - ex.logZ)
    combined = 2.0 * float(np.hypot(tv.sd, ex.sd))
    ok = (
        err < 0.05
        and gap < combined
        and train_wall < 900.0
        and tv.wall_seconds < 120.0
    )
    report(
        5, "log Z reproduction", ok,
        f"taylor-verlet logZ = {tv.logZ:.4f} (true {LOG2:.4f}, err {err:.4f} "
        f"< 0.05), |tv - exact| = {gap:.4f} < 2*combined SD {combined:.4f}; "
        f"training {train_wall:.0f}s (< 900s), estimation {tv.wall_seconds:.0f}s "
        f"(< 120s)",
    )


def test_criterion_6_speed_ratio(trained, target):
    flow, _ = trained
    n = 1000
    tv = estimate_logZ(
        flow, target, n, IntegratorConfig(steps=100, seed=2, method="taylor-verlet")
    )
    ex = estimate_logZ(
        flow, target, n, IntegratorConfig(steps=100, seed=2, method="rk4-exact")
    )
    ratio = ex.wall_seconds / tv.wall_seconds
    ok = ratio >= 2.0
    report(
        6, "likelihood speed", ok,
        f"equal n={n}, 100 steps: taylor-verlet {tv.wall_seconds:.2f}s vs "
        f"rk4-exact {ex.wall_seconds:.2f}s, ratio {ratio:.1f}x (need >= 2x)",
    )


def test_criterion_7_hutchinson_failure_mode(weight_runs):
    ex = weight_runs["rk4-exact"]
    hu = weight_runs["rk4-hutchinson"]
    excess = float(np.nanmax(hu.log_weights) - np.nanmax(ex.log_weights))
    dev_ex = abs(ex.logZ - LOG2)
    dev_hu = abs(hu.logZ - LOG2)
    ok = excess > 2.0 and dev_hu > 5.0 * dev_ex
    report(
        7, "Hutchinson failure mode", ok,
        f"max log-weight excess over exact = {excess:.2f} nats (> 2), "
        f"logZ deviation {dev_hu:.4f} vs exact {dev_ex:.4f} "
        f"(need > 5x = {5 * dev_ex:.4f})",
    )


def test_criterion_8_gradient_suite(fd_grad):
    rng = np.random.default_rng(108)
    errs = {}

    def grade(name, g, g_fd):
        scale = max(1.0, np.abs(g_fd).max())
        errs[name] = np.abs(g - g_fd).max() / scale

    # the VJP primitives that training and the rk4 traces run on, each as
    # the gradient of <w, output> (+ <wl, logdet>) against FD
    mlp = Mlp([3, 6, 2], seed=8)
    mlp.set_params(rng.standard_normal(mlp.num_params))
    x = rng.standard_normal((4, 3))
    w = rng.standard_normal((4, 2))
    p0 = mlp.get_params()

    def mlp_of_params(params):
        mlp.set_params(params)
        return float((w * mlp(x)).sum())

    acts = []
    mlp(x, acts)
    g_params = np.zeros(mlp.num_params)
    g_x = mlp.vjp(acts, w, g_params)
    grade("Mlp.vjp input", g_x, fd_grad(lambda xx: float((w * mlp(xx)).sum()), x))
    grade("Mlp.vjp params", g_params, fd_grad(mlp_of_params, p0))
    mlp.set_params(p0)

    for order in range(4):
        x = rng.uniform(0.5, 1.5, size=(4, 3)) * rng.choice([-1.0, 1.0], (4, 3))
        c = rng.uniform(-0.2, 0.2, size=(4, 3))
        wy, wl = rng.standard_normal((4, 3)), rng.standard_normal(4)

        def step_objective(xx, cc, order=order, wy=wy, wl=wl):
            y, logdet = ops.apply_step(ops.OperatorStep("q", order, 0.3, cc), xx)
            return float((wy * y).sum() + (wl * logdet).sum())

        step = ops.OperatorStep("q", order, 0.3, c)
        y, _ = ops.apply_step(step, x)
        g_x, g_c = ops.step_vjp(step, x, y, wy, wl)
        grade(f"step_vjp k={order} x", g_x,
              fd_grad(lambda xx: step_objective(xx, c), x))
        grade(f"step_vjp k={order} coeff", g_c,
              fd_grad(lambda cc: step_objective(x, cc), c))

    # the dense k=1 step, y = expm(tau*M) x with log-det tau*tr(M)
    x, m = rng.standard_normal((4, 3)), rng.standard_normal((4, 3, 3))
    wy, wl = rng.standard_normal((4, 3)), rng.standard_normal(4)

    def dense_objective(xx, mm):
        y, logdet = ops.apply_step(ops.OperatorStep("q", 1, 0.3, mm, DENSE), xx)
        return float((wy * y).sum() + (wl * logdet).sum())

    step = ops.OperatorStep("q", 1, 0.3, m, DENSE)
    g_x, g_m = ops.step_vjp(step, x, ops.apply_step(step, x)[0], wy, wl)
    grade("step_vjp k=1 dense x", g_x, fd_grad(lambda xx: dense_objective(xx, m), x))
    grade("step_vjp k=1 dense coeff", g_m,
          fd_grad(lambda mm: dense_objective(x, mm), m))

    for form, c_shape in ((DIAGONAL, (4, 3)), (DENSE, (4, 3, 3))):
        x = rng.standard_normal((4, 3))
        c = rng.standard_normal(c_shape)
        wy = rng.standard_normal((4, 3))
        g_x, g_c = coefficient_vjp(c, x, 1, form, wy)

        def coeff_objective(cc, xx, form=form, wy=wy):
            return float((wy * apply_coefficient(cc, xx, 1, form)).sum())

        grade(f"coefficient_vjp {form} x", g_x,
              fd_grad(lambda xx: coeff_objective(c, xx), x))
        grade(f"coefficient_vjp {form} coeff", g_c,
              fd_grad(lambda cc: coeff_objective(cc, x), c))
    worst_name = max(errs, key=errs.get)
    worst_prim = errs[worst_name]

    # end-to-end: nll_batch gradient on a small flow
    flow = VerletFlow(2, 2, order=1, hidden=[6], seed=3)
    cfg = TrainConfig(epochs=1, batch_size=8, steps=3, seed=0, hidden_sizes=(6,))
    q = default_trimodal().sample(8, seed=4)
    _, params = nll_batch(flow, q, cfg, np.random.default_rng(5), record=True)
    g = params.grad_flat()
    p0 = flow.get_params()
    h = 1e-6
    worst_e2e = 0.0
    for i in rng.choice(p0.size, size=60, replace=False):
        pert = p0.copy()
        pert[i] += h
        flow.set_params(pert)
        fp = nll_batch(flow, q, cfg, np.random.default_rng(5))
        pert[i] -= 2 * h
        flow.set_params(pert)
        fm = nll_batch(flow, q, cfg, np.random.default_rng(5))
        fd = (fp - fm) / (2 * h)
        worst_e2e = max(worst_e2e, abs(g[i] - fd) / max(1.0, abs(fd)))
    flow.set_params(p0)
    ok = worst_prim < 1e-5 and worst_e2e < 1e-3
    report(
        8, "gradient suite", ok,
        f"worst VJP primitive rel err {worst_prim:.1e} [{worst_name}] "
        f"over {len(errs)} checks (tol 1e-5), "
        f"worst end-to-end rel err {worst_e2e:.1e} (tol 1e-3)",
    )


def test_criterion_9_determinism(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({
        "hidden_sizes": [8],
        "train": {"epochs": 5, "batch_size": 32, "steps": 3, "seed": 0},
        "eval": {"steps": 10, "seed": 1},
    }))
    outs = []
    for run in ("a", "b"):
        out = tmp_path / run
        assert cli_main(["train", str(cfg_path), "--out", str(out)]) == 0
        csv_path = tmp_path / f"logz-{run}.csv"
        assert (
            cli_main(
                [
                    "logz", str(out / "checkpoint.txt"),
                    "--samples", "500", "--steps", "10", "--seed", "1",
                    "--csv", str(csv_path),
                ]
            )
            == 0
        )
        outs.append((out, csv_path))
    (a, csv_a), (b, csv_b) = outs
    ck_same = (a / "checkpoint.txt").read_bytes() == (b / "checkpoint.txt").read_bytes()
    nll_same = (a / "nll.csv").read_bytes() == (b / "nll.csv").read_bytes()

    def rows_no_wall(path):
        # every column except wall_ms, which reports real elapsed time and
        # cannot be identical across runs by construction
        with open(path, newline="") as fh:
            return [r[:5] + r[6:] for r in csv.reader(fh)]

    logz_same = rows_no_wall(csv_a) == rows_no_wall(csv_b)
    ok = ck_same and nll_same and logz_same
    report(
        9, "determinism", ok,
        f"checkpoint byte-identical: {ck_same}, nll.csv byte-identical: "
        f"{nll_same}, logz csv identical (wall_ms excluded): {logz_same}",
    )
