"""Shared fixtures.

The expensive trained-flow fixture is session-scoped and cached as a
checkpoint under the pytest cache directory so repeated runs of the
acceptance suite skip retraining.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import verletflow
from verletflow import VerletFlow

SRC = str(Path(verletflow.__file__).resolve().parents[1])


def pytest_terminal_summary(terminalreporter):
    """Echo the acceptance criterion lines after the test summary."""
    mod = sys.modules.get("tests.test_acceptance") or sys.modules.get(
        "test_acceptance"
    )
    lines = getattr(mod, "ACCEPTANCE_LINES", None) if mod else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def fresh_python():
    """Run ``code`` in a new interpreter that imports this source tree and
    return its stdout; for what a long test session's heap and module cache
    would hide."""

    def run(code):
        env = {**os.environ, "PYTHONPATH": SRC}
        return subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, check=True, env=env).stdout

    return run


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def small_flow():
    """A random order-1 flow on 2+2 dims with small nets."""
    return VerletFlow(2, 2, order=1, hidden=[8], seed=7)


@pytest.fixture
def identity_flow():
    """A flow whose field is identically zero (output layers zeroed)."""
    return VerletFlow(2, 2, order=1, hidden=[8], seed=7).zero_()


@pytest.fixture
def dense_contraction_oracle():
    """Full dense-tensor contraction of an on-diagonal (k,1)-tensor.

    Independent check for the sparse fast path: builds the k-way tensor
    with ``coeff_vector`` on its hyper-diagonal and contracts it against
    k copies of ``x``.
    """

    def contract(coeff_vector, x, k):
        x = np.asarray(x, dtype=np.float64)
        d = x.shape[-1]
        tensor = np.zeros((d,) * (k + 1))
        for i in range(d):
            tensor[(i,) * (k + 1)] = coeff_vector[i]
        out = tensor
        for _ in range(k):
            out = out @ x
        return out

    return contract


@pytest.fixture(scope="session")
def fd_grad():
    """Central-difference gradient of a scalar function, step 1e-6.

    The independent oracle for every hand-written VJP: ``fd_grad(f, x)``
    returns df/dx in x's shape and leaves x unmodified.  Step 1e-6 gives
    ~1e-10 truncation error on these smooth maps.  Session-scoped so that
    hypothesis tests can take it.
    """

    def grad(f, x):
        h = 1e-6
        x = np.asarray(x, dtype=np.float64)
        g = np.empty_like(x)
        for i in np.ndindex(x.shape):
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            g[i] = (f(xp) - f(xm)) / (2 * h)
        return g

    return grad
