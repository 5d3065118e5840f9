"""The self-check property suites: clean on a correct build, and sensitive
enough to flag a deliberately injected sign bug."""

import numpy as np
import pytest

import verletflow.checks as checks
import verletflow.operators as ops


def test_all_suites_clean():
    assert checks.check_operators(trials=40) == []
    assert checks.check_couplings(trials=10) == []
    assert checks.check_roundtrip(trials=4) == []


def test_suite_registry():
    assert set(checks.SUITES) == {"operators", "couplings", "roundtrip"}


def test_operator_suite_catches_sign_bug(monkeypatch):
    real = ops.apply_step

    def buggy(step, x):
        y, logdet = real(step, x)
        if step.order == 1:
            logdet = -logdet  # injected sign error in the reported log-det
        return y, logdet

    monkeypatch.setattr(ops, "apply_step", buggy)
    failures = checks.check_operators(trials=10)
    assert any(f["order"] == 1 for f in failures)


def test_roundtrip_suite_catches_broken_inverse(monkeypatch):
    import verletflow.integrators as integ

    real = integ.verlet_integrate

    def biased(flow, state, cfg, record=None):
        res = real(flow, state, cfg, record)
        if cfg.t1 < cfg.t0:  # perturb only the reverse leg
            return integ.IntegrationResult(
                state=res.state.with_(q=res.state.q + 1e-4),
                dlogp=res.dlogp,
                field_evaluations=res.field_evaluations,
            )
        return res

    monkeypatch.setattr(checks, "verlet_integrate", biased)
    failures = checks.check_roundtrip(trials=3)
    assert failures and all(f["check"] == "roundtrip" for f in failures)


def test_failures_are_json_serializable():
    import json

    failures = [
        {"check": "operator-logdet", "order": 2, "trial": 1, "error": 1.0}
    ]
    assert json.loads(json.dumps(failures)) == failures
