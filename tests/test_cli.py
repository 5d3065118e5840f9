"""End-to-end CLI behavior through in-process main(): artifacts, schemas,
determinism, and exit codes (0 ok, 1 check failure, 2 usage, 3 numeric)."""

import csv
import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import verletflow.checks as checks
from verletflow import IntegratorConfig, PhaseState, verlet_integrate
from verletflow.cli import main
from verletflow.densities import standard_normal_logpdf
from verletflow.persist import Config, load_checkpoint


@pytest.fixture
def tiny_config(tmp_path):
    cfg = Config.from_dict(
        {
            "hidden_sizes": [4],
            "train": {"epochs": 3, "batch_size": 16, "steps": 2, "seed": 0},
            "eval": {"steps": 5, "samples": 200, "seed": 1},
        }
    )
    path = tmp_path / "config.json"
    cfg.save(path)
    return path


@pytest.fixture
def trained_dir(tiny_config, tmp_path):
    out = tmp_path / "run"
    assert main(["train", str(tiny_config), "--out", str(out)]) == 0
    return out


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# -- train -------------------------------------------------------------------


def test_train_writes_checkpoint_and_nll(trained_dir):
    flow = load_checkpoint(trained_dir / "checkpoint.txt")
    assert flow.d_q == 2 and flow.order == 1
    rows = read_csv(trained_dir / "nll.csv")
    assert rows[0] == ["epoch", "nll"]
    assert len(rows) == 4  # header + 3 epochs
    assert [r[0] for r in rows[1:]] == ["0", "1", "2"]
    assert all(np.isfinite(float(r[1])) for r in rows[1:])


def test_train_bad_config_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"k1_form": "banded"}')
    assert main(["train", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert "error" in capsys.readouterr().err


def test_train_missing_config_is_usage_error(tmp_path):
    assert main(["train", str(tmp_path / "none.json"), "--out", str(tmp_path)]) == 2


def test_train_divergence_is_numeric_error(tmp_path, capsys):
    cfg = Config.from_dict(
        {
            "hidden_sizes": [4],
            "train": {
                "epochs": 8, "batch_size": 16, "steps": 2, "seed": 0,
                "learning_rate": 1e4,  # guaranteed blow-up
            },
        }
    )
    path = tmp_path / "diverge.json"
    cfg.save(path)
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        rc = main(["train", str(path), "--out", str(tmp_path / "out")])
    assert rc == 3
    assert "diverged" in capsys.readouterr().err
    # the kept checkpoint still loads and is finite
    flow = load_checkpoint(tmp_path / "out" / "checkpoint.txt")
    assert np.all(np.isfinite(flow.get_params()))


def test_train_seed_flag_overrides_config(tiny_config, tmp_path):
    a, b, c = (tmp_path / d for d in ("a", "b", "c"))
    main(["train", str(tiny_config), "--out", str(a), "--seed", "5"])
    main(["train", str(tiny_config), "--out", str(b), "--seed", "5"])
    main(["train", str(tiny_config), "--out", str(c), "--seed", "6"])
    ck = lambda d: (d / "checkpoint.txt").read_bytes()
    assert ck(a) == ck(b)
    assert ck(a) != ck(c)


# -- logz --------------------------------------------------------------------


def test_logz_reports_and_writes_artifacts(trained_dir, tiny_config, tmp_path, capsys):
    csv_path = tmp_path / "logz.csv"
    svg_path = tmp_path / "logz.svg"
    rc = main(
        [
            "logz", str(trained_dir / "checkpoint.txt"),
            "--config", str(tiny_config),
            "--samples", "200", "--csv", str(csv_path), "--svg", str(svg_path),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "logZ[taylor-verlet]" in out
    rows = read_csv(csv_path)
    assert rows[0] == ["method", "seed", "m", "logZ", "sd", "wall_ms", "invalid_count"]
    assert [r[2] for r in rows[1:]] == ["10", "100", "200"]
    assert all(r[0] == "taylor-verlet" for r in rows[1:])
    # SVG parses and contains the truth line plus a curve
    root = ET.fromstring(svg_path.read_text())
    assert root.tag.endswith("svg")
    assert any(el.tag.endswith("polyline") for el in root.iter())


def test_logz_method_flag(trained_dir, capsys):
    rc = main(
        [
            "logz", str(trained_dir / "checkpoint.txt"),
            "--samples", "50", "--steps", "5",
            "--method", "rk4-exact",
        ]
    )
    assert rc == 0
    assert "logZ[rk4-exact]" in capsys.readouterr().out


def test_logz_missing_checkpoint_is_usage_error(tmp_path):
    assert main(["logz", str(tmp_path / "no.txt"), "--samples", "10"]) == 2


def test_logz_non_finite_checkpoint_is_usage_error(trained_dir, capsys):
    path = trained_dir / "checkpoint.txt"
    lines = path.read_text().splitlines()
    lines[-1] = "nan"
    path.write_text("\n".join(lines) + "\n")
    assert main(["logz", str(path), "--samples", "10", "--steps", "2"]) == 2
    captured = capsys.readouterr()
    assert "non-finite" in captured.err
    assert "logZ" not in captured.out


def test_logz_single_sample_is_usage_error(trained_dir, capsys):
    argv = ["logz", str(trained_dir / "checkpoint.txt"), "--samples", "1"]
    assert main(argv) == 2
    assert "at least 2 samples" in capsys.readouterr().err


def test_logz_csv_deterministic(trained_dir, tmp_path):
    args = [
        "logz", str(trained_dir / "checkpoint.txt"),
        "--samples", "100", "--steps", "5", "--seed", "3",
    ]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--csv", str(p1)]) == 0
    assert main(args + ["--csv", str(p2)]) == 0
    # identical modulo the wall_ms timing column
    rows1, rows2 = read_csv(p1), read_csv(p2)
    strip = lambda rows: [r[:5] + r[6:] for r in rows]
    assert strip(rows1) == strip(rows2)


# -- weights-hist ------------------------------------------------------------


def test_weights_hist_artifacts(trained_dir, tmp_path, capsys):
    csv_path = tmp_path / "w.csv"
    svg_path = tmp_path / "w.svg"
    rc = main(
        [
            "weights-hist", str(trained_dir / "checkpoint.txt"),
            "--samples", "100", "--steps", "5",
            "--csv", str(csv_path), "--svg", str(svg_path),
        ]
    )
    assert rc == 0
    rows = read_csv(csv_path)
    assert rows[0] == ["index", "log_weight"]
    assert len(rows) == 101
    root = ET.fromstring(svg_path.read_text())
    assert any(el.tag.endswith("rect") for el in root.iter())
    assert "min=" in capsys.readouterr().out


# -- benchmark ---------------------------------------------------------------


def test_benchmark_two_methods(trained_dir, tmp_path, capsys):
    csv_path = tmp_path / "bench.csv"
    rc = main(
        [
            "benchmark", str(trained_dir / "checkpoint.txt"),
            "--samples", "60", "--steps", "5",
            "--methods", "taylor-verlet,rk4-exact",
            "--csv", str(csv_path),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "taylor-verlet" in out and "rk4-exact" in out
    methods = {r[0] for r in read_csv(csv_path)[1:]}
    assert methods == {"taylor-verlet", "rk4-exact"}


def test_benchmark_unknown_method_is_usage_error(trained_dir):
    rc = main(
        [
            "benchmark", str(trained_dir / "checkpoint.txt"),
            "--samples", "10", "--methods", "taylor-verlet,euler",
        ]
    )
    assert rc == 2


# -- sample ------------------------------------------------------------------


def test_sample_writes_csv(trained_dir, tmp_path):
    path = tmp_path / "samples.csv"
    rc = main(
        [
            "sample", str(trained_dir / "checkpoint.txt"),
            "-n", "25", "--steps", "5", "--csv", str(path),
        ]
    )
    assert rc == 0
    rows = read_csv(path)
    assert rows[0] == ["q0", "q1", "p0", "p1", "log_density"]
    assert len(rows) == 26
    data = np.array([[float(v) for v in r] for r in rows[1:]])
    assert np.all(np.isfinite(data))


@pytest.mark.parametrize("command", ["sample", "logz"])
@pytest.mark.parametrize("steps", ["0", "-1"])
def test_non_positive_steps_is_usage_error(trained_dir, tmp_path, capsys,
                                           command, steps):
    with pytest.raises(SystemExit) as exc:
        main(
            [
                command, str(trained_dir / "checkpoint.txt"),
                "--steps", steps, "--csv", str(tmp_path / "out.csv"),
            ]
        )
    assert exc.value.code == 2
    assert "--steps: must be a positive integer" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


def test_sample_streams_blocks_with_its_own_draws(trained_dir, tmp_path):
    # more rows than one block; the output matches a one-shot integration
    # of the same draws (q rows first, then p rows, from one generator)
    ck, path = trained_dir / "checkpoint.txt", tmp_path / "s.csv"
    argv = ["sample", str(ck), "-n", "1500", "--steps", "3", "--seed", "4",
            "--csv", str(path)]
    assert main(argv) == 0
    flow = load_checkpoint(ck)
    rng = np.random.default_rng(4)
    q0 = rng.standard_normal((1500, 2))
    p0 = rng.standard_normal((1500, 2))
    res = verlet_integrate(
        flow, PhaseState(q=q0, p=p0, t=0.0), IntegratorConfig(steps=3)
    )
    log_model = standard_normal_logpdf(np.concatenate([q0, p0], axis=-1)) + res.dlogp
    want = np.column_stack([res.state.q, res.state.p, log_model])
    got = np.array([[float(v) for v in r] for r in read_csv(path)[1:]])
    assert np.allclose(got, want, rtol=1e-10, atol=1e-12)


# -- check -------------------------------------------------------------------


def test_check_suites_pass(capsys, monkeypatch):
    # shrink the suites so the CLI path stays fast
    monkeypatch.setitem(checks.SUITES, "operators", lambda: checks.check_operators(10))
    monkeypatch.setitem(checks.SUITES, "couplings", lambda: checks.check_couplings(5))
    monkeypatch.setitem(checks.SUITES, "roundtrip", lambda: checks.check_roundtrip(3))
    for suite in ("operators", "couplings", "roundtrip"):
        assert main(["check", suite]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report == {"suite": suite, "failures": []}


def test_check_failure_exit_code(capsys, monkeypatch):
    monkeypatch.setitem(
        checks.SUITES,
        "operators",
        lambda: [{"check": "operator-logdet", "order": 1, "trial": 0, "error": 1.0}],
    )
    assert main(["check", "operators"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["failures"]


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
