"""End-to-end CLI behavior through in-process main(): artifacts, schemas,
determinism, and exit codes (0 ok, 1 check failure, 2 usage, 3 numeric)."""

import csv
import json
import os
import resource
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import verletflow
import verletflow.checks as checks
import verletflow.cli as cli
from verletflow import IntegratorConfig, PhaseState, VerletFlow, verlet_integrate
from verletflow.cli import main
from verletflow.densities import standard_normal_logpdf
from verletflow.importance import estimate_logZ, log_weights, source_rows
from verletflow.persist import Config, load_checkpoint, save_checkpoint


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "hidden_sizes": [4],
        "train": {"epochs": 3, "batch_size": 16, "steps": 2, "seed": 0},
        "eval": {"steps": 5, "samples": 200, "seed": 1},
    }))
    return path


@pytest.fixture
def trained_dir(tiny_config, tmp_path):
    out = tmp_path / "run"
    assert main(["train", str(tiny_config), "--out", str(out)]) == 0
    return out


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def files_under(root):
    return sorted(p.relative_to(root) for p in root.rglob("*"))


def without_wall_ms(rows):
    """Report-CSV rows minus the wall_ms timing column."""
    return [r[:5] + r[6:] for r in rows]


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


@pytest.mark.parametrize(
    "config",
    [{"train": {"steps": 0}}, [1, 2], {"target": "trimodal"}, {"dims": [2, 2]},
     {"train": 5}, {"eval": None},
     {"target": {"type": "trimodal", "variance": float("inf")}},
     {"target": {"type": "gmm", "weights": [1.0], "means": [[0.0, float("nan")]],
                 "variances": [1.0]}},
     {"target": {"type": "trimodal", "logZ_true": float("nan")}},
     {"hidden_sizes": [4], "train": {"epoch": 2, "batch_size": 16, "steps": 2}},
     {"eval": {"method": "rk5"}}, {"eval": {"steps": 0}},
     {"eval": {"hutchinson_probes": 0}}, {"target": {"type": "normal", "variance": 5}},
     {"hidden_sizes": [4], "train": {"epochs": 1, "batch_size": 8, "steps": 2},
      "eval": {"samples": -5}}, {"eval": {"samples": 0}},
     {"target": {"type": "gmm", "weights": [1.5, -0.5], "means": [[0, 0], [1, 1]],
                 "variances": [1, 1]}},
     {"target": {"type": "gmm", "weights": [0.5, 0.5], "means": [[0, 0], [1, 1]],
                 "variances": [[1, 1], [1, 1]]}},
     {"target": {"type": "gmm", "weights": [[0.5, 0.5]], "means": [[0, 0]],
                 "variances": [1]}}],
    ids=["zero-steps", "list-config", "string-target", "list-dims", "scalar-train",
         "null-eval", "inf-variance", "nan-mean", "nan-logz", "typo-key",
         "eval-method", "eval-zero-steps", "eval-zero-probes", "normal-variance",
         "eval-negative-samples", "eval-zero-samples", "gmm-negative-weight",
         "gmm-2d-variances", "gmm-2d-weights"],
)
def test_untrainable_config_is_usage_error(tmp_path, capsys, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))  # writes NaN and Infinity as JSON allows
    assert main(["train", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert not (tmp_path / "o").exists()  # a rejected run leaves no directory


def test_train_dense_k1_trains_and_logz_reads_it(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"k1_form": "dense", "hidden_sizes": [4],
                                "train": {"epochs": 2, "batch_size": 16, "steps": 2}}))
    assert main(["train", str(path), "--out", str(tmp_path / "o")]) == 0
    assert "trained 2 epochs" in capsys.readouterr().out
    assert len(read_csv(tmp_path / "o" / "nll.csv")) == 3
    checkpoint = str(tmp_path / "o" / "checkpoint.txt")
    assert load_checkpoint(checkpoint).k1_form == "dense"
    assert main(["logz", checkpoint, "--samples", "20", "--steps", "3"]) == 0
    assert "logZ[taylor-verlet]" in capsys.readouterr().out


def test_train_that_trains_nothing_is_numeric_error(tmp_path, capsys):
    # every order-3 batch at the default init hits a base that crosses zero
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"order": 3, "train": {"epochs": 5}}))
    assert main(["train", str(path), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "trained 0 of 5 epochs; 5 batches skipped" in err
    assert not (tmp_path / "o").exists()  # no checkpoint, no nll.csv


def test_train_names_the_skipped_share(tiny_config, tmp_path, capsys, monkeypatch):
    import verletflow.training as tr
    from verletflow.integrators import IntegrationError

    real, calls = tr.nll_batch, []

    def skip_second(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise IntegrationError("step 0: singular")
        return real(*args, **kwargs)

    monkeypatch.setattr(tr, "nll_batch", skip_second)
    assert main(["train", str(tiny_config), "--out", str(tmp_path / "o")]) == 0
    out = capsys.readouterr().out
    assert "trained 2 epochs" in out and "(1 of 3 batches skipped)" in out


@pytest.mark.parametrize(
    "config",
    [{"train": {"batch_size": 8.9, "steps": 2.5}}, {"hidden_sizes": [64.5, 64]},
     {"hidden_sizes": [0, 64]}],
    ids=["float-counts", "float-width", "zero-width"],
)
def test_non_integer_config_counts_are_usage_errors(tmp_path, capsys, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["train", str(path), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_train_missing_config_is_usage_error(tmp_path):
    assert main(["train", str(tmp_path / "none.json"), "--out", str(tmp_path)]) == 2


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_train_divergence_is_numeric_error(tmp_path, capsys):
    path = tmp_path / "diverge.json"
    path.write_text(json.dumps({
        "hidden_sizes": [4],
        "train": {
            "epochs": 8, "batch_size": 16, "steps": 2, "seed": 0,
            "learning_rate": 1e4,  # guaranteed blow-up
        },
    }))
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


def test_logz_method_flag(trained_dir, tmp_path, capsys, monkeypatch):
    # without --csv or --svg, logz writes no file
    monkeypatch.chdir(tmp_path)
    before = files_under(tmp_path)
    rc = main(
        [
            "logz", str(trained_dir / "checkpoint.txt"),
            "--samples", "50", "--steps", "5",
            "--method", "rk4-exact",
        ]
    )
    assert rc == 0
    assert "logZ[rk4-exact]" in capsys.readouterr().out
    assert files_under(tmp_path) == before


@pytest.mark.parametrize("method", ["rk4-exact", "rk4-hutchinson"])
def test_logz_rk4_on_dense_k1_checkpoint(tmp_path, capsys, method):
    # the rk4 baselines trace the dense k=1 field as well as the diagonal one
    flow = VerletFlow(2, 2, order=1, hidden=[4], seed=1, k1_form="dense")
    save_checkpoint(tmp_path / "dense.txt", flow)
    rc = main(["logz", str(tmp_path / "dense.txt"), "--samples", "20",
               "--steps", "3", "--method", method])
    assert rc == 0
    assert f"logZ[{method}]" in capsys.readouterr().out


@pytest.mark.parametrize(
    "command, methods, failing",
    [("logz", ["--method", "rk4-exact"], "rk4-exact"),
     ("weights-hist", ["--method", "rk4-exact"], "rk4-exact"),
     ("benchmark", ["--methods", "taylor-verlet,rk4-exact"], "taylor-verlet"),
     ("logz", ["--method", "taylor-verlet"], "taylor-verlet")],
    ids=["logz", "weights-hist", "benchmark", "logz-partial"],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_all_samples_failing_is_numeric_error(tmp_path, capsys, command, methods,
                                              failing):
    # order-3 flow whose q^2 and q^3 terms overflow in every rk4 trajectory
    # and in 12 of the 16 taylor-verlet ones: fewer than SD_BATCHES valid
    # weights leave no sd to report, so a partial failure exits 3 as well
    flow = VerletFlow(2, 2, order=3, hidden=[2], seed=0).zero_()
    flow.q_nets[2].net.biases[-1][:] = 1e3
    flow.q_nets[3].net.biases[-1][:] = 1e3
    save_checkpoint(tmp_path / "o3.txt", flow)
    rc = main([command, str(tmp_path / "o3.txt"), "--samples", "16",
               "--steps", "10", *methods])
    assert rc == 3
    captured = capsys.readouterr()
    assert "numeric failure" in captured.err and f"[{failing}]" in captured.err
    assert "nan" not in captured.out


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_far_out_samples_are_scored_without_warnings(tmp_path, capsys):
    # every trajectory ends finite but ~1e200 out, where the target's
    # log-density overflows: each weight is invalid, and no warning shows
    flow = VerletFlow(2, 2, order=1, hidden=[2], seed=0).zero_()
    flow.q_nets[0].net.biases[-1][:] = 1e200
    report = estimate_logZ(flow, Config().build_target(), 20, IntegratorConfig(steps=2))
    assert report.invalid_count == 20
    save_checkpoint(tmp_path / "far.txt", flow)
    assert main(["logz", str(tmp_path / "far.txt"), "--samples", "20", "--steps", "2"]) == 3
    captured = capsys.readouterr()
    assert captured.err == "numeric failure: 20 of 20 samples failed, " \
                           "fewer than 10 valid [taylor-verlet]\n"
    assert captured.out == ""


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


@pytest.mark.parametrize(
    "edit",
    [lambda lines: lines[:8] + ["0.5x"] + lines[9:],  # garbled parameter
     lambda lines: lines[:-1],  # one parameter line missing
     lambda lines: lines[:7]],  # no parameters at all
    ids=["garbled", "missing", "empty-body"],
)
def test_logz_bad_parameter_lines_are_usage_errors(trained_dir, capsys, edit):
    path = trained_dir / "checkpoint.txt"
    path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["logz", str(path), "--samples", "10", "--steps", "2"]) == 2
    assert caught == []
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "bad checkpoint" in captured.err
    assert "Warning" not in captured.err and captured.out == ""


@pytest.mark.parametrize("command", ["logz", "sample"])
def test_negative_order_checkpoint_is_usage_error(tmp_path, capsys, command):
    # order -1 would load as a flow with no nets and transform nothing
    path = tmp_path / "ck.txt"
    path.write_text("verletflow-v1\norder=-1\nd_q=2\nd_p=2\nhidden=4\n\n")
    out = tmp_path / "out.csv"
    assert main([command, str(path), "--steps", "2", "--csv", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "negative order" in captured.err
    assert captured.out == "" and not out.exists()


def test_logz_single_sample_is_usage_error(trained_dir, capsys):
    # the sd is taken over SD_BATCHES = 10 batches: fewer samples cannot give one
    for n in ("1", "9"):
        argv = ["logz", str(trained_dir / "checkpoint.txt"), "--samples", n]
        assert main(argv) == 2
        assert "at least 10 samples" in capsys.readouterr().err


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
    assert without_wall_ms(rows1) == without_wall_ms(rows2)


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


def test_benchmark_removes_duplicate_methods_with_a_warning(trained_dir, tmp_path,
                                                            capsys):
    csv_path = tmp_path / "bench.csv"
    rc = main(
        [
            "benchmark", str(trained_dir / "checkpoint.txt"),
            "--samples", "20", "--steps", "3", "--csv", str(csv_path),
            "--methods", "taylor-verlet,rk4-exact,taylor-verlet",
        ]
    )
    assert rc == 0
    captured = capsys.readouterr()
    assert "duplicate methods removed" in captured.err
    assert len(captured.out.splitlines()) == 2
    methods = [r[0] for r in read_csv(csv_path)[1:]]
    assert list(dict.fromkeys(methods)) == ["taylor-verlet", "rk4-exact"]


@pytest.mark.parametrize("methods", ["taylor-verlet", "rk4-exact,rk4-exact"])
def test_benchmark_single_distinct_method_is_usage_error(trained_dir, capsys,
                                                         methods):
    rc = main(["benchmark", str(trained_dir / "checkpoint.txt"),
               "--samples", "10", "--methods", methods])
    assert rc == 2
    captured = capsys.readouterr()
    assert "at least 2 distinct methods" in captured.err and captured.out == ""


def test_benchmark_methods_share_the_seed(trained_dir, tmp_path):
    # each method's benchmark rows are the rows logz writes for that
    # method at the same seed (minus wall_ms)
    ck = str(trained_dir / "checkpoint.txt")
    common = ["--samples", "30", "--steps", "3", "--seed", "5"]
    bench = tmp_path / "bench.csv"
    assert main(["benchmark", ck, *common, "--csv", str(bench),
                 "--methods", "rk4-hutchinson,taylor-verlet"]) == 0
    rows = without_wall_ms(read_csv(bench))
    assert {r[1] for r in rows[1:]} == {"5"}
    for method in ("rk4-hutchinson", "taylor-verlet"):
        single = tmp_path / f"{method}.csv"
        assert main(["logz", ck, *common, "--csv", str(single),
                     "--method", method]) == 0
        logz_rows = without_wall_ms(read_csv(single))
        assert logz_rows[1:] == [r for r in rows[1:] if r[0] == method]


def test_benchmark_honours_workers(trained_dir, tmp_path, monkeypatch):
    # n spans two 1024-row blocks, so two workers really split the run
    seen = []
    real = cli.estimate_logZ

    def spy(*args, workers=1, **kwargs):
        seen.append(workers)
        return real(*args, workers=workers, **kwargs)

    monkeypatch.setattr(cli, "estimate_logZ", spy)
    ck = str(trained_dir / "checkpoint.txt")
    paths = []
    for workers in ("1", "2"):
        paths.append(tmp_path / f"w{workers}.csv")
        assert main(["benchmark", ck, "--samples", "1100", "--steps", "2",
                     "--methods", "taylor-verlet,rk4-exact",
                     "--workers", workers, "--csv", str(paths[-1])]) == 0
    assert seen == [1, 1, 2, 2]
    assert without_wall_ms(read_csv(paths[0])) == without_wall_ms(read_csv(paths[1]))


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


@pytest.mark.parametrize("command", ["train", "logz", "weights-hist", "benchmark",
                                     "sample"])
def test_negative_seed_is_usage_error(trained_dir, tiny_config, tmp_path, capsys,
                                      command):
    if command == "train":
        argv = ["train", str(tiny_config), "--out", str(tmp_path / "o")]
    else:
        argv = [command, str(trained_dir / "checkpoint.txt"),
                "--csv", str(tmp_path / "out.csv")]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--seed", "-1"])
    assert exc.value.code == 2
    assert "--seed: must be a non-negative integer" in capsys.readouterr().err
    assert not (tmp_path / "o").exists() and not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("section", ["train", "eval"])
def test_negative_config_seed_is_usage_error(trained_dir, tmp_path, capsys, section):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"hidden_sizes": [4], section: {"seed": -1}}))
    if section == "train":
        argv = ["train", str(path), "--out", str(tmp_path / "o")]
    else:
        argv = ["logz", str(trained_dir / "checkpoint.txt"), "--config", str(path),
                "--samples", "10", "--steps", "2"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "seeds must be >= 0" in err


def test_sample_streams_blocks_from_source_rows(trained_dir, tmp_path):
    # more rows than one block; the output matches a one-shot integration
    # of the estimators' per-sample draws [q0 | p0] for the same seed
    ck, path = trained_dir / "checkpoint.txt", tmp_path / "s.csv"
    argv = ["sample", str(ck), "-n", "1500", "--steps", "3", "--seed", "4",
            "--csv", str(path)]
    assert main(argv) == 0
    flow = load_checkpoint(ck)
    x0 = source_rows(4, 0, 1500, 4)
    q0, p0 = x0[:, :2], x0[:, 2:]
    res = verlet_integrate(
        flow, PhaseState(q=q0, p=p0, t=0.0), IntegratorConfig(steps=3)
    )
    log_model = standard_normal_logpdf(np.concatenate([q0, p0], axis=-1)) + res.dlogp
    want = np.column_stack([res.state.q, res.state.p, log_model])
    got = np.array([[float(v) for v in r] for r in read_csv(path)[1:]])
    assert np.allclose(got, want, rtol=1e-10, atol=1e-12)


def test_sample_rows_are_the_estimators_samples(trained_dir, tmp_path):
    # row i of `sample --seed s` is log-weight i of `logz --seed s`: the
    # same draw, end state and model log-density; `-n 5` is a prefix
    ck = trained_dir / "checkpoint.txt"
    common = ["sample", str(ck), "--steps", "3", "--seed", "4", "--csv"]
    assert main(common + [str(tmp_path / "all.csv"), "-n", "1500"]) == 0
    assert main(common + [str(tmp_path / "head.csv"), "-n", "5"]) == 0
    rows = np.array([[float(v) for v in r] for r in read_csv(tmp_path / "all.csv")[1:]])
    head = np.array([[float(v) for v in r] for r in read_csv(tmp_path / "head.csv")[1:]])
    # a 5-row block and a 1024-row block may round the nets' GEMMs apart
    assert np.allclose(head, rows[:5], rtol=1e-10, atol=0)
    target = Config().build_target()
    cfg = IntegratorConfig(steps=3, seed=4)
    lw = log_weights(load_checkpoint(ck), target, 1500, cfg)
    q1, p1, log_density = rows[:, :2], rows[:, 2:4], rows[:, 4]
    rebuilt = target.log_density(q1) + standard_normal_logpdf(p1) - log_density
    # 12 CSV digits round each O(1) term by ~1e-11, so a weight near 0 needs atol
    assert np.allclose(rebuilt, lw, rtol=1e-9, atol=1e-9)


# -- check -------------------------------------------------------------------


def test_check_suites_pass(capsys):
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


# -- the exit-code map -------------------------------------------------------


@pytest.mark.parametrize(
    "error, code, line",
    [(cli.ConfigError("bad key"), 2, "error: bad key"),
     (cli.CheckpointError("bad checkpoint"), 2, "error: bad checkpoint"),
     (OSError("disk full"), 2, "error: disk full"),
     (MemoryError(), 2, "error: out of memory"),
     (cli.IntegrationError("step 3: singular"), 3, "numeric failure: step 3: singular")],
    ids=["config", "checkpoint", "os", "memory", "integration"],
)
def test_main_maps_each_error_to_its_exit_code(capsys, monkeypatch, error, code, line):
    # a command raises, and main alone prints the one line and picks the code
    def fail(args):
        raise error

    monkeypatch.setattr(cli, "cmd_check", fail)
    assert main(["check", "operators"]) == code
    captured = capsys.readouterr()
    assert captured.err == line + "\n" and captured.out == ""


# -- unwritable outputs ------------------------------------------------------


def assert_one_error_line(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1, err
    assert "Traceback" not in err


# -- requests too large for memory -------------------------------------------

MEMORY_CAP = 3 * 2**30  # address-space limit of the child, bytes


def run_capped(argv, cwd):
    """The CLI in a child process whose address space is capped at 3 GiB,
    so an oversized request fails to allocate instead of filling memory."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))

    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": str(Path(verletflow.__file__).resolve().parents[1])}
    return subprocess.run([sys.executable, "-m", "verletflow.cli", *argv], cwd=cwd,
                          env=env, preexec_fn=cap, capture_output=True, text=True,
                          timeout=300)


@pytest.mark.parametrize(
    "argv",
    [["train", "huge.json"],
     ["logz", "run/checkpoint.txt", "--samples", "100000000000"],
     ["sample", "run/checkpoint.txt", "-n", "100000000000"]],
    ids=["train-hidden", "logz-samples", "sample-n"],
)
def test_request_too_large_for_memory_is_usage_error(trained_dir, argv):
    (trained_dir.parent / "huge.json").write_text(
        json.dumps({"hidden_sizes": [100000, 100000, 100000]}))
    res = run_capped(argv, trained_dir.parent)
    assert res.returncode == 2, res.stderr
    assert res.stderr.startswith("error: ") and len(res.stderr.splitlines()) == 1
    assert "Traceback" not in res.stderr and res.stdout == ""


def test_checkpoint_header_is_checked_against_its_body(tmp_path):
    # the header names ~2e10 parameters, the body holds one: the count
    # mismatch is reported before any flow of that size is allocated
    path = tmp_path / "ck.txt"
    path.write_text("verletflow-v1\norder=1\nd_q=2\nd_p=2\n"
                    "hidden=100000,100000,100000\nk1_form=diagonal\n\n0.5\n")
    res = run_capped(["logz", str(path), "--samples", "10", "--steps", "2"], tmp_path)
    assert res.returncode == 2, res.stderr
    assert res.stderr.startswith("error: ") and len(res.stderr.splitlines()) == 1
    assert "Traceback" not in res.stderr
    assert "the body has 1" in res.stderr and "allocate" not in res.stderr


@pytest.mark.parametrize("out", ["afile", "afile/run"], ids=["a-file", "under-a-file"])
def test_train_unwritable_out_is_usage_error(tiny_config, tmp_path, capsys,
                                             monkeypatch, out):
    # rejected before training starts, leaving nothing behind
    (tmp_path / "afile").write_text("")
    before = files_under(tmp_path)
    monkeypatch.setattr(cli, "train", lambda *a, **k: pytest.fail("trained"))
    assert main(["train", str(tiny_config), "--out", str(tmp_path / out)]) == 2
    assert_one_error_line(capsys)
    assert files_under(tmp_path) == before


@pytest.mark.parametrize(
    "command,flag",
    [(c, f) for c in ("logz", "benchmark", "weights-hist") for f in ("--csv", "--svg")]
    + [("sample", "--csv")],
)
def test_output_in_missing_dir_is_usage_error(trained_dir, tmp_path, capsys, monkeypatch,
                                              command, flag):
    for work in ("estimate_logZ", "push_blocks"):
        monkeypatch.setattr(cli, work, lambda *a, **k: pytest.fail("work started"))
    before = files_under(tmp_path)
    argv = [command, str(trained_dir / "checkpoint.txt"), flag,
            str(tmp_path / "missing" / "out")]
    assert main(argv) == 2
    assert_one_error_line(capsys)
    assert files_under(tmp_path) == before


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_failed_write_is_usage_error(trained_dir, capsys):
    # /dev/full accepts the open and fails the write itself
    argv = ["sample", str(trained_dir / "checkpoint.txt"), "-n", "5", "--steps", "2",
            "--csv", "/dev/full"]
    assert main(argv) == 2
    assert_one_error_line(capsys)


@pytest.mark.parametrize(
    "argv",
    [["train", "config.json", "--workers", "2"],
     ["train", "config.json", "--svg", "x"],
     ["sample", "checkpoint.txt", "--workers", "2"],
     ["check", "operators", "--csv", "x"]],
    ids=["train-workers", "train-svg", "sample-workers", "check-csv"],
)
def test_unread_flag_is_usage_error(capsys, argv):
    # each subcommand takes only the flags it reads
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def scipy_modules_after(fresh_python, code):
    # the scipy modules a fresh interpreter holds after running `code`
    return fresh_python(
        "import sys, numpy as np\n" + code
        + "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    ).strip()


TRAINING_STEP = (
    "from verletflow import VerletFlow\n"
    "from verletflow.densities import default_trimodal\n"
    "from verletflow.training import TrainConfig, nll_batch\n"
    "cfg = TrainConfig(batch_size=16, steps=2, hidden_sizes=(4,))\n"
    "target = default_trimodal()\n"
    "q = target.sample(16, seed=0)\n"
    "flow = VerletFlow(2, 2, 1, hidden=[4], k1_form={form!r})\n"
    "_, rec = nll_batch(flow, q, cfg, np.random.default_rng(0), record=True)\n"
    "assert np.any(rec.grad_flat() != 0)\n"
)


def test_cli_import_loads_no_scipy(fresh_python):
    # the package runs on numpy alone; scipy serves only the test oracles
    assert scipy_modules_after(fresh_python, "import verletflow.cli\n") == "[]"


def test_diagonal_training_step_loads_no_scipy(fresh_python):
    assert scipy_modules_after(fresh_python, TRAINING_STEP.format(form="diagonal")) == "[]"


def test_dense_training_step_loads_no_scipy(fresh_python):
    # the dense step, its VJP and dense log-weights use operators.expm
    code = TRAINING_STEP.format(form="dense") + (
        "from verletflow.importance import log_weights\n"
        "from verletflow.integrators import IntegratorConfig\n"
        "assert np.all(np.isfinite(log_weights(flow, target, 8, IntegratorConfig(steps=2))))\n"
    )
    assert scipy_modules_after(fresh_python, code) == "[]"


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
