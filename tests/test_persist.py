"""Checkpoint and config persistence: bit-exact round-trips and validation."""

import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from verletflow import VerletFlow
from verletflow.persist import (
    CHECKPOINT_MAGIC,
    CheckpointError,
    Config,
    ConfigError,
    EvalConfig,
    load_checkpoint,
    save_checkpoint,
)
from verletflow.training import TrainConfig


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    flow = VerletFlow(2, 3, order=2, hidden=[5, 4], seed=8)
    path = tmp_path / "ck.txt"
    save_checkpoint(path, flow)
    loaded = load_checkpoint(path)
    assert loaded.d_q == 2 and loaded.d_p == 3 and loaded.order == 2
    assert loaded.hidden_sizes == [5, 4]
    assert np.array_equal(loaded.get_params(), flow.get_params())
    # re-saving the loaded flow reproduces the file byte for byte
    path2 = tmp_path / "ck2.txt"
    save_checkpoint(path2, loaded)
    assert path.read_bytes() == path2.read_bytes()


REFERENCE = (Path(__file__).resolve().parents[1]
             / "perfbench" / "fixtures" / "reference_checkpoint.txt")


@pytest.mark.parametrize(
    "order,form", [(0, "diagonal"), (1, "diagonal"), (2, "diagonal"),
                   (3, "diagonal"), (1, "dense")],
)
def test_checkpoint_roundtrip_all_orders(tmp_path, order, form):
    flow = VerletFlow(2, 2, order, hidden=[6, 3], seed=order, k1_form=form)
    flow.set_params(np.random.default_rng(order).standard_normal(flow.num_params))
    path = tmp_path / "ck.txt"
    save_checkpoint(path, flow)
    loaded = load_checkpoint(path)
    assert loaded.k1_form == form
    assert loaded.get_params().tobytes() == flow.get_params().tobytes()


def test_reference_checkpoint_roundtrips_in_little_memory(tmp_path):
    # the body streams into one float64 array: no copy of the file's text
    # and no list of per-line strings (~4.2 MB when it read the whole file)
    tracemalloc.start()
    try:
        flow = load_checkpoint(REFERENCE)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5e6
    path = tmp_path / "ck.txt"
    save_checkpoint(path, flow)
    assert path.read_bytes() == REFERENCE.read_bytes()


def test_checkpoint_format_layout(tmp_path):
    flow = VerletFlow(1, 1, order=0, hidden=[2], seed=0)
    path = tmp_path / "ck.txt"
    save_checkpoint(path, flow)
    lines = path.read_text().splitlines()
    assert lines[0] == CHECKPOINT_MAGIC
    header = dict(l.split("=", 1) for l in lines[1:6])
    assert header == {
        "order": "0", "d_q": "1", "d_p": "1", "hidden": "2",
        "k1_form": "diagonal",
    }
    assert lines[6] == ""
    params = lines[7:]
    assert len(params) == flow.num_params
    assert np.array_equal(
        np.array([float(v) for v in params]), flow.get_params()
    )


def test_checkpoint_preserves_dense_k1(tmp_path):
    flow = VerletFlow(2, 2, order=1, hidden=[3], seed=1, k1_form="dense")
    path = tmp_path / "ck.txt"
    save_checkpoint(path, flow)
    assert load_checkpoint(path).k1_form == "dense"


def test_checkpoint_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("not-a-checkpoint\n1.0\n")
    with pytest.raises(CheckpointError):
        load_checkpoint(bad)
    with pytest.raises(CheckpointError):
        load_checkpoint(tmp_path / "missing.txt")
    truncated = tmp_path / "trunc.txt"
    flow = VerletFlow(1, 1, order=0, hidden=[2], seed=0)
    save_checkpoint(truncated, flow)
    lines = truncated.read_text().splitlines()
    truncated.write_text("\n".join(lines[:-3]) + "\n")
    with pytest.raises(CheckpointError):
        load_checkpoint(truncated)
    # order -1 asks for no nets at all: not a flow, whatever the body holds
    negative = tmp_path / "negative.txt"
    negative.write_text(f"{CHECKPOINT_MAGIC}\norder=-1\nd_q=2\nd_p=2\nhidden=4\n\n")
    with pytest.raises(CheckpointError, match="negative order"):
        load_checkpoint(negative)
    # one body value must not broadcast over the parameter vector
    single = tmp_path / "single.txt"
    single.write_text("\n".join(lines[:7] + ["0.5"]) + "\n")
    with pytest.raises(CheckpointError, match="parameters"):
        load_checkpoint(single)
    banded = tmp_path / "banded.txt"
    banded.write_text("\n".join(lines).replace("k1_form=diagonal", "k1_form=banded") + "\n")
    with pytest.raises(CheckpointError, match="banded"):
        load_checkpoint(banded)


def test_checkpoint_rejects_undecodable_bytes(tmp_path):
    path = tmp_path / "ck.txt"
    path.write_bytes(b"\xff\xfe\x00 not text")
    with pytest.raises(CheckpointError, match="cannot read checkpoint"):
        load_checkpoint(path)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_checkpoint_rejects_non_finite_parameters(tmp_path, value):
    path = tmp_path / "ck.txt"
    save_checkpoint(path, VerletFlow(1, 1, order=0, hidden=[2], seed=0))
    lines = path.read_text().splitlines()
    lines[8] = value
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CheckpointError, match="non-finite"):
        load_checkpoint(path)


def test_config_defaults_and_every_key_read_back():
    assert Config.from_dict({}) == Config()
    train = {"epochs": 7, "batch_size": 9, "learning_rate": 0.5, "steps": 3, "seed": 4}
    ev = {"steps": 11, "method": "rk4-exact", "samples": 50, "seed": 2,
          "hutchinson_probes": 3}
    cfg = Config.from_dict({
        "dims": {"d_q": 3, "d_p": 1}, "order": 2, "hidden_sizes": [5],
        "k1_form": "dense", "target": {"type": "normal"}, "train": train, "eval": ev,
    })
    assert cfg == Config(3, 1, 2, (5,), "dense", {"type": "normal"},
                         TrainConfig(hidden_sizes=(5,), **train), EvalConfig(**ev))


def test_config_from_partial_dict():
    cfg = Config.from_dict({"order": 2, "train": {"epochs": 7}})
    assert cfg.order == 2
    assert cfg.train.epochs == 7
    assert cfg.eval.samples == 100_000  # untouched defaults survive


def test_config_validation_errors(tmp_path):
    with pytest.raises(ConfigError):
        Config.from_dict({"k1_form": "banded"})
    with pytest.raises(ConfigError):
        Config.from_dict({"dims": {"d_q": 0}})
    with pytest.raises(ConfigError):
        Config.from_dict({"target": {"type": "uniform"}})
    with pytest.raises(ConfigError, match="unknown normal target keys"):
        Config.from_dict({"target": {"type": "normal", "variance": 5}})
    for ev in ({"method": "rk5"}, {"steps": 0}, {"hutchinson_probes": 0},
               {"samples": 0}, {"samples": -5}):
        with pytest.raises(ConfigError):
            Config.from_dict({"eval": ev})
    with pytest.raises(ConfigError):
        Config.from_dict({"train": {"steps": 0}})
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        Config.load(bad)
    with pytest.raises(ConfigError):
        Config.load(tmp_path / "missing.json")


@pytest.mark.parametrize(
    "data",
    [
        {"dims": {"d_q": 2.0}},
        {"order": True},
        {"hidden_sizes": [64.5, 64]},
        {"hidden_sizes": [0, 64]},
        {"hidden_sizes": "64"},
        {"train": {"epochs": 2.7}},
        {"train": {"batch_size": 8.9}},
        {"train": {"steps": 2.5}},
        {"train": {"seed": 1.9}},
        {"eval": {"steps": "10"}},
        {"eval": {"samples": 10.5}},
        {"eval": {"seed": False}},
        {"eval": {"hutchinson_probes": 1.5}},
    ],
    ids=lambda d: json.dumps(d),
)
def test_config_counts_must_be_integers(data):
    with pytest.raises(ConfigError):
        Config.from_dict(data)


@pytest.mark.parametrize(
    "data",
    [{"hidden": [4]}, {"dims": {"dq": 2}}, {"train": {"epoch": 2}},
     {"train": {"hidden_sizes": [4]}}, {"eval": {"sample": 10}},
     {"target": {"type": "trimodal", "varaince": 0.2}}],
    ids=["hidden", "dims.dq", "train.epoch", "train.hidden_sizes", "eval.sample",
         "target.varaince"],
)
def test_config_unknown_key_is_error(data):
    # a misspelt key would otherwise leave its default silently in place
    with pytest.raises(ConfigError, match="unknown"):
        Config.from_dict(data)


@pytest.mark.parametrize("value", [True, "0.01"], ids=json.dumps)
def test_config_learning_rate_must_be_a_number(value):
    with pytest.raises(ConfigError, match="must be a number"):
        Config.from_dict({"train": {"learning_rate": value}})


def test_config_builds_targets(rng):
    cfg = Config()
    target = cfg.build_target()
    assert np.isclose(target.logZ_true, np.log(2.0))
    x = rng.standard_normal((4, 2))
    trimodal = cfg.build_target().base

    cfg2 = Config.from_dict({"target": {"type": "normal", "logZ_true": 1.5}})
    assert cfg2.build_target().logZ_true == 1.5

    cfg3 = Config.from_dict(
        {
            "target": {
                "type": "gmm",
                "weights": [0.5, 0.5],
                "means": [[0.0, 0.0], [1.0, 1.0]],
                "variances": [1.0, 2.0],
            }
        }
    )
    assert cfg3.build_target().base.dim == 2

    with pytest.raises(ConfigError):
        # target dim must match d_q
        Config.from_dict({"dims": {"d_q": 3, "d_p": 3}, "target": {"type": "trimodal"}})


def test_config_build_flow():
    cfg = Config.from_dict({"order": 1, "hidden_sizes": [4], "train": {"seed": 9}})
    flow = cfg.build_flow()
    assert flow.order == 1 and flow.hidden_sizes == [4]
    # same seed, same flow
    assert np.array_equal(flow.get_params(), cfg.build_flow().get_params())
    cfg.train.seed = 10
    assert not np.array_equal(flow.get_params(), cfg.build_flow().get_params())
