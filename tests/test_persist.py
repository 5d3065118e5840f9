"""Checkpoint and config persistence: bit-exact round-trips and validation."""

import json

import numpy as np
import pytest

from verletflow import VerletFlow
from verletflow.persist import (
    CHECKPOINT_MAGIC,
    CheckpointError,
    Config,
    ConfigError,
    load_checkpoint,
    save_checkpoint,
)


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    flow = VerletFlow.create(2, 3, order=2, hidden=[5, 4], seed=8)
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


def test_checkpoint_format_layout(tmp_path):
    flow = VerletFlow.create(1, 1, order=0, hidden=[2], seed=0)
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
    flow = VerletFlow.create(2, 2, order=1, hidden=[3], seed=1, k1_form="dense")
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
    flow = VerletFlow.create(1, 1, order=0, hidden=[2], seed=0)
    save_checkpoint(truncated, flow)
    lines = truncated.read_text().splitlines()
    truncated.write_text("\n".join(lines[:-3]) + "\n")
    with pytest.raises(CheckpointError):
        load_checkpoint(truncated)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_checkpoint_rejects_non_finite_parameters(tmp_path, value):
    path = tmp_path / "ck.txt"
    save_checkpoint(path, VerletFlow.create(1, 1, order=0, hidden=[2], seed=0))
    lines = path.read_text().splitlines()
    lines[8] = value
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CheckpointError, match="non-finite"):
        load_checkpoint(path)


def test_config_defaults_and_roundtrip(tmp_path):
    cfg = Config()
    path = tmp_path / "cfg.json"
    cfg.save(path)
    loaded = Config.load(path)
    assert loaded.to_dict() == cfg.to_dict()
    assert json.loads(path.read_text())["dims"] == {"d_q": 2, "d_p": 2}


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
    with pytest.raises(ConfigError):
        Config.from_dict({"train": {"steps": 0}})
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        Config.load(bad)
    with pytest.raises(ConfigError):
        Config.load(tmp_path / "missing.json")


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
    assert not np.array_equal(
        flow.get_params(), cfg.build_flow(seed=10).get_params()
    )
