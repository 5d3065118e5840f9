"""Configuration and checkpoint persistence.

Config files are JSON.  Checkpoints are a line-oriented text format:
``verletflow-v1`` on the first line, ``key=value`` header lines, a blank
line, then one parameter per line printed with 17 significant digits so
64-bit floats round-trip bit-exactly.  The body is ``VerletFlow.params`` as
it stands: q-side nets k ascending, then p-side, each net in the layout of
``autodiff.layer_views``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields

import numpy as np

from .densities import Gmm, UnnormalizedDensity, default_trimodal, standard_normal
from .flow import VerletFlow
from .importance import SD_BATCHES
from .integrators import IntegratorConfig
from .training import TrainConfig

CHECKPOINT_MAGIC = "verletflow-v1"

# the parameters each target type reads, besides "type" and "logZ_true"
TARGET_KEYS = {
    "trimodal": ("variance",), "normal": (), "gmm": ("weights", "means", "variances"),
}


class ConfigError(ValueError):
    pass


def _integer(value, name):
    """A config count: JSON integers only, so a float such as 2.5 or a
    bool is an error rather than truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return value


def _number(value, name):
    """A config rate: a JSON number, so a bool or a numeric string is an
    error rather than coerced."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    return float(value)


def _section(value, name, keys):
    """A config section: a JSON object whose keys are all in ``keys``, so a
    list, scalar or null section is an error rather than a crash on its
    first lookup, and a misspelt key is an error rather than ignored."""
    if not isinstance(value, dict):
        raise ConfigError(f"{name} must be a JSON object, got {value!r}")
    if unknown := sorted(set(value) - set(keys)):
        raise ConfigError(f"unknown {name} keys {unknown}; known: {sorted(keys)}")
    return value


def _dataclass(cls, data, name, **fixed):
    """``cls`` from config section ``data``: each field not ``fixed`` is a
    key whose absence keeps the field's default; an int field takes a JSON
    integer and a float field a JSON number."""
    keys = [f for f in fields(cls) if f.name not in fixed]
    data = _section(data, name, [f.name for f in keys])
    for f in keys:
        if f.name in data:
            parse = {int: _integer, float: _number}.get(type(f.default), lambda v, _: v)
            fixed[f.name] = parse(data[f.name], f"{name}.{f.name}")
    return cls(**fixed)


@dataclass
class EvalConfig:
    steps: int = IntegratorConfig.steps
    method: str = IntegratorConfig.method
    samples: int = 100_000
    seed: int = IntegratorConfig.seed
    hutchinson_probes: int = IntegratorConfig.hutchinson_probes

    def __post_init__(self):
        # the integration rules are IntegratorConfig's own
        IntegratorConfig(steps=self.steps, method=self.method, seed=self.seed,
                         hutchinson_probes=self.hutchinson_probes)
        if self.samples < SD_BATCHES:
            raise ConfigError(f"the reported sd needs at least {SD_BATCHES} samples, "
                              f"got {self.samples}")


@dataclass
class Config:
    d_q: int = 2
    d_p: int = 2
    order: int = 1
    k1_form: str = "diagonal"
    target: dict = field(default_factory=lambda: {"type": "trimodal"})
    train: TrainConfig = field(default_factory=TrainConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)

    @classmethod
    def from_dict(cls, data):
        try:
            cfg = cls()
            data = _section(data, "config", ("dims", "order", "hidden_sizes",
                                             "k1_form", "target", "train", "eval"))
            dims = _section(data.get("dims", {}), "dims", ("d_q", "d_p"))
            cfg.d_q = _integer(dims.get("d_q", cfg.d_q), "d_q")
            cfg.d_p = _integer(dims.get("d_p", cfg.d_p), "d_p")
            cfg.order = _integer(data.get("order", cfg.order), "order")
            hidden = data.get("hidden_sizes", cfg.train.hidden_sizes)
            hidden = tuple(_integer(h, "hidden_sizes") for h in hidden)
            cfg.k1_form = data.get("k1_form", cfg.k1_form)
            cfg.target = data.get("target", cfg.target)
            cfg.train = _dataclass(TrainConfig, data.get("train", {}), "train",
                                   hidden_sizes=hidden)
            cfg.eval = _dataclass(EvalConfig, data.get("eval", {}), "eval")
            if cfg.train.seed < 0 or cfg.eval.seed < 0:
                raise ConfigError("train and eval seeds must be >= 0")
            # validate the flow's shape and the target spec early
            VerletFlow.layout(cfg.d_q, cfg.d_p, cfg.order, cfg.train.hidden_sizes, cfg.k1_form)
            cfg.build_target()
            return cfg
        except (TypeError, KeyError, ValueError) as err:
            raise ConfigError(str(err)) from err

    @classmethod
    def load(cls, path):
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as err:
            raise ConfigError(f"cannot read config {path}: {err}") from err
        return cls.from_dict(data)

    def build_target(self):
        """The unnormalized target density described by the target spec."""
        spec = self.target
        if not isinstance(spec, dict):
            raise ConfigError(f"target must be a JSON object, got {spec!r}")
        kind = spec.get("type", "trimodal")
        if kind not in TARGET_KEYS:
            raise ConfigError(f"unknown target type {kind!r}")
        _section(spec, f"{kind} target", ("type", "logZ_true") + TARGET_KEYS[kind])
        logz = _number(spec.get("logZ_true", np.log(2.0)), "logZ_true")
        if not np.isfinite(logz):
            raise ConfigError(f"logZ_true must be finite, got {logz}")
        if kind == "trimodal":
            base = default_trimodal(variance=_number(spec.get("variance", 0.3), "variance"))
        elif kind == "normal":
            base = standard_normal(self.d_q)
        else:
            arrays = {}
            for key in TARGET_KEYS[kind]:
                # entry by entry: numpy would read [true, 1] as integers
                a = np.asarray(spec[key], dtype=object)
                values = [_number(x, f"gmm {key} entry") for x in a.flat]
                arrays[key] = np.reshape(values, a.shape)
            base = Gmm(**arrays)
        if base.dim != self.d_q:
            raise ConfigError(f"target dim {base.dim} != d_q {self.d_q}")
        return UnnormalizedDensity(base, logZ_true=logz)

    def build_flow(self):
        return VerletFlow(self.d_q, self.d_p, self.order, hidden=self.train.hidden_sizes,
                          seed=self.train.seed, k1_form=self.k1_form)


class CheckpointError(ValueError):
    pass


def save_checkpoint(path, flow: VerletFlow):
    lines = [
        CHECKPOINT_MAGIC,
        f"order={flow.order}",
        f"d_q={flow.d_q}",
        f"d_p={flow.d_p}",
        "hidden=" + ",".join(str(h) for h in flow.hidden_sizes),
        f"k1_form={flow.k1_form}",
        "",
    ]
    lines.extend(format(v, ".17g") for v in flow.get_params())
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_checkpoint(path):
    """Read a checkpoint written by ``save_checkpoint``.

    The body is parsed line by line straight into float64, so loading holds
    no copy of the file's text, and the flow is built only once the body
    holds as many parameters as the header's shape names.  Every failure is
    a ``CheckpointError``.
    """
    try:
        with open(path) as fh:
            if fh.readline().rstrip("\n") != CHECKPOINT_MAGIC:
                raise CheckpointError(f"{path}: not a {CHECKPOINT_MAGIC} checkpoint")
            header = {}
            while line := fh.readline().rstrip("\n"):  # to the blank line or EOF
                key, _, value = line.partition("=")
                header[key] = value
            shape = dict(d_q=int(header["d_q"]), d_p=int(header["d_p"]),
                         order=int(header["order"]),
                         hidden=[int(h) for h in header["hidden"].split(",")],
                         k1_form=header.get("k1_form", "diagonal"))
            _, size = VerletFlow.layout(**shape)
            params = np.fromiter((float(v) for v in fh if v != "\n"), np.float64)
        if params.size != size:
            raise ValueError(f"the header names {size} parameters, the body has {params.size}")
        flow = VerletFlow(**shape, seed=0)
        flow.set_params(params)
    except CheckpointError:
        raise
    except (OSError, UnicodeDecodeError) as err:
        raise CheckpointError(f"cannot read checkpoint {path}: {err}") from err
    except (KeyError, ValueError) as err:
        raise CheckpointError(f"{path}: bad checkpoint ({err})") from err
    bad = np.flatnonzero(~np.isfinite(params))
    if bad.size:
        raise CheckpointError(
            f"{path}: {bad.size} non-finite parameters (first at index {bad[0]})"
        )
    return flow
