"""Span tracing around the public boundaries of the verletflow modules.

A ``Tracer`` keeps every span in memory as ``[name, start, end, parent, op]``
(times in seconds from the tracer's creation, ``parent`` the index of the
enclosing span or -1, ``op`` the closed-loop operation it belongs to, -1 for
set-up).  ``patched(tracer)`` swaps a wrapper into each attribute that the
library's callers look up at call time, and restores the originals on exit.
Only boundary functions are wrapped, never the autodiff primitives, so the
recorded cost stays at about one microsecond per span.

Per-layer figures are derived offline from the spans: a span's self time is
its duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import time
from collections import defaultdict

FIELDS = ("name", "start", "end", "parent", "op")


class Tracer:
    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans = []
        self.stack = []
        self.op = -1
        # per-span numeric annotations: {span index: {key: value}}
        self.notes = defaultdict(dict)

    def open(self, name):
        parent = self.stack[-1] if self.stack else -1
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter() - self.t0, None, parent, self.op])
        self.stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][2] = time.perf_counter() - self.t0
        self.stack.pop()

    def note(self, idx, **values):
        self.notes[idx].update(values)


def self_times(spans):
    """Self time of every span: its duration minus its direct children's."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def _wrap(tracer, fn, name, note=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.open(name(*args, **kwargs) if callable(name) else name)
        out = None
        try:
            out = fn(*args, **kwargs)
        except Exception as err:
            tracer.note(idx, raised=type(err).__name__)
            raise
        finally:
            tracer.close(idx)
            if note is not None:
                note(tracer, idx, args, kwargs, out)
        return out

    return wrapper


def _rows(x):
    shape = getattr(x, "shape", ())
    return int(shape[0]) if len(shape) == 2 else 1


def _note_rows(tracer, idx, args, kwargs, out):
    tracer.note(idx, rows=_rows(args[1]))


def _note_integration(tracer, idx, args, kwargs, out):
    state = args[1]
    rows = _rows(getattr(state.q, "value", state.q))
    tracer.note(idx, rows=rows)
    if out is not None:
        tracer.note(idx, samples=rows, field_evals=out.field_evaluations * rows)


def _note_tape(tracer, idx, args, kwargs, out):
    tape = kwargs.get("tape", args[4] if len(args) > 4 else None)
    if tape is not None:
        tracer.note(
            idx,
            tape_nodes=len(tape.nodes),
            tape_bytes=sum(node.value.nbytes for node in tape.nodes),
        )


def _note_report(tracer, idx, args, kwargs, out):
    if out is not None:
        tracer.note(idx, invalid=out.invalid_count)


def _integration_name(flow, state, cfg, *args, **kwargs):
    return "verlet" if cfg.method == "taylor-verlet" else "rk4"


def _step_name(kind):
    return lambda step, x: f"{kind}.k{step.order}"


def patch_table():
    """(owner, attribute, span name, note) for every traced boundary.

    The owner is the object the caller resolves the name on at call time:
    ``training`` imported ``verlet_integrate`` into its own namespace and
    ``importance`` did the same with ``integrate``, so those are patched
    there; methods are patched on their class.
    """
    from verletflow import (
        autodiff, densities, flow, importance, operators, persist, training,
    )

    return [
        (persist, "load_checkpoint", "persist.load", None),
        (importance, "estimate_logZ", "estimate", _note_report),
        (importance, "log_weights", "log_weights", None),
        (importance, "integrate", _integration_name, _note_integration),
        (training, "train", "train", None),
        (training, "nll_batch", "nll_batch", _note_tape),
        (training, "verlet_integrate", "verlet", _note_integration),
        (training.TapedFlowParams, "grad_flat", "grad_flat", None),
        (training.Adam, "step", "adam_step", None),
        (densities.Gmm, "sample", "sample", None),
        (densities.Gmm, "log_density", "log_density", _note_rows),
        (flow.CoefficientNet, "__call__", "coeff", None),
        (flow.CoefficientNet, "taped", "coeff", None),
        (flow.VerletFlow, "eval_field", "eval_field", None),
        (flow.VerletFlow, "eval_field_taped", "eval_field_taped", None),
        (operators, "apply_step", _step_name("apply_step"), None),
        (operators, "invert_step", _step_name("invert_step"), None),
        (autodiff.Mlp, "__call__", "mlp_fwd", _note_rows),
        (autodiff.Mlp, "forward", "mlp_taped_fwd", None),
        (autodiff, "grad", "grad", None),
    ]


@contextlib.contextmanager
def patched(tracer):
    """Route every boundary in ``patch_table`` through ``tracer``."""
    table = patch_table()
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in table]
    try:
        for owner, attr, name, note in table:
            setattr(owner, attr, _wrap(tracer, owner.__dict__[attr], name, note))
        yield tracer
    finally:
        for owner, attr, original in originals:
            setattr(owner, attr, original)


def _median(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(tracer, units):
    """Per-layer figures over the traced operations (spans with op >= 0).

    ``units`` is the number of work units traced (epochs on the training
    workload, ``estimate_logZ`` calls or call pairs on the others); time and
    count totals are reported per unit.  Set-up spans (op == -1) feed only
    ``persist.load_ms``.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    ms = defaultdict(float)
    self_ms = defaultdict(float)
    calls = defaultdict(int)
    durations = defaultdict(list)
    notes = defaultdict(float)
    fallback_chunks = 0
    for i, (name, start, end, parent, op) in enumerate(spans):
        if op < 0:
            if name == "persist.load":
                durations["persist.load"].append(1e3 * (end - start))
            continue
        ms[name] += 1e3 * (end - start)
        self_ms[name] += 1e3 * selfs[i]
        calls[name] += 1
        durations[name].append(1e3 * (end - start))
        note = tracer.notes.get(i, {})
        for key, value in note.items():
            if key != "raised":
                notes[f"{name}.{key}"] += value
        # a batched integration that raised is a chunk that fell back to
        # per-sample integration inside importance.log_weights
        if ("raised" in note and note.get("rows", 1) > 1 and parent >= 0
                and spans[parent][0] == "log_weights"):
            fallback_chunks += 1

    per = 1.0 / max(units, 1)
    out = {}
    for name in ("mlp_fwd", "mlp_taped_fwd", "grad", "coeff", "eval_field"):
        out[f"{name}.calls"] = calls[name] * per
        out[f"{name}.ms"] = ms[name] * per
    out["eval_field_taped.ms"] = ms["eval_field_taped"] * per
    out["mlp_fwd.rows"] = notes["mlp_fwd.rows"] * per
    rows = notes["mlp_fwd.rows"]
    out["mlp_fwd.ns_per_row"] = 1e6 * ms["mlp_fwd"] / rows if rows else 0.0
    # nll_batch is only called taped (by training.train)
    batches = calls["nll_batch"]
    out["tape_nodes"] = notes["nll_batch.tape_nodes"] / batches if batches else 0.0
    out["tape_mb"] = notes["nll_batch.tape_bytes"] / batches / 2**20 if batches else 0.0
    for kind in ("apply_step", "invert_step"):
        for k in (0, 1):
            out[f"{kind}.k{k}.calls"] = calls[f"{kind}.k{k}"] * per
            out[f"{kind}.k{k}.ms"] = ms[f"{kind}.k{k}"] * per
    out["verlet.self_ms"] = self_ms["verlet"] * per
    out["rk4.self_ms"] = self_ms["rk4"] * per
    integrated = notes["verlet.samples"] + notes["rk4.samples"]
    evals = notes["verlet.field_evals"] + notes["rk4.field_evals"]
    out["field_evals_per_sample"] = evals / integrated if integrated else 0.0
    out["log_weights.ms"] = ms["log_weights"] * per
    out["log_weights.self_ms"] = self_ms["log_weights"] * per
    out["estimate.self_ms"] = self_ms["estimate"] * per
    out["fallback_chunks"] = fallback_chunks * per
    out["invalid"] = notes["estimate.invalid"] * per
    out["log_density.rows"] = notes["log_density.rows"] * per
    out["log_density.ms"] = ms["log_density"] * per
    fwd = _median(durations["nll_batch"])
    bwd = _median(durations["grad_flat"])
    out["training.fwd_ms_p50"] = fwd
    out["training.bwd_ms_p50"] = bwd
    out["training.adam_ms_p50"] = _median(durations["adam_step"])
    out["training.sample_ms_p50"] = _median(durations["sample"])
    out["training.bwd_over_fwd"] = bwd / fwd if fwd else 0.0
    out["persist.load_ms"] = _median(durations["persist.load"])
    out["trace.spans"] = sum(1 for s in spans if s[4] >= 0) * per
    return out


def self_time_table(tracer, wall_ms):
    """Self milliseconds and share of traced wall time per span name."""
    selfs = self_times(tracer.spans)
    table = defaultdict(float)
    for i, span in enumerate(tracer.spans):
        if span[4] >= 0:
            table[span[0]] += 1e3 * selfs[i]
    return {
        name: {"self_ms": round(v, 3), "share": round(v / wall_ms, 4) if wall_ms else 0.0}
        for name, v in sorted(table.items(), key=lambda kv: -kv[1])
    }
