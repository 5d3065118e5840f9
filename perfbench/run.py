"""verletflow benchmark: closed-loop workloads over the library's public API.

Each workload is one caller that waits for every call to finish (closed
loop, no scheduled arrivals), in a fresh process with OpenBLAS pinned to one
thread, on inputs made from ``--seed``.  Run from the repository root:

    python3 perfbench/run.py --workload train-ref --seed 0 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 35 --trace 0

``--trace 0`` times the end-to-end metrics with tracing off.  ``--trace 1``
alternates untraced and traced operations, reports the per-layer metrics
derived from the spans plus the tracing overhead, and writes the spans to
``perfbench/out/``.  The line before the last is a details record (machine,
load average, correctness gates, the per-workload metrics under their
workload-specific names, per-layer self-time shares); the last line is the
result object ``{"correct", "attempted", "failed", "metrics"}``.

A correctness gate that fails marks the run incorrect and counts every
operation as failed.  A missing library source tree or reference checkpoint
exits with code 2 and no result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHECKPOINT = HERE / "fixtures" / "reference_checkpoint.txt"
CHECKPOINT_SHA256 = HERE / "fixtures" / "reference_checkpoint.sha256"
OUT = HERE / "out"

WORKLOADS = ("train-ref", "logz-tv", "logz-rk4")
LOG2 = math.log(2.0)

# train-ref: the reference training config, TRAIN_EPOCHS epochs per call
TRAIN = dict(batch_size=256, steps=20, hidden_sizes=(64, 64, 64), learning_rate=1e-3)
TRAIN_EPOCHS = 25
# logz-tv: one (N_TV, 64) float64 activation is 8 MiB, 4x a 2 MiB per-core L2
N_TV = 16384
N_RK4 = 128
STEPS = 100
# logZ gate: |logZ - log 2| within SD_MULTIPLE x the reported sub-batch SD
SD_MULTIPLE = 3.0
ROUND_TRIP_ROWS = 64
ROUND_TRIP_TOL = 1e-12
SETUP_REPEATS = 3
IMPORT_PROBES = 3
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
                "import numpy, scipy.special, verletflow; print(time.perf_counter() - t)")
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_library():
    """Import verletflow from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "verletflow" / "__init__.py").is_file():
        fail(f"no library source under {SRC}")
    sys.path.insert(0, str(SRC))
    import verletflow

    if Path(verletflow.__file__).resolve().parent != SRC / "verletflow":
        fail(f"imported verletflow from {verletflow.__file__}, not {SRC}")
    import numpy
    from verletflow import densities, importance, integrators, persist, training

    return numpy, densities, importance, integrators, persist, training


# -- machine record --------------------------------------------------------


def _read(path, default=""):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return default


def loadavg():
    return [float(v) for v in _read("/proc/loadavg", "0 0 0").split()[:3]]


def blas_threads():
    """Thread count each loaded OpenBLAS reports, by library file name."""
    import ctypes

    libs = {
        line.split()[-1]
        for line in _read("/proc/self/maps").splitlines()
        if "openblas" in line.lower() and ".so" in line
    }
    out = {}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(lib).name] = fn()
                break
    return out


def machine_record(np):
    import scipy

    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if kind != "Instruction":
            caches[f"L{level}"] = _read(index / "size")
    model = next(
        (line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
         if line.startswith("model name")),
        platform.processor(),
    )
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": model,
        "caches": caches,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "pinned_threads": os.environ["OPENBLAS_NUM_THREADS"],
                 "threads_reported": blas_threads()},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


# -- statistics ------------------------------------------------------------


def tail(values):
    """Highest listed percentile with at least ten samples beyond it."""
    n = len(values)
    for pct in TAIL_PERCENTILES:
        if n * (100.0 - pct) / 100.0 >= 10:
            cut = statistics.quantiles(values, n=1000, method="inclusive")
            return pct, cut[round(pct * 10) - 1]
    return None, max(values)


# -- workloads -------------------------------------------------------------


class Workload:
    """Set-up, warm-up, one closed-loop operation and its gates.

    ``op`` returns a dict with ``units`` (work units done), ``attempted``,
    ``failed``, ``unit_ms`` (per-unit times, where finer than the call) and
    ``errors`` (failed gate descriptions).
    """

    def __init__(self, lib, seed):
        self.np, self.densities, self.importance, self.integrators, \
            self.persist, self.training = lib
        self.seed = seed

    def setup(self):
        """Load the checkpoint, build the target, warm up, check round trip."""
        digest = hashlib.sha256(CHECKPOINT.read_bytes()).hexdigest()
        if digest != _read(CHECKPOINT_SHA256).split()[0]:
            fail(f"{CHECKPOINT.name}: sha256 {digest} does not match the record")
        self.flow = self.persist.load_checkpoint(CHECKPOINT)
        self.gmm = self.densities.default_trimodal()
        self.target = self.densities.UnnormalizedDensity(self.gmm, logZ_true=LOG2)
        self.warmup()
        return self.round_trip_error()

    def round_trip_error(self):
        from verletflow.flow import PhaseState

        np, integ = self.np, self.integrators
        rng = np.random.default_rng((self.seed, 0x52))
        q = rng.standard_normal((ROUND_TRIP_ROWS, self.flow.d_q))
        p = rng.standard_normal((ROUND_TRIP_ROWS, self.flow.d_p))
        fwd = integ.verlet_integrate(
            self.flow, PhaseState(q=q, p=p, t=0.0), integ.IntegratorConfig(steps=20)
        )
        back = integ.verlet_integrate(
            self.flow, fwd.state.with_(dlogp=0.0),
            integ.IntegratorConfig(t0=1.0, t1=0.0, steps=20),
        )
        return max(
            float(np.max(np.abs(back.state.q - q))),
            float(np.max(np.abs(back.state.p - p))),
            float(np.max(np.abs(fwd.dlogp + back.dlogp))),
        )

    def gates(self, ops):
        """Once-per-run correctness checks after the timed loop."""
        return []

    def icfg(self, method="taylor-verlet", steps=STEPS):
        return self.integrators.IntegratorConfig(steps=steps, method=method, seed=self.seed)

    def estimate(self, n, cfg, workers=1):
        start = time.perf_counter()
        rep = self.importance.estimate_logZ(self.flow, self.target, n, cfg, workers=workers)
        return rep, time.perf_counter() - start

    def logz_errors(self, rep, label):
        if not (math.isfinite(rep.logZ) and math.isfinite(rep.sd)):
            return [f"{label}: non-finite logZ {rep.logZ} +- {rep.sd}"]
        if abs(rep.logZ - LOG2) > SD_MULTIPLE * rep.sd:
            return [f"{label}: |logZ - log 2| = {abs(rep.logZ - LOG2):.4g} > "
                    f"{SD_MULTIPLE} x sd {rep.sd:.4g}"]
        return []


class TrainRef(Workload):
    def config(self, epochs):
        return self.training.TrainConfig(epochs=epochs, seed=self.seed, **TRAIN)

    def warmup(self):
        self.training.train(self.gmm, self.config(1))

    def op(self):
        marks = [time.perf_counter()]
        flow, rep = self.training.train(
            self.gmm, self.config(TRAIN_EPOCHS),
            callback=lambda epoch, nll: marks.append(time.perf_counter()),
        )
        nll = rep.nll_per_epoch
        done = len(nll)
        errors = []
        if rep.diverged:
            errors.append(f"diverged after {done} epochs")
        if not all(math.isfinite(v) for v in nll):
            errors.append("non-finite NLL")
        if done < 2 or not nll[-1] < nll[0]:
            errors.append(f"last-epoch NLL {nll[-1] if nll else None} not below "
                          f"first-epoch NLL {nll[0] if nll else None}")
        return {
            "units": done,
            "attempted": TRAIN_EPOCHS,
            "failed": TRAIN_EPOCHS - done,
            "unit_ms": [1e3 * (b - a) for a, b in zip(marks, marks[1:])],
            "errors": errors,
            "nll_first_last": [nll[0], nll[-1]] if nll else [],
            "skipped": rep.skipped_batches,
        }


class LogzTv(Workload):
    def warmup(self):
        self.estimate(256, self.icfg())

    def gates(self, ops):
        """Worker-count independence: the process-pool path must give
        log-weights byte-identical to the timed single-process run."""
        pooled = self.importance.log_weights(
            self.flow, self.target, N_TV, self.icfg(), workers=2
        )
        if pooled.tobytes() != ops[0]["log_weights"].tobytes():
            return [f"log-weights with workers=2 differ from workers=1 at n={N_TV}"]
        return []

    def op(self):
        rep, _ = self.estimate(N_TV, self.icfg())
        return {
            "units": N_TV,
            "attempted": N_TV,
            "failed": rep.invalid_count,
            "errors": self.logz_errors(rep, "taylor-verlet"),
            "logZ": [rep.logZ, rep.sd],
            "log_weights": rep.log_weights,
        }


class LogzRk4(Workload):
    def warmup(self):
        for method in ("rk4-exact", "rk4-hutchinson"):
            self.estimate(16, self.icfg(method, steps=10))

    def op(self):
        exact, t_exact = self.estimate(N_RK4, self.icfg("rk4-exact"))
        hutch, t_hutch = self.estimate(N_RK4, self.icfg("rk4-hutchinson"))
        errors = self.logz_errors(exact, "rk4-exact")
        if not self.np.all(self.np.isfinite(hutch.log_weights)):
            errors.append("rk4-hutchinson produced non-finite weights")
        return {
            "units": 2 * N_RK4,
            "attempted": 2 * N_RK4,
            "failed": exact.invalid_count + hutch.invalid_count,
            "errors": errors,
            "split_s": [t_exact, t_hutch],
            "logZ": [exact.logZ, exact.sd, hutch.logZ],
        }


CLASSES = {"train-ref": TrainRef, "logz-tv": LogzTv, "logz-rk4": LogzRk4}


# -- runner ----------------------------------------------------------------


def tracing_if(tracer):
    from tracing import patched

    return patched(tracer) if tracer else contextlib.nullcontext()


def closed_loop(work, seconds, tracer=None):
    """Run operations back to back until the next one would end past the
    deadline (at least one; with a tracer, at least one traced and one
    untraced, alternating, untraced first)."""
    ops = []
    begin = time.perf_counter()
    while True:
        traced = tracer is not None and len(ops) % 2 == 1
        if traced:
            tracer.op = len(ops)
        with tracing_if(traced and tracer):
            start = time.perf_counter()
            result = work.op()
            result["wall"] = time.perf_counter() - start
        result["traced"] = traced
        ops.append(result)
        elapsed = time.perf_counter() - begin
        enough = tracer is None or len(ops) >= 2
        typical = statistics.median(r["wall"] for r in ops)
        if enough and elapsed + typical > seconds:
            return ops


def end_to_end(name, ops, setup_s):
    """(result metrics, workload-specific metrics) from untraced ops."""
    # time-averaged over the run: the machine's speed drifts on a scale of
    # seconds to minutes, which a mean over the run smooths and a median of
    # a handful of operations does not
    rate = sum(r["units"] for r in ops) / sum(r["wall"] for r in ops)
    if name == "train-ref":
        epoch_ms = [t for r in ops for t in r["unit_ms"]]
        pct, tail_ms = tail(epoch_ms)
        specific = dict(
            train_epochs_per_s=(rate, "1/s"),
            train_epoch_ms_p50=(statistics.median(epoch_ms), "ms"),
            train_epoch_ms_tail=(tail_ms, "ms"),
            train_epoch_ms_tail_percentile=(pct, "%"),
            train_epoch_samples=(len(epoch_ms), "count"),
        )
    elif name == "logz-rk4":
        specific = dict(
            rk4_exact_samples_per_s=(
                N_RK4 * len(ops) / sum(r["split_s"][0] for r in ops), "1/s"),
            rk4_hutch_samples_per_s=(
                N_RK4 * len(ops) / sum(r["split_s"][1] for r in ops), "1/s"),
        )
    else:
        specific = dict(logz_samples_per_s=(rate, "1/s"))
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted = sum(r["attempted"] for r in ops)
    failed = sum(r["failed"] for r in ops)
    metrics = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_mb, "MB"),
        "work_per_s": (rate, "1/s"),
    }
    specific.update(
        setup_s=(setup_s, "s"), peak_rss_mb=(peak_mb, "MB"),
        fail_frac=(failed / attempted, "ratio"), calls=(len(ops), "count"),
    )
    return metrics, specific


def per_layer(name, ops, tracer):
    from tracing import layer_metrics, self_time_table

    traced = [r for r in ops if r["traced"]]
    # the first operation also pays for growing the heap; leave it out of the
    # overhead baseline when another untraced one exists
    plain = [r for r in ops if not r["traced"]]
    plain = plain[1:] or plain
    units = sum(r["units"] for r in traced) if name == "train-ref" else len(traced)
    out = layer_metrics(tracer, units)
    per_unit = lambda rs: statistics.median(r["wall"] / r["units"] for r in rs)
    out["training.skipped_batches"] = sum(r.get("skipped", 0) for r in traced) / units
    out["trace.overhead_pct"] = 100.0 * (per_unit(traced) / per_unit(plain) - 1.0)
    wall_ms = 1e3 * sum(r["wall"] for r in traced)
    return out, self_time_table(tracer, wall_ms), ceilings(name, tracer, wall_ms)


def ceilings(name, tracer, wall_ms):
    """Share of traced wall time each roadmap item's layers hold here."""
    from spec import ROADMAP
    from tracing import self_times

    selfs = self_times(tracer.spans)
    out = {}
    for item, spec in ROADMAP.items():
        incl = spec.get("ceiling_spans", {}).get(name, [])
        excl = spec.get("ceiling_self", {}).get(name, [])
        if not incl and not excl:
            continue
        ms = sum(
            1e3 * ((end - start) if span_name in incl else selfs[i])
            for i, (span_name, start, end, _, op) in enumerate(tracer.spans)
            if op >= 0 and (span_name in incl or span_name in excl)
        )
        out[item] = {"layers": incl + excl, "share": ms / wall_ms}
    return out


def units_of(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def write_spans(name, seed, tracer):
    from tracing import FIELDS

    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{name}-seed{seed}.json"
    with open(path, "w") as fh:
        json.dump({"workload": name, "seed": seed, "fields": FIELDS,
                   "notes": {str(k): v for k, v in tracer.notes.items()},
                   "spans": tracer.spans}, fh, separators=(",", ":"))
    return path


def import_times():
    """Import time of numpy, scipy and verletflow in fresh interpreters."""
    times = []
    for _ in range(IMPORT_PROBES):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                             capture_output=True, text=True, check=True)
        times.append(float(out.stdout))
    return times


def run_one(args):
    load_before = loadavg()
    if not CHECKPOINT.is_file() or not CHECKPOINT_SHA256.is_file():
        fail(f"reference checkpoint {CHECKPOINT} or its sha256 record is missing")
    lib = import_library()
    imports = import_times()
    sys.path.insert(0, str(HERE))
    from tracing import Tracer

    work = CLASSES[args.workload](lib, args.seed)
    tracer = Tracer() if args.trace else None
    setup_times, round_trip = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with tracing_if(tracer):
            round_trip.append(work.setup())
        setup_times.append(time.perf_counter() - t0)
    setup_s = statistics.median(imports) + statistics.median(setup_times)

    ops = closed_loop(work, args.seconds, tracer)

    errors = work.gates(ops) + [e for r in ops for e in r["errors"]]
    if max(round_trip) > ROUND_TRIP_TOL:
        errors.append(f"round trip error {max(round_trip):.3g} > {ROUND_TRIP_TOL}")
    attempted = sum(r["attempted"] for r in ops)
    failed = attempted if errors else sum(r["failed"] for r in ops)

    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine_record(lib[0]),
        "loadavg_before": load_before,
        "gates": {"errors": errors, "round_trip_max_err": max(round_trip),
                  "tolerance": ROUND_TRIP_TOL, "sd_multiple": SD_MULTIPLE},
        "import_s": imports, "setup_repeats_s": setup_times,
        "ops": [{k: v for k, v in r.items()
                 if k not in ("unit_ms", "errors", "log_weights")} for r in ops],
    }
    if args.trace:
        metrics, details["self_time"], details["ceilings"] = per_layer(
            args.workload, ops, tracer
        )
        details["spans_file"] = str(write_spans(args.workload, args.seed, tracer)
                                    .relative_to(ROOT))
        units = units_of("per_layer")
        result_metrics = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    else:
        metrics, specific = end_to_end(args.workload, ops, setup_s)
        details["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in specific.items()}
        result_metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    details["loadavg_after"] = loadavg()
    print(json.dumps(details))
    if errors:
        print("perfbench: correctness gate failed: " + "; ".join(errors), file=sys.stderr)
    print(json.dumps({"correct": not errors, "attempted": attempted,
                      "failed": failed, "metrics": result_metrics}))
    return 0


def run_all(args):
    """Every workload in a fresh process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        print(lines[-2])
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    # one BLAS thread per process, set before numpy is first imported
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
