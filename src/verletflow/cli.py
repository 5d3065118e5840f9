"""Command-line surface: training, log Z estimation, weight histograms,
method benchmarks, sampling and self-check suites.

Commands raise their failures as typed errors, and ``main`` alone turns
each into one stderr line and its exit code: 0 ok, 1 check failure,
2 usage/config error (``ConfigError``, ``CheckpointError``, an unwritable
output or a request too large for memory), 3 numeric failure
(``IntegrationError``).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import checks, svg
from .importance import SD_BATCHES, estimate_logZ, push_blocks
from .integrators import METHODS, IntegrationError, IntegratorConfig
from .persist import CheckpointError, Config, ConfigError, load_checkpoint, save_checkpoint
from .training import train

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3


def bounded_int(low):
    """argparse type for an integer >= ``low`` (a usage error otherwise):
    1 for counts, 0 for seeds, which numpy needs non-negative."""
    kind = "positive" if low else "non-negative"

    def parse(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be a {kind} integer, got {value}")
        return value

    parse.__name__ = f"{kind.replace('-', '_')}_int"  # argparse's "invalid <name> value"
    return parse


def given(args):
    """The ``--steps``, ``--seed`` and ``--samples`` values set on the command
    line, by name: each replaces the config field of that name."""
    values = {k: getattr(args, k, None) for k in ("steps", "seed", "samples")}
    return {k: v for k, v in values.items() if v is not None}


def check_output(path, directory=False):
    """Raise ``OSError`` unless ``path`` can be written, creating nothing: a
    directory is made with its missing parents, a file's must exist."""
    path = Path(path)
    if path.exists() and path.is_dir() != directory:
        raise OSError(f"{path} exists and is {'not ' if directory else ''}a directory")
    parent = next(d for d in (path, *path.parents) if d.exists()) if directory else path.parent
    if not (parent.is_dir() and os.access(parent, os.W_OK)):
        raise OSError(f"cannot write {path}: {parent} is not a writable directory")


def write_csv(path, header, rows):
    """Write ``header`` and ``rows`` to ``path``, every float (numpy's too)
    as ``.12g`` and any other value as it is."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([format(v, ".12g") if isinstance(v, float) else v for v in row])


def cmd_train(args):
    config = Config.load(args.config)
    config.train = replace(config.train, **given(args))
    target = config.build_target()
    flow = config.build_flow()
    flow, report = train(target.base, config.train, flow=flow)
    epochs, skipped = config.train.epochs, report.skipped_batches
    if epochs and not report.nll_per_epoch:
        then = ", then diverged" if report.diverged else ""
        raise IntegrationError(f"trained 0 of {epochs} epochs; "
                               f"{skipped} batches skipped{then}")
    # created only once training was accepted: a rejected run leaves nothing
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_checkpoint(out / "checkpoint.txt", flow)
    write_csv(out / "nll.csv", ["epoch", "nll"], enumerate(report.nll_per_epoch))
    if report.diverged:
        print("training diverged; kept last good checkpoint", file=sys.stderr)
        return EXIT_NUMERIC
    note = f" ({skipped} of {epochs} batches skipped)" if skipped else ""
    print(
        f"trained {len(report.nll_per_epoch)} epochs in {report.wall_time:.1f}s"
        f"{note}; checkpoint at {out / 'checkpoint.txt'}"
    )
    return EXIT_OK


def _methods(args, config):
    """``--method`` (or the config's) for logz and weights-hist; benchmark's
    ``--methods`` list, deduplicated, must name 2 distinct known methods."""
    if args.command != "benchmark":
        return [args.method or config.eval.method]
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    for m in methods:
        if m not in METHODS:
            raise ConfigError(f"unknown method {m!r}")
    distinct = list(dict.fromkeys(methods))
    if len(distinct) < len(methods):
        print("warning: duplicate methods removed from benchmark", file=sys.stderr)
    if len(distinct) < 2:
        raise ConfigError("benchmark needs at least 2 distinct methods")
    return distinct


def cmd_estimate(args):
    """logz, weights-hist and benchmark: load, validate, estimate once per
    method on one seed, then hand the reports to the command's writer."""
    flow = load_checkpoint(args.checkpoint)
    config = Config.load(args.config) if args.config else Config()
    config.d_q, config.d_p = flow.d_q, flow.d_p
    target = config.build_target()
    methods = _methods(args, config)
    ev = replace(config.eval, **given(args))
    reports = []
    for method in methods:
        cfg = IntegratorConfig(steps=ev.steps, method=method, seed=ev.seed,
                               hutchinson_probes=ev.hutchinson_probes)
        report = estimate_logZ(flow, target, ev.samples, cfg, workers=args.workers)
        if ev.samples - report.invalid_count < SD_BATCHES:
            raise IntegrationError(f"{report.invalid_count} of {ev.samples} samples failed, "
                                   f"fewer than {SD_BATCHES} valid [{method}]")
        if not np.isfinite([report.logZ, report.sd]).all():
            raise IntegrationError(f"non-finite estimate logZ = {report.logZ:.6g} "
                                   f"+- {report.sd:.6g} [{method}]")
        reports.append(report)
    args.write(args, target, reports)
    return EXIT_OK


def _write_curves(args, target, reports):
    """logz and benchmark artifacts: the WeightReport CSV
    (method,seed,m,logZ,sd,wall_ms,invalid_count) and the logZ-curve SVG."""
    if args.csv:
        write_csv(args.csv, ["method", "seed", "m", "logZ", "sd", "wall_ms", "invalid_count"],
                  [(r.method, r.seed, m, logz, sd, int(round(r.wall_seconds * 1000)),
                    r.invalid_count) for r in reports for m, logz, sd in r.logZ_curve])
    if args.svg:
        with open(args.svg, "w") as fh:
            fh.write(
                svg.logz_curve_svg(
                    {r.method: r.logZ_curve for r in reports},
                    logz_true=target.logZ_true,
                )
            )


def write_logz(args, target, reports):
    _write_curves(args, target, reports)
    (report,) = reports
    flag = " (UNRELIABLE: >1% invalid weights)" if report.unreliable else ""
    print(
        f"logZ[{report.method}] = {report.logZ:.6f} +- {report.sd:.6f} "
        f"(n={len(report.log_weights)}, true={target.logZ_true:.6f}){flag}"
    )


def write_weights_hist(args, target, reports):
    (report,) = reports
    lw = report.log_weights
    if args.csv:
        write_csv(args.csv, ["index", "log_weight"], enumerate(lw))
    if args.svg:
        with open(args.svg, "w") as fh:
            fh.write(
                svg.histogram_svg(
                    lw.tolist(), title=f"log importance weights ({report.method})"
                )
            )
    finite = lw[np.isfinite(lw)]
    print(
        f"{finite.size} weights [{report.method}]: min={finite.min():.3f} "
        f"max={finite.max():.3f}"
    )


def write_benchmark(args, target, reports):
    _write_curves(args, target, reports)
    for report in reports:
        print(
            f"{report.method:16s} logZ={report.logZ:.6f} +- {report.sd:.6f} "
            f"wall={report.wall_seconds*1000:.0f}ms"
        )


def cmd_sample(args):
    flow = load_checkpoint(args.checkpoint)
    cfg = IntegratorConfig(**given(args))
    q1, p1 = np.empty((args.n, flow.d_q)), np.empty((args.n, flow.d_p))
    log_model = np.empty(args.n)
    for a, b, *block in push_blocks(flow, cfg, 0, args.n):
        q1[a:b], p1[a:b], log_model[a:b] = block
    if failed := int(np.isnan(log_model).sum()):
        raise IntegrationError(f"{failed} of {args.n} samples did not integrate")
    header = [f"q{i}" for i in range(flow.d_q)] + [f"p{i}" for i in range(flow.d_p)]
    write_csv(args.csv, header + ["log_density"], np.column_stack([q1, p1, log_model]))
    print(f"wrote {args.n} samples to {args.csv}")
    return EXIT_OK


def cmd_check(args):
    failures = checks.failures(checks.SUITES[args.suite]())
    print(json.dumps({"suite": args.suite, "failures": failures}, indent=2))
    return EXIT_OK if not failures else EXIT_CHECK_FAILED


def build_parser():
    count = bounded_int(1)
    parser = argparse.ArgumentParser(
        prog="verletflow",
        description="Verlet flows: exact-likelihood augmented CNFs",
    )
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=bounded_int(0), default=None)
    csv_out = argparse.ArgumentParser(add_help=False)
    csv_out.add_argument("--csv", type=str, default=None)

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", parents=[seed], help="train a flow")
    p.add_argument("config")
    p.add_argument("--out", default="run")
    p.set_defaults(func=cmd_train)

    for name, write, samples in (
        ("logz", write_logz, None),  # None: the config's eval.samples
        ("weights-hist", write_weights_hist, 10_000),
        ("benchmark", write_benchmark, 1000),
    ):
        p = sub.add_parser(name, parents=[seed, csv_out])
        p.add_argument("checkpoint")
        p.add_argument("--config", default=None)
        p.add_argument("--samples", type=count, default=samples)
        p.add_argument("--steps", type=count, default=None)
        p.add_argument("--workers", type=count, default=1)
        p.add_argument("--svg", type=str, default=None)
        if name == "benchmark":
            p.add_argument("--methods", default="taylor-verlet,rk4-exact")
        else:
            p.add_argument("--method", choices=METHODS, default=None)
        p.set_defaults(func=cmd_estimate, write=write)

    p = sub.add_parser("sample", parents=[seed], help="push source samples forward")
    p.add_argument("checkpoint")
    p.add_argument("-n", type=count, default=1000)
    p.add_argument("--steps", type=count, default=None)
    p.add_argument("--csv", default="samples.csv")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("check", help="run a property suite")
    p.add_argument("suite", choices=sorted(checks.SUITES))
    p.set_defaults(func=cmd_check)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        # an output that cannot be created is rejected before the work starts
        for name, directory in (("out", True), ("csv", False), ("svg", False)):
            if getattr(args, name, None):
                check_output(getattr(args, name), directory)
        return args.func(args)
    except (ConfigError, CheckpointError, OSError, MemoryError) as err:
        # a request too large for memory is a usage error too
        print(f"error: {str(err) or 'out of memory'}", file=sys.stderr)
        return EXIT_USAGE
    except IntegrationError as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
