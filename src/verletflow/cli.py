"""Command-line surface: training, log Z estimation, weight histograms,
method benchmarks, sampling and self-check suites.

Exit codes: 0 ok, 1 check failure, 2 usage/config error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import checks, svg
from .importance import SD_BATCHES, estimate_logZ, push_blocks
from .integrators import METHODS, IntegrationError, IntegratorConfig
from .operators import UnsupportedModeError
from .persist import CheckpointError, Config, ConfigError, load_checkpoint, save_checkpoint
from .training import train

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3


def positive_int(text):
    """argparse type for counts that must be >= 1 (a usage error otherwise)."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def cmd_train(args):
    try:
        config = Config.load(args.config)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    if args.seed is not None:
        config.train.seed = args.seed
    target = config.build_target()
    flow = config.build_flow()
    try:
        flow, report = train(target.base, config.train, flow=flow)
    except UnsupportedModeError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    # created only once training was accepted: a rejected run leaves nothing
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_checkpoint(out / "checkpoint.txt", flow)
    with open(out / "nll.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "nll"])
        for epoch, nll in enumerate(report.nll_per_epoch):
            writer.writerow([epoch, format(nll, ".12g")])
    if report.diverged:
        print("training diverged; kept last good checkpoint", file=sys.stderr)
        return EXIT_NUMERIC
    print(
        f"trained {len(report.nll_per_epoch)} epochs in {report.wall_time:.1f}s; "
        f"checkpoint at {out / 'checkpoint.txt'}"
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
    try:
        flow = load_checkpoint(args.checkpoint)
        config = Config.load(args.config) if args.config else Config()
        config.d_q, config.d_p = flow.d_q, flow.d_p
        target = config.build_target()
        methods = _methods(args, config)
        cfgs = [
            IntegratorConfig(
                steps=args.steps or config.eval.steps,
                method=method,
                hutchinson_probes=config.eval.hutchinson_probes,
                seed=args.seed if args.seed is not None else config.eval.seed,
            )
            for method in methods
        ]
        n = args.samples or config.eval.samples
        # the reported sd needs SD_BATCHES batch estimates
        if n < SD_BATCHES:
            raise ValueError(
                f"{args.command} needs at least {SD_BATCHES} samples, got {n}"
            )
    except (ConfigError, CheckpointError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    reports = []
    for cfg in cfgs:
        try:
            report = estimate_logZ(flow, target, n, cfg, workers=args.workers)
        except IntegrationError as err:
            print(f"numeric failure: {err}", file=sys.stderr)
            return EXIT_NUMERIC
        if n - report.invalid_count < SD_BATCHES:
            print(f"numeric failure: {report.invalid_count} of {n} samples failed, "
                  f"fewer than {SD_BATCHES} valid [{cfg.method}]", file=sys.stderr)
            return EXIT_NUMERIC
        reports.append(report)
    args.write(args, target, reports)
    return EXIT_OK


def _write_curves(args, target, reports):
    """logz and benchmark artifacts: the WeightReport CSV
    (method,seed,m,logZ,sd,wall_ms,invalid_count) and the logZ-curve SVG."""
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["method", "seed", "m", "logZ", "sd", "wall_ms", "invalid_count"]
            )
            for report in reports:
                for m, logz, sd in report.logZ_curve:
                    writer.writerow(
                        [
                            report.method,
                            report.seed,
                            m,
                            format(logz, ".12g"),
                            format(sd, ".12g"),
                            int(round(report.wall_seconds * 1000)),
                            report.invalid_count,
                        ]
                    )
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
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "log_weight"])
            for i, w in enumerate(lw):
                writer.writerow([i, format(w, ".12g")])
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
    try:
        flow = load_checkpoint(args.checkpoint)
    except CheckpointError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    cfg = IntegratorConfig(
        steps=args.steps or 100, seed=args.seed or 0, method="taylor-verlet"
    )
    rng = np.random.default_rng(cfg.seed)
    q0 = rng.standard_normal((args.n, flow.d_q))
    p0 = rng.standard_normal((args.n, flow.d_p))
    x0 = np.concatenate([q0, p0], axis=-1)
    q1, p1, log_model = np.empty_like(q0), np.empty_like(p0), np.empty(args.n)
    blocks = push_blocks(flow, cfg, 0, args.n, lambda a, b: (x0[a:b], None))
    for a, b, *block in blocks:
        q1[a:b], p1[a:b], log_model[a:b] = block
    failed = int(np.isnan(log_model).sum())
    if failed:
        print(f"numeric failure: {failed} of {args.n} samples did not integrate",
              file=sys.stderr)
        return EXIT_NUMERIC
    path = args.csv or "samples.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = [f"q{i}" for i in range(flow.d_q)]
        header += [f"p{i}" for i in range(flow.d_p)]
        header.append("log_density")
        writer.writerow(header)
        for qi, pi, ld in zip(q1, p1, log_model):
            writer.writerow(
                [format(v, ".12g") for v in (*qi, *pi)] + [format(ld, ".12g")]
            )
    print(f"wrote {args.n} samples to {path}")
    return EXIT_OK


def cmd_check(args):
    failures = checks.SUITES[args.suite]()
    print(json.dumps({"suite": args.suite, "failures": failures}, indent=2))
    return EXIT_OK if not failures else EXIT_CHECK_FAILED


def build_parser():
    parser = argparse.ArgumentParser(
        prog="verletflow",
        description="Verlet flows: exact-likelihood augmented CNFs",
    )
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=None)
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
        p.add_argument("--samples", type=positive_int, default=samples)
        p.add_argument("--steps", type=positive_int, default=None)
        p.add_argument("--workers", type=positive_int, default=1)
        p.add_argument("--svg", type=str, default=None)
        if name == "benchmark":
            p.add_argument("--methods", default="taylor-verlet,rk4-exact")
        else:
            p.add_argument("--method", choices=METHODS, default=None)
        p.set_defaults(func=cmd_estimate, write=write)

    p = sub.add_parser("sample", parents=[seed, csv_out],
                       help="push source samples forward")
    p.add_argument("checkpoint")
    p.add_argument("-n", type=positive_int, default=1000)
    p.add_argument("--steps", type=positive_int, default=None)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("check", help="run a property suite")
    p.add_argument("suite", choices=sorted(checks.SUITES))
    p.set_defaults(func=cmd_check)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
