"""Command-line driver: estimate on a CSV, run a simulation grid, self-test.

Exit codes are fixed: 0 for success, 2 for input or usage problems and
files that cannot be read or written (with a one-line message on stderr),
1 for anything unexpected or a failed self-test. ``estimate`` and each
``simulate`` replication run one analysis, :func:`nncorr.bootstrap.analyze`,
which checks every option before any work. Every output format is decided
here, and every file and stdout output is byte-stable for a given invocation
and seed; the one wall-clock figure, the study's run time, goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, fields
from pathlib import Path

from . import _threads
from .bias_correction import DEFAULT_DEGREE, DEFAULT_LAMBDA_EXPONENT, PipelineConfig
from .bootstrap import DEFAULT_B_REPS, analyze
from .dataset import load_csv
from .errors import InputError
from .selftest import run_selftest
from .simulation import RawRecord, run_study

DEFAULT_SIM_RHOS = (0.0, 0.3, 0.5, 0.7, 0.9)
DEFAULT_SIM_DS = (6,)
DEFAULT_SIM_NS = (300,)


def _g17(v: float) -> str:
    return format(v, ".17g")


# The raw.csv columns, RawRecord's fields in order, each with its format:
# ints as they are, floats to 17 significant digits. The annotations are
# strings, since the simulation module imports ``annotations`` from __future__.
_RAW_COLUMNS = tuple(
    (f.name, str if f.type == "int" else _g17) for f in fields(RawRecord)
)
RAW_CSV_HEADER = ",".join(name for name, _ in _RAW_COLUMNS)


def format_report(cells, alpha: float) -> str:
    """Aligned plain-text table of the study, one row per cell, then the level."""
    header = (
        f"{'rho':>5} {'d':>3} {'n':>6} {'reps':>5} "
        f"{'rmse_t':>9} {'rmse_tbc':>9} {'ecp_t':>6} {'ecp_tbc':>7} "
        f"{'mean_t':>9} {'mean_tbc':>9}"
    )
    lines = [header, "-" * len(header)]
    for c in cells:
        lines.append(
            f"{c.rho:>5.2f} {c.d:>3d} {c.n:>6d} {c.reps:>5d} "
            f"{c.rmse_t:>9.4f} {c.rmse_tbc:>9.4f} {c.ecp_t:>6.3f} {c.ecp_tbc:>7.3f} "
            f"{c.mean_t:>9.4f} {c.mean_tbc:>9.4f}"
        )
    lines.append(f"alpha = {alpha:g}")
    return "\n".join(lines) + "\n"


def raw_csv_lines(records) -> list:
    """Raw per-replication rows as CSV lines, the header first (17 significant digits)."""
    rows = (",".join(fmt(getattr(rec, name)) for name, fmt in _RAW_COLUMNS) for rec in records)
    return [RAW_CSV_HEADER, *rows]


class _Parser(argparse.ArgumentParser):
    # argparse prints usage plus the error; the contract here is a single
    # diagnostic line and exit code 2, so a usage error is an input error.
    def error(self, message):
        raise InputError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="nncorr", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)

    est = sub.add_parser("estimate", help="estimate dependence from a CSV file")
    est.add_argument("--input", required=True, help="CSV with covariates and response")
    est.add_argument("--y-column", default="last",
                     help='response column: 0-based index or "last" (default)')
    est.add_argument("--degree", type=int, default=DEFAULT_DEGREE,
                     help="polynomial total degree")
    est.add_argument("--lambda-exponent", type=float, default=DEFAULT_LAMBDA_EXPONENT,
                     help="ridge penalty exponent c in n**-c")
    est.add_argument("--bootstrap-reps", type=int, default=DEFAULT_B_REPS)
    est.add_argument("--m", type=int, default=None,
                     help="bootstrap subsample size (default floor(sqrt(n)))")
    est.add_argument("--alpha", type=float, default=0.05)
    est.add_argument("--seed", type=int, default=0)
    est.add_argument("--no-scale", action="store_true",
                     help="skip min-max rescaling of the covariates")
    est.add_argument("--threads", type=int, default=None)
    est.add_argument("--output", default="-", help='JSON destination path or "-"')

    sim = sub.add_parser("simulate", help="run the Monte-Carlo study grid")
    sim.add_argument("--rho", type=float, action="append",
                     help="mixing weight, repeatable")
    sim.add_argument("--d", type=int, action="append", help="dimension, repeatable")
    sim.add_argument("--n", type=int, action="append", help="sample size, repeatable")
    sim.add_argument("--reps", type=int, default=200)
    sim.add_argument("--bootstrap-reps", type=int, default=DEFAULT_B_REPS)
    sim.add_argument("--alpha", type=float, default=0.05)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--threads", type=int, default=None)
    sim.add_argument("--out-dir", default=".",
                     help="directory for report.json, report.txt, raw.csv")

    st = sub.add_parser("selftest", help="run the built-in oracle suites")
    st.add_argument("--quick", action="store_true", help="smaller instances, < 10 s")
    st.add_argument("--threads", type=int, default=None)

    return parser


def _dumps(obj) -> str:
    # Keys keep insertion order; floats print as their shortest round-trip
    # repr, and a non-finite one raises rather than printing invalid JSON.
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"


def _check_destination(option: str, path: Path, is_dir: bool) -> None:
    """Refuse an output path that cannot be written, before any work."""
    # A directory is made with its parents: its nearest existing ancestor counts.
    parent = next(p for p in (path, *path.parents) if p.exists()) if is_dir else path.parent
    if not parent.is_dir():
        raise InputError(f"{option} {path}: {parent} is not an existing directory")
    if not is_dir and path.is_dir():
        raise InputError(f"{option} {path} is a directory")


def _cmd_estimate(args) -> int:
    if args.output != "-":
        _check_destination("--output", Path(args.output), is_dir=False)
    sample = load_csv(args.input, y_column=args.y_column)
    config = PipelineConfig(
        degree=args.degree,
        lambda_exponent=args.lambda_exponent,
        scale_covariates=not args.no_scale,
    )
    res = analyze(sample, config, b_reps=args.bootstrap_reps, m=args.m,
                  alpha=args.alpha, seed=args.seed)

    payload = {
        "n": sample.n,
        "d": sample.d,
        "t_hat": res.t_hat,
        "l_hat": res.l_hat,
        "t_bc": res.t_bc,
        "se_t": res.se_t,
        "se_tbc": res.se_tbc,
        "ci_t": list(res.ci_t),
        "ci_tbc": list(res.ci_tbc),
        "config": {
            **asdict(config),
            "m": res.m,
            "bootstrap_reps": args.bootstrap_reps,
            "alpha": args.alpha,
            "seed": args.seed,
        },
    }
    text = _dumps(payload)
    if args.output == "-":
        sys.stdout.write(text)
    else:
        Path(args.output).write_text(text, encoding="utf-8")
    return 0


def _cmd_simulate(args) -> int:
    rhos = args.rho if args.rho else list(DEFAULT_SIM_RHOS)
    ds = args.d if args.d else list(DEFAULT_SIM_DS)
    ns = args.n if args.n else list(DEFAULT_SIM_NS)
    grid = [(rho, d, n) for rho in rhos for d in ds for n in ns]
    out_dir = Path(args.out_dir)
    _check_destination("--out-dir", out_dir, is_dir=True)

    records: list = []
    start = time.perf_counter()
    cells = run_study(grid, reps=args.reps, alpha=args.alpha, b_reps=args.bootstrap_reps,
                      seed=args.seed, records=records)
    wall = time.perf_counter() - start

    out_dir.mkdir(parents=True, exist_ok=True)
    report = {"alpha": args.alpha, "cells": [asdict(c) for c in cells]}
    (out_dir / "report.json").write_text(_dumps(report), encoding="utf-8")
    text = format_report(cells, args.alpha)
    (out_dir / "report.txt").write_text(text, encoding="utf-8")
    (out_dir / "raw.csv").write_text(
        "\n".join(raw_csv_lines(records)) + "\n", encoding="utf-8"
    )
    sys.stdout.write(text)
    print(f"wall time = {wall:.2f} s", file=sys.stderr)
    return 0


def _cmd_selftest(args) -> int:
    return 0 if run_selftest(quick=args.quick) else 1


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        with _threads.workers(args.threads):
            if args.subcommand == "estimate":
                return _cmd_estimate(args)
            if args.subcommand == "simulate":
                return _cmd_simulate(args)
            return _cmd_selftest(args)
    except (InputError, OSError) as exc:
        # A file that cannot be read or written (a directory, permissions,
        # a full disk) is a problem of the input or the environment.
        print(f"nncorr: error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports and exits
        print(f"nncorr: internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
