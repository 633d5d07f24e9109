"""Command-line interface: norms, operator norms, pseudospectrum scans,
and the verification suite.

Exit codes: 0 ok, 1 usage error, 2 solver gap, 3 I/O failure,
4 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from .coeffs import Coeffs
from . import spaces as sp
from . import operators as op
from . import opnorm
from . import pseudospectrum as ps
from . import convex
from . import verify

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SOLVER_GAP = 2
EXIT_IO = 3
EXIT_VERIFY = 4


class UsageError(Exception):
    pass


def _parse_json(text, label):
    try:
        return json.loads(text)
    except (json.JSONDecodeError, TypeError) as exc:
        raise UsageError("malformed %s JSON: %s" % (label, exc))


_LOADERS = {"space": sp.space_from_json_obj,
            "operator": op.operator_from_json_obj,
            "vector": Coeffs.from_json_obj}


def _load(args, *names) -> list:
    """Parse the named JSON options of a subcommand; all are required."""
    if not all(getattr(args, name) for name in names):
        raise UsageError("%s needs %s" % (
            args.command, " and ".join("--" + name for name in names)))
    out = []
    for name in names:
        obj = _parse_json(getattr(args, name), "--" + name)
        try:
            out.append(_LOADERS[name](obj))
        except KeyError as exc:
            raise UsageError("malformed --%s: missing key %s" % (name, exc))
        except (TypeError, AttributeError, OverflowError) as exc:
            raise UsageError("malformed --%s: %s" % (name, exc))
    return out


def _write_out(path: str, text: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise IOError("cannot write %s: %s" % (path, exc))


def _emit(args, text: str, stdout) -> None:
    if args.out:
        _write_out(args.out, text)
    else:
        stdout.write(text if text.endswith("\n") else text + "\n")


def cmd_norm(args, stdout) -> int:
    space, vector = _load(args, "space", "vector")
    if isinstance(space, sp.RenormedL2):
        if args.trunc is not None:
            space = sp.RenormedL2(args.trunc)
        tol = convex.TOL if args.tol is None else args.tol
        value, d = convex.minkowski_norm(vector, space.trunc, tol)
        payload = {"schema_version": SCHEMA_VERSION, "value": value,
                   "decomposition": d.to_json_obj()}
        if args.format == "json":
            _emit(args, json.dumps(payload, sort_keys=True), stdout)
        else:
            _emit(args, "%.6f" % value, stdout)
        if not d.converged:
            sys.stderr.write("solver gap %.3g above tolerance\n" % d.gap)
            return EXIT_SOLVER_GAP
        return EXIT_OK
    if args.trunc is not None or args.tol is not None:
        raise UsageError("--trunc and --tol apply only to the renormed space")
    value = sp.norm_eval(space, vector)
    if args.format == "json":
        _emit(args, json.dumps({"schema_version": SCHEMA_VERSION,
                                "value": value}, sort_keys=True), stdout)
    else:
        _emit(args, "%.6f" % value, stdout)
    return EXIT_OK


def cmd_opnorm(args, stdout) -> int:
    space, operator = _load(args, "space", "operator")
    cfgo = opnorm.OpnormConfig(seed=args.seed)
    report = opnorm.operator_norm(operator, space, args.trunc, cfgo)
    if args.format == "json":
        payload = {"schema_version": SCHEMA_VERSION}
        payload.update(report.to_json_obj())
        _emit(args, json.dumps(payload, sort_keys=True), stdout)
    else:
        _emit(args, "%.10f method=%s attainment=%s"
              % (report.value, report.method, report.attainment), stdout)
        if report.warning:
            sys.stderr.write("warning: the iterate returned 0; "
                             "the value is only a lower bound\n")
    return EXIT_OK


def cmd_pspec(args, stdout) -> int:
    space, operator = _load(args, "space", "operator")
    region = args.grid.split(",")
    if len(region) != 4:
        raise UsageError("--grid needs re0,re1,im0,im1")
    cfgo = opnorm.OpnormConfig(seed=args.seed)
    grid = ps.grid_scan(operator, space, tuple(float(v) for v in region),
                        args.res, args.eps, args.trunc, cfgo)
    text = (json.dumps(grid.to_json_obj(), sort_keys=True)
            if args.format == "json" else grid.to_csv())
    _emit(args, text, stdout)
    classes = grid.classes
    stdout.write("strict=%d level=%d outside=%d radius=%.6f\n"
                 % (classes.count("strict"), classes.count("level"),
                    classes.count("outside"), ps.strict_radius(grid)))
    return EXIT_OK


def cmd_verify(args, stdout) -> int:
    only = [s for s in (args.only or "").split(",") if s]
    try:
        results = verify.run_checks(only or None)
    except KeyError as exc:
        raise UsageError(str(exc))
    for r in results:
        stdout.write("%s: %s\n" % (r.check_id, "PASS" if r.ok else "FAIL"))
    report = {"schema_version": SCHEMA_VERSION,
              "results": [r.to_json_obj() for r in results],
              "all_ok": all(r.ok for r in results)}
    if args.out:
        _write_out(args.out, json.dumps(report, sort_keys=True))
    elif args.format == "json":
        stdout.write(json.dumps(report, sort_keys=True) + "\n")
    return EXIT_OK if report["all_ok"] else EXIT_VERIFY


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it
    unchanged."""
    parser = argparse.ArgumentParser(
        prog="normlab",
        description="sequence-space norms, operator norms, pseudospectra")
    sub = parser.add_subparsers(dest="command", required=True)
    pn = sub.add_parser("norm", help="norm of a vector")
    po = sub.add_parser("opnorm", help="operator norm on a truncation")
    pp = sub.add_parser("pspec", help="pseudospectrum grid scan")
    pv = sub.add_parser("verify", help="run the acceptance checks")

    for p in (pn, po, pp):
        p.add_argument("--space", help="space spec JSON")
    pn.add_argument("--vector", help="coefficient JSON [[i,re,im],…]")
    pn.add_argument("--trunc", type=int,
                    help="renormed-space truncation (default: the space's)")
    pn.add_argument("--tol", type=float, help="renormed-space gap target")
    for p in (po, pp):
        p.add_argument("--operator", help="operator spec JSON")
        p.add_argument("--trunc", type=int, default=30)
        p.add_argument("--seed", type=int, default=0)
    pp.add_argument("--eps", type=float, default=0.5)
    pp.add_argument("--grid", default="-3,3,-3,3", help="re0,re1,im0,im1")
    pp.add_argument("--res", type=int, default=61)
    pv.add_argument("--only", help="comma-separated check ids, e.g. AC3")
    for p in (pn, po, pp, pv):
        p.add_argument("--out")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def main(argv=None, stdout=None) -> int:
    stdout = stdout if stdout is not None else sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    handler = {"norm": cmd_norm, "opnorm": cmd_opnorm,
               "pspec": cmd_pspec, "verify": cmd_verify}[args.command]
    try:
        # an overflowing intermediate (the unscaled l_p sum) is rescaled or
        # shows in the output as inf; numpy's warning adds nothing to stderr
        with np.errstate(over="ignore"):
            return handler(args, stdout)
    except UsageError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_USAGE
    except (ValueError, KeyError, NotImplementedError,
            op.UnboundedImageError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_USAGE
    except IOError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
