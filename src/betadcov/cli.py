"""Command line front end.

Reads numeric CSV files (header row required), dispatches to the
library, and emits machine-readable JSON reports (CSV for convergence
traces). Exit codes: 0 success, 2 usage or input error, 3 numerical
domain error (such as a method/beta combination outside its range of
validity) or a quadrature that cannot be carried out.
"""

import argparse
import json
import sys
import time

import numpy as np

from . import __version__
from .beta2 import dcov2_closed
from .charfn import QuadConfig, QuadratureError, c_const, dcov_charfn_1d
from .charrv import dcov_charrv_mc, dcov_hm
from .estimators import PairedSample, dcov_centered, dcov_plugin_d1
from .exact import (DiscreteJoint, DomainError, _require_finite, dcov_exact,
                    projection_demo)
from .inference import (MomentFlags, consistency_sweep, perm_test,
                        regime_classify, tail_diagnostic)
from .io import load_csv, parse_columns
from .metric import euclidean, row_blocks, squared_distance_rows


def _emit(report, start, stream=None):
    """Write report as one line of strict JSON; refuse NaN and infinity."""
    report["wall_time_s"] = time.perf_counter() - start
    try:
        line = json.dumps(report, sort_keys=True, allow_nan=False)
    except ValueError:
        raise DomainError("the %s report holds a value that is not finite"
                          % report["subcommand"]) from None
    (stream or sys.stdout).write(line + "\n")


def _int_list(text, option):
    """Comma separated integers of an option's value."""
    try:
        return [int(v) for v in text.split(",")]
    except ValueError:
        raise ValueError("%s must be comma separated integers, got %r"
                         % (option, text)) from None


def _sample_args(p, need_y=True):
    p.add_argument("--input", required=True, help="CSV file with header row")
    p.add_argument("--x-cols", required=True,
                   help="x columns: name list 'a,b' or index range '0:2'")
    if need_y:
        p.add_argument("--y-cols", required=True,
                       help="y columns: name list or index range")
    p.add_argument("--beta", type=float, required=True,
                   help="distance exponent, beta > 0")


def _load_parts(args, need_y=True):
    """x, y and the --prob-col column (None without one) from one CSV read."""
    header, data = load_csv(args.input)
    x = data[:, parse_columns(args.x_cols, header, "x")]
    y = data[:, parse_columns(args.y_cols, header, "y")] if need_y else None
    probs = None
    if getattr(args, "prob_col", None):
        pi = parse_columns(args.prob_col, header, "prob")
        if len(pi) != 1:
            raise ValueError("prob column selection must name one column")
        probs = data[:, pi[0]]
    return x, y, probs


def _load_input(args):
    """The CSV as weighted points: --prob-col, or weight 1/n per row."""
    x, y, probs = _load_parts(args)
    sx = euclidean(x.shape[1], args.beta)
    sy = euclidean(y.shape[1], args.beta)
    if probs is None:
        return PairedSample(x, y, sx, sy)
    if abs(probs.sum() - 1) <= 1e-9:
        probs = probs / probs.sum()
    return DiscreteJoint(x, y, probs, sx, sy)


def _max_sq_distance(pts):
    """Largest squared distance between rows of pts, one row block at a time."""
    return max(float(squared_distance_rows(pts, lo, hi).max())
               for lo, hi in row_blocks(len(pts)))


def _charrv(sample, args):
    if args.seed is None:
        raise ValueError("--seed is required for method charrv")
    draws = 2000 if args.draws is None else args.draws
    return dcov_charrv_mc(sample, draws=draws, seed=args.seed)


def _hm(sample, args):
    m = args.trunc_m
    if m is None:
        sq = (_max_sq_distance(sample.x), _max_sq_distance(sample.y))
        m = 1e6 * max(*sq, 1.0)
        # a default level beyond the double range is the data's scale
        _require_finite(m, sq)
    return dcov_hm(sample, m)


def _charfn(joint, args):
    quad = None
    if args.grid_panels is not None:
        quad = QuadConfig(panels_per_decade=args.grid_panels)
    return dcov_charfn_1d(joint, q=quad)


#: dcov methods: name -> (options read, builder(points, args)). Every
#: method reads the points weighted by --prob-col (1/n per row without
#: it) and refuses every other method option it does not read. Builders
#: look the library functions up when called.
METHODS = {
    "d1": ((), lambda points, args: dcov_plugin_d1(points)),
    "centered": ((), lambda points, args: dcov_centered(points)),
    "beta2": ((), lambda points, args: dcov2_closed(points)),
    "charrv": (("seed", "draws"), _charrv),
    "hm": (("trunc_m",), _hm),
    "exact": ((), lambda points, args: dcov_exact(points, "d1")),
    "charfn": (("grid_panels",), _charfn),
}


def _check_options(args):
    """Refuse the first given dcov option that the method does not read."""
    reads = METHODS[args.method][0]
    options = sorted({opt for opts, _ in METHODS.values() for opt in opts})
    for opt in options:
        if getattr(args, opt) is not None and opt not in reads:
            users = [name for name, (opts, _) in METHODS.items()
                     if opt in opts]
            raise ValueError("--%s applies only to method%s %s"
                             % (opt.replace("_", "-"),
                                "s" if len(users) > 1 else "",
                                " and ".join(users)))


def _cmd_dcov(args):
    start = time.perf_counter()
    _check_options(args)
    est = METHODS[args.method][1](_load_input(args), args)
    report = {"subcommand": "dcov", "method": args.method, "beta": args.beta,
              "seed": args.seed, "value": est.value, "n": est.n,
              "stderr": est.stderr, "error_estimate": None}
    if est.aux and "trunc_err" in est.aux:
        report["error_estimate"] = est.aux["trunc_err"] + est.aux["origin_err"]
    _emit(report, start)
    return 0


def _cmd_test(args):
    start = time.perf_counter()
    res = perm_test(_load_input(args), B=args.permutations,
                    seed=args.seed)
    _emit({"subcommand": "test", "beta": res.beta, "n": res.n,
           "observed": res.observed, "p_value": res.p_value,
           "permutations": res.B, "seed": res.seed}, start)
    return 0


def _cmd_converge(args):
    start = time.perf_counter()
    if not args.prob_col:
        raise ValueError("--prob-col is required: converge needs an exact "
                         "finite joint as the population")
    joint = _load_input(args)
    schedule = _int_list(args.n_schedule, "--n-schedule")
    seeds = _int_list(args.seeds, "--seeds")
    trace = consistency_sweep(joint, schedule, seeds)
    if args.format == "csv":
        out = ["n,median_estimate,median_abs_error,population"]
        out += ["%d,%.17g,%.17g,%.17g" % (n, est, err, trace.population)
                for n, est, err in trace.rows]
        sys.stdout.write("\n".join(out) + "\n")
    else:
        _emit({"subcommand": "converge", "beta": args.beta,
               "method": "d1", "population": trace.population,
               "seeds": seeds,
               "rows": [{"n": n, "median_estimate": est,
                         "median_abs_error": err}
                        for n, est, err in trace.rows]}, start)
    return 0


def _cmd_diag(args):
    start = time.perf_counter()
    x, _, _ = _load_parts(args, need_y=False)
    value = tail_diagnostic(x, euclidean(x.shape[1], args.beta))
    _emit({"subcommand": "diag", "beta": args.beta, "n": len(x),
           "value": value}, start)
    return 0


def _cmd_classify(args):
    start = time.perf_counter()
    if args.flags == "-":
        raw = json.load(sys.stdin)
    else:
        with open(args.flags) as fh:
            raw = json.load(fh)
    known = {f for f in MomentFlags.__dataclass_fields__}
    extra = set(raw) - known
    if extra:
        raise ValueError("unknown flag fields: %s" % sorted(extra))
    report = regime_classify(MomentFlags(**raw))
    _emit({"subcommand": "classify", "def1": report.def1,
           "def2": report.def2, "def3": report.def3,
           "notes": list(report.notes)}, start)
    return 0


def _cmd_constants(args):
    start = time.perf_counter()
    _emit({"subcommand": "constants", "ell": args.ell, "beta": args.beta,
           "value": c_const(args.ell, args.beta)}, start)
    return 0


def _pareto_growth(seed):
    diags = {}
    for n in (1000, 100_000):
        rng = np.random.default_rng([seed, n])
        u = rng.uniform(size=n)
        x = np.maximum(2.0, u ** (-1.0 / 0.5))
        diags[n] = tail_diagnostic(x[:, None], euclidean(1, 0.5))
    return diags[100_000] > diags[1000]


def _bounded_stable(seed):
    vals = {}
    for n in (10_000, 100_000):
        rng = np.random.default_rng([seed, n])
        x = rng.uniform(size=n)
        vals[n] = tail_diagnostic(x[:, None], euclidean(1, 0.5))
    return abs(vals[100_000] - vals[10_000]) <= 0.1 * abs(vals[10_000])


def _cmd_demo(args):
    start = time.perf_counter()
    checks = []

    dc_full, dc_proj = projection_demo()
    checks.append(("projection increases dependence measure",
                   dc_proj > dc_full + 1e-6,
                   "full=%.6f projected=%.6f" % (dc_full, dc_proj)))

    sp1 = euclidean(1, 1.0)
    sp2 = euclidean(1, 2.0)
    atoms_x = [[-1.0], [0.0], [1.0]]
    atoms_y = [[1.0], [0.0], [1.0]]
    probs = [1 / 3, 1 / 3, 1 / 3]
    dc2 = dcov_exact(DiscreteJoint(atoms_x, atoms_y, probs, sp2, sp2)).value
    dc1 = dcov_exact(DiscreteJoint(atoms_x, atoms_y, probs, sp1, sp1)).value
    checks.append(("beta=2 blind to uncorrelated dependence",
                   abs(dc2) <= 1e-12 and dc1 > 0.01,
                   "dc2=%.3g dc1=%.6f" % (dc2, dc1)))

    growth = sum(_pareto_growth(s) for s in range(5))
    stable = sum(_bounded_stable(s) for s in range(5))
    checks.append(("heavy-tail diagnostic grows on Pareto sample",
                   growth >= 3, "%d/5 seeds grew" % growth))
    checks.append(("diagnostic stabilizes on bounded sample",
                   stable >= 3, "%d/5 seeds stable" % stable))

    width = max(len(name) for name, _, _ in checks)
    for name, ok, detail in checks:
        sys.stderr.write("%-*s  %s  (%s)\n"
                         % (width, name, "PASS" if ok else "FAIL", detail))
    _emit({"subcommand": "demo",
           "checks": [{"name": name, "passed": bool(ok), "detail": detail}
                      for name, ok, detail in checks]}, start)
    return 0 if all(ok for _, ok, _ in checks) else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="betadcov",
        description="beta-distance covariance estimators and diagnostics")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("dcov", help="distance covariance of paired rows")
    _sample_args(p)
    p.add_argument("--method", required=True, choices=list(METHODS))
    p.add_argument("--seed", type=int, default=None,
                   help="random seed for method charrv")
    p.add_argument("--draws", type=int, default=None,
                   help="Monte Carlo draws for method charrv (default 2000)")
    p.add_argument("--trunc-m", type=float, default=None,
                   help="truncation level M for method hm")
    p.add_argument("--grid-panels", type=int, default=None,
                   help="quadrature panels per decade for method charfn")
    p.add_argument("--prob-col", default=None,
                   help="probability column weighting the rows "
                   "(default: weight 1/n per row)")
    p.set_defaults(func=_cmd_dcov)

    p = sub.add_parser("test", help="permutation independence test")
    _sample_args(p)
    p.add_argument("-B", "--permutations", type=int, default=199)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=_cmd_test)

    p = sub.add_parser("converge",
                       help="estimator error against an exact finite joint")
    _sample_args(p)
    p.add_argument("--prob-col", required=True)
    p.add_argument("--n-schedule", required=True,
                   help="comma separated sample sizes, increasing")
    p.add_argument("--seeds", required=True, help="comma separated seeds")
    p.add_argument("--format", default="csv", choices=["csv", "json"])
    p.set_defaults(func=_cmd_converge)

    p = sub.add_parser("diag", help="heavy-tail moment diagnostic")
    _sample_args(p, need_y=False)
    p.set_defaults(func=_cmd_diag)

    p = sub.add_parser("classify",
                       help="moment-regime report from analyst flags")
    p.add_argument("--flags", required=True,
                   help="JSON file of moment flags, or - for stdin")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("constants",
                       help="normalization constant of the weighted integral")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.set_defaults(func=_cmd_constants)

    p = sub.add_parser("demo", help="run the built-in showcase checks")
    p.set_defaults(func=_cmd_demo)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # the library refuses a result that overflows with one line, so
        # numpy's overflow and invalid-value warnings would only repeat it
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except (DomainError, QuadratureError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 3
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
