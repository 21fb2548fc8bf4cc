"""Seeded inputs and request lists of the four benchmark workloads.

A workload is one or two families of requests. A request is issued twice:
as a ``python -m betadcov.cli`` process reading a generated CSV, and as
a library call on the same arrays held in memory. The values that set
a request's cost (sample size, beta, atoms after collapse, atom spread,
draws, permutations) are fixed per slot, so only the random values
change with the seed and the cost of a cycle does not.

Library calls look their functions up on the betadcov modules at call
time, so the traced run can swap in timing wrappers from outside.
"""

import hashlib
import os

import numpy as np

import oracle
from betadcov import beta2, charfn, charrv, estimators, exact, inference, metric
from betadcov import io as bio


class Workload:
    def __init__(self, families, cycle_s):
        self.families = families
        # nominal seconds of one cycle of both passes on a 2-core Xeon;
        # a run issues seconds // cycle_s cycles, at least one
        self.cycle_s = cycle_s


WORKLOADS = {
    "dense_sample": Workload(("dense", "perm"), 13.0),
    "projection_mc": Workload(("charrv",), 19.0),
    "joint_quad": Workload(("quad",), 15.0),
}


class Request:
    """One request with its CLI arguments, library call and acceptance rule.

    kind groups requests for the library warm-up; size orders them so
    the warm-up uses the smallest. pair = (key, layer, work) marks the
    two calls that differ only in work (draws or permutations), from
    which the traced run splits a layer's time into per-unit and fixed.
    """

    def __init__(self, label, kind, size, cli, lib, check, pair=None):
        self.label = label
        self.kind = kind
        self.size = size
        self.cli = cli
        self.lib = lib
        self.check = check
        self.pair = pair


class Inputs:
    """Seeded generator state plus the files written and their digest."""

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.digest = hashlib.sha256()

    def rng(self, *salt):
        return np.random.default_rng([self.seed, *salt])

    def call_seed(self, *salt):
        return int(np.random.SeedSequence([self.seed, *salt]).generate_state(1)[0])

    def csv(self, name, header, columns):
        path = os.path.join(self.workdir, name + ".csv")
        np.savetxt(path, np.column_stack(columns), delimiter=",",
                   header=",".join(header), comments="", fmt="%.17g")
        with open(path, "rb") as fh:
            self.digest.update(fh.read())
        return path


def _dependent(rng, n):
    """x in R^3 and y = x[:, :1] + noise in R^2, as in the README."""
    x = rng.normal(size=(n, 3))
    return x, x[:, :1] + rng.normal(size=(n, 2))


def _independent(rng, n):
    return rng.normal(size=(n, 3)), rng.normal(size=(n, 2))


def _sphere(rng, n):
    """x uniform on the radius-2 sphere in R^3, y on the radius-2 circle.

    y's angle follows x's first coordinate plus noise. Both supports are
    bounded with fixed extent, so the projection span that sets the
    charrv quadrature grid, and with it cost and memory, hardly moves
    with the seed.
    """
    v = rng.normal(size=(n, 3))
    x = 2.0 * v / np.linalg.norm(v, axis=1)[:, None]
    theta = 0.5 * np.pi * x[:, 0] + 0.5 * rng.normal(size=n)
    return x, 2.0 * np.column_stack([np.cos(theta), np.sin(theta)])


def _lattice(rng, n, m, step=0.5):
    """_sphere sample rounded to a coarse lattice, exactly m distinct rows."""
    atoms = {}
    while len(atoms) < m:
        x, y = _sphere(rng, 4 * m)
        # + 0.0 folds -0.0 into 0.0, which np.unique would merge
        for row in np.round(np.hstack([x, y]) / step) * step + 0.0:
            atoms.setdefault(row.tobytes(), row)
    rows = np.array(list(atoms.values())[:m])
    idx = np.concatenate([np.arange(m), rng.integers(0, m, n - m)])
    rng.shuffle(idx)
    z = rows[idx]
    return z[:, :3], z[:, 3:]


def _pair_sample(x, y, beta):
    return estimators.PairedSample(x, y, metric.euclidean(x.shape[1], beta),
                                   metric.euclidean(y.shape[1], beta))


SAMPLE_COLS = ["--x-cols", "0:3", "--y-cols", "3:5"]
SAMPLE_HEADER = ["x1", "x2", "x3", "y1", "y2"]

# ---------------------------------------------------------------- dense

# (method, beta, dataset index, issued through the CLI too); with the two
# permutation tests a cycle holds 9 CLI and 10 library calls, and the
# median of a run falls among the n=3000 and permutation calls, not on
# the edge between them and the cheap ones
_DENSE_PLAN = [
    ("d1", 0.5, 0, True), ("centered", 1.0, 0, True), ("hm", 0.5, 0, True),
    ("d1", 1.0, 1, True), ("beta2", 2.0, 0, True), ("centered", 0.5, 1, True),
    ("hm", 1.0, 0, True),
    # dcor has no CLI form
    ("dcor", 1.0, 0, False),
]
_DENSE_SIZES = {"full": (3000, 1000), "smoke": (60, 30), "probe": (200, 100)}

_DENSE_CALLS = {
    "d1": lambda s, m: estimators.dcov_plugin_d1(s).value,
    "centered": lambda s, m: estimators.dcov_centered(s).value,
    "hm": lambda s, m: charrv.dcov_hm(s, m).value,
    "beta2": lambda s, m: beta2.dcov2_closed(s).value,
    "dcor": lambda s, m: float(estimators.dcor(s)),
}


def _dense_lib(method, beta, x, y, path, hm_m, traced):
    call = _DENSE_CALLS[method]

    def lib():
        xs, ys = x, y
        if traced:
            _, data = bio.load_csv(path)
            xs, ys = data[:, :3], data[:, 3:]
        sample = _pair_sample(xs, ys, beta)
        if traced and method in ("d1", "centered", "dcor"):
            # cache both distance matrices first, so the estimator span
            # holds the contraction alone
            sample.x_dist()
            sample.y_dist()
        return {"value": call(sample, hm_m)}
    return lib


def _dense_check(method, beta, refs, b2):
    if method == "beta2":
        return oracle.rel_within(b2, 1e-9)
    vxy, vxx, vyy = refs[beta]
    if method == "hm":
        return oracle.hm_within(vxy)
    if method == "dcor":
        return oracle.rel_within(vxy / np.sqrt(vxx * vyy), 1e-9)
    return oracle.rel_within(vxy, 1e-9)


def dense(ctx, scale, traced):
    sizes = _DENSE_SIZES[scale]
    salt = 1 if scale != "probe" else 11
    data = []
    for i, n in enumerate(sizes):
        x, y = _dependent(ctx.rng(salt, i), n)
        path = ctx.csv("dense_%d_%d" % (salt, n), SAMPLE_HEADER, [x, y])
        betas = sorted({b for m, b, d, _ in _DENSE_PLAN
                        if d == i and m != "beta2"})
        refs, hm_m = oracle.sample_refs(x, y, betas)
        data.append((n, x, y, path, refs, hm_m, oracle.beta2_ref(x, y)))
    reqs = []
    for method, beta, d, via_cli in _DENSE_PLAN:
        n, x, y, path, refs, hm_m, b2 = data[d]
        cli = None
        if via_cli:
            cli = ["dcov", "--input", path] + SAMPLE_COLS + [
                "--beta", repr(beta), "--method", method]
        reqs.append(Request(
            "%s beta=%g n=%d" % (method, beta, n), "dcov " + method, n, cli,
            _dense_lib(method, beta, x, y, path, hm_m, traced),
            _dense_check(method, beta, refs, b2)))
    return reqs

# ----------------------------------------------------------------- perm

# (dependent, dataset size index, beta)
_PERM_PLAN = [(True, 0, 1.0), (False, 0, 0.5)]
_PERM_SIZES = {"full": (700,), "smoke": (40,), "probe": (150,)}
# permutations of the request, and of its traced twin
_PERM_B = {"full": (199, 49), "smoke": (39, 19), "probe": (99, 19)}


def _perm_lib(x, y, beta, B, seed):
    def lib():
        res = inference.perm_test(_pair_sample(x, y, beta), B=B, seed=seed)
        return {"observed": res.observed, "p_value": res.p_value}
    return lib


def perm(ctx, scale, traced):
    sizes = _PERM_SIZES[scale]
    b_main, b_twin = _PERM_B[scale]
    salt = 2 if scale != "probe" else 12
    plan = _PERM_PLAN if scale != "probe" else _PERM_PLAN[:1]
    reqs = []
    for i, (dependent, d, beta) in enumerate(plan):
        n = sizes[d]
        rng = ctx.rng(salt, i)
        x, y = _dependent(rng, n) if dependent else _independent(rng, n)
        family = "dep" if dependent else "indep"
        path = ctx.csv("perm_%d_%d" % (salt, i), SAMPLE_HEADER, [x, y])
        ref = oracle.sample_refs(x, y, [beta])[0][beta][0]
        seed = ctx.call_seed(salt, i)
        runs = [b_main] + ([b_twin] if traced else [])
        for B in runs:
            cli = ["test", "--input", path] + SAMPLE_COLS + [
                "--beta", repr(beta), "-B", str(B), "--seed", str(seed)]
            reqs.append(Request(
                "test %s beta=%g n=%d B=%d" % (family, beta, n, B), "test", n,
                cli, _perm_lib(x, y, beta, B, seed),
                oracle.perm_ok(ref, B, dependent),
                pair=(("perm", salt, i), "inference.perm_test", B)))
    return reqs

# --------------------------------------------------------------- charrv

# (dataset size index, beta, lattice atoms as a share of n or None)
_PROJ_PLAN = [(0, 0.5, None), (0, 1.0, 0.4), (0, 1.5, None),
              (1, 0.5, 0.4), (0, 1.0, None), (1, 1.0, 0.5),
              (0, 0.5, 0.5), (1, 1.5, 0.6), (0, 1.5, 0.6),
              (1, 1.0, None)]
_PROJ_SIZES = {"full": (100, 200), "smoke": (30, 40), "probe": (40, 40)}
_PROJ_DRAWS = (64, 16)       # draws of the request and of its traced twin


def _charrv_lib(x, y, beta, draws, seed):
    def lib():
        est = charrv.dcov_charrv_mc(_pair_sample(x, y, beta), draws=draws,
                                    seed=seed)
        return {"value": est.value, "stderr": est.stderr}
    return lib


def projection(ctx, scale, traced):
    sizes = _PROJ_SIZES[scale]
    salt = 3 if scale != "probe" else 13
    plan = _PROJ_PLAN if scale != "probe" else _PROJ_PLAN[1:2]
    reqs = []
    for i, (d, beta, share) in enumerate(plan):
        n = sizes[d]
        rng = ctx.rng(salt, i)
        if share is None:
            x, y = _sphere(rng, n)
            shape = "continuous"
        else:
            x, y = _lattice(rng, n, int(round(share * n)))
            shape = "lattice %d atoms" % int(round(share * n))
        path = ctx.csv("proj_%d_%d" % (salt, i), SAMPLE_HEADER, [x, y])
        ref = oracle.sample_refs(x, y, [beta])[0][beta][0]
        # the call seed sets the directions, whose longest projection sets
        # the grid; it differs per call but not per run seed
        seed = 1000 * salt + i
        runs = _PROJ_DRAWS if traced else _PROJ_DRAWS[:1]
        for draws in runs:
            cli = ["dcov", "--input", path] + SAMPLE_COLS + [
                "--beta", repr(beta), "--method", "charrv",
                "--seed", str(seed), "--draws", str(draws)]
            reqs.append(Request(
                "charrv beta=%g n=%d %s draws=%d" % (beta, n, shape, draws),
                "dcov charrv", n, cli, _charrv_lib(x, y, beta, draws, seed),
                oracle.within_stderr(ref),
                pair=(("charrv", salt, i), "charrv.dcov_charrv_mc", draws)))
    return reqs

# ----------------------------------------------------------------- quad

# (route, atoms k, beta, atom spread)
_QUAD_PLAN = [
    ("charfn", 3, 0.5, 2.0), ("charfn", 8, 1.0, 2.5), ("exact", 8, 1.0, 2.0),
    ("charfn", 32, 1.5, 2.0), ("charfn", 3, 1.0, 2.5),
    ("converge", 8, 1.0, 2.0), ("charfn", 8, 1.5, 2.0),
    ("charfn", 32, 0.5, 2.5), ("exact", 32, 0.5, 2.5),
    ("converge", 3, 0.5, 2.5),
]
_QUAD_PROBE = [("charfn", 3, 1.0, 1.0), ("exact", 8, 1.0, 1.0),
               ("converge", 8, 1.0, 1.0)]
_SCHEDULE = {"full": (100, 1000, 10_000, 100_000), "smoke": (10, 100),
             "probe": (100, 1000)}
_SWEEP_SEEDS = {"full": 10, "smoke": 3, "probe": 3}


def _joint(rng, k, spread):
    """Scalar joint with k atoms, both marginals spanning exactly [0, spread]."""
    u = rng.uniform(size=k)
    v = u + 0.3 * rng.normal(size=k)
    xa = (u - u.min()) / (u.max() - u.min()) * spread
    ya = (v - v.min()) / (v.max() - v.min()) * spread
    p = rng.uniform(0.5, 1.5, size=k)
    return xa, ya, p / p.sum()


def _quad_lib(route, xa, ya, p, beta, schedule, seeds):
    def lib():
        # the CLI renormalizes a probability column that sums to 1 within 1e-9
        probs = p / p.sum() if abs(p.sum() - 1.0) <= 1e-9 else p
        joint = exact.DiscreteJoint(xa[:, None], ya[:, None], probs,
                                    metric.euclidean(1, beta),
                                    metric.euclidean(1, beta))
        if route == "charfn":
            est = charfn.dcov_charfn_1d(joint)
            return {"value": est.value, "error_estimate":
                    est.aux["trunc_err"] + est.aux["origin_err"]}
        if route == "exact":
            return {"value": exact.dcov_exact(joint, "d1").value}
        trace = inference.consistency_sweep(joint, schedule, seeds)
        return {"population": trace.population,
                "rows": [{"n": n} for n, _, _ in trace.rows]}
    return lib


def quad(ctx, scale, traced):
    salt = 4 if scale != "probe" else 14
    plan = _QUAD_PROBE if scale == "probe" else _QUAD_PLAN
    if scale == "smoke":
        plan = [(r, k, b, 1.0) for r, k, b, _ in plan]
    schedule = _SCHEDULE[scale]
    reqs = []
    for i, (route, k, beta, spread) in enumerate(plan):
        xa, ya, p = _joint(ctx.rng(salt, i), k, spread)
        path = ctx.csv("quad_%d_%d" % (salt, i), ["x", "y", "p"], [xa, ya, p])
        ref = oracle.joint_ref(xa, ya, p, beta)
        cols = ["--input", path, "--x-cols", "x", "--y-cols", "y",
                "--prob-col", "p", "--beta", repr(beta)]
        seeds = [ctx.call_seed(salt, i, j) for j in range(_SWEEP_SEEDS[scale])]
        if route == "converge":
            cli = ["converge"] + cols + [
                "--n-schedule", ",".join(map(str, schedule)),
                "--seeds", ",".join(map(str, seeds)), "--format", "json"]
            check = oracle.converge_ok(ref, schedule)
        else:
            cli = ["dcov"] + cols + ["--method", route]
            check = (oracle.within_own_error(ref) if route == "charfn"
                     else oracle.rel_within(ref, 1e-9))
        reqs.append(Request(
            "%s k=%d beta=%g spread=%g" % (route, k, beta, spread),
            route, k, cli, _quad_lib(route, xa, ya, p, beta, schedule, seeds),
            check))
    return reqs


FAMILIES = {"dense": dense, "perm": perm, "charrv": projection, "quad": quad}


def build(workload, seed, workdir, scale, traced):
    """Requests of one workload and the sha256 of every input file written.

    The traced run adds a few probe-size requests of every family the
    workload does not exercise, so that each run reports every layer.
    """
    ctx = Inputs(seed, workdir)
    families = WORKLOADS[workload].families
    reqs = []
    for name, make in FAMILIES.items():
        if name in families:
            reqs += make(ctx, scale, traced)
        elif traced:
            reqs += make(ctx, "probe", traced)
    return reqs, ctx.digest.hexdigest()
