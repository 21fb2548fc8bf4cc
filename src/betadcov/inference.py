"""Permutation testing, consistency sweeps and moment-regime diagnostics.

The permutation test calibrates the plug-in distance covariance under
the independence null by relabeling one sample. The consistency sweep
measures how fast the plug-in estimator approaches the exact
population value of a finite joint. The tail diagnostic and the
regime classifier deal with heavy tails: the former is an empirical
heuristic, the latter turns analyst-supplied moment facts into a
per-definition finite / infinite / undefined verdict.
"""

import os
from dataclasses import dataclass, field

import numpy as np

from .exact import (_centered_contract, _centered_rows, _d1_contract,
                    _require_finite, dcov_exact)
from .metric import as_points, distance_rows, pairwise_distances, row_blocks

#: estimators consistency_sweep can evaluate on resampled weights
SWEEP_METHODS = ("d1", "centered")


@dataclass(frozen=True)
class PermTestResult:
    observed: float
    p_value: float
    B: int
    seed: int
    beta: float
    n: int


def perm_test(sample, B=199, seed=None):
    """Permutation independence test on the centered plug-in statistic.

    The y rows are relabeled uniformly B times; the p-value uses the
    add-one convention (1 + #{permuted >= observed}) / (B + 1), so it
    is never exactly zero. A permuted statistic counts as exceeding when
    it is at least the observed one minus 1e-12 sqrt(sum ca^2 sum cb^2),
    the Cauchy-Schwarz bound on both, so statistics that tie in exact
    arithmetic (as on lattice data) count whatever their rounding. A
    non-finite observed statistic raises DomainError.

    The doubly centered y kernel cb is the one n x n array: it is built
    once and centered in place. The x kernel is swept in row blocks,
    each centered from the points, and each block is contracted with the
    matching rows of cb and, for every permutation p, of cb[p][:, p],
    gathered into one reused block buffer. The permutations are drawn up
    front, so the test holds about 8 n^2 + 8 B n bytes; a sample for
    which that exceeds physical memory is refused before anything is
    allocated.
    """
    if sample.n < 4:
        raise ValueError("need at least 4 observations")
    if B < 19:
        raise ValueError("need at least 19 permutations")
    if seed is None:
        raise ValueError("seed is required (no silent nondeterminism)")
    n = sample.n
    need = 8 * n * n + 8 * B * n
    phys = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > phys:
        raise ValueError(
            "permutation test at n=%d, B=%d needs about %d bytes (%.1f GB) "
            "for one n x n matrix and the permutations, more than the "
            "%.1f GB of physical memory"
            % (n, B, need, need / 1e9, phys / 1e9))
    w = np.full(n, 1.0 / n)
    cb = pairwise_distances(sample.y, sample.y_spec)
    for _ in _centered_rows(lambda lo, hi: (cb[lo:hi],), w):
        pass                                # centers cb in place
    rng = np.random.default_rng(seed)
    perms = np.empty((B, n), dtype=np.intp)
    for perm in perms:
        perm[:] = rng.permutation(n)
    rows = row_blocks(n)[0][1]              # rows in the largest block
    picked = np.empty((rows, n))
    buf = np.empty((rows, n))
    observed = ssa = 0.0
    stats = np.zeros(B)

    def x_rows(lo, hi):
        return (distance_rows(sample.x, sample.x_spec, lo, hi),)

    for lo, hi, (ca,) in _centered_rows(x_rows, w):
        observed += np.vdot(ca, cb[lo:hi])
        ssa += np.vdot(ca, ca)
        rp, bp = picked[:hi - lo], buf[:hi - lo]
        for b, perm in enumerate(perms):
            # mode="clip" lets take write into out without a temporary
            np.take(cb, perm[lo:hi], axis=0, out=rp, mode="clip")
            np.take(rp, perm, axis=1, out=bp, mode="clip")
            stats[b] += np.vdot(ca, bp)
    ssb = np.vdot(cb, cb)
    # square roots before the product, which would overflow (or
    # underflow) at data scales where each factor is still finite
    tol = 1e-12 * np.sqrt(ssa) * np.sqrt(ssb)
    _require_finite((observed, tol), (np.sqrt(ssa) / n, np.sqrt(ssb) / n))
    exceed = int(np.count_nonzero(stats >= observed - tol))
    p = (1 + exceed) / (B + 1)
    return PermTestResult(observed=float(observed) / (n * n), p_value=p,
                          B=B, seed=seed, beta=sample.beta, n=n)


@dataclass(frozen=True)
class ConsistencyTrace:
    """Median estimator error against the exact population value per n."""

    rows: tuple              # (n, median estimate, median absolute error)
    population: float
    method: str
    seeds: tuple


def consistency_sweep(joint, n_schedule, seeds, method="d1"):
    """Empirical consistency of the plug-in estimator on a finite joint.

    For each sample size draws atom indices from the joint, evaluates
    the weighted plug-in estimator on the resampled weights, and
    reports the median estimate and median absolute error over seeds.
    Sampling reuses the joint's cached distance matrices, so the cost
    is O(n + k^2) per replicate.
    """
    schedule = [int(n) for n in n_schedule]
    if not schedule:
        raise ValueError("empty sample-size schedule")
    if sorted(schedule) != schedule:
        raise ValueError("sample sizes must be increasing")
    if method not in SWEEP_METHODS:
        raise ValueError("method must be %s" % " or ".join(SWEEP_METHODS))
    population = dcov_exact(joint, "d1").value
    a = joint.x_dist()
    b = joint.y_dist()
    k = joint.support
    rows = []
    for n in schedule:
        ests = []
        for seed in seeds:
            rng = np.random.default_rng([int(seed), n])
            counts = np.bincount(rng.choice(k, size=n, p=joint.probs),
                                 minlength=k)
            w = counts / n
            if method == "d1":
                ests.append(_d1_contract(a, b, w))
            else:
                ests.append(float(_centered_contract(a, b, w)[0]))
        ests = np.asarray(ests)
        rows.append((n, float(np.median(ests)),
                     float(np.median(np.abs(ests - population)))))
    return ConsistencyTrace(rows=tuple(rows), population=population,
                            method=method, seeds=tuple(int(s) for s in seeds))


def tail_diagnostic(points, spec):
    """Empirical pairwise-minimum moment, a heavy-tail warning signal.

    Returns the U-statistic (2 / (n(n-1))) sum_{i<j}
    min(|x_i|, |x_j|)^(2 beta) of the distances to the base point.
    Its population value is finite exactly under the tail condition
    that keeps the four-point kernel square integrable (for beta <= 1),
    so growth of this statistic across subsample sizes flags trouble.
    Computed in O(n log n) by sorting.
    """
    pts = as_points(points, spec)
    if len(pts) < 2:
        raise ValueError("need at least 2 points")
    if spec.kind == "euclidean":
        norms = np.linalg.norm(pts, axis=1)
    else:
        norms = spec.table[pts, spec.base_index].astype(float)
    v = np.sort(norms) ** (2.0 * spec.beta)
    n = v.size
    # after sorting, v[i] is the minimum in exactly (n - 1 - i) pairs
    total = float(np.sum(v * (n - 1 - np.arange(n))))
    return 2.0 * total / (n * (n - 1))


@dataclass(frozen=True)
class MomentFlags:
    """Analyst-supplied finiteness facts about one (X, Y) law.

    Each field is True (known finite / in the space), False (known
    not), or None (unknown). x_beta means E|X|^beta < inf, x_2beta
    means E|X|^(2 beta) < inf, prod means E[|X|^beta |Y|^beta] < inf;
    the hx/hy fields say whether the alternating four-point kernel of
    the marginal lies in L1 / L2. Set y_equals_x for the diagonal
    case Y = X.
    """

    x_beta: bool = None
    y_beta: bool = None
    prod: bool = None
    x_2beta: bool = None
    y_2beta: bool = None
    hx_l1: bool = None
    hx_l2: bool = None
    hy_l1: bool = None
    hy_l2: bool = None
    y_equals_x: bool = False


#: status labels used in RegimeReport
FINITE = "finite"
PLUS_INF = "+inf"
UNDEFINED = "undefined"      # an expression of the type inf - inf
TTILDE_UNDEFINED = "ttilde-undefined"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class RegimeReport:
    """Per-definition applicability verdict for one distribution."""

    def1: str
    def2: str
    def3: str
    notes: tuple = field(default=())


_IMPLICATIONS = [
    # antecedent flag -> consequent flag, both must end up consistent
    ("x_2beta", "x_beta"),
    ("y_2beta", "y_beta"),
    ("x_beta", "hx_l1"),
    ("y_beta", "hy_l1"),
    ("x_2beta", "hx_l2"),
    ("y_2beta", "hy_l2"),
    ("hx_l2", "hx_l1"),
    ("hy_l2", "hy_l1"),
]


def _close_flags(flags):
    """Propagate moment implications to a fixpoint; detect contradictions."""
    f = {k: getattr(flags, k) for k in (
        "x_beta", "y_beta", "prod", "x_2beta", "y_2beta",
        "hx_l1", "hx_l2", "hy_l1", "hy_l2")}
    if flags.y_equals_x:
        for a, b in (("x_beta", "y_beta"), ("x_2beta", "y_2beta"),
                     ("hx_l1", "hy_l1"), ("hx_l2", "hy_l2")):
            for src, dst in ((a, b), (b, a)):
                if f[src] is not None:
                    if f[dst] is not None and f[dst] != f[src]:
                        raise ValueError(
                            "inconsistent flags: %s and %s differ although "
                            "Y = X" % (src, dst))
                    f[dst] = f[src]
        # on the diagonal the product moment is the 2 beta moment
        for src, dst in (("x_2beta", "prod"), ("prod", "x_2beta")):
            if f[src] is not None:
                if f[dst] is not None and f[dst] != f[src]:
                    raise ValueError(
                        "inconsistent flags: prod must match x_2beta when Y = X")
                f[dst] = f[src]
    changed = True
    while changed:
        changed = False
        for ante, cons in _IMPLICATIONS:
            if f[ante] is True:
                if f[cons] is False:
                    raise ValueError(
                        "inconsistent flags: %s finite forces %s finite"
                        % (ante, cons))
                if f[cons] is None:
                    f[cons] = True
                    changed = True
            if f[cons] is False and f[ante] is None:
                f[ante] = False
                changed = True
        if f["x_2beta"] is True and f["y_2beta"] is True and f["prod"] is None:
            f["prod"] = True
            changed = True
        if f["prod"] is False and (f["x_2beta"] is True and
                                   f["y_2beta"] is True):
            raise ValueError(
                "inconsistent flags: both 2 beta moments finite force the "
                "product moment finite")
    return f


def regime_classify(flags):
    """Classify which distance covariance definitions apply.

    The pairwise-product form (definition route 1) is finite exactly
    when the three first-order moments are finite and is otherwise an
    inf - inf expression, never a clean infinity. The kernel routes
    (2 and 3) need the four-point kernel in L1 for the centered kernel
    to exist at all, and in L2 (on the diagonal Y = X) for a finite
    value; between L1 and L2 the diagonal value is +inf. Off-diagonal
    cells the source material leaves open are reported as unknown.
    """
    f = _close_flags(flags)
    notes = []

    cond1 = [f["x_beta"], f["y_beta"], f["prod"]]
    if all(c is True for c in cond1):
        def1 = FINITE
    elif any(c is False for c in cond1):
        def1 = UNDEFINED
    else:
        def1 = UNKNOWN

    if flags.y_equals_x:
        if f["hx_l2"] is True:
            def2 = def3 = FINITE
        elif f["hx_l1"] is True and f["hx_l2"] is False:
            def2 = def3 = PLUS_INF
        elif f["hx_l1"] is False:
            def2 = PLUS_INF
            def3 = TTILDE_UNDEFINED
        else:
            def2 = def3 = UNKNOWN
    else:
        if f["hx_l1"] is False or f["hy_l1"] is False:
            def3 = TTILDE_UNDEFINED
        elif f["hx_l2"] is True and f["hy_l2"] is True:
            def3 = FINITE
        elif f["hx_l1"] is True and f["hy_l1"] is True:
            def3 = UNKNOWN
            notes.append("kernel in L1 on both sides but not known square "
                         "integrable: finiteness left open by the source")
        else:
            def3 = UNKNOWN
        if f["hx_l2"] is True and f["hy_l2"] is True:
            def2 = FINITE
        else:
            def2 = UNKNOWN
            notes.append("four-point route off the diagonal without both "
                         "kernels in L2: unknown")

    return RegimeReport(def1=def1, def2=def2, def3=def3, notes=tuple(notes))
