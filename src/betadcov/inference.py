"""Permutation testing, consistency sweeps and moment-regime diagnostics.

The permutation test calibrates the plug-in distance covariance under
the independence null by relabeling one sample. The consistency sweep
measures how fast the plug-in estimator approaches the exact
population value of a finite joint; a replicate is the joint's atoms
with multinomial weights, drawn in O(k) for k atoms whatever the
sample size, and one sweep of their kernel rows contracts every
replicate's weights as the columns of one matrix. The tail diagnostic
and the regime classifier deal with heavy tails: the former is an
empirical heuristic, the latter turns analyst-supplied moment facts
into a per-definition finite / infinite / undefined verdict.
"""

from dataclasses import dataclass, field

import numpy as np

from .exact import _centered_rows, _d1_rows, _require_finite, _require_memory
from .metric import as_points, distance_rows, pairwise_distances, row_blocks

#: weights (atoms x replicates) contracted by one sweep of the kernel rows
SWEEP_COLUMN_ELEMENTS = 1 << 20


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
    arithmetic (as on lattice data) count whatever their rounding. Every
    sum carries the weight 1/n^2 per entry, put on each x block once. A
    non-finite observed statistic raises DomainError. Relabeling treats
    the rows as exchangeable, so points whose weights are not all equal
    are refused.

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
    w = sample.probs
    if np.any(w != w[0]):
        raise ValueError("the permutation test needs equally weighted points")
    n = sample.n
    _require_memory(8 * n * n + 8 * B * n,
                    "permutation test at n=%d, B=%d" % (n, B),
                    "one n x n matrix and the permutations")
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
    observed = ssa = ssb = 0.0
    stats = np.zeros(B)
    ww = 1.0 / (n * n)                      # the weight w_i w_j of an entry

    def x_rows(lo, hi):
        return (distance_rows(sample.x, sample.x_spec, lo, hi),)

    for lo, hi, (ca,) in _centered_rows(x_rows, w):
        wa = ca * ww                        # no unweighted sum to overflow
        cbb = cb[lo:hi]
        observed += np.vdot(wa, cbb)
        ssa += np.vdot(wa, ca)
        ssb += np.vdot(cbb * ww, cbb)
        rp, bp = picked[:hi - lo], buf[:hi - lo]
        for b, perm in enumerate(perms):
            # mode="clip" lets take write into out without a temporary
            np.take(cb, perm[lo:hi], axis=0, out=rp, mode="clip")
            np.take(rp, perm, axis=1, out=bp, mode="clip")
            stats[b] += np.vdot(wa, bp)
    # square roots before the product, which would overflow (or
    # underflow) at data scales where each factor is still finite
    tol = 1e-12 * np.sqrt(ssa) * np.sqrt(ssb)
    _require_finite((observed, tol), (np.sqrt(ssa), np.sqrt(ssb)))
    exceed = int(np.count_nonzero(stats >= observed - tol))
    p = (1 + exceed) / (B + 1)
    return PermTestResult(observed=float(observed), p_value=p,
                          B=B, seed=seed, beta=sample.beta, n=n)


@dataclass(frozen=True)
class ConsistencyTrace:
    """Median estimator error against the exact population value per n."""

    rows: tuple              # (n, median estimate, median absolute error)
    population: float
    seeds: tuple


def consistency_sweep(joint, n_schedule, seeds):
    """Empirical consistency of the plug-in estimator on a finite joint.

    For each sample size n and seed draws the atom counts of n draws
    from the joint, Multinomial(n, probs) from the generator seeded
    with [seed, n], evaluates the weighted plug-in d1 on the resampled
    weights counts / n, and reports the median estimate and median
    absolute error over seeds. The population is the exact d1 of the
    joint's weights. The replicates are the columns of one k x R
    weight matrix, and one sweep of the joint's kernel rows
    (DiscreteJoint.rows) contracts all of them: O(k) per draw, O(k^2 d)
    for the kernel powers, built once, and O(k * R) memory for R
    replicates, in chunks of at most SWEEP_COLUMN_ELEMENTS weights. No
    k x k matrix is held.
    """
    schedule = [int(n) for n in n_schedule]
    seeds = [int(s) for s in seeds]
    if not schedule:
        raise ValueError("empty sample-size schedule")
    if not seeds:
        raise ValueError("need at least one seed")
    if min(schedule) < 1:
        raise ValueError("sample sizes must be positive")
    if sorted(schedule) != schedule:
        raise ValueError("sample sizes must be increasing")
    k = joint.n
    population = _d1_rows(joint.rows, joint.probs)
    draws = [(n, seed) for n in schedule for seed in seeds]
    per_sweep = max(1, SWEEP_COLUMN_ELEMENTS // k)
    ests = []
    for lo in range(0, len(draws), per_sweep):
        part = draws[lo:lo + per_sweep]
        w = np.empty((k, len(part)), order="F")
        for col, (n, seed) in zip(w.T, part):
            rng = np.random.default_rng([seed, n])
            col[:] = rng.multinomial(n, joint.probs) / n
        ests.append(_d1_rows(joint.rows, w))
    ests = np.concatenate(ests).reshape(len(schedule), len(seeds))
    rows = tuple((n, float(np.median(e)),
                  float(np.median(np.abs(e - population))))
                 for n, e in zip(schedule, ests))
    return ConsistencyTrace(rows=rows, population=population,
                            seeds=tuple(seeds))


def tail_diagnostic(points, spec):
    """Empirical pairwise-minimum moment, a heavy-tail warning signal.

    Returns the U-statistic (2 / (n(n-1))) sum_{i<j}
    min(|x_i|, |x_j|)^(2 beta) of the distances to the base point.
    Its population value is finite exactly under the tail condition
    that keeps the four-point kernel square integrable (for beta <= 1),
    so growth of this statistic across subsample sizes flags trouble.
    Computed in O(n log n) by sorting; raises DomainError if the powers
    or their sum are not finite.
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
    value = 2.0 * total / (n * (n - 1))
    _require_finite(value, (v[(n - 1) // 2],))
    return value


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
    rules = list(_IMPLICATIONS)
    if flags.y_equals_x:
        # on the diagonal x facts are y facts and prod is x_2beta
        for a, b in (("x_beta", "y_beta"), ("x_2beta", "y_2beta"),
                     ("hx_l1", "hy_l1"), ("hx_l2", "hy_l2"),
                     ("x_2beta", "prod")):
            rules += [(a, b), (b, a)]
    changed = True
    while changed:
        changed = False
        for ante, cons in rules:
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
