"""Benchmark-owned reference values and the acceptance rule of each request.

Everything here is plain numpy and never calls betadcov, so a defect in
the package cannot hide in its own oracle. References are computed
before any timed pass.
"""

import numpy as np


def distance_matrix(points, block=512):
    """Euclidean distance matrix from explicit coordinate differences."""
    n = len(points)
    out = np.empty((n, n))
    for lo in range(0, n, block):
        diff = points[lo:lo + block, None, :] - points[None, :, :]
        out[lo:lo + block] = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    return out


def _center(a):
    """Double centering under equal weights, in place."""
    r = a.mean(axis=1)
    a -= r[:, None]
    a -= r[None, :]
    a += r.mean()
    return a


def sample_refs(x, y, betas):
    """V-statistic references of a paired sample.

    Returns ({beta: (dcov(x, y), dcov(x, x), dcov(y, y))}, hm_m) where
    hm_m is the truncation level the command line picks by default,
    1e6 times the largest squared distance (at least 1e6).
    """
    dx = distance_matrix(x)
    dy = distance_matrix(y)
    n2 = float(len(x)) ** 2
    refs = {}
    for beta in betas:
        a = _center(dx ** beta)
        b = _center(dy ** beta)
        refs[beta] = (np.einsum("ij,ij->", a, b) / n2,
                      np.einsum("ij,ij->", a, a) / n2,
                      np.einsum("ij,ij->", b, b) / n2)
        del a, b
    hm_m = 1e6 * max(float(dx.max()) ** 2, float(dy.max()) ** 2, 1.0)
    return refs, hm_m


def beta2_ref(x, y):
    """4 * ||C||_F^2 with C the divisor-n cross-covariance matrix."""
    c = (x - x.mean(axis=0)).T @ (y - y.mean(axis=0)) / len(x)
    return 4.0 * float(np.sum(c * c))


def joint_ref(xa, ya, p, beta):
    """Population value of a scalar finite joint, pairwise-product form."""
    a = np.abs(xa[:, None] - xa[None, :]) ** beta
    b = np.abs(ya[:, None] - ya[None, :]) ** beta
    ap = a @ p
    bp = b @ p
    return float(p @ (a * b) @ p + (p @ ap) * (p @ bp)
                 - 2.0 * np.sum(p * ap * bp))


def _rel(got, ref):
    return abs(got - ref) / max(abs(ref), 1e-300)


def rel_within(ref, tol):
    """Rule: 'value' agrees with ref to tol relative."""
    def check(rep):
        err = _rel(rep["value"], ref)
        if err > tol:
            return "value %.17g vs reference %.17g (rel %.2e > %.0e)" % (
                rep["value"], ref, err, tol)
        return None
    return check


def hm_within(ref):
    """Rule: truncation only lowers the value, by at most 2e-3."""
    def check(rep):
        v = rep["value"]
        if not ref * (1 - 2e-3) <= v <= ref * (1 + 1e-9):
            return "hm %.17g outside [ref(1-2e-3), ref(1+1e-9)], ref %.17g" % (
                v, ref)
        return None
    return check


def within_stderr(ref, k=5.0):
    """Rule: Monte Carlo value within k standard errors of ref."""
    def check(rep):
        se = rep.get("stderr")
        if se is None or not se > 0:
            return "missing or zero stderr %r" % (se,)
        z = (rep["value"] - ref) / se
        if abs(z) > k:
            return "z = %.2f beyond %g stderr of %.17g" % (z, k, ref)
        return None
    return check


def within_own_error(ref):
    """Rule: quadrature value within its own reported error estimate."""
    def check(rep):
        est = rep.get("error_estimate")
        if est is None:
            return "missing error_estimate"
        if abs(rep["value"] - ref) > est:
            return "|%.17g - %.17g| exceeds error_estimate %.3g" % (
                rep["value"], ref, est)
        return None
    return check


def perm_ok(ref, B, dependent):
    """Rule: observed matches ref, p in [1/(B+1), 1], small p if dependent."""
    def check(rep):
        err = _rel(rep["observed"], ref)
        if err > 1e-9:
            return "observed %.17g vs %.17g (rel %.2e)" % (
                rep["observed"], ref, err)
        p = rep["p_value"]
        if not 1.0 / (B + 1) <= p <= 1.0:
            return "p %.6g outside [1/(B+1), 1]" % p
        if dependent and p > 0.05:
            return "p %.6g above 0.05 on a dependent sample" % p
        return None
    return check


def converge_ok(ref, schedule):
    """Rule: population within 1e-12 relative, one row per schedule entry."""
    def check(rep):
        err = _rel(rep["population"], ref)
        if err > 1e-12:
            return "population %.17g vs %.17g (rel %.2e)" % (
                rep["population"], ref, err)
        if [row["n"] for row in rep["rows"]] != list(schedule):
            return "rows %r do not follow schedule %r" % (
                [row["n"] for row in rep["rows"]], list(schedule))
        return None
    return check
