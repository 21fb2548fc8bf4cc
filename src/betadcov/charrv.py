"""Gaussian-projection route to beta-distance covariance.

Definition-5 style estimator: the characteristic-function form of the
beta-distance covariance is averaged over independent standard normal
direction pairs (xi, eta), which is how the paper defines it on
Hilbert spaces. Works in any finite dimension; this is the route to
multivariate inputs that the one-dimensional quadrature module cannot
serve.

No characteristic function is integrated. For a standard normal xi,
xi.v is normal with variance |v|^2, so E|xi.v|^beta = kappa |v|^beta
with kappa = E|N(0,1)|^beta = 2^(beta/2) Gamma((beta+1)/2) / sqrt(pi).
The d1 form is bilinear in its two kernels and xi, eta are
independent, so E d1(xi.X, eta.Y) = kappa^2 d1(X, Y), where
d1(xi.X, eta.Y) is the exact one-dimensional plug-in d1 of the
projected atoms with kernel |gap|^beta. Each draw is that d1, computed
by the shared contraction over row blocks of the projected distances;
the estimate is the mean over draws divided by kappa^2 (the
random-projection estimator of Huo and Szekely 2016, with Gaussian
directions).
"""

import math

import numpy as np

from .exact import DcovEstimate, DiscreteJoint, DomainError, _d1_rows
from .metric import distance_rows, euclidean, squared_distance_rows


def char_rv(points, weights, xi, r):
    """Conditional characteristic value E(exp(i r xi.X)) over a discrete law.

    points is an (n, d) coordinate array with a probability (or 1/n)
    weight vector; xi a single projection direction. The modulus of
    the result never exceeds 1.
    """
    if r == 0.0:
        return complex(1.0)
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    w = np.asarray(weights, dtype=float)
    proj = pts @ np.asarray(xi, dtype=float)
    return complex(np.sum(w * np.exp(1j * r * proj)))


def mean_sq_char_gap(joint, r, s):
    """Gaussian-averaged squared gap E |Phi_XY - Phi_X Phi_Y|^2, exactly.

    Averaging exp(i xi.v) over a standard normal direction gives
    exp(-|v|^2 / 2), so the expectation over (xi, eta) collapses to the
    pairwise contraction of two Gaussian kernel matrices with scale
    parameters r^2/2 and s^2/2, by row blocks. Finite-support joints only.
    """
    def rows(lo, hi):
        return tuple(np.exp(-(c * c / 2.0) * squared_distance_rows(p, lo, hi))
                     for c, p in ((r, joint.x), (s, joint.y)))

    return _d1_rows(rows, joint.probs)


def mean_sq_char_gap_mc(joint, r, s, draws, seed):
    """Monte Carlo counterpart of mean_sq_char_gap.

    Samples standard normal directions, evaluates the characteristic
    values exactly over the discrete law, and averages the squared
    modulus of the gap. Returns (mean, stderr).
    """
    rng = np.random.default_rng(seed)
    x = joint.x
    y = joint.y
    w = joint.probs
    vals = np.empty(draws)
    for i in range(draws):
        xi = rng.standard_normal(x.shape[1])
        eta = rng.standard_normal(y.shape[1])
        ph_x = np.exp(1j * r * (x @ xi))
        ph_y = np.exp(1j * s * (y @ eta))
        joint_cf = np.sum(w * ph_x * ph_y)
        gap = joint_cf - np.sum(w * ph_x) * np.sum(w * ph_y)
        vals[i] = abs(gap) ** 2
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(draws))


def _collapse(points):
    """Merge equal (x, y) rows into one point of their summed weight."""
    d = points.x.shape[1]
    uniq, inv = np.unique(np.hstack([points.x, points.y]), axis=0,
                          return_inverse=True)
    w = np.bincount(inv.ravel(), weights=points.probs)
    return DiscreteJoint(uniq[:, :d], uniq[:, d:], w, points.x_spec,
                         points.y_spec)


def _gaussian_moment(beta):
    """E|xi|^beta for standard normal xi: 2^(b/2) Gamma((b+1)/2) / sqrt(pi)."""
    return (2.0 ** (beta / 2.0) * math.gamma((beta + 1.0) / 2.0)
            / math.sqrt(math.pi))


def dcov_charrv_mc(sample, draws=2000, seed=None):
    """Monte Carlo beta-distance covariance via Gaussian projections.

    Requires Euclidean parts, at least two rows and beta in (0, 2).
    Equal rows are merged into one point of their summed weight. Each
    draw projects both sides onto fresh standard normal directions and
    computes the exact one-dimensional weighted d1 of the projected
    points; value and stderr are the mean and standard error over
    draws, divided by _gaussian_moment(beta)^2. Deterministic for a
    fixed (seed, draws) pair.
    """
    if sample.x_spec.kind != "euclidean" or sample.y_spec.kind != "euclidean":
        raise ValueError("Gaussian projection route needs Euclidean parts")
    if sample.n < 2:
        raise ValueError("need at least 2 observations, got %d" % sample.n)
    beta = sample.beta
    if not 0 < beta < 2:
        raise DomainError("beta must lie in (0, 2), got %g" % beta)
    if draws < 2:
        raise ValueError("need at least 2 draws for a standard error")
    if seed is None:
        raise ValueError("seed is required (no silent nondeterminism)")

    atoms = _collapse(sample)
    x, y, w = atoms.x, atoms.y, atoms.probs
    streams = [np.random.default_rng(s)
               for s in np.random.SeedSequence(seed).spawn(draws)]
    xis = np.stack([rg.standard_normal(x.shape[1]) for rg in streams])
    etas = np.stack([rg.standard_normal(y.shape[1]) for rg in streams])
    px = x @ xis.T     # atom x draw projections
    py = y @ etas.T
    spec = euclidean(1, beta)

    def rows(lo, hi):
        # kernels |gap|^beta of the projections p, q of the current draw
        return distance_rows(p, spec, lo, hi), distance_rows(q, spec, lo, hi)

    vals = np.empty(draws)
    for i in range(draws):
        p, q = px[:, i:i + 1], py[:, i:i + 1]
        vals[i] = _d1_rows(rows, w)

    k2 = _gaussian_moment(beta) ** 2
    value = float(vals.mean()) / k2
    stderr = float(vals.std(ddof=1)) / math.sqrt(draws) / k2
    aux = {"draws": draws, "grid_nodes": 0, "atoms": atoms.n}
    return DcovEstimate(value=value, method="charrv", beta=beta,
                        n=sample.n, stderr=stderr, aux=aux)


def h_trunc(x, m, beta):
    """Regularizing kernel x^(b/2) + M^(b/2) - (x+M)^(b/2) on x >= 0.

    Nonnegative, bounded by x^(b/2), and nondecreasing in M with limit
    x^(b/2) as M grows (for 0 < beta < 2). Evaluated as
    x^e - M^e expm1(e log1p(x/M)) with e = b/2, which avoids the
    cancellation of M^e against (x+M)^e when M is much larger than x.
    """
    if m <= 0:
        raise ValueError("M must be positive")
    if not 0 < beta < 2:
        raise DomainError("beta must lie in (0, 2), got %g" % beta)
    x = np.asarray(x, dtype=float)
    e = beta / 2.0
    return x ** e - m ** e * np.expm1(e * np.log1p(x / m))


def dcov_hm(sample, m):
    """Truncated-kernel distance covariance over the law of the points.

    Replaces the beta-powered distance by h_trunc of the squared
    distance and evaluates the quarter-mean of the product of the two
    alternating four-point sums, which reduces to the same pairwise
    contraction as the untruncated estimator, swept over row blocks of
    the two kernels. Nondecreasing in M and converging to
    dcov_plugin_d1 as M grows.
    """
    if sample.x_spec.kind != "euclidean" or sample.y_spec.kind != "euclidean":
        raise ValueError("truncated kernel route needs Euclidean parts")
    if sample.n < 2:
        raise ValueError("need at least 2 observations, got %d" % sample.n)
    beta = sample.beta

    def rows(lo, hi):
        return (h_trunc(squared_distance_rows(sample.x, lo, hi), m, beta),
                h_trunc(squared_distance_rows(sample.y, lo, hi), m, beta))

    value = _d1_rows(rows, sample.probs)
    return DcovEstimate(value=value, method="hm", beta=beta, n=sample.n,
                        aux={"M": float(m)})
