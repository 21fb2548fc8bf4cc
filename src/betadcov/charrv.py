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
projected atoms with kernel |gap|^beta. The norm of a standard normal
xi in R^p is independent of its direction u = xi / |xi|, and d1 is
homogeneous of degree beta per side, so E d1(xi.X, eta.Y) =
E|xi|^beta E|eta|^beta E d1(u.X, v.Y): the route averages over the
directions only, with the norms taken at their expectation, which
removes the heavy-tailed |xi|^beta |eta|^beta factor from every draw
and cannot raise the variance. Each draw is the d1 of the projections
onto the two unit directions. The draws go through the shared
contraction in chunks: one sweep takes the stacked |gap|^beta kernels
of a chunk's projections (metric.gap_rows); the estimate is the mean over
draws times E|xi|^beta E|eta|^beta / kappa^2 (the random-projection
estimator of Huo and Szekely 2016, with uniform directions). With
one-dimensional parts the directions are +-1 and every draw is the same
d1, which is computed once.
"""

import math

import numpy as np

from .exact import DcovEstimate, DiscreteJoint, DomainError, _d1_rows
from .metric import gap_rows, row_blocks, squared_distance_rows

#: kernel entries (draws x rows x columns) in one row block of a stack
#: of draws; it sets both the draws per sweep and their row blocks
STACK_ELEMENTS = 1 << 15


def _collapse(points):
    """Merge equal (x, y) rows into one point of their summed weight."""
    d = points.x.shape[1]
    uniq, inv = np.unique(np.hstack([points.x, points.y]), axis=0,
                          return_inverse=True)
    w = np.bincount(inv.ravel(), weights=points.probs)
    return DiscreteJoint(uniq[:, :d], uniq[:, d:], w, points.x_spec,
                         points.y_spec)


def _gaussian_moment(beta, dim=1):
    """E|xi|^beta for standard normal xi in R^dim.

    2^(b/2) Gamma((dim+b)/2) / Gamma(dim/2), from log-gammas so that no
    dimension overflows; at dim = 1 it is E|N(0,1)|^beta.
    """
    return math.exp(beta / 2.0 * math.log(2.0)
                    + math.lgamma((dim + beta) / 2.0) - math.lgamma(dim / 2.0))


def dcov_charrv_mc(sample, draws=2000, seed=None):
    """Monte Carlo beta-distance covariance via Gaussian projections.

    Requires Euclidean parts, at least two rows and beta in (0, 2).
    Equal rows are merged into one point of their summed weight. Each
    draw projects both sides onto fresh standard normal directions,
    scaled to unit length, and computes the exact one-dimensional
    weighted d1 of the projected points; value and stderr are the mean
    and standard error over draws, times E|xi|^beta E|eta|^beta /
    kappa^2 (_gaussian_moment). The draws are contracted in chunks,
    each one sweep of stacked kernels of at most STACK_ELEMENTS entries
    per row block. Deterministic for a fixed (seed, draws) pair.

    With one-dimensional parts the unit directions are +-1 and every
    draw would be the exact d1, so no draw is made: that d1 is computed
    once and reported with a stderr of 0, seed and draws are not read,
    and aux["draws"], the number of draws contracted, is 0.
    """
    if sample.x_spec.kind != "euclidean" or sample.y_spec.kind != "euclidean":
        raise ValueError("Gaussian projection route needs Euclidean parts")
    if sample.n < 2:
        raise ValueError("need at least 2 observations, got %d" % sample.n)
    beta = sample.beta
    if not 0 < beta < 2:
        raise DomainError("beta must lie in (0, 2), got %g" % beta)

    atoms = _collapse(sample)
    x, y, w = atoms.x, atoms.y, atoms.probs
    dx, dy = x.shape[1], y.shape[1]
    aux = {"draws": 0, "grid_nodes": 0, "atoms": atoms.n}
    if dx == dy == 1:
        return DcovEstimate(value=_d1_rows(atoms.rows, w), method="charrv",
                            beta=beta, n=sample.n, stderr=0.0, aux=aux)
    if draws < 2:
        raise ValueError("need at least 2 draws for a standard error")
    if seed is None:
        raise ValueError("seed is required unless both parts are 1-D "
                         "(no silent nondeterminism)")
    # one spawned stream per draw; its one call gives xi, then eta
    z = np.stack([np.random.default_rng(s).standard_normal(dx + dy)
                  for s in np.random.SeedSequence(seed).spawn(draws)])
    # draw x atom projections onto the unit directions
    px, py = ((d / np.linalg.norm(d, axis=1)[:, None]) @ pts.T
              for d, pts in ((z[:, :dx], x), (z[:, dx:], y)))

    def rows(lo, hi):
        # stacked kernels |gap|^beta of the projections p, q of a chunk
        return gap_rows(p, beta, lo, hi), gap_rows(q, beta, lo, hi)

    chunk = max(1, STACK_ELEMENTS // atoms.n ** 2)    # draws per sweep
    blocks = row_blocks(atoms.n, STACK_ELEMENTS // chunk)
    vals = np.empty(draws)
    for lo in range(0, draws, chunk):
        p, q = px[lo:lo + chunk], py[lo:lo + chunk]
        vals[lo:lo + chunk] = _d1_rows(rows, w, blocks)

    # E|xi|^beta E|eta|^beta / kappa^2, where a 1-D side's factor is 1
    scale = math.prod(_gaussian_moment(beta, d) / _gaussian_moment(beta)
                      for d in (dx, dy))
    value = float(vals.mean()) * scale
    stderr = float(vals.std(ddof=1)) / math.sqrt(draws) * scale
    aux["draws"] = draws
    return DcovEstimate(value=value, method="charrv", beta=beta,
                        n=sample.n, stderr=stderr, aux=aux)


def h_trunc(x, m, beta):
    """Regularizing kernel x^(b/2) + M^(b/2) - (x+M)^(b/2) on x >= 0.

    Nonnegative, bounded by x^(b/2), and nondecreasing in M with limit
    x^(b/2) as M grows (for 0 < beta < 2). Evaluated as
    x^e - M^e expm1(e log1p(x/M)) with e = b/2, which avoids the
    cancellation of M^e against (x+M)^e when M is much larger than x.
    """
    if not 0 < m < math.inf:
        raise ValueError("M must be a positive finite number, got %g" % m)
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
