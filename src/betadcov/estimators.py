"""Plug-in estimators of beta-distance covariance from paired samples.

All estimators are V-statistics: they evaluate the population
functional on the empirical measure with weight 1/n per observation,
matching the finite-support formulas in the exact module.

None of them builds an n x n matrix. They sweep row blocks of the two
beta-powered distance kernels, recomputed from the points for each
sweep (metric.distance_rows). d1 collects its three pairwise-form sums
in one sweep (exact._d1_rows). The doubly centered estimator and dcor
share the two-sweep centering exact._centered_rows, summed by
exact._centered_products: the first sweep collects the row sums, the
second centers each block entrywise and sums the products. Memory is
O(n * block) on top of the points; time is O(n^2 d) per sweep.
"""

import numpy as np

from .exact import DcovEstimate, _centered_products, _d1_rows
from .metric import as_points, distance_rows, pairwise_distances


class PairedSample:
    """n paired observations with one metric spec per side.

    The estimators and the permutation test read row blocks of the
    distance kernels (rows, or metric.distance_rows on x and y). The
    full distance matrices are built only on request (x_dist, y_dist)
    and cached; no route of the package calls them.
    """

    def __init__(self, x_points, y_points, x_spec, y_spec):
        if x_spec.beta != y_spec.beta:
            raise ValueError("x and y specs must share one beta")
        self.x_spec = x_spec
        self.y_spec = y_spec
        # column-major, so the coordinate columns that every kernel row
        # block reads are contiguous
        self.x = np.asfortranarray(as_points(x_points, x_spec))
        self.y = np.asfortranarray(as_points(y_points, y_spec))
        if len(self.x) != len(self.y):
            raise ValueError("x and y parts must have equal length")
        self._a = None
        self._b = None

    @property
    def n(self):
        return len(self.x)

    @property
    def beta(self):
        return self.x_spec.beta

    def rows(self, lo, hi):
        """Rows lo:hi of the x and y distance kernels, freshly computed."""
        return (distance_rows(self.x, self.x_spec, lo, hi),
                distance_rows(self.y, self.y_spec, lo, hi))

    def x_dist(self):
        if self._a is None:
            self._a = pairwise_distances(self.x, self.x_spec)
        return self._a

    def y_dist(self):
        if self._b is None:
            self._b = pairwise_distances(self.y, self.y_spec)
        return self._b


def _uniform_weights(sample):
    """Weight 1/n per observation; refuses fewer than two observations."""
    if sample.n < 2:
        raise ValueError("need at least 2 observations, got %d" % sample.n)
    return np.full(sample.n, 1.0 / sample.n)


def dcov_plugin_d1(sample):
    """Pairwise-form plug-in estimator.

    With a_ij, b_ij the beta-powered distance matrices the value is
    (1/n^2) sum a_ij b_ij + (mean a)(mean b) - (2/n^3) sum_i (sum_j a_ij)(sum_k b_ik).
    """
    w = _uniform_weights(sample)
    value = _d1_rows(sample.rows, w)
    return DcovEstimate(value=value, method="d1", beta=sample.beta, n=sample.n)


def dcov_centered(sample):
    """Doubly centered plug-in estimator.

    Centers both distance matrices by row mean, column mean and grand
    mean, then averages the entrywise product. Algebraically equal to
    dcov_plugin_d1; numerically they agree within 1e-9.
    """
    w = _uniform_weights(sample)
    value = float(_centered_products(sample.rows, w)[0])
    return DcovEstimate(value=value, method="centered", beta=sample.beta,
                        n=sample.n)


def dcor(sample):
    """Normalized distance correlation in [0, 1] (up to estimation noise).

    Ratio of dcov(x, y) to the geometric mean of dcov(x, x) and
    dcov(y, y), all via the centered estimator and taken from one
    two-sweep contraction. Raises if either marginal is degenerate.
    """
    w = _uniform_weights(sample)
    vxy, vxx, vyy = (float(v) for v in _centered_products(sample.rows, w))
    if vxx <= 0 or vyy <= 0:
        raise ValueError("degenerate marginal: dcov(x,x)=%g, dcov(y,y)=%g"
                         % (vxx, vyy))
    # square roots first: vxx * vyy over- or underflows at data scales
    # where vxx and vyy are still finite and positive
    return vxy / (np.sqrt(vxx) * np.sqrt(vyy))
