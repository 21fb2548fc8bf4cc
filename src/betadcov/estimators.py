"""Plug-in estimators of beta-distance covariance from weighted points.

All estimators are V-statistics: they evaluate the population
functional on the law of the points (exact.DiscreteJoint), each row
weighted by its prob. A paired sample is the case of weight 1/n per
observation (PairedSample); on a finite joint the same call gives the
exact population value.

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

from .exact import DcovEstimate, DiscreteJoint, _centered_products, _d1_rows
from .metric import pairwise_distances


class PairedSample(DiscreteJoint):
    """n paired observations with one metric spec per side, weight 1/n each.

    x_dist and y_dist build the full distance matrices on request; no
    route of the package calls them.
    """

    def __init__(self, x_points, y_points, x_spec, y_spec):
        n = len(x_points)
        super().__init__(x_points, y_points, np.ones(n) / n, x_spec, y_spec)

    def x_dist(self):
        return pairwise_distances(self.x, self.x_spec)

    def y_dist(self):
        return pairwise_distances(self.y, self.y_spec)


def _probs(points):
    """The weights of points; refuses fewer than two points."""
    if points.n < 2:
        raise ValueError("need at least 2 observations, got %d" % points.n)
    return points.probs


def dcov_plugin_d1(sample):
    """Pairwise-form plug-in estimator.

    With a_ij, b_ij the beta-powered distance matrices and w the weights
    the value is sum_ij w_i w_j a_ij b_ij + (w'a w)(w'b w)
    - 2 sum_i w_i (a w)_i (b w)_i.
    """
    value = _d1_rows(sample.rows, _probs(sample))
    return DcovEstimate(value=value, method="d1", beta=sample.beta, n=sample.n)


def dcov_centered(sample):
    """Doubly centered plug-in estimator.

    Centers both distance matrices by weighted row mean, column mean and
    grand mean, then takes the weighted mean of the entrywise product.
    Algebraically equal to dcov_plugin_d1; numerically they agree within
    1e-9.
    """
    value = float(_centered_products(sample.rows, _probs(sample))[0])
    return DcovEstimate(value=value, method="centered", beta=sample.beta,
                        n=sample.n)


def dcor(sample):
    """Normalized distance correlation in [0, 1] (up to estimation noise).

    Ratio of dcov(x, y) to the geometric mean of dcov(x, x) and
    dcov(y, y), all via the centered estimator and taken from one
    two-sweep contraction. Raises if either marginal is degenerate.
    """
    sums = _centered_products(sample.rows, _probs(sample))
    vxy, vxx, vyy = (float(v) for v in sums)
    if vxx <= 0 or vyy <= 0:
        raise ValueError("degenerate marginal: dcov(x,x)=%g, dcov(y,y)=%g"
                         % (vxx, vyy))
    # square roots first: vxx * vyy over- or underflows at data scales
    # where vxx and vyy are still finite and positive
    return vxy / (np.sqrt(vxx) * np.sqrt(vyy))
