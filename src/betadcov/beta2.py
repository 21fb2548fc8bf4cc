"""Closed-form distance covariance at beta = 2.

At exponent 2 the distance covariance collapses to four times the
squared Frobenius norm of the coordinatewise cross-covariance matrix,
so it no longer characterizes independence: it vanishes exactly when
the two vectors are uncorrelated.
"""

import numpy as np

from .exact import DcovEstimate, DomainError


def _require_euclidean(sample):
    if sample.x_spec.kind != "euclidean" or sample.y_spec.kind != "euclidean":
        raise ValueError("cross-covariance closed form needs Euclidean parts")
    if sample.n < 2:
        raise ValueError("need at least 2 observations")


def cross_cov(sample):
    """Plug-in cross-covariance matrix C[i][j] = Cov(x_i coord, y_j coord).

    Means and covariances are weighted by the points' probs (divisor n
    on a paired sample), so the closed form below matches the plug-in
    distance covariance estimators exactly.
    """
    _require_euclidean(sample)
    w = sample.probs
    xc = sample.x - w @ sample.x
    yc = sample.y - w @ sample.y
    return xc.T @ (w[:, None] * yc)


def dcov2_closed(sample):
    """Distance covariance at beta = 2 via 4 * ||cross_cov||_F^2.

    Agrees with the generic doubly centered estimator at beta = 2
    within 1e-10; points whose specs have another beta raise
    DomainError.
    """
    if sample.beta != 2.0:
        raise DomainError(
            "the cross-covariance closed form is specific to beta=2")
    c = cross_cov(sample)
    value = 4.0 * float(np.sum(c * c))
    return DcovEstimate(value=value, method="beta2", beta=2.0, n=sample.n)
