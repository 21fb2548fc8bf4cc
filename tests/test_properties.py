"""Cross-route properties on small hypothesis samples.

charrv is a Monte Carlo estimate of the d1 value of the same sample, so
the two agree within a few standard errors. Every route is homogeneous:
scaling X by c scales the value by c^beta. With c a power of 2 the
scaled coordinates are exact, so only the powering rounds.
"""

import numpy as np
import pytest
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from betadcov import (DiscreteJoint, PairedSample, QuadratureError,
                      dcov_centered, dcov_charfn_1d, dcov_charrv_mc,
                      dcov_exact, dcov_hm, dcov_plugin_d1, euclidean,
                      pairwise_distances)

_coords = st.floats(-2.0, 2.0, allow_subnormal=False)
_betas = st.sampled_from([0.5, 1.0, 1.5])
_scales = st.sampled_from([0.25, 0.5, 2.0, 4.0])


@st.composite
def _samples(draw, n_min=2, n_max=8):
    """n paired points in 1-2 dimensions per side."""
    n = draw(st.integers(n_min, n_max))
    dx = draw(st.integers(1, 2))
    dy = draw(st.integers(1, 2))
    x = draw(arrays(np.float64, (n, dx), elements=_coords))
    y = draw(arrays(np.float64, (n, dy), elements=_coords))
    return x, y


def _sample(x, y, beta):
    return PairedSample(x, y, euclidean(x.shape[1], beta),
                        euclidean(y.shape[1], beta))


def _kernel_scale(x, y, beta):
    """max a * max b, which bounds every term of a weighted contraction."""
    sample = _sample(x, y, beta)
    return (pairwise_distances(sample.x, sample.x_spec).max()
            * pairwise_distances(sample.y, sample.y_spec).max() + 1e-300)


@settings(max_examples=20)
@given(_samples(n_min=4), _betas, st.integers(0, 2 ** 32 - 1))
def test_charrv_within_four_stderr_of_d1(xy, beta, seed):
    x, y = xy
    sample = _sample(x, y, beta)
    est = dcov_charrv_mc(sample, draws=32, seed=seed)
    d1 = dcov_plugin_d1(sample).value
    assert abs(est.value - d1) <= (4.0 * est.stderr
                                   + 1e-9 * _kernel_scale(x, y, beta))


@pytest.mark.parametrize("route", [dcov_plugin_d1, dcov_centered])
@given(_samples(), _betas, _scales)
def test_sample_routes_homogeneous(route, xy, beta, c):
    x, y = xy
    base = route(_sample(x, y, beta)).value
    scaled = route(_sample(c * x, y, beta)).value
    tol = 1e-12 * c ** beta * _kernel_scale(x, y, beta)
    assert abs(scaled - c ** beta * base) <= tol


@given(_samples(), _betas, _scales)
def test_hm_homogeneous_with_scaled_truncation(xy, beta, c):
    # h_trunc(c^2 x, c^2 M) = c^beta h_trunc(x, M) on each side
    x, y = xy
    m = 10.0
    base = dcov_hm(_sample(x, y, beta), m).value
    scaled = dcov_hm(_sample(c * x, c * y, beta), c * c * m).value
    tol = 1e-12 * c ** (2 * beta) * _kernel_scale(x, y, beta)
    assert abs(scaled - c ** (2 * beta) * base) <= tol


@st.composite
def _joints(draw, dims=(1, 2)):
    """2-10 atoms with positive weights, x scaled later by the test."""
    k = draw(st.integers(2, 10))
    dx = draw(st.sampled_from(dims))
    dy = draw(st.sampled_from(dims))
    xa = draw(arrays(np.float64, (k, dx), elements=_coords))
    ya = draw(arrays(np.float64, (k, dy), elements=_coords))
    w = np.array(draw(st.lists(st.integers(1, 20), min_size=k, max_size=k)),
                 dtype=float)
    return xa, ya, w / w.sum()


def _joint(xa, ya, p, beta):
    return DiscreteJoint(xa, ya, p, euclidean(xa.shape[1], beta),
                         euclidean(ya.shape[1], beta))


@pytest.mark.parametrize("method", ["d1", "d3"])
@given(_joints(), _betas, _scales)
def test_exact_homogeneous(method, joint, beta, c):
    xa, ya, p = joint
    base = dcov_exact(_joint(xa, ya, p, beta), method).value
    scaled = dcov_exact(_joint(c * xa, ya, p, beta), method).value
    tol = 1e-12 * c ** beta * _kernel_scale(xa, ya, beta)
    assert abs(scaled - c ** beta * base) <= tol


@settings(max_examples=30)
@given(_joints(dims=(1,)), _betas, st.sampled_from([0.5, 2.0]))
def test_charfn_homogeneous_within_error_estimates(joint, beta, c):
    # the quadrature grid does not scale with the data, so the two values
    # agree within their error estimates rather than to rounding
    xa, ya, p = joint
    assume(np.ptp(xa) > 0 and np.ptp(ya) > 0)
    try:
        base = dcov_charfn_1d(_joint(xa, ya, p, beta))
        scaled = dcov_charfn_1d(_joint(c * xa, ya, p, beta))
    except QuadratureError:
        reject()

    def err(est):
        return est.aux["trunc_err"] + est.aux["origin_err"]

    assert abs(scaled.value - c ** beta * base.value) <= (
        err(scaled) + c ** beta * err(base) + 1e-12)
