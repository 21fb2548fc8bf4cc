"""Cross-route properties on small hypothesis samples.

charrv is a Monte Carlo estimate of the d1 value of the same sample, so
the two agree within a few standard errors. Every route is homogeneous:
scaling X by c scales the value by c^beta. With c a power of 2 the
scaled coordinates are exact, so only the powering rounds. For a fixed
seed charrv draws the same directions at every scale and position, so
its homogeneity and translation invariance hold draw by draw.
"""

import numpy as np
import pytest
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from betadcov import (DiscreteJoint, PairedSample, QuadratureError,
                      dcov2_closed, dcov_centered, dcov_charfn_1d,
                      dcov_charrv_mc, dcov_exact, dcov_hm, dcov_plugin_d1,
                      euclidean, pairwise_distances)

_coords = st.floats(-2.0, 2.0, allow_subnormal=False)
# a 1/8 lattice in [-2, 2]: sums of lattice points are exact
_lattice = st.integers(-16, 16).map(lambda v: v / 8.0)
_betas = st.sampled_from([0.5, 1.0, 1.5])
_scales = st.sampled_from([0.25, 0.5, 2.0, 4.0])
_seeds = st.integers(0, 2 ** 32 - 1)


@st.composite
def _samples(draw, n_min=2, n_max=8, coords=_coords):
    """n paired points in 1-2 dimensions per side."""
    n = draw(st.integers(n_min, n_max))
    dx = draw(st.integers(1, 2))
    dy = draw(st.integers(1, 2))
    x = draw(arrays(np.float64, (n, dx), elements=coords))
    y = draw(arrays(np.float64, (n, dy), elements=coords))
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
@given(_samples(n_min=4), _betas, _seeds)
def test_charrv_within_four_stderr_of_d1(xy, beta, seed):
    x, y = xy
    sample = _sample(x, y, beta)
    est = dcov_charrv_mc(sample, draws=32, seed=seed)
    d1 = dcov_plugin_d1(sample).value
    assert abs(est.value - d1) <= (4.0 * est.stderr
                                   + 1e-9 * _kernel_scale(x, y, beta))


@settings(max_examples=30)
@given(_samples(coords=_lattice), _betas, st.integers(-64, 64),
       st.integers(-64, 64), _seeds)
def test_charrv_homogeneous_draw_by_draw(xy, beta, i, j, seed):
    # on the lattice every projected gap scaled by 2^(+-64) stays a
    # normal double, so scaling is exact up to the powering, which is
    # exact at beta = 1 (a square root)
    x, y = xy
    base = dcov_charrv_mc(_sample(x, y, beta), draws=16, seed=seed)
    scaled = dcov_charrv_mc(_sample(2.0 ** i * x, 2.0 ** j * y, beta),
                            draws=16, seed=seed)
    f = 2.0 ** (beta * (i + j))
    if beta == 1.0:
        assert scaled.value == f * base.value
        assert scaled.stderr == f * base.stderr
    tol = 1e-12 * f * _kernel_scale(x, y, beta)
    assert abs(scaled.value - f * base.value) <= tol
    assert abs(scaled.stderr - f * base.stderr) <= tol


@settings(max_examples=30)
@given(_samples(coords=_lattice), _betas,
       arrays(np.float64, 4, elements=_lattice), _seeds)
def test_charrv_translation_invariant(xy, beta, shift, seed):
    # lattice points and shifts keep x + c exact; only the projections
    # of the shifted points round
    x, y = xy
    base = dcov_charrv_mc(_sample(x, y, beta), draws=16, seed=seed)
    moved = dcov_charrv_mc(_sample(x + shift[:x.shape[1]],
                                   y + shift[2:2 + y.shape[1]], beta),
                           draws=16, seed=seed)
    tol = 1e-12 * _kernel_scale(x, y, beta)
    assert abs(moved.value - base.value) <= tol
    assert abs(moved.stderr - base.stderr) <= tol


@given(_samples(coords=_lattice), _scales, _scales)
def test_beta2_homogeneous(xy, c, d):
    # scaling by powers of 2 is exact through the cross-covariance, so
    # the value scales by exactly c^2 d^2
    x, y = xy
    base = dcov2_closed(_sample(x, y, 2.0)).value
    scaled = dcov2_closed(_sample(c * x, d * y, 2.0)).value
    assert scaled == c * c * d * d * base


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
