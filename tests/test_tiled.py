"""The tiled sample contraction against the dense n x n code it replaced.

The reference below is a verbatim copy of the dense dcov_plugin_d1,
dcov_centered, dcor and dcov_hm (with the dense _d1_contract,
_centered_kernel and the cancelling h_trunc they called). Their
distance matrices come from explicit coordinate differences in plain
numpy, which is what cdist computed.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from betadcov import (PairedSample, dcor, dcov_centered, dcov_hm,
                      dcov_plugin_d1, euclidean, h_trunc, table)
from betadcov import metric
from betadcov.charfn import DomainError

# ------------------------------------------------------- dense reference


def _dense_distances(points, spec):
    if spec.kind == "euclidean":
        # sqrt(sum_k (u_k - v_k)^2) in coordinate order, as cdist sums
        d = np.zeros((len(points), len(points)))
        for col in points.T:
            d += np.subtract.outer(col, col) ** 2
        d = np.sqrt(d, out=d)
    else:
        d = spec.table[np.ix_(points, points)].astype(float)
    if spec.beta == 1.0:
        out = d
    else:
        out = np.zeros_like(d)
        nz = d > 0
        out[nz] = np.exp(spec.beta * np.log(d[nz]))
    np.fill_diagonal(out, 0.0)
    return out


class DensePairedSample:
    """The dense code's sample, minus its matrix cache (to bound memory)."""

    def __init__(self, x_points, y_points, x_spec, y_spec):
        self.x_spec = x_spec
        self.y_spec = y_spec
        self.x = metric.as_points(x_points, x_spec)
        self.y = metric.as_points(y_points, y_spec)

    @property
    def n(self):
        return len(self.x)

    @property
    def beta(self):
        return self.x_spec.beta

    def x_dist(self):
        return _dense_distances(self.x, self.x_spec)

    def y_dist(self):
        return _dense_distances(self.y, self.y_spec)


def _dense_d1_terms(a, b, w):
    aw = a @ w
    bw = b @ w
    term1 = float(np.sum(w[:, None] * w[None, :] * (a * b)))
    term2 = float(w @ aw) * float(w @ bw)
    term3 = float(np.sum(w * (aw * bw)))
    return term1, term2, term3


def _d1_contract(a, b, w):
    term1, term2, term3 = _dense_d1_terms(a, b, w)
    return term1 + term2 - 2.0 * term3


def _centered_kernel(a, w):
    aw = a @ w
    grand = float(w @ aw)
    return a - aw[:, None] - aw[None, :] + grand


def dense_d1(sample):
    w = np.full(sample.n, 1.0 / sample.n)
    return _d1_contract(sample.x_dist(), sample.y_dist(), w)


def dense_centered(sample):
    n = sample.n
    w = np.full(n, 1.0 / n)
    ca = _centered_kernel(sample.x_dist(), w)
    cb = _centered_kernel(sample.y_dist(), w)
    return float(np.sum(ca * cb)) / (n * n)


def dense_dcor(sample):
    vxy = dense_centered(sample)
    vxx = dense_centered(DensePairedSample(sample.x, sample.x,
                                           sample.x_spec, sample.x_spec))
    vyy = dense_centered(DensePairedSample(sample.y, sample.y,
                                           sample.y_spec, sample.y_spec))
    return vxy / np.sqrt(vxx * vyy)


def squared(points):
    return _dense_distances(points, euclidean(points.shape[1], 1.0)) ** 2


def dense_h_trunc(x, m, beta):
    x = np.asarray(x, dtype=float)
    e = beta / 2.0
    return x ** e + m ** e - (x + m) ** e


def dense_hm(sample, m, kernel=dense_h_trunc):
    beta = sample.beta
    a = kernel(squared(sample.x), m, beta)
    b = kernel(squared(sample.y), m, beta)
    w = np.full(sample.n, 1.0 / sample.n)
    return _d1_contract(a, b, w), _dense_d1_terms(a, b, w)

# ----------------------------------------------------------------- data


def _sample(kind, n, dx, dy, seed):
    rng = np.random.default_rng([seed, n, dx, dy])
    x = rng.normal(size=(n, dx))
    if kind == "independent":
        y = rng.normal(size=(n, dy))
    else:
        y = x[:, :1] + 0.7 * rng.normal(size=(n, dy))
    if kind == "duplicates":
        # a coarse lattice: most rows repeat and many distances are 0
        x = np.round(x)
        y = np.round(y)
    return x, y


# n = 128 fills one block, the whole square of 2^14 elements, and 17
# fits in one; at 1000 the upper-trapezoid blocks start at 16 rows, which
# do not divide 1000, and widen to a short last block of 89 rows
_CASES = (
    [("dependent", n, dx, dy, beta)
     for n in (2, 3, 17) for dx, dy in ((1, 1), (2, 3), (3, 2))
     for beta in (0.5, 1.0, 1.5)]
    + [("dependent", 128, 3, 2, 1.0), ("duplicates", 128, 2, 1, 0.5),
       ("dependent", 1000, 3, 2, 0.5), ("dependent", 1000, 3, 2, 1.5),
       ("independent", 1000, 3, 2, 1.0), ("duplicates", 1000, 3, 2, 0.5),
       ("independent", 4000, 3, 2, 1.0)])


def test_block_rows_of_the_cases():
    assert metric.BLOCK_ELEMENTS == 128 * 128
    assert metric.row_blocks(128) == [(0, 128)]
    assert metric.row_blocks(17) == [(0, 17)]
    for n in (1000, 4000):
        blocks = metric.row_blocks(n)
        # consecutive, each as many rows as fit its own width n - lo
        assert [lo for lo, _ in blocks] == [0] + [hi for _, hi in blocks[:-1]]
        assert blocks[-1][1] == n
        assert all(hi - lo == min(n - lo, metric.BLOCK_ELEMENTS // (n - lo))
                   for lo, hi in blocks)
    assert 1000 % (metric.BLOCK_ELEMENTS // 1000) != 0
    assert metric.row_blocks(1000)[0] == (0, 16)
    assert metric.row_blocks(1000)[-1] == (911, 1000)
    assert len(metric.row_blocks(4000)) == 533
    assert metric.row_blocks(4000)[-1] == (3957, 4000)


@pytest.mark.parametrize("kind,n,dx,dy,beta", _CASES)
def test_tiled_matches_dense(kind, n, dx, dy, beta):
    x, y = _sample(kind, n, dx, dy, 1)
    sx, sy = euclidean(dx, beta), euclidean(dy, beta)
    dense = DensePairedSample(x, y, sx, sy)
    tiled = PairedSample(x, y, sx, sy)
    w = np.full(n, 1.0 / n)
    # where the three d1 terms cancel (independent samples) their size,
    # not the value, sets the rounding of d1; the entrywise centered sum
    # does not cancel that way
    t1, t2, t3 = _dense_d1_terms(dense.x_dist(), dense.y_dist(), w)
    ref_d1 = t1 + t2 - 2.0 * t3           # dense_d1(dense), term by term
    d1_scale = abs(ref_d1)
    if kind == "independent":
        d1_scale = abs(t1) + abs(t2) + 2.0 * abs(t3)
    assert abs(dcov_plugin_d1(tiled).value - ref_d1) <= 1e-12 * d1_scale
    assert dcov_centered(tiled).value == pytest.approx(
        dense_centered(dense), rel=1e-12, abs=0)
    assert dcor(tiled) == pytest.approx(dense_dcor(dense), rel=1e-12, abs=0)
    if n <= 1000:
        maxd2 = max(float(np.max(squared(x))), float(np.max(squared(y))))
        # the cancelling kernel of the dense code is exact enough at
        # M = 10 max d^2; at the command line's M = 1e6 max d^2 it loses
        # digits, so there the dense sum takes the stable kernel
        for m, kernel in ((10.0 * maxd2, dense_h_trunc),
                          (1e6 * maxd2, h_trunc)):
            ref_hm, terms = dense_hm(dense, m, kernel)
            hm_scale = (abs(terms[0]) + abs(terms[1]) + 2.0 * abs(terms[2])
                        if kind == "independent" else abs(ref_hm))
            assert abs(dcov_hm(tiled, m).value - ref_hm) <= 1e-12 * hm_scale


def test_tiled_matches_dense_table_metric():
    rng = np.random.default_rng(31)
    pts = rng.normal(size=(12, 2))
    d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
    sx = table(d, beta=0.5)
    sy = table(np.abs(np.subtract.outer(pts[:, 0], pts[:, 0])), beta=0.5)
    ix = rng.integers(0, 12, 300)
    iy = np.where(rng.uniform(size=300) < 0.6, ix, rng.integers(0, 12, 300))
    dense = DensePairedSample(ix, iy, sx, sy)
    tiled = PairedSample(ix, iy, sx, sy)
    assert dcov_plugin_d1(tiled).value == pytest.approx(dense_d1(dense),
                                                        rel=1e-12)
    assert dcov_centered(tiled).value == pytest.approx(dense_centered(dense),
                                                       rel=1e-12)
    assert dcor(tiled) == pytest.approx(dense_dcor(dense), rel=1e-12)


def test_many_small_blocks(monkeypatch):
    # 17 rows in six blocks of 2 to 4 rows (the last one short: 4 of the
    # 8 rows its width allows) against one dense block
    x, y = _sample("dependent", 17, 2, 2, 5)
    sample = PairedSample(x, y, euclidean(2, 0.5), euclidean(2, 0.5))
    one_block = (dcov_plugin_d1(sample).value, dcov_centered(sample).value,
                 dcor(sample), dcov_hm(sample, 1e3).value)
    monkeypatch.setattr(metric, "BLOCK_ELEMENTS", 2 * 17)
    assert metric.row_blocks(17) == [(0, 2), (2, 4), (4, 6), (6, 9),
                                     (9, 13), (13, 17)]
    small = (dcov_plugin_d1(sample).value, dcov_centered(sample).value,
             dcor(sample), dcov_hm(sample, 1e3).value)
    assert small == pytest.approx(one_block, rel=1e-13)


def test_pairwise_distances_from_blocks():
    x, _ = _sample("duplicates", 300, 3, 1, 2)
    for beta in (0.5, 1.0, 2.0):
        spec = euclidean(3, beta)
        d = metric.pairwise_distances(x, spec)
        assert np.array_equal(d, d.T)
        assert np.all(np.diagonal(d) == 0.0)
        np.testing.assert_allclose(d, _dense_distances(x, spec),
                                   rtol=1e-14, atol=0)


def test_d1_memory_is_bounded():
    n = 6000
    x, y = _sample("dependent", n, 3, 2, 3)
    sample = PairedSample(x, y, euclidean(3, 0.5), euclidean(2, 0.5))
    tracemalloc.start()
    try:
        dcov_plugin_d1(sample)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the dense path held two 288 MB matrices and their product here
    assert peak < 16e6


@pytest.mark.parametrize("route", ["centered", "hm"])
def test_centered_and_hm_memory_is_bounded(route):
    # under the bound d1 meets: two upper-trapezoid sweeps, or one of
    # truncated kernels, hold O(n) sums and one row block at a time
    n = 6000
    x, y = _sample("dependent", n, 3, 2, 3)
    sample = PairedSample(x, y, euclidean(3, 0.5), euclidean(2, 0.5))
    tracemalloc.start()
    try:
        if route == "centered":
            dcov_centered(sample)
        else:
            dcov_hm(sample, 1e6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16e6

# ----------------------------------------------------------- properties


def _points(dim):
    # a 1/8 lattice: translations by lattice shifts are exact in floating
    # point, so only rotation and the contraction itself round
    return arrays(np.float64, st.tuples(st.integers(3, 24), st.just(dim)),
                  elements=st.integers(-80, 80).map(lambda k: k / 8.0))


@given(_points(2), st.integers(0, 2 ** 32 - 1),
       st.sampled_from([0.5, 1.0, 1.5]))
def test_d1_equals_centered(x, seed, beta):
    y = x[:, ::-1] + np.random.default_rng(seed).normal(size=x.shape)
    sample = PairedSample(x, y, euclidean(2, beta), euclidean(2, beta))
    dense = DensePairedSample(x, y, euclidean(2, beta), euclidean(2, beta))
    w = np.full(len(x), 1.0 / len(x))
    t1, t2, t3 = _dense_d1_terms(dense.x_dist(), dense.y_dist(), w)
    scale = abs(t1) + abs(t2) + 2.0 * abs(t3) + 1e-300
    assert abs(dcov_plugin_d1(sample).value
               - dcov_centered(sample).value) <= 1e-10 * scale


@given(_points(3), st.integers(-400, 400).map(lambda k: k / 8.0),
       st.floats(0, 2 * math.pi),
       st.sampled_from([0.5, 1.0, 1.5]))
def test_d1_translation_and_rotation_invariant(x, shift, angle, beta):
    y = x[:, :2] ** 2
    c, s = math.cos(angle), math.sin(angle)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    spec_x, spec_y = euclidean(3, beta), euclidean(2, beta)
    base = dcov_plugin_d1(PairedSample(x, y, spec_x, spec_y)).value
    moved = dcov_plugin_d1(PairedSample(x @ rot.T + shift, y - shift,
                                        spec_x, spec_y)).value
    dense = DensePairedSample(x, y, spec_x, spec_y)
    w = np.full(len(x), 1.0 / len(x))
    t1, t2, t3 = _dense_d1_terms(dense.x_dist(), dense.y_dist(), w)
    scale = abs(t1) + abs(t2) + 2.0 * abs(t3) + 1e-300
    assert abs(moved - base) <= 1e-10 * scale

# ------------------------------------------------------------ h_trunc


@pytest.mark.parametrize("ratio", [1.0, 1e3, 1e6, 1e12])
@pytest.mark.parametrize("beta", [0.3, 1.0, 1.5, 1.9])
def test_h_trunc_matches_extended_precision(ratio, beta):
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    for xi in (1e-9, 0.37, 2.0, 5e4):
        m = ratio * xi
        e = mpmath.mpf(beta) / 2
        ref = (mpmath.mpf(xi) ** e + mpmath.mpf(m) ** e
               - (mpmath.mpf(xi) + mpmath.mpf(m)) ** e)
        got = h_trunc(np.array([xi]), m, beta)[0]
        assert abs((got - ref) / ref) <= 1e-14


def test_hm_needs_two_observations():
    sample = PairedSample([[0.0]], [[1.0]], euclidean(1, 1.0),
                          euclidean(1, 1.0))
    with pytest.raises(ValueError, match="at least 2"):
        dcov_hm(sample, 10.0)


def test_hm_domain_checked_before_sweep():
    sample = PairedSample([[0.0], [1.0]], [[1.0], [0.0]], euclidean(1, 2.0),
                          euclidean(1, 2.0))
    with pytest.raises(DomainError):
        dcov_hm(sample, 10.0)
