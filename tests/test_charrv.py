import math
import tracemalloc

import numpy as np
import pytest

from betadcov import (DomainError, PairedSample, QuadConfig, charrv,
                      dcov_centered, dcov_charrv_mc, dcov_hm, dcov_plugin_d1,
                      euclidean, h_trunc, scale_const)
from betadcov.charfn import log_panel_grid
from betadcov.charrv import _collapse, _gaussian_moment
from betadcov.exact import _d1_rows


def _contract(a, b, w):
    """The shared contraction _d1_rows over row slices of a, b."""
    return _d1_rows(lambda lo, hi: (a[lo:hi], b[lo:hi]), w)


def _streams(seed, draws):
    """Per-draw generators, spawned as the library spawns them."""
    return [np.random.default_rng(s)
            for s in np.random.SeedSequence(seed).spawn(draws)]


def _units(seed, draws, dim_x, dim_y):
    """Per-draw unit directions of both sides: standard normal draws,
    one spawned stream per draw, xi first and then eta, each divided
    by its norm."""
    streams = _streams(seed, draws)
    xis = np.stack([rg.standard_normal(dim_x) for rg in streams])
    etas = np.stack([rg.standard_normal(dim_y) for rg in streams])
    return (xis / np.linalg.norm(xis, axis=1)[:, None],
            etas / np.linalg.norm(etas, axis=1)[:, None])


def _projections(sample, draws, seed):
    """Atom weights and per-draw projections of both sides onto the
    unit directions of _units."""
    atoms = _collapse(sample)
    x, y, w = atoms.x, atoms.y, atoms.probs
    us, vs = _units(seed, draws, x.shape[1], y.shape[1])
    return w, x @ us.T, y @ vs.T


def _norm_moment(beta, dim):
    """E|xi|^beta for standard normal xi in R^dim, from math.gamma."""
    return (2.0 ** (beta / 2.0) * math.gamma((dim + beta) / 2.0)
            / math.gamma(dim / 2.0))


def _dense_terms_of(a, b, w):
    """The three d1 terms w'(a*b)w, (w'aw)(w'bw), sum w (aw)(bw)."""
    aw = a @ w
    bw = b @ w
    return w @ (a * b) @ w, (w @ aw) * (w @ bw), np.sum(w * aw * bw)


def _dense_terms(p, q, w, beta):
    """The three d1 terms of scalar atoms p, q from dense |gap|^beta."""
    return _dense_terms_of(np.abs(p[:, None] - p[None, :]) ** beta,
                           np.abs(q[:, None] - q[None, :]) ** beta, w)


def _case(beta, dim, collapsed):
    """40 rows; collapsed ones have at most 12 distinct (x, y) atoms."""
    rng = np.random.default_rng([17, dim, int(collapsed)])
    n = 40
    if collapsed:
        # 4 x atoms and 3 y atoms, y following x: rows sharing an x give
        # off-diagonal zero gaps
        ix = rng.integers(0, 4, n)
        iy = (ix + (rng.uniform(size=n) < 0.25)) % 3
        x = rng.normal(size=(4, dim))[ix]
        y = rng.normal(size=(3, 2))[iy]
    else:
        x = rng.normal(size=(n, dim))
        y = np.column_stack([x[:, 0] + 0.5 * rng.normal(size=n),
                             rng.normal(size=n)])
    return PairedSample(x, y, euclidean(dim, beta), euclidean(2, beta))


_CASES = pytest.mark.parametrize("beta, dim, collapsed", [
    (beta, dim, collapsed) for beta in (0.5, 1.0, 1.5) for dim in (1, 3)
    for collapsed in (False, True)])


# Verbatim copy of the cosine half of the quadrature route this module
# used before each draw became an exact 1-D d1: the kernel table (with
# the Richardson tail folded into the weight), its geometric lookup and
# the symmetric kernel C of one projection. The draw was
# scale_const^2 (C_p . C_q - S_p . S_q); the sine half has mean 0.

def _old_kernel_table(r, wr, delta_max):
    delta_max = delta_max if delta_max > 0 else 1.0
    deltas = np.concatenate([[0.0],
                             np.geomspace(delta_max * 1e-9, delta_max, 4096)])
    table = np.zeros((deltas.size, 4))
    rows = max(1, (1 << 20) // r.size)
    for lo in range(0, deltas.size, rows):
        phase = np.outer(deltas[lo:lo + rows], r)
        table[lo:lo + rows, 1] = np.sin(phase) @ wr
        # 1 - cos(x) as 2 sin(x/2)^2, which keeps its digits near x = 0
        np.sin(np.multiply(phase, 0.5, out=phase), out=phase)
        table[lo:lo + rows, 0] = 2.0 * (np.square(phase, out=phase) @ wr)
    table[:-1, 2:] = np.diff(table[:, :2], axis=0) / np.diff(deltas)[:, None]
    return deltas, table


def _old_gap_lookup(a, deltas, table):
    last = deltas.size - 1
    log_step = math.log(deltas[-1] / deltas[1]) / (last - 1)
    steps = np.log(np.maximum(a, 0.5 * deltas[1]) / deltas[1]) / log_step
    j = np.clip(np.floor(steps) + 1, 0, last).astype(np.intp)
    j -= a < deltas[j]
    j += a >= np.append(deltas[1:], np.inf)[j]
    rows = table[j]
    return rows[:, 2:] * (a - deltas[j])[:, None] + rows[:, :2]


def _old_cosine_kernel(proj, deltas, table, iu, ju):
    gap = proj[iu] - proj[ju]
    cs = _old_gap_lookup(np.abs(gap), deltas, table)
    c = np.zeros((proj.size, proj.size))
    c[iu, ju] = c[ju, iu] = cs[:, 0]
    return c


def _old_table(beta, span):
    q = QuadConfig(eps=1e-5, tmax=1e2, panels_per_decade=6,
                   points_per_panel=12)
    r, wr_raw = log_panel_grid(q, freq=span)
    f = 1.0 / (2.0 ** beta - 1.0)
    wr = wr_raw * r ** (-1.0 - beta) * np.where(r > q.tmax / 2.0, 1.0 + f, 1.0)
    return _old_kernel_table(r, wr, span)


class TestHTrunc:
    def test_pointwise_bounds_and_monotone(self, rng):
        x = rng.uniform(0.0, 50.0, size=200)
        for beta in (0.5, 1.0, 1.5):
            prev = None
            for m in (0.1, 1.0, 10.0, 1e4, 1e8):
                h = h_trunc(x, m, beta)
                assert np.all(h >= -1e-15)
                assert np.all(h <= x ** (beta / 2.0) + 1e-12)
                if prev is not None:
                    assert np.all(h >= prev - 1e-12)
                prev = h
            # large M recovers the plain power; the gap shrinks like
            # (beta/2) * x * M^(beta/2 - 1)
            m = 1e12
            gap = np.max(np.abs(h_trunc(x, m, beta) - x ** (beta / 2.0)))
            allowance = beta * x.max() * m ** (beta / 2.0 - 1.0) + 1e-9
            assert gap <= allowance

    def test_h_zero_is_zero(self):
        assert h_trunc(0.0, 3.0, 1.0) == 0.0

    def test_errors(self):
        with pytest.raises(ValueError):
            h_trunc(1.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            h_trunc(1.0, 1.0, 2.0)

    @pytest.mark.parametrize("m", [0.0, -1.0, math.nan, math.inf])
    def test_level_must_be_positive_and_finite(self, m):
        with pytest.raises(ValueError, match="^M must be a positive finite "
                           "number, got %g$" % m):
            h_trunc(1.0, m, 1.0)


class TestDcovHm:
    def test_degenerate_zero(self):
        sp = euclidean(1, 1.0)
        sample = PairedSample(np.zeros((5, 1)), np.ones((5, 1)), sp, sp)
        for m in (0.1, 10.0):
            assert dcov_hm(sample, m).value == 0.0

    def test_monotone_and_limit(self, rng):
        x = rng.uniform(size=(40, 2))
        y = x + 0.2 * rng.uniform(size=(40, 2))
        sample = PairedSample(x, y, euclidean(2, 1.0), euclidean(2, 1.0))
        target = dcov_plugin_d1(sample).value
        values = [dcov_hm(sample, m).value
                  for m in (0.01, 0.1, 1.0, 10.0, 1e3)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
        maxd2 = 8.0   # generous bound for unit-box data
        assert dcov_hm(sample, 1e6 * maxd2).value == pytest.approx(target,
                                                                   rel=1e-3)

    def test_errors(self, rng):
        sp = euclidean(1, 1.0)
        sample = PairedSample(rng.normal(size=(5, 1)),
                              rng.normal(size=(5, 1)), sp, sp)
        with pytest.raises(ValueError):
            dcov_hm(sample, -1.0)


class TestDcovCharRVMC:
    def test_product_law_near_zero(self, rng):
        # a full grid of (x, y) pairs makes the empirical law an exact
        # product, so the conditional covariance vanishes draw by draw
        xv = rng.normal(size=8)
        yv = rng.normal(size=8)
        x = np.repeat(xv, 8)[:, None]
        y = np.tile(yv, 8)[:, None]
        sp = euclidean(1, 1.0)
        est = dcov_charrv_mc(PairedSample(x, y, sp, sp), draws=200, seed=5)
        assert abs(est.value) <= max(3.0 * est.stderr, 1e-8)

    def test_multivariate_matches_centered(self, rng):
        n = 80
        x = rng.normal(size=(n, 3))
        y = np.column_stack([x[:, 0] + 0.5 * rng.normal(size=n),
                             rng.normal(size=n)])
        sample = PairedSample(x, y, euclidean(3, 1.0), euclidean(2, 1.0))
        ref = dcov_centered(sample).value
        est = dcov_charrv_mc(sample, draws=800, seed=3)
        assert abs(est.value - ref) <= 3.0 * est.stderr

    def test_deterministic_for_seed(self, rng):
        x = rng.normal(size=(30, 1))
        y = x + rng.normal(size=(30, 1))
        sp = euclidean(1, 1.0)
        sample = PairedSample(x, y, sp, sp)
        a = dcov_charrv_mc(sample, draws=50, seed=9)
        b = dcov_charrv_mc(sample, draws=50, seed=9)
        assert a.value == b.value and a.stderr == b.stderr

    def test_errors(self, rng):
        sp = euclidean(1, 1.0)
        sp2 = euclidean(1, 2.0)
        x = rng.normal(size=(10, 1))
        with pytest.raises(DomainError):
            dcov_charrv_mc(PairedSample(x, x, sp2, sp2), draws=10, seed=1)
        # draws and seed are read only where a part has more than one
        # dimension; with 1-D parts no draw is made
        wide = PairedSample(np.hstack([x, x ** 2]), x, euclidean(2, 1.0), sp)
        with pytest.raises(ValueError, match="2 draws"):
            dcov_charrv_mc(wide, draws=1, seed=1)
        with pytest.raises(ValueError, match="^seed is required unless"):
            dcov_charrv_mc(wide, draws=10)
        one_d = PairedSample(x, x, sp, sp)
        assert (dcov_charrv_mc(one_d, draws=1).value
                == dcov_charrv_mc(one_d, draws=10, seed=1).value)




class TestProjectionDraws:
    """Each draw is the exact 1-D d1 of the projected atoms."""

    @staticmethod
    def _recorded(monkeypatch, sample, draws, seed):
        """dcov_charrv_mc's estimate and the values of its contractions:
        an array of draws per call, or one float for 1-D parts."""
        calls = []

        def record(rows, w, *blocks):
            calls.append(_d1_rows(rows, w, *blocks))
            return calls[-1]

        monkeypatch.setattr(charrv, "_d1_rows", record)
        est = dcov_charrv_mc(sample, draws=draws, seed=seed)
        return est, calls

    @staticmethod
    def _check_draws(vals, sample, draws, seed):
        """Each draw within 1e-12 of its d1 term scale of the dense d1."""
        w, px, py = _projections(sample, draws, seed)
        assert vals.shape == (draws,)
        for i in range(draws):
            t1, t2, t3 = _dense_terms(px[:, i], py[:, i], w, sample.beta)
            scale = abs(t1) + abs(t2) + 2.0 * abs(t3)
            assert abs(vals[i] - (t1 + t2 - 2.0 * t3)) <= 1e-12 * scale

    @_CASES
    def test_each_draw_is_dense_1d_d1(self, monkeypatch, beta, dim, collapsed):
        sample = _case(beta, dim, collapsed)
        est, calls = self._recorded(monkeypatch, sample, 16, 23)
        # at most 40 atoms: all 16 draws fit one stack
        assert len(calls) == 1
        vals = calls[0]
        self._check_draws(vals, sample, 16, 23)
        # the norms enter at their expectation: E|xi|^beta E|eta|^beta
        # over E|N(0,1)|^beta^2, which is 1 when both sides are 1-D
        scale = math.prod(_gaussian_moment(beta, d) / _gaussian_moment(beta)
                          for d in (dim, 2))
        assert scale == pytest.approx(_norm_moment(beta, dim)
                                      * _norm_moment(beta, 2)
                                      / _norm_moment(beta, 1) ** 2,
                                      rel=1e-14)
        assert est.value == float(vals.mean()) * scale
        assert est.stderr == float(vals.std(ddof=1)) / math.sqrt(16) * scale
        assert est.aux == {"draws": 16, "grid_nodes": 0,
                           "atoms": _collapse(sample).n}

    def test_directions_are_bit_identical(self, monkeypatch):
        # unit-vector atoms project to the unit direction coordinates
        # exactly, so the projections seen by the kernels are the
        # normalized directions
        x = np.eye(3)[[0, 1, 2, 0, 1]]
        y = np.eye(2)[[0, 1, 0, 1, 0]]
        sample = PairedSample(x, y, euclidean(3, 1.0), euclidean(2, 1.0))
        seen = []

        def record(p, beta, lo, hi):
            if lo == 0:
                seen.append(p.copy())
            return charrv_gap_rows(p, beta, lo, hi)

        charrv_gap_rows = charrv.gap_rows
        monkeypatch.setattr(charrv, "gap_rows", record)
        dcov_charrv_mc(sample, draws=7, seed=23)
        _, px, py = _projections(sample, 7, 23)
        # one stack of all 7 draws per side, x first
        assert len(seen) == 2
        np.testing.assert_array_equal(seen[0], px.T)
        np.testing.assert_array_equal(seen[1], py.T)
        us, _ = _units(23, 7, 3, 2)
        np.testing.assert_allclose(np.linalg.norm(us, axis=1), 1.0,
                                   rtol=1e-15)
        atoms = _collapse(sample).x
        np.testing.assert_array_equal(px, us[:, atoms.argmax(axis=1)].T)

    def test_gaussian_moment_closed_forms(self):
        # E|xi|^2 = dim; E|xi| = sqrt(pi/2) in R^2; E|N(0,1)|^beta at
        # dim 1; the log-gamma form keeps its digits where Gamma overflows
        for dim in (1, 2, 3, 10):
            assert _gaussian_moment(2.0, dim) == pytest.approx(dim,
                                                               rel=1e-14)
        assert _gaussian_moment(1.0, 2) == pytest.approx(
            math.sqrt(math.pi / 2.0), rel=1e-14)
        for beta in (0.5, 1.0, 1.5):
            assert _gaussian_moment(beta) == pytest.approx(
                2.0 ** (beta / 2.0) * math.gamma((beta + 1.0) / 2.0)
                / math.sqrt(math.pi), rel=1e-14)
        assert _gaussian_moment(2.0, 500) == pytest.approx(500.0, rel=1e-12)

    def test_one_dimensional_parts_are_exact(self, monkeypatch):
        # unit directions in R^1 are +-1, so every draw would be the
        # exact d1: it is contracted once, no draw is made, and it is
        # reported with a stderr of 0
        rng = np.random.default_rng(8)
        x = rng.normal(size=(30, 1))
        y = x + rng.normal(size=(30, 1))
        sample = PairedSample(x, y, euclidean(1, 1.5), euclidean(1, 1.5))
        est, calls = self._recorded(monkeypatch, sample, 2000, 4)
        assert len(calls) == 1 and type(calls[0]) is float
        assert est.stderr == 0.0
        assert est.value == pytest.approx(dcov_plugin_d1(sample).value,
                                          rel=1e-15)
        assert est.aux == {"draws": 0, "grid_nodes": 0, "atoms": 30}

    @pytest.mark.parametrize("per_draw", [3, 1 / 3])
    def test_chunks_that_do_not_divide_the_draws(self, monkeypatch,
                                                 per_draw):
        # a stack of 3 draws (16 = 5 * 3 + 1), or one draw per sweep in
        # row blocks of a third of the kernel
        sample = _case(1.5, 3, False)
        k = _collapse(sample).n
        monkeypatch.setattr(charrv, "STACK_ELEMENTS", int(per_draw * k * k))
        est, calls = self._recorded(monkeypatch, sample, 16, 23)
        assert [c.size for c in calls] == (
            [3] * 5 + [1] if per_draw == 3 else [1] * 16)
        vals = np.concatenate(calls)
        self._check_draws(vals, sample, 16, 23)
        scale = (_gaussian_moment(1.5, 3) * _gaussian_moment(1.5, 2)
                 / _gaussian_moment(1.5) ** 2)
        assert est.value == float(vals.mean()) * scale

    def test_peak_memory_is_a_few_block_stacks(self):
        # n = 200 distinct rows, 64 draws: no draw's kernel is held
        # whole (one stack of 163 of its 200 rows, 255 KB), and the
        # peak stays within five stacks of STACK_ELEMENTS doubles: the
        # two kernel stacks, their product, a power's temporary, and
        # the projections and weights
        rng = np.random.default_rng(2)
        x = rng.normal(size=(200, 3))
        y = x[:, :2] + rng.normal(size=(200, 2))
        sample = PairedSample(x, y, euclidean(3, 1.5), euclidean(2, 1.5))
        tracemalloc.start()
        try:
            dcov_charrv_mc(sample, draws=64, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 5 * 8 * charrv.STACK_ELEMENTS

    @_CASES
    def test_quadrature_cosine_part_within_its_error(self, beta, dim,
                                                     collapsed):
        # the old cosine kernel C is a quadrature of K |gap|^beta with
        # entrywise error E = C - K A. By bilinearity the draws differ by
        # scale_const^2 (d1(E_p, C_q) + K d1(A_p, E_q)), bounded by the
        # same sums over |E| and |C|, with every term taken positive
        sample = _case(beta, dim, collapsed)
        w, px, py = _projections(sample, 16, 23)
        span = max(float(np.ptp(px)), float(np.ptp(py)))
        deltas, table = _old_table(beta, span)
        iu, ju = np.triu_indices(w.size, 1)
        big_k = math.pi / (2.0 * math.gamma(1.0 + beta)
                           * math.sin(math.pi * beta / 2.0))
        k2 = _gaussian_moment(beta) ** 2
        c2 = scale_const(beta) ** 2
        assert c2 * big_k ** 2 * k2 == pytest.approx(1.0, rel=1e-14)

        def size(a, b):
            t1, t2, t3 = (abs(t) for t in _dense_terms_of(a, b, w))
            return t1 + t2 + 2.0 * t3

        for i in range(16):
            a, b = (np.abs(p[:, None] - p[None, :]) ** beta
                    for p in (px[:, i], py[:, i]))
            cp, cq = (_old_cosine_kernel(p, deltas, table, iu, ju)
                      for p in (px[:, i], py[:, i]))
            old = c2 * _contract(cp, cq, w)
            new = _contract(a, b, w) / k2
            err = c2 * (size(np.abs(cp - big_k * a), np.abs(cq))
                        + big_k * size(a, np.abs(cq - big_k * b)))
            assert abs(old - new) <= err
            # the bound is informative: under 20% of the draw's own scale
            assert err <= 0.2 * size(a, b) / k2


def _ref_contract_c(p, q, w):
    """Real part of the three-term contraction of complex kernels p, q."""
    pw = p @ w
    qw = q @ w
    term1 = np.sum(w[:, None] * w[None, :] * (p * q))
    term2 = (w @ pw) * (w @ qw)
    term3 = np.sum(w * (pw * qw))
    return float((term1 + term2 - 2.0 * term3).real)


def _ref_charrv_mc(sample, draws, seed):
    """Reference of dcov_charrv_mc in the double-centred form.

    Each draw centres the dense kernels |gap|^beta of both projections
    to four pieces, a_ij - (a w)_i - (a w)_j + w'a w, and contracts them
    once, sum_ij w_i w_j ca_ij cb_ij: the same d1 as the library's
    three-term sum, reached by other arithmetic. The projections are
    onto unit directions, and the mean is scaled by the norm moments
    E|xi|^beta E|eta|^beta over E|N(0,1)|^beta^2, from math.gamma.
    """
    beta = sample.beta
    w, px, py = _projections(sample, draws, seed)

    def centred(p):
        a = np.abs(p[:, None] - p[None, :]) ** beta
        aw = a @ w
        return a - aw[:, None] - aw[None, :] + w @ aw

    vals = np.array([w @ (centred(px[:, i]) * centred(py[:, i])) @ w
                     for i in range(draws)])
    scale = (_norm_moment(beta, sample.x.shape[1])
             * _norm_moment(beta, sample.y.shape[1])
             / _norm_moment(beta, 1) ** 2)
    return (float(vals.mean()) * scale,
            float(vals.std(ddof=1)) / math.sqrt(draws) * scale)


class TestFoldedTable:
    """dcov_charrv_mc end to end against a dense reference, and the
    complex split of the shared contraction."""

    @pytest.mark.parametrize("beta", [0.5, 1.0, 1.5])
    @pytest.mark.parametrize("dim", [1, 3])
    @pytest.mark.parametrize("collapsed", [False, True])
    def test_matches_four_contraction_reference(self, beta, dim, collapsed):
        sample = _case(beta, dim, collapsed)
        if collapsed:
            assert _collapse(sample).n <= 12
        est = dcov_charrv_mc(sample, draws=16, seed=23)
        ref_value, ref_stderr = _ref_charrv_mc(sample, draws=16, seed=23)
        assert est.value == pytest.approx(ref_value, rel=1e-10)
        assert est.stderr == pytest.approx(ref_stderr, rel=1e-10)

    def test_complex_split_of_contraction(self, rng):
        # a Hermitian kernel -C + iS has C symmetric and S antisymmetric;
        # the real part of the contraction of two of them is
        # d1(C_p, C_q) - d1(S_p, S_q)
        def hermitian(k):
            c = rng.normal(size=(k, k))
            s = rng.normal(size=(k, k))
            return c + c.T, s - s.T

        for k in (2, 5, 30):
            w = rng.dirichlet(np.ones(k))
            cp, sp = hermitian(k)
            cq, sq = hermitian(k)
            whole = _ref_contract_c(-cp + 1j * sp, -cq + 1j * sq, w)
            split = _contract(cp, cq, w) - _contract(sp, sq, w)
            assert split == pytest.approx(whole, rel=1e-12, abs=1e-12)
