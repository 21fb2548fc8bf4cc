import math
import tracemalloc

import numpy as np
import pytest

from betadcov import (DiscreteJoint, DomainError, PairedSample, QuadConfig,
                      char_rv, dcov_centered, dcov_charrv_mc, dcov_hm,
                      dcov_plugin_d1, euclidean, h_trunc, mean_sq_char_gap,
                      mean_sq_char_gap_mc, scale_const)
from betadcov.charfn import log_panel_grid
from betadcov.charrv import _collapse, _gap_lookup, _kernel_table
from betadcov.exact import _d1_contract


# Reference copy of the four-contraction projection estimator: np.interp
# gap kernels, one complex contraction per pair of full/half kernels and
# the Richardson tail added afterwards. The library folds the tail into
# one table and splits the complex contraction into two real ones.

def _ref_tables(r, wr, tmax, delta_max):
    if delta_max <= 0:
        delta_max = 1.0
    deltas = np.concatenate([[0.0],
                             np.geomspace(delta_max * 1e-9, delta_max, 4096)])
    phase = np.outer(deltas, r)
    cosm = 1.0 - np.cos(phase)
    sinm = np.sin(phase)
    half = wr * (r <= tmax / 2.0)
    return deltas, (cosm @ wr, sinm @ wr, cosm @ half, sinm @ half)


def _ref_gap_kernel(proj, deltas, ctab, stab):
    gap = proj[:, None] - proj[None, :]
    a = np.abs(gap)
    c = np.interp(a, deltas, ctab)
    s = np.interp(a, deltas, stab)
    return -c + 1j * np.sign(gap) * s


def _ref_contract_c(p, q, w):
    pw = p @ w
    qw = q @ w
    term1 = np.sum(w[:, None] * w[None, :] * (p * q))
    term2 = (w @ pw) * (w @ qw)
    term3 = np.sum(w * (pw * qw))
    return float((term1 + term2 - 2.0 * term3).real)


def _ref_setup(sample, draws, seed):
    """Atom weights, projections and weighted nodes, drawn as the library
    draws them."""
    q = QuadConfig(eps=1e-5, tmax=1e2, panels_per_decade=6,
                   points_per_panel=12)
    x, y, w = _collapse(sample.x, sample.y)
    streams = [np.random.default_rng(s)
               for s in np.random.SeedSequence(seed).spawn(draws)]
    xis = np.stack([rg.standard_normal(x.shape[1]) for rg in streams])
    etas = np.stack([rg.standard_normal(y.shape[1]) for rg in streams])
    px = x @ xis.T
    py = y @ etas.T
    span = max(float(px.max() - px.min()), float(py.max() - py.min()))
    r, wr_raw = log_panel_grid(q, freq=span)
    return w, px, py, span, r, wr_raw * r ** (-1.0 - sample.beta), q.tmax


def _ref_charrv_mc(sample, draws, seed):
    beta = sample.beta
    w, px, py, span, r, wr, tmax = _ref_setup(sample, draws, seed)
    deltas, (c_full, s_full, c_half, s_half) = _ref_tables(r, wr, tmax, span)
    f = 1.0 / (2.0 ** beta - 1.0)
    vals = np.empty(draws)
    for i in range(draws):
        p_full = _ref_gap_kernel(px[:, i], deltas, c_full, s_full)
        p_half = _ref_gap_kernel(px[:, i], deltas, c_half, s_half)
        q_full = _ref_gap_kernel(py[:, i], deltas, c_full, s_full)
        q_half = _ref_gap_kernel(py[:, i], deltas, c_half, s_half)
        v_ff = _ref_contract_c(p_full, q_full, w)
        v_hf = _ref_contract_c(p_half, q_full, w)
        v_fh = _ref_contract_c(p_full, q_half, w)
        v_hh = _ref_contract_c(p_half, q_half, w)
        tail = (2.0 * v_ff - v_hf - v_fh) * f \
            + (v_ff - v_hf - v_fh + v_hh) * f * f
        vals[i] = v_ff + tail
    c2 = scale_const(beta) ** 2
    return (c2 * float(vals.mean()),
            c2 * float(vals.std(ddof=1) / math.sqrt(draws)))


def _longdouble_charrv_mc(sample, draws, seed):
    """The same discretisation with tables, lookups and contractions in
    extended precision: an accuracy oracle for both float64 forms."""
    ld = np.longdouble
    beta = sample.beta
    w, px, py, span, r, wr, tmax = _ref_setup(sample, draws, seed)
    f = 1 / (ld(2) ** ld(beta) - 1)
    wf = wr.astype(ld) * np.where(r > tmax / 2.0, 1 + f, ld(1))
    deltas = np.concatenate([[0.0], np.geomspace(span * 1e-9, span, 4096)])
    tabs = np.empty((2, deltas.size), dtype=ld)
    for lo in range(0, deltas.size, 256):
        phase = np.outer(deltas[lo:lo + 256].astype(ld), r.astype(ld))
        tabs[0, lo:lo + 256] = 2 * np.sin(phase / 2) ** 2 @ wf
        tabs[1, lo:lo + 256] = np.sin(phase) @ wf
    w = w.astype(ld)

    def kernels(proj):
        gap = proj[:, None] - proj[None, :]
        a = np.abs(gap)
        j = np.clip(np.searchsorted(deltas, a, side="right") - 1,
                    0, deltas.size - 2)
        t = (a - deltas[j]).astype(ld) / (deltas[j + 1] - deltas[j])
        c, s = (tab[j] + t * (tab[j + 1] - tab[j]) for tab in tabs)
        return c, np.sign(gap) * s

    def contract(a, b):
        aw = a @ w
        bw = b @ w
        return (np.sum(w[:, None] * w[None, :] * (a * b))
                + (w @ aw) * (w @ bw) - 2 * np.sum(w * (aw * bw)))

    vals = []
    for i in range(draws):
        cp, sp = kernels(px[:, i])
        cq, sq = kernels(py[:, i])
        vals.append(contract(cp, cq) - contract(sp, sq))
    vals = np.array(vals)
    c2 = ld(scale_const(beta)) ** 2
    return (float(c2 * vals.mean()),
            float(c2 * vals.std(ddof=1) / np.sqrt(ld(draws))))


class TestCharRV:
    def test_degenerate_at_zero(self):
        for r in (0.0, 1.0, 7.5):
            assert char_rv(np.zeros((5, 2)), np.full(5, 0.2),
                           [1.0, -1.0], r) == 1.0

    def test_r_zero(self, rng):
        pts = rng.normal(size=(6, 3))
        assert char_rv(pts, np.full(6, 1 / 6), rng.normal(size=3), 0.0) == 1.0

    def test_symmetric_two_atom_is_cosine(self):
        pts = np.array([[-1.0], [1.0]])
        for r in (0.3, 1.0, 4.0):
            val = char_rv(pts, [0.5, 0.5], [0.7], r)
            assert val == pytest.approx(np.cos(r * 0.7), abs=1e-14)

    def test_modulus_bounded(self, rng):
        pts = rng.normal(size=(10, 2)) * 5
        w = rng.dirichlet(np.ones(10))
        for _ in range(30):
            val = char_rv(pts, w, rng.standard_normal(2), rng.uniform(0, 10))
            assert abs(val) <= 1.0 + 1e-12

    def test_factorization_under_independence(self, rng):
        # for a product law the joint characteristic value splits into the
        # product of the marginals, draw by draw
        joint = DiscreteJoint.product(rng.normal(size=(3, 2)), [0.2, 0.3, 0.5],
                                      rng.normal(size=(2, 1)), [0.4, 0.6],
                                      euclidean(2, 1.0), euclidean(1, 1.0))
        for _ in range(10):
            xi = rng.standard_normal(2)
            eta = rng.standard_normal(1)
            r, s = rng.uniform(0.1, 3.0, size=2)
            w = joint.probs
            px = joint.x_atoms @ xi
            py = joint.y_atoms @ eta
            together = np.sum(w * np.exp(1j * (r * px + s * py)))
            apart = (char_rv(joint.x_atoms, w, xi, r)
                     * char_rv(joint.y_atoms, w, eta, s))
            assert abs(together - apart) <= 1e-12


class TestCharGapIdentity:
    def test_exact_matches_monte_carlo(self, rng):
        joint = DiscreteJoint(rng.normal(size=(4, 2)),
                              rng.normal(size=(4, 2)),
                              np.full(4, 0.25),
                              euclidean(2, 1.0), euclidean(2, 1.0))
        for r, s in ((0.5, 0.5), (1.0, 2.0), (3.0, 0.7)):
            ex = mean_sq_char_gap(joint, r, s)
            mc, se = mean_sq_char_gap_mc(joint, r, s, draws=4000, seed=11)
            assert abs(mc - ex) <= 3.0 * se

    def test_product_law_gap_zero(self, rng):
        joint = DiscreteJoint.product(rng.normal(size=(2, 1)), [0.5, 0.5],
                                      rng.normal(size=(3, 1)), [0.2, 0.3, 0.5],
                                      euclidean(1, 1.0), euclidean(1, 1.0))
        assert mean_sq_char_gap(joint, 1.0, 1.0) == pytest.approx(0.0,
                                                                  abs=1e-14)


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
        with pytest.raises(ValueError):
            dcov_charrv_mc(PairedSample(x, x, sp, sp), draws=1, seed=1)
        with pytest.raises(ValueError):
            dcov_charrv_mc(PairedSample(x, x, sp, sp), draws=10)


class TestFoldedTable:
    @pytest.mark.parametrize("beta", [0.5, 1.0, 1.5])
    @pytest.mark.parametrize("dim", [1, 3])
    @pytest.mark.parametrize("collapsed", [False, True])
    def test_matches_four_contraction_reference(self, beta, dim, collapsed):
        rng = np.random.default_rng([17, dim, int(collapsed)])
        n = 40
        if collapsed:
            # 4 x atoms and 3 y atoms, y following x: at most 12 distinct
            # rows, and rows sharing an x give off-diagonal zero gaps
            ix = rng.integers(0, 4, n)
            iy = (ix + (rng.uniform(size=n) < 0.25)) % 3
            x = rng.normal(size=(4, dim))[ix]
            y = rng.normal(size=(3, 2))[iy]
            assert _collapse(x, y)[2].size <= 12
        else:
            x = rng.normal(size=(n, dim))
            y = np.column_stack([x[:, 0] + 0.5 * rng.normal(size=n),
                                 rng.normal(size=n)])
        sample = PairedSample(x, y, euclidean(dim, beta), euclidean(2, beta))
        est = dcov_charrv_mc(sample, draws=16, seed=23)
        ref_value, ref_stderr = _ref_charrv_mc(sample, draws=16, seed=23)
        # above beta = 1 the reference itself rounds at about 1e-10: its
        # 1 - cos table loses digits near gap 0 under the r^(-1-beta)
        # weight, and its uncentered sine kernels carry a part linear in
        # the gap (about 632 * gap at beta = 1.5) that the contraction has
        # to cancel; the extended-precision evaluation pins the library
        rel = 1e-10 if beta <= 1.0 else 1e-9
        assert est.value == pytest.approx(ref_value, rel=rel)
        assert est.stderr == pytest.approx(ref_stderr, rel=rel)
        if beta > 1.0 and np.finfo(np.longdouble).eps < 1e-18:
            ld_value, ld_stderr = _longdouble_charrv_mc(sample, 16, 23)
            assert est.value == pytest.approx(ld_value, rel=1e-10)
            assert est.stderr == pytest.approx(ld_stderr, rel=1e-10)

    def test_lookup_matches_interp(self, rng):
        span = 3.7
        r = np.geomspace(1e-3, 50.0, 300)
        deltas, table = _kernel_table(r, rng.uniform(0.5, 1.5, r.size), span)
        assert deltas[-1] == span
        a = np.concatenate([
            [0.0, 0.0],                                   # gap 0
            deltas[1] * np.array([1e-6, 0.3, 0.999999]),  # below deltas[1]
            deltas[1:],                                   # on every node
            [span, span],                                 # at the span
            rng.uniform(0.0, span, 5000),
            span * rng.uniform(0.0, 1.0, 2000) ** 8])
        got = _gap_lookup(a, deltas, table)
        for col in (0, 1):
            ref = np.interp(a, deltas, table[:, col])
            np.testing.assert_allclose(got[:, col], ref, rtol=1e-14, atol=0)
        assert np.all(got[:2] == 0.0)

    def test_table_build_memory_is_bounded(self, rng):
        # the dense 4097 x 10000 phase matrix alone would take 328 MB
        r = np.geomspace(1e-5, 1e2, 10_000)
        tracemalloc.start()
        try:
            _kernel_table(r, rng.uniform(size=r.size), 5.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40e6

    def test_complex_split_of_contraction(self, rng):
        def hermitian(k):
            c = rng.normal(size=(k, k))
            s = rng.normal(size=(k, k))
            return c + c.T, s - s.T

        for k in (2, 5, 30):
            w = rng.dirichlet(np.ones(k))
            cp, sp = hermitian(k)
            cq, sq = hermitian(k)
            whole = _ref_contract_c(-cp + 1j * sp, -cq + 1j * sq, w)
            split = _d1_contract(cp, cq, w) - _d1_contract(sp, sq, w)
            assert split == pytest.approx(whole, rel=1e-12, abs=1e-12)
