import math
import os
import tracemalloc

import numpy as np
import pytest

from betadcov import (DiscreteJoint, MomentFlags, PairedSample,
                      consistency_sweep, dcor, dcov_centered, dcov_exact,
                      euclidean, exact, inference, pairwise_distances,
                      perm_test, regime_classify, tail_diagnostic)
from betadcov.inference import (FINITE, PLUS_INF, TTILDE_UNDEFINED, UNDEFINED,
                                UNKNOWN)
from conftest import random_joint

SP1 = euclidean(1, 1.0)


def make_sample(x, y):
    return PairedSample(np.asarray(x, dtype=float).reshape(len(x), -1),
                        np.asarray(y, dtype=float).reshape(len(y), -1),
                        SP1, SP1)


class TestPermTest:
    def test_constant_y_p_value_one(self, rng):
        x = rng.normal(size=20)
        res = perm_test(make_sample(x, np.zeros(20)), B=99, seed=1)
        assert res.observed == 0.0
        assert res.p_value == 1.0

    def test_p_value_grid(self, rng):
        x = rng.normal(size=30)
        y = rng.normal(size=30)
        res = perm_test(make_sample(x, y), B=19, seed=2)
        assert res.p_value in {k / 20 for k in range(1, 21)}

    def test_dependent_sample_rejects(self, rng):
        x = rng.normal(size=100)
        res = perm_test(make_sample(x, x), B=199, seed=3)
        assert res.p_value <= 0.05

    def test_statistic_invariant_under_joint_relabeling(self, rng):
        x = rng.normal(size=25)
        y = x + rng.normal(size=25)
        perm = rng.permutation(25)
        a = perm_test(make_sample(x, y), B=19, seed=4).observed
        b = perm_test(make_sample(x[perm], y[perm]), B=19, seed=4).observed
        assert a == pytest.approx(b, abs=1e-14)

    def test_null_p_values_roughly_uniform(self, rng):
        # Kolmogorov-Smirnov distance between the null p-value sample and
        # the uniform law stays small
        ps = []
        for run in range(200):
            r = np.random.default_rng([77, run])
            x = r.normal(size=40)
            y = r.normal(size=40)
            ps.append(perm_test(make_sample(x, y), B=99, seed=run).p_value)
        ps = np.sort(ps)
        grid = np.arange(1, 201) / 200
        ks = np.max(np.abs(ps - grid))
        assert ks < 0.1

    def test_validation(self, rng):
        x = rng.normal(size=10)
        with pytest.raises(ValueError):
            perm_test(make_sample(x[:3], x[:3]), B=99, seed=1)
        with pytest.raises(ValueError):
            perm_test(make_sample(x, x), B=5, seed=1)
        with pytest.raises(ValueError):
            perm_test(make_sample(x, x), B=99)

    def test_refuses_unequal_weights(self):
        # relabeling rows treats them as exchangeable, which unequal
        # weights are not; equal weights from a prob column are a sample
        x = np.arange(8.0)
        sp = euclidean(1, 1.0)
        w = np.arange(1.0, 9.0)
        with pytest.raises(ValueError, match="^the permutation test needs "
                           "equally weighted points$"):
            perm_test(DiscreteJoint(x, x ** 2, w / w.sum(), sp, sp), B=19,
                      seed=1)
        equal = perm_test(DiscreteJoint(x, x ** 2, np.full(8, 0.125), sp, sp),
                          B=19, seed=1)
        assert equal == perm_test(make_sample(x, x ** 2), B=19, seed=1)

    def test_refuses_beyond_physical_memory_before_allocating(self):
        phys = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        B = 19
        # the smallest n whose one n x n float64 matrix and B int64
        # permutations of n exceed memory
        n = math.isqrt(phys // 8) - B
        while 8 * n * (n + B) <= phys:
            n += 1
        x = np.linspace(0.0, 1.0, n)
        sample = make_sample(x, x[::-1])
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"at n=%d, B=%d needs about "
                               r"%d bytes" % (n, B, 8 * n * (n + B))):
                perm_test(sample, B=B, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    def test_refuses_permutations_beyond_physical_memory(self):
        phys = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        n = 100
        B = phys // (8 * n)
        x = np.linspace(0.0, 1.0, n)
        with pytest.raises(ValueError, match="and the permutations"):
            perm_test(make_sample(x, x[::-1]), B=B, seed=1)

    def test_holds_one_matrix(self, rng):
        n = 3000
        x = rng.normal(size=(n, 3))
        y = x[:, :2] + rng.normal(size=(n, 2))
        sample = PairedSample(x, y, euclidean(3, 1.0), euclidean(2, 1.0))
        tracemalloc.start()
        try:
            perm_test(sample, B=19, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the centered y kernel is 72 MB; four dense matrices were 288 MB
        assert peak < 80e6

    @pytest.mark.parametrize("beta", [0.5, 1.0, 1.5])
    def test_homogeneous_in_scale(self, rng, beta):
        x = rng.normal(size=(60, 2))
        y = x[:, :1] + rng.normal(size=(60, 1))
        spx, spy = euclidean(2, beta), euclidean(1, beta)
        base = perm_test(PairedSample(x, y, spx, spy), B=99, seed=6)
        for c in (0.25, 4.0):
            scaled = perm_test(PairedSample(c * x, y, spx, spy), B=99, seed=6)
            assert scaled.observed == pytest.approx(
                c ** beta * base.observed, rel=1e-13)
            assert scaled.p_value == base.p_value


class TestScaleLadder:
    """p-values and dcor do not depend on the data scale.

    The ladder multiplies both sides by 2^k, which is exact. Its band
    keeps every distance of the sample within [2^-500, 2^500]: every
    squared distance then lies in [2^-1000, 2^1000], and for beta <= 1
    every kernel entry, every product of two centered entries (at most
    4 max kernel each) and every sum of n^2 such products are normal
    doubles.
    """

    @staticmethod
    def _ladder(x, y):
        d = np.concatenate([pairwise_distances(p, euclidean(p.shape[1], 1.0))
                            .ravel() for p in (x, y)])
        lo = -500 - math.floor(math.log2(d[d > 0].min()))
        hi = 500 - math.ceil(math.log2(d.max()))
        # even k, so that at beta = 1/2 the kernels scale by 2^(k/2) too
        lo, hi = lo + lo % 2, hi - hi % 2
        assert lo <= -480 and hi >= 490
        return sorted({lo, -300, -100, 0, 100, 300, hi})

    @staticmethod
    def _sample(rng, beta):
        x = rng.normal(size=(120, 2))
        y = x[:, :1] + rng.normal(size=(120, 2))
        return x, y, euclidean(2, beta)

    @pytest.mark.parametrize("beta", [0.5, 1.0])
    def test_perm_test_p_value(self, rng, beta):
        x, y, sp = self._sample(rng, beta)
        base = perm_test(PairedSample(x, y, sp, sp), B=99, seed=4)
        assert base.p_value == 0.01
        for k in self._ladder(x, y):
            c = 2.0 ** k
            res = perm_test(PairedSample(c * x, c * y, sp, sp), B=99, seed=4)
            assert res.p_value == base.p_value
            assert res.observed == pytest.approx(
                c ** (2 * beta) * base.observed, rel=1e-12)

    @pytest.mark.parametrize("beta", [0.5, 1.0])
    def test_dcor(self, rng, beta):
        x, y, sp = self._sample(rng, beta)
        base = dcor(PairedSample(x, y, sp, sp))
        for k in self._ladder(x, y):
            c = 2.0 ** k
            value = dcor(PairedSample(c * x, c * y, sp, sp))
            assert value == pytest.approx(base, rel=1e-15)


def _dense_perm_test(sample, B, seed):
    """The perm_test that held four n x n matrices, verbatim from its
    centering on; returns (observed, p_value)."""
    n = sample.n
    w = np.full(n, 1.0 / n)

    def _centered_kernel(a, w):
        aw = a @ w
        grand = float(w @ aw)
        return a - aw[:, None] - aw[None, :] + grand

    ca = _centered_kernel(sample.x_dist(), w)
    cb = _centered_kernel(sample.y_dist(), w)
    scale = 1.0 / (n * n)
    observed = float(np.sum(ca * cb)) * scale
    rng = np.random.default_rng(seed)
    exceed = 0
    for _ in range(B):
        perm = rng.permutation(n)
        stat = float(np.sum(ca * cb[np.ix_(perm, perm)])) * scale
        if stat >= observed:
            exceed += 1
    return observed, (1 + exceed) / (B + 1)


def _exact_lattice_p_value(x, y, B, seed):
    """Permutation p-value of 0/1 data, counted in integers.

    With a, b the 0/1 kernels, row sums ra, rb and totals Sa, Sb, n^4
    times the statistic of relabeling p is the integer n^2 sum a_ij
    b_p(i)p(j) - 2n sum_i ra_i rb_p(i) + Sa Sb.
    """
    n = len(x)
    a = (x[:, None] != x[None, :]).astype(np.int64)
    b = (y[:, None] != y[None, :]).astype(np.int64)
    ra, rb = a.sum(axis=1), b.sum(axis=1)

    def stat(p):
        return (n * n * int(np.sum(a * b[np.ix_(p, p)]))
                - 2 * n * int(ra @ rb[p]) + int(ra.sum()) * int(rb.sum()))

    observed = stat(np.arange(n))
    rng = np.random.default_rng(seed)
    exceed = sum(stat(rng.permutation(n)) >= observed for _ in range(B))
    return (1 + exceed) / (B + 1)


class TestPermTestAgainstDense:
    @pytest.mark.parametrize("n,B,dependent,betas", [
        (4, 199, False, (0.5, 1.0, 1.5)), (4, 199, True, (0.5, 1.0, 1.5)),
        (17, 199, False, (0.5, 1.0, 1.5)), (17, 199, True, (0.5, 1.0, 1.5)),
        (700, 199, True, (1.0,)), (700, 199, False, (0.5,)),
        (3000, 19, False, (1.0,))])
    def test_continuous_p_values_identical(self, n, B, dependent, betas):
        rng = np.random.default_rng([n, dependent])
        x = rng.normal(size=(n, 3))
        y = rng.normal(size=(n, 2)) + (x[:, :2] if dependent else 0.0)
        for beta in betas:
            sample = PairedSample(x, y, euclidean(3, beta),
                                  euclidean(2, beta))
            res = perm_test(sample, B=B, seed=n + 1)
            observed, p = _dense_perm_test(sample, B=B, seed=n + 1)
            assert res.p_value == p
            assert res.observed == pytest.approx(observed, rel=1e-14)
            assert res.observed == pytest.approx(
                dcov_centered(sample).value, rel=1e-14)

    @pytest.mark.parametrize("n", [4, 17, 40, 120, 300])
    @pytest.mark.parametrize("beta", [0.5, 1.0])
    def test_lattice_p_values_count_ties_exactly(self, n, beta):
        sp = euclidean(1, beta)
        for run in range(6):
            rng = np.random.default_rng([n, run])
            x = rng.integers(0, 2, size=n).astype(float)
            # flip a share of the labels: from independent to identical y
            flip = rng.random(n) < (0.5, 0.3, 0.1)[run % 3]
            y = np.where(flip, 1.0 - x, x)
            res = perm_test(PairedSample(x[:, None], y[:, None], sp, sp),
                            B=99, seed=run)
            assert res.p_value == _exact_lattice_p_value(x, y, 99, run)


class TestConsistencySweep:
    def test_degenerate_joint_zero_error(self):
        joint = DiscreteJoint([[3.0]], [[1.0]], [1.0], SP1, SP1)
        trace = consistency_sweep(joint, [10, 100], seeds=[1, 2])
        assert trace.population == 0.0
        assert all(err == 0.0 for _, _, err in trace.rows)

    def test_product_joint_estimates_shrink(self, rng):
        joint = DiscreteJoint.product([[0.0], [1.0]], [0.5, 0.5],
                                      [[0.0], [1.0]], [0.5, 0.5], SP1, SP1)
        trace = consistency_sweep(joint, [100, 10000], seeds=[1, 2, 3])
        assert trace.population == pytest.approx(0.0, abs=1e-15)
        assert trace.rows[1][2] < trace.rows[0][2]

    def test_validation(self, bernoulli_joint):
        with pytest.raises(ValueError):
            consistency_sweep(bernoulli_joint, [], seeds=[1])
        with pytest.raises(ValueError):
            consistency_sweep(bernoulli_joint, [100, 10], seeds=[1])

    @pytest.mark.parametrize("schedule, seeds, message", [
        ([0, 10], [1], "sample sizes must be positive"),
        ([-5], [1], "sample sizes must be positive"),
        ([10], [], "need at least one seed")])
    def test_refuses_sizes_below_one_and_no_seeds(self, bernoulli_joint,
                                                 schedule, seeds, message):
        with pytest.raises(ValueError, match="^%s$" % message):
            consistency_sweep(bernoulli_joint, schedule, seeds)

    def test_counts_are_multinomial_draws(self, rng, monkeypatch):
        # every replicate is a column of one k x R weight matrix: the
        # counts of Multinomial(n, probs) from the generator [seed, n],
        # over n, in schedule order, then seed
        joint = random_joint(rng, support=5)
        seen = []

        def record(rows, w):
            seen.append(w.copy())
            return exact_d1_rows(rows, w)

        exact_d1_rows = inference._d1_rows
        monkeypatch.setattr(inference, "_d1_rows", record)
        consistency_sweep(joint, [7, 300], [4, 9])
        population, replicates = seen
        np.testing.assert_array_equal(population, joint.probs)
        expected = [np.random.default_rng([s, n]).multinomial(n, joint.probs)
                    / n for n in (7, 300) for s in (4, 9)]
        np.testing.assert_array_equal(replicates, np.transpose(expected))

    def test_sweeps_columns_in_chunks(self, rng, monkeypatch):
        # past SWEEP_COLUMN_ELEMENTS weights a sweep takes the next chunk
        # of columns; the report does not depend on the chunking
        joint = random_joint(rng, support=6)
        whole = consistency_sweep(joint, [10, 20, 30], [1, 2, 3])
        widths = []

        def record(rows, w):
            widths.append(w.shape)
            return exact_d1_rows(rows, w)

        exact_d1_rows = inference._d1_rows
        monkeypatch.setattr(inference, "_d1_rows", record)
        monkeypatch.setattr(inference, "SWEEP_COLUMN_ELEMENTS", 6 * 4)
        chunked = consistency_sweep(joint, [10, 20, 30], [1, 2, 3])
        assert widths == [(6,), (6, 4), (6, 4), (6, 1)]
        assert chunked.population == whole.population
        for row_c, row_w in zip(chunked.rows, whole.rows):
            assert row_c[0] == row_w[0]
            assert row_c[1:] == pytest.approx(row_w[1:], rel=1e-12,
                                              abs=1e-15)

    def test_holds_no_k_by_k_matrix(self, rng, monkeypatch):
        k = 1000
        joint = random_joint(rng, support=k, dim_x=2, dim_y=2)
        # one byte short of two 8 MB distance matrices, which the sweep
        # does not build: it sweeps kernel rows
        monkeypatch.setattr(exact, "_physical_memory",
                            lambda: 16 * k * k - 1)
        # np.median imports numpy.ma (about 1 MB) on its first call;
        # make that call before the window, which then counts the sweep
        np.median(np.ones(3))
        tracemalloc.start()
        try:
            trace = consistency_sweep(joint, [10, 100], seeds=[1, 2])
            assert trace.population == dcov_exact(joint, "d1").value
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1e6


class TestTailDiagnostic:
    def test_all_zero(self):
        assert tail_diagnostic(np.zeros((10, 1)), SP1) == 0.0

    def test_matches_brute_force(self, rng):
        x = rng.lognormal(size=(30, 2))
        spec = euclidean(2, 0.7)
        norms = np.linalg.norm(x, axis=1)
        brute = np.mean([min(norms[i], norms[j]) ** 1.4
                         for i in range(30) for j in range(30) if i < j])
        assert tail_diagnostic(x, spec) == pytest.approx(brute, rel=1e-12)

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            tail_diagnostic([[1.0]], SP1)

    def test_overflow_is_refused(self):
        # |x|^(2 beta) overflows to inf, and the largest norm's pair
        # count 0 times inf would be NaN; numpy warns on the way there
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(exact.DomainError,
                              match="^result is not finite"):
            tail_diagnostic([[1e300], [-1e300], [2e300]], SP1)


class TestRegimeClassify:
    def test_all_moments_finite(self):
        rep = regime_classify(MomentFlags(x_beta=True, y_beta=True, prod=True,
                                          x_2beta=True, y_2beta=True))
        assert rep.def1 == rep.def2 == rep.def3 == FINITE

    def test_diagonal_heavy_tail_undefined(self):
        rep = regime_classify(MomentFlags(x_2beta=False, x_beta=True,
                                          hx_l1=True, y_equals_x=True))
        assert rep.def1 == UNDEFINED

    @pytest.mark.parametrize("flags", [
        MomentFlags(hx_l2=False, y_equals_x=True),
        MomentFlags(hy_l1=True, hy_l2=False, y_equals_x=True)])
    def test_diagonal_equalities_cross_after_propagation(self, flags):
        # hx_l2 (= hy_l2) False forces x_2beta False, which on the
        # diagonal is the product moment
        assert regime_classify(flags).def1 == UNDEFINED

    def test_diagonal_l1_not_l2_is_infinite(self):
        rep = regime_classify(MomentFlags(hx_l1=True, hx_l2=False,
                                          y_equals_x=True))
        assert rep.def2 == PLUS_INF
        assert rep.def3 == PLUS_INF

    def test_diagonal_not_l1(self):
        rep = regime_classify(MomentFlags(hx_l1=False, y_equals_x=True))
        assert rep.def2 == PLUS_INF
        assert rep.def3 == TTILDE_UNDEFINED

    def test_off_diagonal_open_cell_reports_unknown(self):
        rep = regime_classify(MomentFlags(hx_l1=True, hy_l1=True,
                                          hx_l2=False, hy_l2=True))
        assert rep.def3 == UNKNOWN
        assert any("open" in note for note in rep.notes)

    def test_lattice_propagation(self):
        # finite 2 beta moments push everything downstream to finite
        rep = regime_classify(MomentFlags(x_2beta=True, y_2beta=True))
        assert rep.def1 == FINITE
        assert rep.def2 == FINITE
        assert rep.def3 == FINITE

    def test_missing_kernel_info_is_unknown(self):
        rep = regime_classify(MomentFlags())
        assert rep.def1 == UNKNOWN
        assert rep.def3 == UNKNOWN

    def test_inconsistent_flags_raise(self):
        with pytest.raises(ValueError):
            regime_classify(MomentFlags(x_2beta=True, x_beta=False))
        with pytest.raises(ValueError):
            regime_classify(MomentFlags(hx_l2=True, hx_l1=False))
        with pytest.raises(ValueError):
            regime_classify(MomentFlags(x_beta=True, y_beta=False,
                                        y_equals_x=True))
