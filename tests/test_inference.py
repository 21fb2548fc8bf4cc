import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from betadcov import (DiscreteJoint, MomentFlags, PairedSample,
                      consistency_sweep, dcov_exact, euclidean, perm_test,
                      regime_classify, tail_diagnostic)
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

    def test_refuses_beyond_physical_memory_before_allocating(self):
        phys = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        # the smallest n whose four n x n float64 matrices exceed memory
        n = math.isqrt(phys // 32) + 1
        x = np.linspace(0.0, 1.0, n)
        sample = make_sample(x, x[::-1])
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"needs about %d bytes"
                               % (32 * n * n)):
                perm_test(sample, B=19, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1e6


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

    def test_centered_variant_agrees(self, bernoulli_joint):
        t1 = consistency_sweep(bernoulli_joint, [500], seeds=[5], method="d1")
        t2 = consistency_sweep(bernoulli_joint, [500], seeds=[5],
                               method="centered")
        assert t1.rows[0][1] == pytest.approx(t2.rows[0][1], abs=1e-12)

    @given(st.integers(3, 10), st.integers(0, 2 ** 32 - 1),
           st.sampled_from([0.5, 1.0, 1.5]))
    def test_property_centered_equals_d1_with_zero_weights(self, k, seed,
                                                           beta):
        joint = random_joint(np.random.default_rng(seed), support=k,
                             beta=beta)
        # fewer draws than atoms, so every replicate leaves atoms with
        # zero weight; one seed per sweep makes each median one replicate
        schedule = list(range(1, k))
        d1 = consistency_sweep(joint, schedule, [seed], method="d1")
        centered = consistency_sweep(joint, schedule, [seed],
                                     method="centered")
        # the weights sum to 1, so max a * max b bounds every term
        scale = joint.x_dist().max() * joint.y_dist().max() + 1e-300
        for row_d1, row_c in zip(d1.rows, centered.rows):
            assert abs(row_c[1] - row_d1[1]) <= 1e-10 * scale

    def test_validation(self, bernoulli_joint):
        with pytest.raises(ValueError):
            consistency_sweep(bernoulli_joint, [], seeds=[1])
        with pytest.raises(ValueError):
            consistency_sweep(bernoulli_joint, [100, 10], seeds=[1])
        with pytest.raises(ValueError):
            consistency_sweep(bernoulli_joint, [10], seeds=[1], method="bad")


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


class TestRegimeClassify:
    def test_all_moments_finite(self):
        rep = regime_classify(MomentFlags(x_beta=True, y_beta=True, prod=True,
                                          x_2beta=True, y_2beta=True))
        assert rep.def1 == rep.def2 == rep.def3 == FINITE

    def test_diagonal_heavy_tail_undefined(self):
        rep = regime_classify(MomentFlags(x_2beta=False, x_beta=True,
                                          hx_l1=True, y_equals_x=True))
        assert rep.def1 == UNDEFINED

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
