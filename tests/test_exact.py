import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from betadcov import (DiscreteJoint, consistency_sweep, dcov_exact, euclidean,
                      exact, hhat_eval, pairwise_distances, projection_demo,
                      table, ttilde_eval)
from betadcov.exact import _centered_products, _d1_rows
from betadcov.metric import gap_rows, row_blocks
from conftest import random_joint, random_table_joint

SP1 = euclidean(1, 1.0)


def test_specs_with_different_beta_are_refused():
    # a joint used to report the x beta; a sample always refused
    with pytest.raises(ValueError, match="^x and y specs must share one "
                       "beta$"):
        DiscreteJoint([[0.0], [1.0]], [[0.0], [1.0]], [0.5, 0.5], SP1,
                      euclidean(1, 0.5))


class TestHhat:
    def test_all_equal(self):
        assert hhat_eval(2.0, 2.0, 2.0, 2.0, SP1) == 0.0

    def test_alternating_cancellation(self):
        assert hhat_eval(0.0, 1.0, 0.0, 1.0, SP1) == 0.0
        assert hhat_eval(0.0, 2.0, 0.0, 0.0, SP1) == 0.0

    def test_hand_value(self):
        # 3 - 2 + 1 - 0
        assert hhat_eval(0.0, 3.0, 1.0, 0.0, SP1) == pytest.approx(2.0, abs=1e-15)

    def test_cyclic_antisymmetry(self, rng):
        spec = euclidean(2, 1.5)
        for _ in range(50):
            a, b, c, d = rng.normal(size=(4, 2))
            lhs = hhat_eval(a, b, c, d, spec)
            rhs = -hhat_eval(b, c, d, a, spec)
            assert lhs == pytest.approx(rhs, abs=1e-12)


class TestTtilde:
    def test_degenerate_marginal(self):
        assert ttilde_eval(5.0, 5.0, [[5.0]], [1.0], SP1) == 0.0

    def test_uniform_two_atom(self):
        atoms, probs = [[0.0], [1.0]], [0.5, 0.5]
        assert ttilde_eval(0.0, 1.0, atoms, probs, SP1) == pytest.approx(0.5)
        assert ttilde_eval(0.0, 0.0, atoms, probs, SP1) == pytest.approx(-0.5)

    def test_empty_marginal(self):
        with pytest.raises(ValueError):
            ttilde_eval(0.0, 1.0, np.empty((0, 1)), [], SP1)

    def test_conditional_centering(self, rng):
        # summing out the second argument against the marginal gives zero
        joint = random_joint(rng, support=5, beta=1.3)
        atoms, probs = joint.x, joint.probs
        for x1 in atoms:
            total = sum(p * ttilde_eval(x1, x2, atoms, probs, joint.x_spec)
                        for x2, p in zip(atoms, probs))
            assert total == pytest.approx(0.0, abs=1e-12)

    def test_mean_zero(self, rng):
        joint = random_joint(rng, support=4, beta=0.8)
        atoms, probs = joint.x, joint.probs
        total = sum(p1 * p2 * ttilde_eval(a1, a2, atoms, probs, joint.x_spec)
                    for a1, p1 in zip(atoms, probs)
                    for a2, p2 in zip(atoms, probs))
        assert total == pytest.approx(0.0, abs=1e-12)

    def test_reconstructs_four_point_sum(self, rng):
        # the alternating cycle of centered kernels collapses back to the
        # plain alternating distance sum
        joint = random_joint(rng, support=6, beta=1.0, dim_x=2, dim_y=2)
        atoms, probs = joint.x, joint.probs
        spec = joint.x_spec
        for _ in range(20):
            q = atoms[rng.integers(0, len(atoms), size=4)]
            t = (ttilde_eval(q[0], q[1], atoms, probs, spec)
                 - ttilde_eval(q[1], q[2], atoms, probs, spec)
                 + ttilde_eval(q[2], q[3], atoms, probs, spec)
                 - ttilde_eval(q[3], q[0], atoms, probs, spec))
            h = hhat_eval(q[0], q[1], q[2], q[3], spec)
            assert t == pytest.approx(h, abs=1e-12)


class TestDcovExact:
    def test_bernoulli_quarter(self, bernoulli_joint):
        for method in ("d1", "d2", "d3"):
            assert dcov_exact(bernoulli_joint, method).value == pytest.approx(
                0.25, abs=1e-12)

    def test_product_joint_zero(self, rng):
        xa = rng.normal(size=(3, 2))
        ya = rng.normal(size=(2, 1))
        joint = DiscreteJoint.product(xa, [0.2, 0.5, 0.3], ya, [0.4, 0.6],
                                      euclidean(2, 1.0), euclidean(1, 1.0))
        for method in ("d1", "d2", "d3"):
            assert abs(dcov_exact(joint, method).value) <= 1e-12

    def test_degenerate_zero(self):
        joint = DiscreteJoint([[1.0]], [[2.0]], [1.0], SP1, SP1)
        assert dcov_exact(joint).value == 0.0

    def test_method_equivalence(self, rng):
        for _ in range(12):
            beta = rng.choice([0.5, 1.0, 1.5, 2.0, 3.0])
            joint = random_joint(rng, beta=float(beta))
            v1 = dcov_exact(joint, "d1").value
            v2 = dcov_exact(joint, "d2").value
            v3 = dcov_exact(joint, "d3").value
            assert abs(v1 - v2) <= 1e-10
            assert abs(v2 - v3) <= 1e-10

    def test_method_equivalence_table_metric(self, rng):
        for _ in range(5):
            joint = random_table_joint(rng, support=4, beta=1.0)
            v1 = dcov_exact(joint, "d1").value
            v2 = dcov_exact(joint, "d2").value
            v3 = dcov_exact(joint, "d3").value
            assert abs(v1 - v2) <= 1e-10
            assert abs(v2 - v3) <= 1e-10

    def test_nonnegative_euclidean_beta_le_two(self, rng):
        for beta in (0.5, 1.0, 2.0):
            joint = random_joint(rng, beta=beta)
            assert dcov_exact(joint).value >= -1e-12

    def test_quadruple_sum_cap(self, rng, monkeypatch):
        # 65 atoms are refused before any distance is computed
        joint = random_joint(rng, support=65)
        monkeypatch.setattr(exact, "pairwise_distances", None)
        with pytest.raises(ValueError, match="^support 65 exceeds the "
                           "quadruple-sum cap 64$"):
            dcov_exact(joint, "d2")

    def test_unknown_method(self, bernoulli_joint):
        with pytest.raises(ValueError):
            dcov_exact(bernoulli_joint, "d7")


class TestDiscreteJoint:
    def test_prob_validation(self):
        with pytest.raises(ValueError):
            DiscreteJoint([[0.0], [1.0]], [[0.0], [1.0]], [0.6, 0.6], SP1, SP1)
        with pytest.raises(ValueError):
            DiscreteJoint([[0.0], [1.0]], [[0.0], [1.0]], [1.0, 0.0], SP1, SP1)
        with pytest.raises(ValueError):
            DiscreteJoint([[0.0]], [[0.0], [1.0]], [0.5, 0.5], SP1, SP1)


def test_projection_demo():
    dc_full, dc_projected = projection_demo()
    assert dc_projected > dc_full
    assert dc_full >= 0.0
    # both values are eighths for this Bernoulli construction
    assert dc_projected == pytest.approx(0.25, abs=1e-12)
    assert dc_full == pytest.approx(0.125, abs=1e-12)


@st.composite
def _weighted_joints(draw):
    """2-16 atoms in 1-3 dimensions, weights spread over three decades."""
    k = draw(st.integers(2, 16))
    dx = draw(st.integers(1, 3))
    dy = draw(st.integers(1, 3))
    coords = st.floats(-4.0, 4.0)
    xa = draw(arrays(np.float64, (k, dx), elements=coords))
    ya = draw(arrays(np.float64, (k, dy), elements=coords))
    w = np.array(draw(st.lists(st.floats(1e-3, 1.0), min_size=k,
                               max_size=k)))
    beta = draw(st.floats(0.2, 3.0))
    return DiscreteJoint(xa, ya, w / w.sum(), euclidean(dx, beta),
                         euclidean(dy, beta))


@given(_weighted_joints())
def test_property_d3_equals_d1_nonuniform(joint):
    a = pairwise_distances(joint.x, joint.x_spec)
    b = pairwise_distances(joint.y, joint.y_spec)
    w = joint.probs
    aw, bw = a @ w, b @ w
    # the three pairwise-form terms bound the rounding of both forms
    scale = (abs(w @ (a * b) @ w) + abs((w @ aw) * (w @ bw))
             + 2.0 * abs(np.sum(w * aw * bw)) + 1e-300)
    d1 = dcov_exact(joint, "d1").value
    assert abs(dcov_exact(joint, "d3").value - d1) <= 1e-10 * scale


def _term_scale(a, b, w):
    """|t1| + |t2| + 2|t3| of the d1 terms of dense kernels a, b under w:
    the scale that bounds the rounding of every contraction of them."""
    aw, bw = a @ w, b @ w
    return (abs(w @ (a * b) @ w) + abs((w @ aw) * (w @ bw))
            + 2.0 * abs(np.sum(w * aw * bw)) + 1e-300)


def test_sweep_replicates_match_their_own_contraction(rng):
    # every replicate is a weight column of one sweep of freshly computed
    # kernel rows, and its multinomial weights may be zero. A column
    # sums in another order than a single-vector call, so each is held
    # to 1e-12 of the d1 term scale; the population is the
    # single-vector call itself
    joint = random_joint(rng, support=6, dim_x=2, dim_y=2)
    a = pairwise_distances(joint.x, joint.x_spec)
    b = pairwise_distances(joint.y, joint.y_spec)
    seed = 1
    trace = consistency_sweep(joint, [3, 10, 40, 200], [seed])
    for n, est, _ in trace.rows:
        counts = np.random.default_rng([seed, n]).multinomial(n, joint.probs)
        w = counts / n
        assert abs(est - _d1_rows(joint.rows, w)) <= (
            1e-12 * _term_scale(a, b, w))
    assert trace.population == dcov_exact(joint, "d1").value


@st.composite
def _joints_over_blocks(draw):
    """Euclidean or table joints of 2-16 or 129-300 atoms, the latter
    over more than one row block, with weights over three decades."""
    k = draw(st.one_of(st.integers(2, 16), st.integers(129, 300)))
    r = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    beta = draw(st.floats(0.2, 2.5))
    w = r.uniform(1e-3, 1.0, size=k)
    if draw(st.booleans()):
        dx, dy = r.integers(1, 4, size=2)
        return DiscreteJoint(r.normal(size=(k, dx)), r.normal(size=(k, dy)),
                             w / w.sum(), euclidean(dx, beta),
                             euclidean(dy, beta))
    specs = []
    for m in r.integers(2, 13, size=2):
        pts = r.normal(size=(m, 2))
        specs.append(table(np.linalg.norm(pts[:, None] - pts[None], axis=-1),
                           beta=beta))
    sx, sy = specs
    return DiscreteJoint(r.integers(0, sx.size, size=k),
                         r.integers(0, sy.size, size=k), w / w.sum(), sx, sy)


@given(_joints_over_blocks())
def test_property_row_sweeps_equal_matrix_contractions(joint):
    a = pairwise_distances(joint.x, joint.x_spec)
    b = pairwise_distances(joint.y, joint.y_spec)
    w = joint.probs
    assert dcov_exact(joint, "d1").value == _d1_rows(
        lambda lo, hi: (a[lo:hi], b[lo:hi]), w)
    # copies, since the centering writes into the rows it is given
    assert dcov_exact(joint, "d3").value == float(_centered_products(
        lambda lo, hi: (a[lo:hi].copy(), b[lo:hi].copy()), w)[0])


def _vector_d1(rows, w):
    """Reference single-vector d1 contraction: matrix-vector and vector
    dot products and Python float sums, whose bits a call of _d1_rows
    with one weight vector keeps."""
    aw = np.empty(w.size)
    bw = np.empty(w.size)
    term1 = 0.0
    for lo, hi in row_blocks(w.size):
        a, b = rows(lo, hi)
        aw[lo:hi] = a @ w
        bw[lo:hi] = b @ w
        term1 += float(w[lo:hi] @ ((a * b) @ w))
    return (term1 + float(w @ aw) * float(w @ bw)
            - 2.0 * float(np.sum(w * (aw * bw))))


def _vector_centered(rows, w):
    """Reference single-vector centered sums, whose bits a call of
    _centered_products with one weight vector keeps."""
    blocks = row_blocks(w.size)
    per_block = [[k @ w for k in rows(lo, hi)] for lo, hi in blocks]
    kw = [np.concatenate(parts) for parts in zip(*per_block)]
    means = [float(w @ r) for r in kw]
    sums = np.zeros(3)
    for lo, hi in blocks:
        a, b = (k - r[lo:hi, None] - (r - m)
                for k, r, m in zip(rows(lo, hi), kw, means))
        sums += [w[lo:hi] @ (c @ w) for c in (a * b, a * a, b * b)]
    return sums


def _with_zeros(k, seed, columns):
    """k x columns weights over three decades, about a third of them
    zero, each column summing to 1."""
    r = np.random.default_rng(seed)
    w = r.uniform(1e-3, 1.0, size=(k, columns))
    w[r.uniform(size=w.shape) < 0.3] = 0.0
    w[r.integers(0, k), :] += 1.0
    return w / w.sum(axis=0)


@given(_joints_over_blocks(), st.integers(0, 2 ** 32 - 1))
def test_property_single_weight_vector_keeps_its_bits(joint, seed):
    # every route but the consistency sweep's replicates passes one
    # weight vector; its values are those of the single-vector code
    for w in (joint.probs, _with_zeros(joint.n, seed, 1)[:, 0].copy()):
        value = _d1_rows(joint.rows, w)
        assert type(value) is float
        assert value == _vector_d1(joint.rows, w)
        sums = _centered_products(joint.rows, w)
        assert sums.shape == (3,)
        np.testing.assert_array_equal(sums,
                                      _vector_centered(joint.rows, w))


@given(_joints_over_blocks(), st.integers(1, 5), st.integers(0, 2 ** 32 - 1))
def test_property_weight_columns_match_single_vectors(joint, columns, seed):
    # one sweep with a k x R weight matrix gives each column's value
    # within 1e-12 of the d1 term scale of the single-vector call
    a = pairwise_distances(joint.x, joint.x_spec)
    b = pairwise_distances(joint.y, joint.y_spec)
    w = _with_zeros(joint.n, seed, columns)
    d1 = _d1_rows(joint.rows, w)
    assert d1.shape == (columns,)
    for j in range(columns):
        v = w[:, j].copy()
        assert abs(d1[j] - _d1_rows(joint.rows, v)) <= (
            1e-12 * _term_scale(a, b, v))


@given(st.integers(1, 9), st.integers(2, 300),
       st.sampled_from([0.3, 0.5, 1.0, 1.5]), st.integers(1, 3),
       st.sampled_from([None, 1, 7]), st.integers(0, 2 ** 32 - 1))
def test_property_kernel_stacks_match_single_pairs(draws, k, beta, columns,
                                                   rows, seed):
    # D stacked pairs of 1-D kernels |gap|^beta, as the charrv draws
    # give them, under one weight vector or weight columns, about a
    # third of the weights zero: each of the D values is within 1e-12
    # of its d1 term scale of the single-pair call. The row blocks are
    # the default ones or hold 1 or 7 rows per stacked kernel, so they
    # may split the kernels unevenly
    r = np.random.default_rng(seed)
    p, q = r.normal(size=(2, draws, k)) * r.uniform(0.1, 10.0, (2, 1, 1))
    w = _with_zeros(k, seed, columns)
    w = w[:, 0].copy() if columns == 1 else w
    blocks = row_blocks(k, rows and rows * draws * k)
    stacked = _d1_rows(lambda lo, hi: (gap_rows(p, beta, lo, hi),
                                       gap_rows(q, beta, lo, hi)), w, blocks)
    assert stacked.shape == (draws,) + w.shape[1:]
    spec = euclidean(1, beta)
    for i in range(draws):
        a = pairwise_distances(p[i], spec)
        b = pairwise_distances(q[i], spec)
        for j in range(columns):
            v = w if columns == 1 else w[:, j].copy()
            got = stacked[i, j] if columns > 1 else stacked[i]
            one = _d1_rows(lambda lo, hi: (a[lo:hi], b[lo:hi]), v)
            assert abs(got - one) <= 1e-12 * _term_scale(a, b, v)


def test_exact_d1_holds_no_k_by_k_matrix():
    rng = np.random.default_rng(3)
    k = 3000
    x = rng.normal(size=(k, 3))
    y = x[:, :2] + rng.normal(size=(k, 2))
    joint = DiscreteJoint(x, y, np.full(k, 1.0 / k), euclidean(3, 1.0),
                          euclidean(2, 1.0))
    tracemalloc.start()
    try:
        dcov_exact(joint, "d1")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one k x k float64 matrix is 72 MB
    assert peak < 8e6
