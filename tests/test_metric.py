import numpy as np
import pytest

from betadcov import (euclidean, pairwise_distances, table,
                      validate_table_metric)
from betadcov.metric import (MetricSpec, as_points, gap_rows,
                             squared_distance_rows)


def test_two_points_beta_one():
    d = pairwise_distances([[0.0], [3.0]], euclidean(1, 1.0))
    assert np.array_equal(d, [[0.0, 3.0], [3.0, 0.0]])


def test_two_points_beta_half():
    d = pairwise_distances([[0.0], [3.0]], euclidean(1, 0.5))
    assert d[0, 1] == pytest.approx(np.sqrt(3.0), abs=1e-15)


def test_identical_points_zero_matrix():
    d = pairwise_distances([[1.5, 2.0]] * 3, euclidean(2, 1.7))
    assert np.all(d == 0.0)


def test_validate_table_ok():
    assert validate_table_metric([[0, 1], [1, 0]]) is None


def test_validate_table_triangle_violation():
    bad = validate_table_metric([[0, 5, 1], [5, 0, 1], [1, 1, 0]])
    assert bad is not None and bad.kind == "triangle"


def test_validate_table_asymmetric():
    bad = validate_table_metric([[0, 1], [2, 0]])
    assert bad is not None and bad.kind == "asymmetric"


def test_validate_table_diagonal_and_negative():
    assert validate_table_metric([[1.0]]).kind == "diagonal"
    assert validate_table_metric([[0, -1], [-1, 0]]).kind == "negative"


def test_translation_rotation_invariance(rng):
    pts = rng.normal(size=(8, 3))
    spec = euclidean(3, 1.3)
    base = pairwise_distances(pts, spec)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    moved = pts @ q.T + rng.normal(size=3)
    assert np.allclose(pairwise_distances(moved, spec), base, atol=1e-10)


def test_homogeneity(rng):
    pts = rng.normal(size=(6, 2))
    for beta in (0.5, 1.0, 2.0):
        spec = euclidean(2, beta)
        base = pairwise_distances(pts, spec)
        scaled = pairwise_distances(3.0 * pts, spec)
        assert np.allclose(scaled, 3.0 ** beta * base, atol=1e-10)


def test_metric_power_reduction(rng):
    # for beta <= 1 the powered metric is itself a metric, so running the
    # powered table at exponent 1 must reproduce the same matrix exactly
    pts = rng.normal(size=(5, 2))
    beta = 0.7
    d_pow = pairwise_distances(pts, euclidean(2, beta))
    reduced = table(d_pow, beta=1.0, check_triangle=True)
    assert np.array_equal(pairwise_distances(np.arange(5), reduced), d_pow)


def test_bad_spec_rejected():
    with pytest.raises(ValueError):
        MetricSpec(kind="euclidean", beta=0.0, dim=1)
    with pytest.raises(ValueError):
        MetricSpec(kind="euclidean", beta=1.0)
    with pytest.raises(ValueError):
        table([[0, 5, 1], [5, 0, 1], [1, 1, 0]], check_triangle=True)
    with pytest.raises(ValueError):
        MetricSpec(kind="mystery", beta=1.0)


def test_bad_points_rejected():
    with pytest.raises(ValueError):
        as_points([[np.nan]], euclidean(1, 1.0))
    with pytest.raises(ValueError):
        as_points([[1.0, 2.0]], euclidean(3, 1.0))
    t = table([[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        as_points([0, 2], t)
    with pytest.raises(ValueError):
        as_points([0.5], t)


def _wide_points(n=1000):
    """n scalars of either sign over 1e-100 to 1e100: 10^6 gaps."""
    r = np.random.default_rng(11)
    return r.choice([-1.0, 1.0], n) * 10.0 ** r.uniform(-100, 100, n)


def test_gap_kernel_at_beta_one_is_the_root_of_the_squared_distance():
    # sqrt(fl(d^2)) = |d| exactly wherever d^2 neither overflows nor
    # underflows, so 1-D kernels at beta = 1 keep their bits
    p = _wide_points()
    np.testing.assert_array_equal(
        gap_rows(p, 1.0, 0, p.size),
        np.sqrt(squared_distance_rows(p[:, None], 0, p.size)))


@pytest.mark.parametrize("beta", [0.5, 1.5])
def test_gap_kernel_root_powers_within_one_ulp_of_pow(beta):
    # a square root, and a root times its argument, against a general pow
    p = _wide_points()
    g = np.abs(np.subtract.outer(p, p))
    ref = np.power(g, beta)
    got = gap_rows(p, beta, 0, p.size)
    assert np.all(np.abs(got - ref) <= np.spacing(ref))
    assert np.all(np.abs(got - ref) <= 2.0 ** -52 * ref)


def test_gap_kernel_stacks_and_row_blocks():
    # a leading axis stacks the kernels of several point sets; rows lo:hi
    # of each are the rows of its own kernel, at every beta
    r = np.random.default_rng(5)
    p = r.normal(size=(3, 7))
    for beta in (0.3, 0.5, 1.0, 1.5, 2.0):
        stack = gap_rows(p, beta, 2, 5)
        assert stack.shape == (3, 3, 7)
        for i in range(3):
            np.testing.assert_array_equal(
                stack[i], pairwise_distances(p[i], euclidean(1, beta))[2:5])
            np.testing.assert_allclose(
                stack[i], np.abs(np.subtract.outer(p[i, 2:5], p[i]))
                ** beta, rtol=2.0 ** -52, atol=0)


def test_one_dimensional_kernel_overflows_only_with_its_power():
    # gap^2 overflows from about 1.3e154; |gap|^beta only where it leaves
    # the double range itself
    d = pairwise_distances([[0.0], [1e200]], euclidean(1, 1.0))
    assert d[0, 1] == 1e200
    assert pairwise_distances([[0.0], [1e200]], euclidean(1, 0.5))[0, 1] \
        == 1e100
    with np.errstate(over="ignore"):
        assert np.isinf(pairwise_distances([[0.0], [1e200]],
                                           euclidean(1, 1.6))[0, 1])
    # nor are gaps below about 1e-162 flushed to 0
    assert pairwise_distances([[0.0], [1e-200]], euclidean(1, 1.0))[0, 1] \
        == 1e-200
