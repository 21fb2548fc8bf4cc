import numpy as np
import pytest

from betadcov import (euclidean, pairwise_distances, table,
                      validate_table_metric)
from betadcov.metric import MetricSpec, as_points


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
