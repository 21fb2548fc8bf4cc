import numpy as np
import pytest

from betadcov import (DiscreteJoint, PairedSample, dcor, dcov_centered,
                      dcov_exact, dcov_plugin_d1, euclidean, table,
                      pairwise_distances)


def make_sample(x, y, beta=1.0):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if y.ndim == 1:
        y = y[:, None]
    return PairedSample(x, y, euclidean(x.shape[1], beta),
                        euclidean(y.shape[1], beta))


def test_two_point_hand_value():
    est = dcov_plugin_d1(make_sample([0.0, 1.0], [0.0, 1.0]))
    assert est.value == pytest.approx(0.25, abs=1e-15)


def test_constant_y_is_zero():
    est = dcov_plugin_d1(make_sample([0.0, 1.0, 2.0], [5.0, 5.0, 5.0]))
    assert est.value == 0.0
    assert dcov_centered(make_sample([0.0, 1.0, 2.0], [5.0, 5.0, 5.0])).value \
        == pytest.approx(0.0, abs=1e-15)


def test_duplicated_sample_same_value(rng):
    x = rng.normal(size=(20, 2))
    y = rng.normal(size=(20, 1))
    single = dcov_plugin_d1(make_sample(x, y)).value
    double = dcov_plugin_d1(make_sample(np.vstack([x, x]),
                                        np.vstack([y, y]))).value
    assert double == pytest.approx(single, abs=1e-12)


def test_plugin_identity_with_exact(rng):
    for beta in (0.5, 1.0, 1.5):
        x = rng.normal(size=(40, 2))
        y = x[:, :1] + rng.normal(size=(40, 1))
        sample = make_sample(x, y, beta)
        joint = DiscreteJoint(x, y, np.full(40, 1.0 / 40), sample.x_spec,
                              sample.y_spec)
        assert dcov_plugin_d1(sample).value == pytest.approx(
            dcov_exact(joint, "d1").value, abs=1e-10)


def test_centered_matches_plugin(rng):
    x = rng.normal(size=(100, 3))
    y = rng.normal(size=(100, 2))
    sample = make_sample(x, y)
    assert dcov_centered(sample).value == pytest.approx(
        dcov_plugin_d1(sample).value, abs=1e-9)


def test_beta2_equals_four_cov_squared(rng):
    x = rng.normal(size=60)
    sample = make_sample(x, x, beta=2.0)
    cov = np.mean((x - x.mean()) ** 2)
    assert dcov_centered(sample).value == pytest.approx(4.0 * cov ** 2,
                                                        rel=1e-10)


def test_scaling(rng):
    x = rng.normal(size=(30, 2))
    y = rng.normal(size=(30, 1))
    for beta in (0.5, 1.0, 2.0):
        base = dcov_plugin_d1(make_sample(x, y, beta)).value
        scaled = dcov_plugin_d1(make_sample(2.0 * x, 3.0 * y, beta)).value
        assert scaled == pytest.approx(2.0 ** beta * 3.0 ** beta * base,
                                       rel=1e-10)


def test_isometry_invariance(rng):
    x = rng.normal(size=(25, 3))
    y = rng.normal(size=(25, 2))
    base = dcov_plugin_d1(make_sample(x, y)).value
    qx, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    qy, _ = np.linalg.qr(rng.normal(size=(2, 2)))
    moved = dcov_plugin_d1(make_sample(x @ qx.T + 1.0, y @ qy.T - 2.0)).value
    assert moved == pytest.approx(base, abs=1e-10)


def test_symmetry(rng):
    x = rng.normal(size=(15, 1))
    y = rng.normal(size=(15, 2))
    assert dcov_plugin_d1(make_sample(x, y)).value \
        == dcov_plugin_d1(make_sample(y, x)).value


def test_nonnegative(rng):
    for beta in (0.5, 1.0, 2.0):
        x = rng.normal(size=(20, 2))
        y = rng.normal(size=(20, 2))
        assert dcov_plugin_d1(make_sample(x, y, beta)).value >= -1e-12


def test_power_reduction_beta_le_one(rng):
    # running beta on the raw metric equals beta=1 on the powered table
    v = rng.normal(size=(8, 1))
    y = rng.normal(size=(8, 2))
    beta = 0.6
    tab_x = table(pairwise_distances(v, euclidean(1, beta)), beta=1.0)
    tab_y = table(pairwise_distances(y, euclidean(2, beta)), beta=1.0)
    idx = np.arange(8)
    direct = dcov_plugin_d1(PairedSample(v, y, euclidean(1, beta),
                                         euclidean(2, beta))).value
    reduced = dcov_plugin_d1(PairedSample(idx, idx, tab_x, tab_y)).value
    assert direct == reduced


def test_dcor_identity_and_errors(rng):
    x = rng.normal(size=(50, 1))
    assert dcor(make_sample(x, x)) == pytest.approx(1.0, abs=1e-10)
    with pytest.raises(ValueError):
        dcor(make_sample(x, np.zeros(50)))


def test_dcor_independent_is_small(rng):
    x = rng.normal(size=(300, 1))
    y = rng.normal(size=(300, 1))
    assert 0.0 <= dcor(make_sample(x, y)) < 0.2


def test_validation():
    with pytest.raises(ValueError):
        dcov_plugin_d1(make_sample([0.0], [1.0]))
    with pytest.raises(ValueError):
        PairedSample([[0.0]], [[0.0], [1.0]], euclidean(1, 1.0),
                     euclidean(1, 1.0))
    with pytest.raises(ValueError):
        PairedSample([[0.0]], [[0.0]], euclidean(1, 1.0), euclidean(1, 2.0))


def test_empty_sample_is_refused():
    # not a ZeroDivisionError from the weights 1/n
    sp = euclidean(1, 1.0)
    with pytest.raises(ValueError, match="^need a nonempty vector of probs"):
        PairedSample([], [], sp, sp)
