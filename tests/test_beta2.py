import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from betadcov import (DiscreteJoint, DomainError, PairedSample, cross_cov,
                      dcov2_closed, dcov_centered, dcov_exact, euclidean,
                      hhat_eval, table, ttilde_eval)

SP2 = euclidean(1, 2.0)


def make_sample(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if y.ndim == 1:
        y = y[:, None]
    return PairedSample(x, y, euclidean(x.shape[1], 2.0),
                        euclidean(y.shape[1], 2.0))


def test_cross_cov_examples():
    assert np.all(cross_cov(make_sample([0.0, 1.0, 2.0], [7.0, 7.0, 7.0])) == 0)
    x = np.array([1.0, 2.0, 4.0])
    c = cross_cov(make_sample(x, x))
    assert c[0, 0] == pytest.approx(np.mean((x - x.mean()) ** 2))
    c2 = cross_cov(make_sample([0.0, 1.0], [0.0, 2.0]))
    assert c2[0, 0] == pytest.approx(0.5, abs=1e-15)


def test_closed_form_matches_centered(rng):
    for _ in range(8):
        n = int(rng.integers(10, 60))
        p = int(rng.integers(1, 4))
        q = int(rng.integers(1, 4))
        x = rng.normal(size=(n, p))
        y = x[:, :min(p, q)].sum(axis=1, keepdims=True) \
            + rng.normal(size=(n, q))
        sample = make_sample(x, y)
        assert abs(dcov2_closed(sample).value
                   - dcov_centered(sample).value) <= 1e-10


@given(arrays(np.float64, st.tuples(st.integers(2, 30), st.integers(1, 3)),
              elements=st.integers(-80, 80).map(lambda k: k / 8.0)),
       st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
def test_property_closed_form_equals_centered(x, q, seed):
    noise = np.random.default_rng(seed).normal(size=(len(x), q))
    sample = make_sample(x, x[:, :1] + noise)
    vxx = dcov_centered(make_sample(x, x)).value
    vyy = dcov_centered(make_sample(sample.y, sample.y)).value
    # Cauchy-Schwarz: |sum ca cb| <= sqrt(sum ca^2 sum cb^2)
    scale = np.sqrt(abs(vxx * vyy)) + 1e-300
    assert abs(dcov2_closed(sample).value
               - dcov_centered(sample).value) <= 1e-10 * scale


def test_two_atom_symmetric_law():
    # Var = 1 for the balanced {-1, +1} law, so the value is 4
    sample = make_sample([-1.0, 1.0], [-1.0, 1.0])
    assert dcov2_closed(sample).value == pytest.approx(4.0, abs=1e-12)


def test_non_characterization():
    # X uniform on {-1, 0, 1} with Y = X^2 is dependent but uncorrelated
    sp1 = euclidean(1, 1.0)
    xa = [[-1.0], [0.0], [1.0]]
    ya = [[1.0], [0.0], [1.0]]
    p = [1 / 3] * 3
    dc2 = dcov_exact(DiscreteJoint(xa, ya, p, SP2, SP2), "d1").value
    dc1 = dcov_exact(DiscreteJoint(xa, ya, p, sp1, sp1), "d1").value
    assert abs(dc2) <= 1e-12
    assert dc1 > 0.01
    sample = make_sample([-1.0, 0.0, 1.0], [1.0, 0.0, 1.0])
    assert abs(dcov2_closed(sample).value) <= 1e-12


def test_zero_iff_uncorrelated_both_directions(rng):
    # constructed dependent-but-uncorrelated law gives zero; a correlated
    # law gives strictly positive
    corr = make_sample([0.0, 1.0, 3.0], [0.0, 2.0, 5.0])
    assert dcov2_closed(corr).value > 0.0
    assert np.any(cross_cov(corr) != 0.0)
    uncorr = make_sample([-1.0, 0.0, 1.0], [1.0, 0.0, 1.0])
    assert np.allclose(cross_cov(uncorr), 0.0, atol=1e-15)


def test_product_law_zero(rng):
    x = np.repeat([0.0, 1.0], 3)
    y = np.tile([0.0, 1.0, 2.0], 2)
    assert dcov2_closed(make_sample(x, y)).value == pytest.approx(0.0,
                                                                  abs=1e-15)


def test_four_point_inner_product_identity(rng):
    spec = euclidean(3, 2.0)
    for _ in range(30):
        a, b, c, d = rng.normal(size=(4, 3))
        lhs = hhat_eval(a, b, c, d, spec)
        rhs = 2.0 * float(np.dot(a - c, d - b))
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_centered_kernel_inner_product_identity(rng):
    atoms = rng.normal(size=(5, 2))
    probs = rng.dirichlet(np.ones(5))
    probs = probs / probs.sum()
    spec = euclidean(2, 2.0)
    mean = probs @ atoms
    for _ in range(10):
        i, j = rng.integers(0, 5, size=2)
        lhs = ttilde_eval(atoms[i], atoms[j], atoms, probs, spec)
        rhs = -2.0 * float(np.dot(atoms[i] - mean, atoms[j] - mean))
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_refuses_table_metric():
    tab = table([[0.0, 1.0], [1.0, 0.0]], beta=2.0)
    sample = PairedSample([0, 1], [0, 1], tab, tab)
    with pytest.raises(ValueError):
        dcov2_closed(sample)


@pytest.mark.parametrize("beta", [0.5, 1.0, 1.9])
def test_refuses_beta_other_than_two(rng, beta):
    spec = euclidean(1, beta)
    x = rng.normal(size=20)
    sample = PairedSample(x, x + rng.normal(size=20), spec, spec)
    with pytest.raises(DomainError, match="^the cross-covariance closed "
                       "form is specific to beta=2$"):
        dcov2_closed(sample)
