import numpy as np
import pytest

from betadcov import (DiscreteJoint, DomainError, QuadConfig, QuadratureError,
                      c_const, dcov_charfn_1d, dcov_exact, euclidean,
                      scale_const)
from betadcov.charfn import MAX_NODES, log_panel_grid


def test_constant_one_dim():
    assert c_const(1, 1.0) == pytest.approx(1.0 / np.pi, abs=1e-15)


def test_constant_two_dim():
    assert c_const(2, 1.0) == pytest.approx(1.0 / (2.0 * np.pi), abs=1e-15)


def test_constant_continuous_at_one():
    lo = c_const(1, 1.0 - 1e-9)
    hi = c_const(1, 1.0 + 1e-9)
    assert lo == pytest.approx(hi, rel=1e-7)
    assert lo == pytest.approx(1.0 / np.pi, rel=1e-7)


def test_constant_domain():
    for beta in (0.0, 2.0, -1.0, 2.5):
        with pytest.raises(DomainError):
            c_const(1, beta)
    with pytest.raises(ValueError):
        c_const(0, 1.0)


def test_scale_const_value():
    # beta=1: 2^(3/2) / (-Gamma(-1/2)) = sqrt(2/pi)
    assert scale_const(1.0) == pytest.approx(np.sqrt(2.0 / np.pi), abs=1e-15)
    with pytest.raises(DomainError):
        scale_const(2.0)


def test_bernoulli_quadrature(bernoulli_joint):
    est = dcov_charfn_1d(bernoulli_joint)
    assert est.value == pytest.approx(0.25, rel=1e-3)
    assert est.aux["trunc_err"] >= 0.0


def test_product_joint_near_zero(rng):
    joint = DiscreteJoint.product([[0.0], [1.0]], [0.5, 0.5],
                                  [[0.0], [2.0]], [0.3, 0.7],
                                  euclidean(1, 1.0), euclidean(1, 1.0))
    assert abs(dcov_charfn_1d(joint).value) <= 1e-9


def _scalar_joint(rng, beta, support=3):
    xa = rng.normal(size=(support, 1))
    ya = xa + 0.3 * rng.normal(size=(support, 1))
    p = rng.dirichlet(np.ones(support))
    sp = euclidean(1, beta)
    return DiscreteJoint(xa, ya, p / p.sum(), sp, sp)


@pytest.mark.parametrize("beta", [0.5, 1.0, 1.5])
def test_matches_exact_oracle(rng, beta):
    # the weight decays slowly for small beta, so that case gets a
    # larger outer cutoff
    q = QuadConfig(tmax=4e3) if beta == 0.5 else QuadConfig()
    for _ in range(4):
        joint = _scalar_joint(rng, beta)
        oracle = dcov_exact(joint, "d1").value
        est = dcov_charfn_1d(joint, q=q)
        assert est.value == pytest.approx(oracle, rel=1e-3)


def test_partial_integral_monotone_in_cutoff(bernoulli_joint):
    # the integrand is nonnegative, so the raw box integral grows with T
    raw = []
    for tmax in (30.0, 300.0):
        est = dcov_charfn_1d(bernoulli_joint, q=QuadConfig(tmax=tmax))
        raw.append(est.value - est.aux["tail_correction"]
                   - est.aux["origin_correction"])
    assert raw[0] < raw[1]


def test_halving_eps_within_error_estimate(bernoulli_joint):
    base = dcov_charfn_1d(bernoulli_joint, q=QuadConfig(eps=1e-6))
    halved = dcov_charfn_1d(bernoulli_joint, q=QuadConfig(eps=5e-7))
    err = base.aux["trunc_err"] + base.aux["origin_err"] + 1e-12
    assert abs(base.value - halved.value) < err


def test_domain_errors(bernoulli_joint):
    sp = euclidean(1, 2.0)
    joint2 = DiscreteJoint([[0.0], [1.0]], [[0.0], [1.0]], [0.5, 0.5], sp, sp)
    with pytest.raises(DomainError):
        dcov_charfn_1d(joint2)
    sp2 = euclidean(2, 1.0)
    joint_2d = DiscreteJoint([[0.0, 0.0]], [[1.0, 1.0]], [1.0], sp2, sp2)
    with pytest.raises(ValueError):
        dcov_charfn_1d(joint_2d)


def test_quad_config_validation():
    with pytest.raises(ValueError):
        QuadConfig(eps=1.0, tmax=0.5)
    with pytest.raises(ValueError):
        QuadConfig(panels_per_decade=0)
    with pytest.raises(ValueError):
        QuadConfig(rel_tol=0.0)


def test_node_cap_refuses_before_building():
    # 1e12 would ask for about 7e6 panels in the first decade alone; the
    # refusal comes before any of them is laid out
    with pytest.raises(QuadratureError, match="would need at least"):
        log_panel_grid(QuadConfig(), freq=1e12)
    nodes, _ = log_panel_grid(QuadConfig(), freq=0.0)
    assert nodes.size < MAX_NODES
    assert issubclass(QuadratureError, RuntimeError)


def test_unreliable_tail_raises():
    sp = euclidean(1, 1.0)
    joint = DiscreteJoint([[0.0], [1e-3]], [[0.0], [1e-3]], [0.5, 0.5], sp, sp)
    with pytest.raises(QuadratureError, match="extrapolation unreliable"):
        dcov_charfn_1d(joint)
