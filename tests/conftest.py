import numpy as np
import pytest
from hypothesis import settings

from betadcov import DiscreteJoint, euclidean, table

# property tests draw the same examples on every run and never time out
settings.register_profile("betadcov", derandomize=True, deadline=None,
                          max_examples=100)
settings.load_profile("betadcov")


def random_joint(rng, support=None, dim_x=None, dim_y=None, beta=1.0,
                 dependent=True):
    """A random finite Euclidean joint for cross-method tests."""
    k = support or rng.integers(2, 7)
    dx = dim_x or rng.integers(1, 4)
    dy = dim_y or rng.integers(1, 4)
    xa = rng.normal(size=(k, dx))
    if dependent and dy == dx:
        ya = xa + 0.5 * rng.normal(size=(k, dy))
    else:
        ya = rng.normal(size=(k, dy))
    p = rng.dirichlet(np.ones(k))
    p = p / p.sum()
    return DiscreteJoint(xa, ya, p, euclidean(dx, beta), euclidean(dy, beta))


def random_table_joint(rng, support=4, beta=1.0):
    """A random finite joint over table metrics built from point clouds."""
    def make_table(k):
        pts = rng.normal(size=(k, 2))
        d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
        return table(d, beta=beta)

    sx = make_table(support)
    sy = make_table(support)
    idx = np.arange(support)
    p = rng.dirichlet(np.ones(support))
    return DiscreteJoint(idx, rng.permutation(idx), p / p.sum(), sx, sy)


@pytest.fixture
def rng():
    return np.random.default_rng(20240824)


@pytest.fixture
def bernoulli_joint():
    sp = euclidean(1, 1.0)
    return DiscreteJoint([[0.0], [1.0]], [[0.0], [1.0]], [0.5, 0.5], sp, sp)
