"""Exact beta-distance covariance for finite discrete joint distributions.

For a joint law with finite support every expectation reduces to a
weighted sum over atoms, so the population quantity can be computed to
machine precision through three independent routes:

  d1  pairwise product form
        E[a12 b12] + E[a12] E[b12] - 2 E[a12 b13]
  d2  quarter mean of the product of alternating four-point sums
  d3  mean product of doubly centered kernels

All three agree on finite support; that agreement is the main oracle
for every estimator in this package.
"""

from dataclasses import dataclass, field

import numpy as np

from .metric import as_points, euclidean, pairwise_distances, row_blocks

#: default cap on support size for the O(k^4) quadruple sum
D2_SUPPORT_CAP = 64


class DomainError(ValueError):
    """A parameter or the data scale is outside the domain of the method."""


def _require_finite(values, sizes):
    """Raise DomainError unless all values are finite.

    sizes are typical kernel entries (means, or root mean squares of
    centered entries, which read inf once the squares overflow).
    """
    if not np.all(np.isfinite(values)):
        raise DomainError(
            "result is not finite: at this data scale the kernels or their "
            "products overflow double precision (typical kernel entries "
            "%s); divide each side by a power of 2, c, and multiply the "
            "value by c^beta per side" % ", ".join("%.3g" % v for v in sizes))


@dataclass(frozen=True)
class DcovEstimate:
    """A computed distance covariance value with method metadata."""

    value: float
    method: str
    beta: float
    n: int
    stderr: float = None
    aux: dict = field(default=None, repr=False)


class DiscreteJoint:
    """Finite-support joint distribution of an (X, Y) pair.

    Atoms are given as parallel arrays of x-points and y-points with a
    probability vector that must sum to 1 within 1e-12.
    """

    def __init__(self, x_atoms, y_atoms, probs, x_spec, y_spec):
        self.x_spec = x_spec
        self.y_spec = y_spec
        self.x_atoms = as_points(x_atoms, x_spec)
        self.y_atoms = as_points(y_atoms, y_spec)
        p = np.asarray(probs, dtype=float)
        if p.ndim != 1 or p.size == 0:
            raise ValueError("probs must be a nonempty vector")
        if len(self.x_atoms) != p.size or len(self.y_atoms) != p.size:
            raise ValueError("atoms and probs must have equal length")
        if np.any(p <= 0):
            raise ValueError("probabilities must be strictly positive")
        if abs(p.sum() - 1.0) > 1e-12:
            raise ValueError("probabilities sum to %.17g, not 1" % p.sum())
        self.probs = p
        self._a = None
        self._b = None

    @property
    def support(self):
        return self.probs.size

    def x_dist(self):
        if self._a is None:
            self._a = pairwise_distances(self.x_atoms, self.x_spec)
        return self._a

    def y_dist(self):
        if self._b is None:
            self._b = pairwise_distances(self.y_atoms, self.y_spec)
        return self._b

    def x_marginal(self):
        return self.x_atoms, self.probs

    def y_marginal(self):
        return self.y_atoms, self.probs

    @classmethod
    def product(cls, x_atoms, x_probs, y_atoms, y_probs, x_spec, y_spec):
        """Independent product law of two finite marginals."""
        px = np.asarray(x_probs, dtype=float)
        py = np.asarray(y_probs, dtype=float)
        xa = as_points(x_atoms, x_spec)
        ya = as_points(y_atoms, y_spec)
        ix, iy = np.meshgrid(np.arange(px.size), np.arange(py.size), indexing="ij")
        probs = np.outer(px, py).ravel()
        return cls(xa[ix.ravel()], ya[iy.ravel()], probs, x_spec, y_spec)

    @classmethod
    def empirical(cls, x_points, y_points, x_spec, y_spec):
        """Empirical measure of a paired sample, one atom per row, weight 1/n."""
        xa = as_points(x_points, x_spec)
        ya = as_points(y_points, y_spec)
        n = len(xa)
        return cls(xa, ya, np.full(n, 1.0 / n), x_spec, y_spec)


def hhat_eval(x1, x2, x3, x4, spec):
    """Alternating four-point sum a12 - a23 + a34 - a41 with a = d**beta."""
    d = pairwise_distances([x1, x2, x3, x4], spec)
    return d[0, 1] - d[1, 2] + d[2, 3] - d[3, 0]


def ttilde_eval(x1, x2, marginal_atoms, marginal_probs, spec):
    """Doubly centered kernel of a finite marginal.

    Returns d(x1,x2)^b - E d(x1,X)^b - E d(x2,X)^b + E d(X,X')^b with
    the expectations taken as exact sums over the marginal atoms.
    """
    p = np.asarray(marginal_probs, dtype=float)
    if p.size == 0:
        raise ValueError("empty marginal")
    d = pairwise_distances(np.concatenate([as_points([x1, x2], spec),
                                           as_points(marginal_atoms, spec)]),
                           spec)
    a12 = d[0, 1]
    row1 = d[0, 2:] @ p
    row2 = d[1, 2:] @ p
    grand = p @ d[2:, 2:] @ p
    return a12 - row1 - row2 + grand


def _d1_rows(rows, w):
    """Three-term pairwise-form contraction collected over row blocks.

    rows(lo, hi) returns rows lo:hi of two kernels a, b that are both
    symmetric or both antisymmetric. Returns sum_ij w_i w_j a_ij b_ij
    + (w'a w)(w'b w) - 2 sum_i w_i (a w)_i (b w)_i, holding one row
    block at a time, and raises DomainError if that is not finite.
    """
    aw = np.empty(w.size)
    bw = np.empty(w.size)
    term1 = 0.0
    for lo, hi in row_blocks(w.size):
        a, b = rows(lo, hi)
        aw[lo:hi] = a @ w
        bw[lo:hi] = b @ w
        term1 += float(w[lo:hi] @ ((a * b) @ w))
    mean_a = float(w @ aw)
    mean_b = float(w @ bw)
    term3 = float(np.sum(w * (aw * bw)))
    value = term1 + mean_a * mean_b - 2.0 * term3
    _require_finite(value, (mean_a, mean_b))
    return value


def _d1_contract(a, b, w):
    """_d1_rows over the row slices of two kernel matrices a, b."""
    return _d1_rows(lambda lo, hi: (a[lo:hi], b[lo:hi]), w)


def _centered_rows(rows, w):
    """Doubly centered row blocks of symmetric kernels under weights w.

    rows(lo, hi) returns a tuple of rows lo:hi of symmetric kernels, as
    arrays that may be overwritten. The first sweep collects the row
    sums (k w)_i of each kernel, and raises DomainError if they are not
    finite; the second centers each block in place to
    k_ij - (k w)_i - (k w)_j + w'k w and yields (lo, hi, blocks).
    """
    blocks = row_blocks(w.size)
    per_block = [[k @ w for k in rows(lo, hi)] for lo, hi in blocks]
    kw = [np.concatenate(parts) for parts in zip(*per_block)]
    means = [float(w @ r) for r in kw]
    _require_finite(kw, means)
    col = [r - m for r, m in zip(kw, means)]    # (k w)_j - w'k w
    for lo, hi in blocks:
        ks = rows(lo, hi)
        for k, r, c in zip(ks, kw, col):
            k -= r[lo:hi, None]
            k -= c
        yield lo, hi, ks


def _centered_products(rows, w):
    """sum_ij w_i w_j (ca cb, ca ca, cb cb)_ij of the kernels rows(lo, hi).

    Raises DomainError if any of the three is not finite.
    """
    sums = np.zeros(3)
    for lo, hi, (a, b) in _centered_rows(rows, w):
        sums += [w[lo:hi] @ (c @ w) for c in (a * b, a * a, b * b)]
    _require_finite(sums, np.sqrt(sums[1:]))
    return sums


def _centered_contract(a, b, w):
    """_centered_products over row slices of a, b, copied to keep a, b."""
    return _centered_products(lambda i, j: (a[i:j].copy(), b[i:j].copy()), w)


def _dcov_d2(a, b, w, cap):
    k = w.size
    if k > cap:
        raise ValueError("support %d exceeds the quadruple-sum cap %d" % (k, cap))
    total = np.empty(k)
    for i in range(k):
        # hx[j,k,l] = a[i,j] - a[j,k] + a[k,l] - a[l,i], one slab per i
        hx = (a[i, :][:, None, None] - a[:, :, None]
              + a[None, :, :] - a[:, i][None, None, :])
        hy = (b[i, :][:, None, None] - b[:, :, None]
              + b[None, :, :] - b[:, i][None, None, :])
        total[i] = w[i] * np.einsum("j,k,l,jkl->", w, w, w, hx * hy, optimize=True)
    return 0.25 * float(np.sum(total))


def dcov_exact(joint, method="d1", d2_cap=D2_SUPPORT_CAP):
    """Population beta-distance covariance of a finite discrete joint.

    method selects the defining expression: "d1" (pairwise products),
    "d2" (four-point alternating sums, O(k^4), capped support) or "d3"
    (doubly centered kernels). The three agree within 1e-10.
    """
    a = joint.x_dist()
    b = joint.y_dist()
    w = joint.probs
    if method == "d1":
        value = _d1_contract(a, b, w)
    elif method == "d2":
        value = _dcov_d2(a, b, w, d2_cap)
    elif method == "d3":
        value = float(_centered_contract(a, b, w)[0])
    else:
        raise ValueError("unknown method %r" % method)
    return DcovEstimate(value=value, method=method,
                        beta=joint.x_spec.beta, n=joint.support)


def projection_demo():
    """Orthogonal projection can increase distance covariance.

    Builds the eight-atom joint of X = (X', X''), Y = (X', Y'') with
    X', X'', Y'' independent Bernoulli(1/2) and compares DC_1 of the
    full pair against DC_1 of the shared first coordinate alone.
    Returns (dc_full, dc_projected); the projected value is strictly
    larger.
    """
    bits = [(i, j, k) for i in (0, 1) for j in (0, 1) for k in (0, 1)]
    x_atoms = [(b0, b1) for b0, b1, _ in bits]
    y_atoms = [(b0, b2) for b0, _, b2 in bits]
    probs = np.full(8, 1.0 / 8)
    spec2 = euclidean(2, beta=1.0)
    full = DiscreteJoint(x_atoms, y_atoms, probs, spec2, spec2)
    spec1 = euclidean(1, beta=1.0)
    proj = DiscreteJoint([(b0,) for b0, _, _ in bits],
                         [(b0,) for b0, _, _ in bits], probs, spec1, spec1)
    dc_full = dcov_exact(full, "d1").value
    dc_projected = dcov_exact(proj, "d1").value
    if not dc_projected > dc_full:
        raise AssertionError("projection did not increase distance covariance")
    return dc_full, dc_projected
