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

DiscreteJoint is the package's one weighted-points type: a paired
sample is the joint with weight 1/n per row (estimators.PairedSample),
and every route reads the same x, y and probs. It holds no distance
matrix: d1 and d3 sweep row blocks of its kernels (DiscreteJoint.rows)
through _d1_rows and _centered_products, the contractions the sample
estimators and the consistency sweep call on the same points: O(k^2 d)
time and O(k * block) memory per contraction. _d1_rows also takes a
k x R matrix of weight columns, which one sweep contracts all at once.
Only d2 builds the matrices.
"""

import os
from dataclasses import dataclass, field

import numpy as np

from .metric import (as_points, distance_rows, euclidean, pairwise_distances,
                     row_blocks)

#: cap on support size for the O(k^4) quadruple sum
D2_SUPPORT_CAP = 64


class DomainError(ValueError):
    """A parameter or the data scale is outside the domain of the method."""


def _require_finite(values, sizes):
    """Raise DomainError unless all values are finite.

    sizes are typical kernel entries (means, or root mean squares of
    centered entries, which read inf once the squares overflow); of an
    array of them, one per weight column, the largest in magnitude is
    shown.
    """
    if not np.all(np.isfinite(values)):
        raise DomainError(
            "result is not finite: at this data scale the kernels or their "
            "products overflow double precision (typical kernel entries "
            "%s); divide each side by a power of 2, c, and multiply the "
            "value by c^beta per side" % ", ".join(
                "%.3g" % np.ravel(v)[np.argmax(np.abs(v))] for v in sizes))


def _physical_memory():
    """Bytes of physical memory on this machine."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _require_memory(need, run, what):
    """Refuse run, whose arrays (what) take need bytes, beyond memory."""
    phys = _physical_memory()
    if need > phys:
        raise ValueError(
            "%s needs about %d bytes (%.1f GB) for %s, more than the %.1f GB "
            "of physical memory" % (run, need, need / 1e9, what, phys / 1e9))


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
    """Weighted points of an (X, Y) pair: a finite-support joint law.

    Points are given as parallel arrays of x-points and y-points with a
    probability vector that must sum to 1 within 1e-12; a paired sample
    is the case of equal weights 1/n (estimators.PairedSample). Both
    metric specs must share one beta. Every route reads the points from
    x, y and probs, and the kernels from rows.
    """

    def __init__(self, x_points, y_points, probs, x_spec, y_spec):
        if x_spec.beta != y_spec.beta:
            raise ValueError("x and y specs must share one beta")
        self.x_spec = x_spec
        self.y_spec = y_spec
        # column-major, so the coordinate columns that every kernel row
        # block reads are contiguous
        self.x = np.asfortranarray(as_points(x_points, x_spec))
        self.y = np.asfortranarray(as_points(y_points, y_spec))
        p = np.asarray(probs, dtype=float)
        if p.ndim != 1 or p.size == 0:
            raise ValueError("need a nonempty vector of probs, one per point")
        if len(self.x) != p.size or len(self.y) != p.size:
            raise ValueError("x, y and probs must have equal length")
        if np.any(p <= 0):
            raise ValueError("probabilities must be strictly positive")
        if abs(p.sum() - 1.0) > 1e-12:
            raise ValueError("probabilities sum to %.17g, not 1" % p.sum())
        self.probs = p
        self.n = p.size
        self.beta = x_spec.beta

    def rows(self, lo, hi):
        """Rows lo:hi of the x and y distance kernels, freshly computed."""
        return (distance_rows(self.x, self.x_spec, lo, hi),
                distance_rows(self.y, self.y_spec, lo, hi))

    @classmethod
    def product(cls, x_points, x_probs, y_points, y_probs, x_spec, y_spec):
        """Independent product law of two finite marginals."""
        px = np.asarray(x_probs, dtype=float)
        py = np.asarray(y_probs, dtype=float)
        xa = as_points(x_points, x_spec)
        ya = as_points(y_points, y_spec)
        ix, iy = np.meshgrid(np.arange(px.size), np.arange(py.size), indexing="ij")
        probs = np.outer(px, py).ravel()
        return cls(xa[ix.ravel()], ya[iy.ravel()], probs, x_spec, y_spec)


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

    w is a weight vector, or a k x R matrix whose columns are R weight
    vectors; then one sweep of the rows gives all R values, as an array,
    from a @ W, b @ W and (a * b) @ W per block, in O(k * R) extra
    memory. A weight vector keeps the bits of its matrix-vector
    products; a column of a matrix sums in another order.
    """
    cols = w.reshape(w.shape[0], -1)        # a vector becomes one column
    aw = np.empty(cols.shape, order="F")
    bw = np.empty(cols.shape, order="F")
    term1 = np.zeros(cols.shape[1])
    for lo, hi in row_blocks(len(cols)):
        a, b = rows(lo, hi)
        aw[lo:hi] = a @ cols
        bw[lo:hi] = b @ cols
        term1 += np.vecdot(cols[lo:hi], (a * b) @ cols, axis=0)
    mean_a = np.vecdot(cols, aw, axis=0)
    mean_b = np.vecdot(cols, bw, axis=0)
    term3 = np.sum(cols * (aw * bw), axis=0)
    value = term1 + mean_a * mean_b - 2.0 * term3
    _require_finite(value, (mean_a, mean_b))
    return value if w.ndim == 2 else float(value[0])


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


def _dcov_d2(joint):
    w = joint.probs
    k = w.size
    if k > D2_SUPPORT_CAP:
        raise ValueError("support %d exceeds the quadruple-sum cap %d"
                         % (k, D2_SUPPORT_CAP))
    a = pairwise_distances(joint.x, joint.x_spec)
    b = pairwise_distances(joint.y, joint.y_spec)
    total = np.empty(k)
    for i in range(k):
        # hx[j,k,l] = a[i,j] - a[j,k] + a[k,l] - a[l,i], one slab per i
        hx = (a[i, :][:, None, None] - a[:, :, None]
              + a[None, :, :] - a[:, i][None, None, :])
        hy = (b[i, :][:, None, None] - b[:, :, None]
              + b[None, :, :] - b[:, i][None, None, :])
        total[i] = w[i] * np.einsum("j,k,l,jkl->", w, w, w, hx * hy, optimize=True)
    return 0.25 * float(np.sum(total))


def dcov_exact(joint, method="d1"):
    """Population beta-distance covariance of a finite discrete joint.

    method selects the defining expression: "d1" (pairwise products),
    "d2" (four-point alternating sums, O(k^4), at most D2_SUPPORT_CAP
    atoms) or "d3" (doubly centered kernels). The three agree within
    1e-10.
    """
    if method == "d1":
        value = _d1_rows(joint.rows, joint.probs)
    elif method == "d2":
        value = _dcov_d2(joint)
    elif method == "d3":
        value = float(_centered_products(joint.rows, joint.probs)[0])
    else:
        raise ValueError("unknown method %r" % method)
    return DcovEstimate(value=value, method=method, beta=joint.beta,
                        n=joint.n)


def projection_demo():
    """Orthogonal projection can increase distance covariance.

    Builds the eight-atom joint of X = (X', X''), Y = (X', Y'') with
    X', X'', Y'' independent Bernoulli(1/2) and compares DC_1 of the
    full pair against DC_1 of the shared first coordinate alone.
    Returns (dc_full, dc_projected); the projected value is strictly
    larger.
    """
    bits = [(i, j, k) for i in (0, 1) for j in (0, 1) for k in (0, 1)]
    xs = [(b0, b1) for b0, b1, _ in bits]
    ys = [(b0, b2) for b0, _, b2 in bits]
    probs = np.full(8, 1.0 / 8)
    spec2 = euclidean(2, beta=1.0)
    full = DiscreteJoint(xs, ys, probs, spec2, spec2)
    spec1 = euclidean(1, beta=1.0)
    proj = DiscreteJoint([(b0,) for b0, _, _ in bits],
                         [(b0,) for b0, _, _ in bits], probs, spec1, spec1)
    dc_full = dcov_exact(full, "d1").value
    dc_projected = dcov_exact(proj, "d1").value
    if not dc_projected > dc_full:
        raise AssertionError("projection did not increase distance covariance")
    return dc_full, dc_projected
