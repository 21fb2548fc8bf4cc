"""Points, metric specifications and beta-powered distance kernels.

Two kinds of spaces are supported: Euclidean R^d (points are coordinate
rows) and finite metric spaces given by an explicit distance table
(points are integer indices into the table). All distances are raised
to a configurable exponent beta > 0 before use.

Kernels are built one row block at a time (row_blocks, distance_rows),
so a caller that only needs sums over the kernel holds O(n * block)
numbers instead of an n x n matrix. Every kernel is symmetric, so a
block of rows lo:hi spans columns lo:n only, the upper trapezoid: each
entry off the diagonal blocks is built once, and a sum over the whole
kernel counts the part past the block twice. Euclidean distances come
from coordinate differences, summed one coordinate at a time, never
from the Gram identity |x|^2 + |y|^2 - 2 x.y, which loses the digits of
nearby points. pairwise_distances assembles the full matrix from the
same blocks and their transposes.

One-dimensional kernels are powers of the gap |x_i - x_j| itself
(gap_rows), not of its square: at beta = 1 that is bit-identical to
the square root of the squared distance wherever the square neither
overflows nor underflows. So a 1-D kernel overflows only where
|gap|^beta leaves the double range, not where gap^2 does (from about
1.3e154), and gaps below about 1e-162 are no longer flushed to 0.
Multi-dimensional kernels keep (d^2)^(beta/2), taken at beta = 0.5, 1
and 1.5 as square-root chains of d^2 (within 2 ulp of the power).
"""

from dataclasses import dataclass, field

import numpy as np

#: elements (rows x columns) in one row block of a tiled kernel
BLOCK_ELEMENTS = 1 << 14


@dataclass(frozen=True)
class MetricViolation:
    """First failure found while checking a distance table."""

    kind: str
    indices: tuple
    detail: str

    def __str__(self):
        return "%s at %s: %s" % (self.kind, self.indices, self.detail)


def validate_table_metric(table, check_triangle=True):
    """Check that a square matrix is a valid metric table.

    Verifies symmetry, zero diagonal and nonnegativity, and optionally
    the triangle inequality over all triples (O(n^3), intended for
    small tables). Returns None if the table passes, otherwise a
    MetricViolation describing the first problem found.
    """
    t = np.asarray(table, dtype=float)
    if t.ndim != 2 or t.shape[0] != t.shape[1]:
        return MetricViolation("shape", t.shape, "table must be square")
    if not np.all(np.isfinite(t)):
        i, j = np.argwhere(~np.isfinite(t))[0]
        return MetricViolation("non-finite", (int(i), int(j)), "entry is not finite")
    if np.any(t < 0):
        i, j = np.argwhere(t < 0)[0]
        return MetricViolation("negative", (int(i), int(j)), "distance below zero")
    diag = np.diagonal(t)
    if np.any(diag != 0):
        i = int(np.argwhere(diag != 0)[0][0])
        return MetricViolation("diagonal", (i,), "nonzero self-distance")
    asym = t - t.T
    if np.any(asym != 0):
        i, j = np.argwhere(asym != 0)[0]
        return MetricViolation(
            "asymmetric", (int(i), int(j)),
            "d(i,j)=%g but d(j,i)=%g" % (t[i, j], t[j, i]))
    if check_triangle:
        n = t.shape[0]
        for k in range(n):
            # d(i,j) <= d(i,k) + d(k,j) for all i,j, vectorized per k
            slack = t - (t[:, k][:, None] + t[k, :][None, :])
            if np.any(slack > 0):
                i, j = np.argwhere(slack > 0)[0]
                return MetricViolation(
                    "triangle", (int(i), int(j), k),
                    "d(%d,%d)=%g > d(%d,%d)+d(%d,%d)=%g"
                    % (i, j, t[i, j], i, k, k, j, t[i, k] + t[k, j]))
    return None


@dataclass(frozen=True)
class MetricSpec:
    """Metric space plus distance exponent.

    kind is "euclidean" (with dim coordinates, base point at the
    origin) or "table" (finite space, distances from a symmetric
    matrix, base point given by base_index). beta is the exponent
    applied to every distance.
    """

    kind: str
    beta: float
    dim: int = None
    table: np.ndarray = field(default=None, repr=False)
    base_index: int = 0
    check_triangle: bool = False

    def __post_init__(self):
        if self.beta <= 0 or not np.isfinite(self.beta):
            raise ValueError("beta must be a positive finite real, got %r" % (self.beta,))
        if self.kind == "euclidean":
            if self.dim is None or self.dim < 1:
                raise ValueError("euclidean spec needs dim >= 1")
        elif self.kind == "table":
            if self.table is None:
                raise ValueError("table spec needs a distance table")
            t = np.asarray(self.table, dtype=float)
            t.setflags(write=False)
            object.__setattr__(self, "table", t)
            bad = validate_table_metric(t, check_triangle=self.check_triangle)
            if bad is not None:
                raise ValueError("invalid metric table: %s" % bad)
            if not 0 <= self.base_index < t.shape[0]:
                raise ValueError("base_index %d out of range" % self.base_index)
        else:
            raise ValueError("unknown metric kind %r" % self.kind)

    @property
    def size(self):
        """Number of atoms for a table spec."""
        if self.kind != "table":
            raise ValueError("size only defined for table specs")
        return self.table.shape[0]


def euclidean(dim, beta=1.0):
    return MetricSpec(kind="euclidean", beta=beta, dim=dim)


def table(matrix, beta=1.0, base_index=0, check_triangle=False):
    return MetricSpec(kind="table", beta=beta, table=matrix,
                      base_index=base_index, check_triangle=check_triangle)


def as_points(points, spec):
    """Normalize raw input to the array layout the spec expects.

    Euclidean points become a float (n, dim) array; table points an
    integer index vector. Raises on non-finite coordinates, dimension
    mismatch or out-of-range indices.
    """
    if spec.kind == "euclidean":
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            if spec.dim == 1:
                pts = pts[:, None]
            else:
                raise ValueError("expected %d coordinates per point" % spec.dim)
        if pts.ndim != 2 or pts.shape[1] != spec.dim:
            raise ValueError("points have shape %s, spec wants (n, %d)"
                             % (pts.shape, spec.dim))
        if not np.all(np.isfinite(pts)):
            raise ValueError("non-finite coordinate in points")
        return pts
    idx = np.asarray(points)
    if idx.ndim == 2 and idx.shape[1] == 1:
        idx = idx[:, 0]
    if idx.ndim != 1:
        raise ValueError("table points must be a vector of atom indices")
    if not np.all(idx == np.floor(idx)):
        raise ValueError("table points must be integers")
    idx = idx.astype(np.intp)
    if idx.size and (idx.min() < 0 or idx.max() >= spec.size):
        raise ValueError("atom index out of table range")
    return idx


def row_blocks(n, elements=None):
    """Bounds (lo, hi) of consecutive row blocks of an n x n kernel's
    upper trapezoid.

    Block lo:hi spans columns lo:n, so each block is sized by its own
    width: it holds at most elements entries (BLOCK_ELEMENTS by
    default), and one row at least. When elements >= n^2 the one block
    is the whole square.
    """
    elements = elements or BLOCK_ELEMENTS
    blocks = []
    lo = 0
    while lo < n:
        hi = min(n, lo + max(1, elements // (n - lo)))
        blocks.append((lo, hi))
        lo = hi
    return blocks


def _outer_difference(p, q):
    """p[..., :, None] - q[..., None, :], leading axes broadcast.

    A ufunc over a broadcast operand copies its rows through the ufunc
    buffer (8192 elements) whenever several of them fit there. That pays
    for rows shorter than about 50 elements, but made rows of 64 to 2700
    elements 1.2-3.5 times slower (numpy 2.4.6), so those are taken with
    a 16-element buffer, which merges no row. numpy scopes the buffer
    size to numpy.errstate; float64 operands need no buffer to cast.
    """
    with np.errstate():
        if q.shape[-1] >= 64:
            np.setbufsize(16)
        return np.subtract(p[..., :, None], q[..., None, :])


def squared_distance_rows(pts, lo, hi):
    """Rows lo:hi over columns lo: of the squared Euclidean distance
    matrix of (n, d) pts.

    Summed over coordinates from explicit differences, so the result is
    exactly symmetric and exactly 0 between equal points. Fastest on
    column-major pts, whose coordinate columns are contiguous.
    """
    out = _outer_difference(pts[lo:hi, 0], pts[lo:, 0])
    np.square(out, out=out)
    for k in range(1, pts.shape[1]):
        diff = _outer_difference(pts[lo:hi, k], pts[lo:, k])
        out += np.square(diff, out=diff)
    return out


def _power(d, beta):
    """d**beta in place for distances d: nothing at beta = 1, a square
    root at beta = 0.5, d times its square root at beta = 1.5, and a
    general power for any other beta."""
    if beta == 0.5:
        np.sqrt(d, out=d)
    elif beta == 1.5:
        d *= np.sqrt(d)
    elif beta != 1:
        np.power(d, beta, out=d)
    return d


def gap_rows(p, beta, lo, hi):
    """Rows lo:hi over columns lo: of |p_i - p_j|**beta for scalar
    points p[..., k].

    Leading axes of p are batch axes: p of shape (D, k) gives a (D,
    hi - lo, k - lo) stack of kernel rows. The power is taken of the gap
    itself, never of its square (_power).
    """
    g = _outer_difference(p[..., lo:hi], p[..., lo:])
    return _power(np.abs(g, out=g), beta)


def distance_rows(pts, spec, lo, hi):
    """Rows lo:hi over columns lo: of d(x_i, x_j)**beta for points
    normalized by as_points."""
    if spec.kind == "table":
        return spec.table[np.ix_(pts[lo:hi], pts[lo:])] ** spec.beta
    if spec.dim == 1:
        return gap_rows(pts[:, 0], spec.beta, lo, hi)
    d2 = squared_distance_rows(pts, lo, hi)
    if spec.beta in (0.5, 1.0, 1.5):
        # square-root chains of d^2, in its own buffer
        return _power(np.sqrt(d2, out=d2), spec.beta)
    return np.power(d2, 0.5 * spec.beta, out=d2)


def pairwise_distances(points, spec):
    """Symmetric matrix of d(x_i, x_j)**beta with zero diagonal.

    Each upper-trapezoid block is written with its transpose below the
    diagonal, so the matrix is exactly symmetric.
    """
    pts = as_points(points, spec)
    n = len(pts)
    out = np.empty((n, n))
    for lo, hi in row_blocks(n):
        block = distance_rows(pts, spec, lo, hi)
        out[lo:hi, lo:] = block
        out[hi:, lo:hi] = block[:, hi - lo:].T
    return out
