"""Points, metric specifications and beta-powered distance kernels.

Two kinds of spaces are supported: Euclidean R^d (points are coordinate
rows) and finite metric spaces given by an explicit distance table
(points are integer indices into the table). All distances are raised
to a configurable exponent beta > 0 before use.

Kernels are built one row block at a time (row_blocks, distance_rows),
so a caller that only needs sums over the kernel holds O(n * block)
numbers instead of an n x n matrix. Euclidean distances come from
coordinate differences, summed one coordinate at a time, never from
the Gram identity |x|^2 + |y|^2 - 2 x.y, which loses the digits of
nearby points. pairwise_distances assembles the full matrix from the
same blocks.

One-dimensional kernels are powers of the gap |x_i - x_j| itself
(gap_rows), not of its square: at beta = 1 that is bit-identical to
the square root of the squared distance wherever the square neither
overflows nor underflows. So a 1-D kernel overflows only where
|gap|^beta leaves the double range, not where gap^2 does (from about
1.3e154), and gaps below about 1e-162 are no longer flushed to 0.
Multi-dimensional kernels keep (d^2)^(beta/2).
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
    """Bounds (lo, hi) of consecutive row blocks of an n-column kernel.

    Each block holds at most elements entries (BLOCK_ELEMENTS by
    default), and one row at least.
    """
    rows = max(1, (elements or BLOCK_ELEMENTS) // max(n, 1))
    return [(lo, min(lo + rows, n)) for lo in range(0, n, rows)]


def squared_distance_rows(pts, lo, hi):
    """Rows lo:hi of the squared Euclidean distance matrix of (n, d) pts.

    Summed over coordinates from explicit differences, so the result is
    exactly symmetric and exactly 0 between equal points. Fastest on
    column-major pts, whose coordinate columns are contiguous.
    """
    out = np.subtract.outer(pts[lo:hi, 0], pts[:, 0])
    np.square(out, out=out)
    for k in range(1, pts.shape[1]):
        diff = np.subtract.outer(pts[lo:hi, k], pts[:, k])
        out += np.square(diff, out=diff)
    return out


def gap_rows(p, beta, lo, hi):
    """Rows lo:hi of |p_i - p_j|**beta for scalar points p[..., k].

    Leading axes of p are batch axes: p of shape (D, k) gives a (D,
    hi - lo, k) stack of kernel rows. The power is taken of the gap
    itself, never of its square, and costs nothing at beta = 1, one
    square root at beta = 0.5 and a square root and a product at
    beta = 1.5; any other beta takes a general power.
    """
    g = np.subtract(p[..., lo:hi, None], p[..., None, :])
    np.abs(g, out=g)
    if beta == 0.5:
        np.sqrt(g, out=g)
    elif beta == 1.5:
        g *= np.sqrt(g)
    elif beta != 1:
        np.power(g, beta, out=g)
    return g


def distance_rows(pts, spec, lo, hi):
    """Rows lo:hi of d(x_i, x_j)**beta for points normalized by as_points."""
    if spec.kind == "table":
        return spec.table[np.ix_(pts[lo:hi], pts)] ** spec.beta
    if spec.dim == 1:
        return gap_rows(pts[:, 0], spec.beta, lo, hi)
    # (d^2)^(beta/2); numpy evaluates ** 0.5 as a square root
    return squared_distance_rows(pts, lo, hi) ** (0.5 * spec.beta)


def pairwise_distances(points, spec):
    """Symmetric matrix of d(x_i, x_j)**beta with zero diagonal."""
    pts = as_points(points, spec)
    n = len(pts)
    out = np.empty((n, n))
    for lo, hi in row_blocks(n):
        out[lo:hi] = distance_rows(pts, spec, lo, hi)
    return out
