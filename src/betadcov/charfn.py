"""Characteristic-function route to beta-distance covariance (1D x 1D).

Evaluates c^2 * double integral of |phi_XY(t,u) - phi_X(t) phi_Y(u)|^2
/ (|t|^{1+beta} |u|^{1+beta}) for finite-support scalar joints by
deterministic quadrature: Gauss-Legendre panels on a log-spaced grid
in each variable, with the panel count per decade adapted to the
oscillation frequency of the trigonometric sums, and a one-step
tail extrapolation for the outer cutoff.

Nothing is formed on a two-dimensional grid. Over the four sign
quadrants the integrand is 4 * exact._d1_rows of the kernels
cos(t gap_x) and cos(u gap_y), so each box integral is 4 * _d1_rows
over the row slices of A and B, the per-axis box integrals of
w (1 - cos) (the contraction ignores constants): one stack of five box
kernels per axis, and one batched contraction of eleven pairs of them
gives every box the extrapolation and error estimates need. The
contraction is bilinear, so the differences those estimates take
(the mass beyond T/2 or T/10) are contracted from the kernels of the
outer bands themselves, not taken between nearly equal box values.
"""

import math
from dataclasses import dataclass

import numpy as np

from .exact import DcovEstimate, DomainError, _d1_rows, _require_memory
from .metric import BLOCK_ELEMENTS


class QuadratureError(RuntimeError):
    """The quadrature cannot be carried out within its node cap or cutoff."""


def c_const(ell, beta):
    """Normalization constant of the weighted characteristic-function integral.

    Uses the pole-free form beta * 2^(beta-1) * Gamma((ell+beta)/2) /
    (pi^(ell/2) * Gamma(1-beta/2)), valid for 0 < beta < 2.
    """
    if ell < 1 or int(ell) != ell:
        raise ValueError("ell must be a positive integer")
    if not 0 < beta < 2:
        raise DomainError("beta must lie in (0, 2), got %g" % beta)
    return (beta * 2.0 ** (beta - 1.0) * math.gamma((ell + beta) / 2.0)
            / (math.pi ** (ell / 2.0) * math.gamma(1.0 - beta / 2.0)))


def scale_const(beta):
    """One-dimensional scale constant beta * 2^(beta/2) / Gamma(1-beta/2)."""
    if not 0 < beta < 2:
        raise DomainError("beta must lie in (0, 2), got %g" % beta)
    return beta * 2.0 ** (beta / 2.0) / math.gamma(1.0 - beta / 2.0)


@dataclass(frozen=True)
class QuadConfig:
    """Quadrature layout for the singular-weight improper integrals."""

    eps: float = 1e-6
    tmax: float = 1e3
    panels_per_decade: int = 8
    points_per_panel: int = 16

    def __post_init__(self):
        if not 0 < self.eps < self.tmax:
            raise ValueError("need 0 < eps < tmax")
        if self.panels_per_decade < 1 or self.points_per_panel < 2:
            raise ValueError("need panels_per_decade >= 1 and "
                             "points_per_panel >= 2")


#: hard cap on quadrature nodes per axis
MAX_NODES = 400_000


def log_panel_grid(q, freq=0.0):
    """Gauss-Legendre nodes and weights on [eps, tmax], log-spaced panels.

    Panel edges are laid out per decade; within a decade the panel
    count grows with freq (the fastest oscillation expected in the
    integrand) so that no panel spans more than about two periods.
    Returns (nodes, weights), nodes ascending.
    """
    gx, gw = np.polynomial.legendre.leggauss(q.points_per_panel)
    edges = [np.array([q.eps])]
    panels = 0
    lo = q.eps
    while lo < q.tmax * (1 - 1e-12):
        hi = min(lo * 10.0, q.tmax)
        n_panels = max(q.panels_per_decade,
                       int(math.ceil((hi - lo) * freq / (4.0 * math.pi))))
        panels += n_panels
        if panels * q.points_per_panel > MAX_NODES:
            raise QuadratureError(
                "quadrature grid would need at least %d nodes; rescale the "
                "data or lower tmax" % (panels * q.points_per_panel))
        step = (hi - lo) / n_panels
        edges.append(lo + step * np.arange(1, n_panels + 1))
        lo = hi
    edges = np.concatenate(edges)
    a = edges[:-1]
    b = edges[1:]
    half = 0.5 * (b - a)
    mid = 0.5 * (b + a)
    nodes = (mid[:, None] + half[:, None] * gx[None, :]).ravel()
    weights = (half[:, None] * gw[None, :]).ravel()
    return nodes, weights


#: order of the boxes in each axis's kernel stack: every node, the outer
#: bands (T/2, T] and (T/10, T], and the origin boxes below 10 eps and 2 eps
FULL, OUTER2, OUTER10, ORIGIN, BAND = range(5)

#: (t box, u box) of each contraction dcov_charfn_1d takes, in its order
_PAIRS = ((FULL, FULL), (OUTER2, FULL), (FULL, OUTER2), (OUTER2, OUTER2),
          (OUTER10, FULL), (FULL, OUTER10), (OUTER10, OUTER10),
          (ORIGIN, FULL), (FULL, ORIGIN), (BAND, FULL), (FULL, BAND))

#: gap x node elements in one block of phases
PHASE_BLOCK = 1 << 15


def _box_kernels(nodes, w, atoms, q):
    """Regularized cosine transforms of one axis, one k x k kernel per box.

    The boxes are all nodes, the nodes in (tmax/2, tmax] and in
    (tmax/10, tmax], and those < 10 eps and < 2 eps. Entry [b, i, j] is
    the box-b sum of w(t) * 2 sin^2(t (x_i - x_j) / 2), i.e. of w(t)
    (1 - cos(t (x_i - x_j))). Each distinct gap is evaluated once, from
    one pair of atoms that has it, in blocks of at most PHASE_BLOCK gap
    x node phases; a block spans at least sqrt(PHASE_BLOCK) nodes, so
    each of its rows is long enough to pay for the work per row.

    When the distinct atoms number fewer than half the distinct gaps,
    each run of nodes first takes s = sin(t a / 2) and c = cos(t a / 2)
    for every distinct atom a (centred on the atoms' midrange), and a
    block forms sin(t (a - b) / 2) = s_a c_b - c_a s_b from them;
    otherwise a block takes the sine of each gap's own phase, which is
    cheaper for few atoms (k = 3) and for lattices. The per-atom form
    rounds an entry at about eps span / gap of its size, a gap's own sine
    at eps.

    Besides the 5 k^2 doubles it returns, it holds at most 14 words per
    atom pair (the index pair, the gaps, np.unique's sort order and
    inverse, one box's scattered values, and the five box values and
    two atoms of each distinct gap), three phase blocks, two atom
    tables of at most PHASE_BLOCK / 2 + sqrt(PHASE_BLOCK) k doubles
    each and 6 doubles per node.
    """
    wm = w[:, None] * np.column_stack([
        np.full(nodes.size, True), nodes > q.tmax / 2.0,
        nodes > q.tmax / 10.0, nodes < 10.0 * q.eps, nodes < 2.0 * q.eps])
    k = atoms.size
    iu, ju = np.triu_indices(k, 1)
    gaps, first, inv = np.unique(np.abs(atoms[iu] - atoms[ju]),
                                 return_index=True, return_inverse=True)
    distinct, which = np.unique(atoms, return_inverse=True)
    cols = min(nodes.size, max(PHASE_BLOCK // max(gaps.size, 1),
                               math.isqrt(PHASE_BLOCK)))
    rows = max(1, min(gaps.size, PHASE_BLOCK // cols))
    per_atom = 2 * distinct.size < gaps.size
    blocks = np.empty((3 if per_atom else 1, rows * cols))
    if per_atom:
        half = 0.5 * (distinct - 0.5 * (distinct[0] + distinct[-1]))
        tables = np.empty((2, distinct.size * cols))
        a, b = which[iu[first]], which[ju[first]]
    else:
        half = 0.5 * gaps
    vals = np.zeros((gaps.size, wm.shape[1]))
    for lo in range(0, nodes.size, cols):
        t = nodes[lo:lo + cols]
        if per_atom:
            s, c = (x[:half.size * t.size].reshape(-1, t.size)
                    for x in tables)
            np.sin(np.multiply.outer(half, t, out=c), out=s)
            np.cos(c, out=c)
        for g in range(0, gaps.size, rows):
            sl = slice(g, g + rows)
            size = (min(g + rows, gaps.size) - g) * t.size
            phase = blocks[0, :size].reshape(-1, t.size)
            if per_atom:
                # into reused blocks: fresh block-sized temporaries made
                # the benchmark's k = 32 calls 2.6 times slower; mode
                # "clip" writes into out without a buffer, and the
                # indices are in range
                sc, cs = (x[:size].reshape(-1, t.size) for x in blocks[1:])
                np.take(s, a[sl], 0, out=phase, mode="clip")
                phase *= np.take(c, b[sl], 0, out=sc, mode="clip")
                np.take(c, a[sl], 0, out=cs, mode="clip")
                cs *= np.take(s, b[sl], 0, out=sc, mode="clip")
                phase -= cs
            else:
                np.sin(np.multiply.outer(half[sl], t, out=phase), out=phase)
            # 1 - cos(x) as 2 sin(x/2)^2, which keeps its digits near x = 0
            vals[sl] += np.square(phase, out=phase) @ wm[lo:lo + cols]
    vals *= 2.0
    kern = np.zeros((wm.shape[1], k, k))
    for box, v in zip(kern, vals.T):
        box[iu, ju] = box[ju, iu] = v[inv]
    return kern


def tail_extrapolate(full, outer_t, outer_u, outer_tu, beta):
    """One-step Richardson correction for the outer cutoffs.

    The mass beyond T in each variable decays like T^(-beta), so the
    band between T/2 and T determines the tail up to a factor
    1/(2^beta - 1); the cross term gets the squared factor. outer_t,
    outer_u and outer_tu are the box integrals over t in (T/2, T], over
    u in (T/2, T] and over both.
    """
    f = 1.0 / (2.0 ** beta - 1.0)
    tail = (outer_t + outer_u) * f + outer_tu * f * f
    return full + tail, tail


def dcov_charfn_1d(joint, q=None):
    """Distance covariance of a scalar discrete joint via Definition-4 quadrature.

    Both marginals must be one-dimensional Euclidean and beta must lie
    in (0, 2). Returns the value plus truncation/origin error estimates
    in aux. Refuses k atoms whose arrays exceed physical memory: about
    136 k^2 bytes for the box kernels (80 k^2) and one axis's gap table
    (112 bytes per atom pair), plus the phase blocks and atom tables of
    _box_kernels and the contraction's row blocks.
    """
    if q is None:
        q = QuadConfig()
    if joint.x_spec.kind != "euclidean" or joint.y_spec.kind != "euclidean":
        raise ValueError("characteristic-function route needs Euclidean parts")
    if joint.x_spec.dim != 1 or joint.y_spec.dim != 1:
        raise ValueError("this route is one-dimensional on each side")
    beta = joint.beta
    if not 0 < beta < 2:
        raise DomainError(
            "the characteristic-function integral diverges for beta >= 2 "
            "and beta=%g is outside (0, 2)" % beta)
    xs = joint.x[:, 0]
    ys = joint.y[:, 0]
    p = joint.probs
    t, wt = log_panel_grid(q, freq=float(xs.max() - xs.min()))
    u, wu = log_panel_grid(q, freq=float(ys.max() - ys.min()))
    k = joint.n
    # both stacks; one axis's gap table, phase blocks and atom tables;
    # both grids; the row blocks of the eleven kernel pairs contracted
    need = 8 * (10 * k * k + 14 * (k * (k - 1) // 2) + 4 * PHASE_BLOCK
                + 2 * math.isqrt(PHASE_BLOCK) * k + 8 * (t.size + u.size)
                + 3 * len(_PAIRS) * min(k * k, max(k, BLOCK_ELEMENTS)))
    _require_memory(need, "charfn quadrature at k=%d atoms" % k,
                    "two stacks of five k x k box kernels, a gap table "
                    "and phase blocks")
    kx = _box_kernels(t, wt * t ** (-1.0 - beta), xs, q)
    ky = _box_kernels(u, wu * u ** (-1.0 - beta), ys, q)
    bt, bu = np.array(_PAIRS).T
    (full, outer2_t, outer2_u, outer2_tu, outer10_t, outer10_u, outer10_tu,
     origin_t, origin_u, band_t, band_u) = (4.0 * _d1_rows(
         lambda lo, hi: (kx[bt, lo:hi, lo:], ky[bu, lo:hi, lo:]), p)).tolist()
    corrected, tail = tail_extrapolate(full, outer2_t, outer2_u, outer2_tu,
                                       beta)

    # near the origin the integrand scales like t^(1-beta) u^(1-beta), so
    # the band [eps, 2*eps) pins down the mass below eps in each variable
    g0 = 2.0 ** (2.0 - beta) - 1.0
    origin_corr = (band_t + band_u) / g0
    corrected += origin_corr

    c2 = c_const(1, beta) ** 2
    value = c2 * corrected
    # full minus the box of t and u both <= T/10
    trunc_err = c2 * abs(outer10_t + outer10_u - outer10_tu)
    origin_err = c2 * (origin_t + origin_u)
    # a contraction rounds at about k eps times 4 (p'A p)(p'B p) of its own
    # kernels, so the tail of an independent joint, taken from the outer
    # bands, is of the size of that bound for the band kernels
    a, a2 = (float(p @ kern @ p) for kern in kx[[FULL, OUTER2]])
    b, b2 = (float(p @ kern @ p) for kern in ky[[FULL, OUTER2]])
    noise = 4.0 * k * np.finfo(float).eps * tail_extrapolate(
        0.0, a2 * b, a * b2, a2 * b2, beta)[1]
    if abs(tail) > 0.5 * max(full, noise, 1e-300):
        raise QuadratureError(
            "outer-cutoff extrapolation unreliable; multiply the data by "
            "c > 1 (as raising tmax by c), then divide the value by "
            "c^(2 beta)")
    aux = {
        "trunc_err": trunc_err,
        "origin_err": origin_err,
        "tail_correction": c2 * tail,
        "origin_correction": c2 * origin_corr,
        "nodes_t": int(t.size),
        "nodes_u": int(u.size),
    }
    return DcovEstimate(value=value, method="charfn", beta=beta,
                        n=joint.n, aux=aux)
