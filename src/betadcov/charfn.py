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
kernels per axis and nine contractions give every box the
extrapolation and error estimates need.
"""

import math
from dataclasses import dataclass

import numpy as np

from .exact import DcovEstimate, DomainError, _d1_rows, _require_memory


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


#: order of the boxes in each axis's kernel stack
FULL, HALF, TENTH, ORIGIN, BAND = range(5)

#: elements in one block of gap x node phases
PHASE_BLOCK = 1 << 20


def _box_kernels(nodes, w, atoms, q):
    """Regularized cosine transforms of one axis, one k x k kernel per box.

    The boxes are the nodes <= tmax, <= tmax/2, <= tmax/10, < 10 eps and
    < 2 eps. Entry [b, i, j] is the box-b sum of w(t) * 2 sin^2(t (x_i -
    x_j) / 2), i.e. of w(t) (1 - cos(t (x_i - x_j))). Each distinct gap
    above the diagonal is evaluated once, in blocks of at most
    PHASE_BLOCK phase elements. Besides the 5 k^2 doubles it returns,
    it holds at most 14 doubles per atom pair (the index pair, the
    distinct gaps and their inverse, their five box values and the
    scattered copy of those), one phase block and 6 doubles per node.
    """
    wm = w[:, None] * np.column_stack([
        np.full(nodes.size, True), nodes <= q.tmax / 2.0,
        nodes <= q.tmax / 10.0, nodes < 10.0 * q.eps, nodes < 2.0 * q.eps])
    k = atoms.size
    iu, ju = np.triu_indices(k, 1)
    gaps, inv = np.unique(np.abs(atoms[iu] - atoms[ju]), return_inverse=True)
    vals = np.empty((gaps.size, wm.shape[1]))
    rows = max(1, PHASE_BLOCK // nodes.size)
    for lo in range(0, gaps.size, rows):
        phase = np.multiply.outer(0.5 * gaps[lo:lo + rows], nodes)
        # 1 - cos(x) as 2 sin(x/2)^2, which keeps its digits near x = 0
        np.sin(phase, out=phase)
        np.matmul(np.square(phase, out=phase), wm, out=vals[lo:lo + rows])
        del phase                   # before the next block is allocated
    vals *= 2.0
    kern = np.zeros((wm.shape[1], k, k))
    kern[:, iu, ju] = kern[:, ju, iu] = vals[inv].T
    return kern


def tail_extrapolate(full, ht, th, hh, beta):
    """One-step Richardson correction for the outer cutoffs.

    The mass beyond T in each variable decays like T^(-beta), so the
    band between T/2 and T determines the tail up to a factor
    1/(2^beta - 1); the cross term gets the squared factor.
    """
    f = 1.0 / (2.0 ** beta - 1.0)
    tail_t = (full - ht) * f
    tail_u = (full - th) * f
    cross = (full - ht - th + hh) * f * f
    return full + tail_t + tail_u + cross, tail_t + tail_u + cross


def dcov_charfn_1d(joint, q=None):
    """Distance covariance of a scalar discrete joint via Definition-4 quadrature.

    Both marginals must be one-dimensional Euclidean and beta must lie
    in (0, 2). Returns the value plus truncation/origin error estimates
    in aux. Refuses k atoms whose box kernels (80 k^2 bytes), gap table
    and phase block (_box_kernels) exceed physical memory.
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
    # both stacks, one axis's gap table and phase block, both grids
    need = 8 * (10 * k * k + 14 * (k * (k - 1) // 2) + PHASE_BLOCK
                + 8 * (t.size + u.size))
    _require_memory(need, "charfn quadrature at k=%d atoms" % k,
                    "two stacks of five k x k box kernels, a gap table "
                    "and a phase block")
    kx = _box_kernels(t, wt * t ** (-1.0 - beta), xs, q)
    ky = _box_kernels(u, wu * u ** (-1.0 - beta), ys, q)

    def box(bt, bu):
        return 4.0 * _d1_rows(
            lambda lo, hi: (kx[bt, lo:hi], ky[bu, lo:hi]), p)

    full = box(FULL, FULL)
    ht, th, hh = box(HALF, FULL), box(FULL, HALF), box(HALF, HALF)
    tenth = box(TENTH, TENTH)
    origin_t, origin_u = box(ORIGIN, FULL), box(FULL, ORIGIN)
    corrected, tail = tail_extrapolate(full, ht, th, hh, beta)

    # near the origin the integrand scales like t^(1-beta) u^(1-beta), so
    # the band [eps, 2*eps) pins down the mass below eps in each variable
    band_t, band_u = box(BAND, FULL), box(FULL, BAND)
    g0 = 2.0 ** (2.0 - beta) - 1.0
    origin_corr = (band_t + band_u) / g0
    corrected += origin_corr

    c2 = c_const(1, beta) ** 2
    value = c2 * corrected
    trunc_err = c2 * abs(full - tenth)
    origin_err = c2 * (origin_t + origin_u)
    if abs(tail) > 0.5 * max(full, 1e-300):
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
