"""Characteristic-function route to beta-distance covariance (1D x 1D).

Evaluates c^2 * double integral of |phi_XY(t,u) - phi_X(t) phi_Y(u)|^2
/ (|t|^{1+beta} |u|^{1+beta}) for finite-support scalar joints by
deterministic quadrature: Gauss-Legendre panels on a log-spaced grid
in each variable, with the panel count per decade adapted to the
oscillation frequency of the trigonometric sums, and a one-step
tail extrapolation for the outer cutoff.
"""

import math
from dataclasses import dataclass

import numpy as np

from .exact import DcovEstimate


class DomainError(ValueError):
    """A parameter is outside the mathematical domain of the method."""


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
    rel_tol: float = 1e-3

    def __post_init__(self):
        if not 0 < self.eps < self.tmax:
            raise ValueError("need 0 < eps < tmax")
        if self.panels_per_decade < 1 or self.points_per_panel < 2:
            raise ValueError("bad panel configuration")
        if self.rel_tol <= 0:
            raise ValueError("tolerance must be positive")


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
    edges = [q.eps]
    lo = q.eps
    while lo < q.tmax * (1 - 1e-12):
        hi = min(lo * 10.0, q.tmax)
        n_panels = max(q.panels_per_decade,
                       int(math.ceil((hi - lo) * freq / (4.0 * math.pi))))
        n_nodes = (len(edges) - 1 + n_panels) * q.points_per_panel
        if n_nodes > MAX_NODES:
            raise QuadratureError(
                "quadrature grid would need at least %d nodes; rescale the "
                "data or lower tmax" % n_nodes)
        step = (hi - lo) / n_panels
        edges.extend(lo + step * np.arange(1, n_panels + 1))
        lo = hi
    edges = np.asarray(edges)
    a = edges[:-1]
    b = edges[1:]
    half = 0.5 * (b - a)
    mid = 0.5 * (b + a)
    nodes = (mid[:, None] + half[:, None] * gx[None, :]).ravel()
    weights = (half[:, None] * gw[None, :]).ravel()
    return nodes, weights


def _masked_sums(t, wt, g_cols, tmax):
    """Combine per-node column sums with the t-direction cutoff masks.

    g_cols has one row per t node and columns (full, u<=T/2, u<=T/10,
    u<10*eps). Returns the box integrals needed for tail extrapolation
    and error reporting.
    """
    m_half = t <= tmax / 2.0
    m_tenth = t <= tmax / 10.0
    full = float(wt @ g_cols[:, 0])
    ht = float(wt[m_half] @ g_cols[m_half, 0])     # t <= T/2, u full
    th = float(wt @ g_cols[:, 1])                  # t full, u <= T/2
    hh = float(wt[m_half] @ g_cols[m_half, 1])
    tenth = float(wt[m_tenth] @ g_cols[m_tenth, 2])
    origin_u = float(wt @ g_cols[:, 3])
    return full, ht, th, hh, tenth, origin_u


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


def dcov_charfn_1d(joint, q=None, chunk=256):
    """Distance covariance of a scalar discrete joint via Definition-4 quadrature.

    Both marginals must be one-dimensional Euclidean and beta must lie
    in (0, 2). Returns the value plus truncation/origin error estimates
    in aux.
    """
    if q is None:
        q = QuadConfig()
    if joint.x_spec.kind != "euclidean" or joint.y_spec.kind != "euclidean":
        raise ValueError("characteristic-function route needs Euclidean parts")
    if joint.x_spec.dim != 1 or joint.y_spec.dim != 1:
        raise ValueError("this route is one-dimensional on each side")
    beta = joint.x_spec.beta
    if not 0 < beta < 2:
        raise DomainError(
            "the characteristic-function integral diverges for beta >= 2 "
            "and beta=%g is outside (0, 2)" % beta)

    xs = joint.x_atoms[:, 0]
    ys = joint.y_atoms[:, 0]
    p = joint.probs
    t, wt_raw = log_panel_grid(q, freq=float(xs.max() - xs.min()))
    u, wu_raw = log_panel_grid(q, freq=float(ys.max() - ys.min()))
    wt = wt_raw * t ** (-1.0 - beta)
    wu = wu_raw * u ** (-1.0 - beta)

    m_u_half = u <= q.tmax / 2.0
    m_u_tenth = u <= q.tmax / 10.0
    m_u_origin = u < 10.0 * q.eps
    m_u_band = u < 2.0 * q.eps
    ey = np.exp(1j * np.outer(ys, u))          # support x n_u
    phi_y = p @ ey

    g_cols = np.zeros((t.size, 5))
    for lo in range(0, t.size, chunk):
        tc = t[lo:lo + chunk]
        ex = np.exp(1j * np.outer(tc, xs))     # chunk x support
        phi_x = ex @ p
        weighted = ex * p[None, :]
        m_pp = weighted @ ey                   # phi_XY(t, u)
        m_pm = weighted @ np.conj(ey)          # phi_XY(t, -u)
        g = np.abs(m_pp - np.outer(phi_x, phi_y)) ** 2 \
            + np.abs(m_pm - np.outer(phi_x, np.conj(phi_y))) ** 2
        # the (-, -) and (-, +) quadrants are conjugate mirrors
        g *= 2.0
        g_cols[lo:lo + chunk, 0] = g @ wu
        g_cols[lo:lo + chunk, 1] = g[:, m_u_half] @ wu[m_u_half]
        g_cols[lo:lo + chunk, 2] = g[:, m_u_tenth] @ wu[m_u_tenth]
        g_cols[lo:lo + chunk, 3] = g[:, m_u_origin] @ wu[m_u_origin]
        g_cols[lo:lo + chunk, 4] = g[:, m_u_band] @ wu[m_u_band]

    full, ht, th, hh, tenth, origin_u = _masked_sums(t, wt, g_cols, q.tmax)
    m_t_origin = t < 10.0 * q.eps
    origin_t = float(wt[m_t_origin] @ g_cols[m_t_origin, 0])
    corrected, tail = tail_extrapolate(full, ht, th, hh, beta)

    # near the origin the integrand scales like t^(1-beta) u^(1-beta), so
    # the band [eps, 2*eps) pins down the mass below eps in each variable
    m_t_band = t < 2.0 * q.eps
    band_t = float(wt[m_t_band] @ g_cols[m_t_band, 0])
    band_u = float(wt @ g_cols[:, 4])
    g0 = 2.0 ** (2.0 - beta) - 1.0
    origin_corr = (band_t + band_u) / g0
    corrected += origin_corr

    c2 = c_const(1, beta) ** 2
    value = c2 * corrected
    trunc_err = c2 * abs(full - tenth)
    origin_err = c2 * (origin_t + origin_u)
    if abs(tail) > 0.5 * max(full, 1e-300):
        raise QuadratureError(
            "outer-cutoff extrapolation unreliable; raise tmax")
    aux = {
        "trunc_err": trunc_err,
        "origin_err": origin_err,
        "tail_correction": c2 * tail,
        "origin_correction": c2 * origin_corr,
        "nodes_t": int(t.size),
        "nodes_u": int(u.size),
    }
    return DcovEstimate(value=value, method="charfn", beta=beta,
                        n=joint.support, aux=aux)
