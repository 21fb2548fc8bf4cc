"""Gaussian-projection route to beta-distance covariance.

Definition-5 style estimator: for K independent standard normal
direction pairs (xi, eta), the conditional covariance of
exp(i r xi.X) and exp(i s eta.Y) over the empirical law is integrated
against the singular weight r^(-1-beta) s^(-1-beta) on (0, inf)^2 and
averaged over draws. Works in any finite dimension; this is the
paper-free route to multivariate inputs that the one-dimensional
quadrature module cannot serve.

The per-draw integral is not evaluated on a two-dimensional grid.
Expanding |phi_XY - phi_X phi_Y|^2 and integrating each exponential
factor separately reduces the draw to the three-term pairwise
contraction of the exact module, applied to the Hermitian kernels
P_kl = integral w(r) exp(i r (xi.x_k - xi.x_l)) dr of one scalar gap
per pair. The contraction ignores a constant shift of P, so P = -C + iS
with C the regularized cosine and S the sine transform of the weight,
whose outer-cutoff Richardson tail is folded in (the contraction is
bilinear). Both transforms are tabulated once per call on a geometric
gap grid, in blocks of bounded size; each draw looks up the gaps above
the diagonal and takes the real part as two real contractions.
"""

import math

import numpy as np

from .charfn import DomainError, QuadConfig, log_panel_grid, scale_const
from .exact import DcovEstimate, _d1_contract, _d1_rows
from .metric import squared_distance_rows


def char_rv(points, weights, xi, r):
    """Conditional characteristic value E(exp(i r xi.X)) over a discrete law.

    points is an (n, d) coordinate array with a probability (or 1/n)
    weight vector; xi a single projection direction. The modulus of
    the result never exceeds 1.
    """
    if r == 0.0:
        return complex(1.0)
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    w = np.asarray(weights, dtype=float)
    proj = pts @ np.asarray(xi, dtype=float)
    return complex(np.sum(w * np.exp(1j * r * proj)))


def mean_sq_char_gap(joint, r, s):
    """Gaussian-averaged squared gap E |Phi_XY - Phi_X Phi_Y|^2, exactly.

    Averaging exp(i xi.v) over a standard normal direction gives
    exp(-|v|^2 / 2), so the expectation over (xi, eta) collapses to the
    pairwise contraction of two Gaussian kernel matrices with scale
    parameters r^2/2 and s^2/2. Finite-support joints only.
    """
    k = joint.support
    dx2 = squared_distance_rows(joint.x_atoms, 0, k)
    dy2 = squared_distance_rows(joint.y_atoms, 0, k)
    gx = np.exp(-(r * r / 2.0) * dx2)
    gy = np.exp(-(s * s / 2.0) * dy2)
    return _d1_contract(gx, gy, joint.probs)


def mean_sq_char_gap_mc(joint, r, s, draws, seed):
    """Monte Carlo counterpart of mean_sq_char_gap.

    Samples standard normal directions, evaluates the characteristic
    values exactly over the discrete law, and averages the squared
    modulus of the gap. Returns (mean, stderr).
    """
    rng = np.random.default_rng(seed)
    x = joint.x_atoms
    y = joint.y_atoms
    w = joint.probs
    vals = np.empty(draws)
    for i in range(draws):
        xi = rng.standard_normal(x.shape[1])
        eta = rng.standard_normal(y.shape[1])
        ph_x = np.exp(1j * r * (x @ xi))
        ph_y = np.exp(1j * s * (y @ eta))
        joint_cf = np.sum(w * ph_x * ph_y)
        gap = joint_cf - np.sum(w * ph_x) * np.sum(w * ph_y)
        vals[i] = abs(gap) ** 2
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(draws))


def _collapse(x, y):
    """Merge duplicate (x, y) rows into weighted atoms."""
    stacked = np.hstack([x, y])
    uniq, counts = np.unique(stacked, axis=0, return_counts=True)
    w = counts / counts.sum()
    return uniq[:, : x.shape[1]], uniq[:, x.shape[1]:], w


def _kernel_table(r, wr, delta_max):
    """Cosine/sine transforms of one quadrature weight on a gap grid.

    Returns (deltas, table): deltas is 0 and 4096 geometric steps up to
    delta_max; table columns are integral w(r) (1 - cos(r d)) dr, integral
    w(r) sin(r d) dr and the slopes of both to the next row (0 on the
    last). Rows are built in blocks of at most 2^20 phase elements.
    """
    delta_max = delta_max if delta_max > 0 else 1.0
    deltas = np.concatenate([[0.0],
                             np.geomspace(delta_max * 1e-9, delta_max, 4096)])
    table = np.zeros((deltas.size, 4))
    rows = max(1, (1 << 20) // r.size)
    for lo in range(0, deltas.size, rows):
        phase = np.outer(deltas[lo:lo + rows], r)
        table[lo:lo + rows, 1] = np.sin(phase) @ wr
        # 1 - cos(x) as 2 sin(x/2)^2, which keeps its digits near x = 0
        np.sin(np.multiply(phase, 0.5, out=phase), out=phase)
        table[lo:lo + rows, 0] = 2.0 * (np.square(phase, out=phase) @ wr)
    table[:-1, 2:] = np.diff(table[:, :2], axis=0) / np.diff(deltas)[:, None]
    return deltas, table


def _gap_lookup(a, deltas, table):
    """np.interp of both table values at gaps a >= 0, sharing one index.

    After 0 the grid is geometric, so the bracket is a scaled logarithm
    plus one correction step each way; the clamping and linear rule are
    those of np.interp, with the same arithmetic.
    """
    last = deltas.size - 1
    log_step = math.log(deltas[-1] / deltas[1]) / (last - 1)
    steps = np.log(np.maximum(a, 0.5 * deltas[1]) / deltas[1]) / log_step
    j = np.clip(np.floor(steps) + 1, 0, last).astype(np.intp)
    j -= a < deltas[j]
    j += a >= np.append(deltas[1:], np.inf)[j]
    rows = table[j]
    return rows[:, 2:] * (a - deltas[j])[:, None] + rows[:, :2]


def _gap_kernels(proj, w, deltas, table, iu, ju):
    """Kernels C and S of one projection, with -C + iS the Hermitian kernel.

    Only gaps above the diagonal are looked up (gap 0 is 0 in both
    tables). S is centered, which the contraction ignores: above beta = 1
    its large part linear in the gap would otherwise cancel in the sum.
    """
    gap = proj[iu] - proj[ju]
    cs = _gap_lookup(np.abs(gap), deltas, table)
    c, s = np.zeros((2, proj.size, proj.size))
    c[iu, ju] = c[ju, iu] = cs[:, 0]
    sv = np.sign(gap) * cs[:, 1]
    s[iu, ju] = sv
    s[ju, iu] = -sv
    sw = s @ w
    return c, s - sw[:, None] + sw[None, :]


def dcov_charrv_mc(sample, draws=2000, seed=None, q=None):
    """Monte Carlo beta-distance covariance via Gaussian projections.

    Requires Euclidean parts and beta in (0, 2). Each draw projects
    both sides onto fresh standard normal directions and computes the
    weighted characteristic-gap integral exactly over the empirical
    law; value and stderr are the mean and standard error over draws.
    Deterministic for a fixed (seed, draws) pair.
    """
    if sample.x_spec.kind != "euclidean" or sample.y_spec.kind != "euclidean":
        raise ValueError("Gaussian projection route needs Euclidean parts")
    beta = sample.beta
    if not 0 < beta < 2:
        raise DomainError("beta must lie in (0, 2), got %g" % beta)
    if draws < 2:
        raise ValueError("need at least 2 draws for a standard error")
    if seed is None:
        raise ValueError("seed is required (no silent nondeterminism)")
    if q is None:
        q = QuadConfig(eps=1e-5, tmax=1e2, panels_per_decade=6,
                       points_per_panel=12)

    x, y, w = _collapse(sample.x, sample.y)
    streams = [np.random.default_rng(s)
               for s in np.random.SeedSequence(seed).spawn(draws)]
    xis = np.stack([rg.standard_normal(x.shape[1]) for rg in streams])
    etas = np.stack([rg.standard_normal(y.shape[1]) for rg in streams])
    px = x @ xis.T     # atom x draw projections
    py = y @ etas.T

    span = max(float(px.max() - px.min()), float(py.max() - py.min()))
    r, wr_raw = log_panel_grid(q, freq=span)
    # one-step Richardson tail for the outer cutoff: the mass beyond tmax
    # is f times that of the band (tmax/2, tmax], and as the contraction is
    # bilinear, weighting the band by 1 + f folds the tail into the kernels
    f = 1.0 / (2.0 ** beta - 1.0)
    wr = wr_raw * r ** (-1.0 - beta) * np.where(r > q.tmax / 2.0, 1.0 + f, 1.0)
    deltas, table = _kernel_table(r, wr, span)

    iu, ju = np.triu_indices(w.size, 1)
    vals = np.empty(draws)
    for i in range(draws):
        cp, sp = _gap_kernels(px[:, i], w, deltas, table, iu, ju)
        cq, sq = _gap_kernels(py[:, i], w, deltas, table, iu, ju)
        # real part of the contraction of -Cp + iSp with -Cq + iSq
        vals[i] = _d1_contract(cp, cq, w) - _d1_contract(sp, sq, w)

    c2 = scale_const(beta) ** 2
    value = c2 * float(vals.mean())
    stderr = c2 * float(vals.std(ddof=1) / math.sqrt(draws))
    aux = {"draws": draws, "grid_nodes": int(r.size), "atoms": int(w.size)}
    return DcovEstimate(value=value, method="charrv", beta=beta,
                        n=sample.n, stderr=stderr, aux=aux)


def h_trunc(x, m, beta):
    """Regularizing kernel x^(b/2) + M^(b/2) - (x+M)^(b/2) on x >= 0.

    Nonnegative, bounded by x^(b/2), and nondecreasing in M with limit
    x^(b/2) as M grows (for 0 < beta < 2). Evaluated as
    x^e - M^e expm1(e log1p(x/M)) with e = b/2, which avoids the
    cancellation of M^e against (x+M)^e when M is much larger than x.
    """
    if m <= 0:
        raise ValueError("M must be positive")
    if not 0 < beta < 2:
        raise DomainError("beta must lie in (0, 2), got %g" % beta)
    x = np.asarray(x, dtype=float)
    e = beta / 2.0
    return x ** e - m ** e * np.expm1(e * np.log1p(x / m))


def dcov_hm(sample, m):
    """Truncated-kernel distance covariance over the empirical law.

    Replaces the beta-powered distance by h_trunc of the squared
    distance and evaluates the quarter-mean of the product of the two
    alternating four-point sums, which reduces to the same pairwise
    contraction as the untruncated estimator, swept over row blocks of
    the two kernels. Nondecreasing in M and converging to
    dcov_plugin_d1 as M grows.
    """
    if sample.x_spec.kind != "euclidean" or sample.y_spec.kind != "euclidean":
        raise ValueError("truncated kernel route needs Euclidean parts")
    if sample.n < 2:
        raise ValueError("need at least 2 observations, got %d" % sample.n)
    beta = sample.beta

    def rows(lo, hi):
        return (h_trunc(squared_distance_rows(sample.x, lo, hi), m, beta),
                h_trunc(squared_distance_rows(sample.y, lo, hi), m, beta))

    value = _d1_rows(rows, np.full(sample.n, 1.0 / sample.n))
    return DcovEstimate(value=value, method="hm", beta=beta, n=sample.n,
                        aux={"M": float(m)})
