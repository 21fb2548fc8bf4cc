import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, reject
from hypothesis import strategies as st

from betadcov import (DcovEstimate, DiscreteJoint, DomainError, QuadConfig,
                      QuadratureError, c_const, charfn, dcov_charfn_1d,
                      dcov_exact, euclidean, exact, scale_const)
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


def test_node_cap_refuses_before_building():
    # 1e12 would ask for about 7e6 panels in the first decade alone; the
    # refusal comes before any of them is laid out
    with pytest.raises(QuadratureError, match="would need at least"):
        log_panel_grid(QuadConfig(), freq=1e12)
    nodes, _ = log_panel_grid(QuadConfig(), freq=0.0)
    assert nodes.size < MAX_NODES
    assert issubclass(QuadratureError, RuntimeError)


def test_box_kernels_beyond_physical_memory_refused(monkeypatch):
    k = 300
    x = np.linspace(0.0, 1.0, k)
    sp = euclidean(1, 1.0)
    joint = DiscreteJoint(x, x ** 2, np.full(k, 1.0 / k), sp, sp)
    # two stacks of five 0.72 MB kernels, one axis's gap table, four
    # 0.26 MB phase blocks and tables, atom tables 181 nodes wide, two
    # 2176-node grids and the 2^14-entry row blocks of eleven kernel
    # pairs, three times over, on a machine 1 byte short
    need = 8 * (10 * k * k + 14 * (k * (k - 1) // 2) + 4 * (1 << 15)
                + 2 * 181 * k + 8 * (2176 + 2176) + 3 * 11 * (1 << 14))
    monkeypatch.setattr(exact, "_physical_memory", lambda: need - 1)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=(
                r"^charfn quadrature at k=300 atoms needs about %d "
                r"bytes \(0.0 GB\) for two stacks of five k x k box "
                r"kernels, a gap table and phase blocks, more than the "
                r"0.0 GB of physical memory$" % need)):
            dcov_charfn_1d(joint)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1e6


#: a grid of 40-odd nodes per axis: the phase work is (distinct gaps) x
#: nodes, and a block still fills PHASE_BLOCK from k = 300 on
_COARSE = QuadConfig(eps=1e-3, tmax=1e2, points_per_panel=2)


@pytest.mark.parametrize("k, q", [(100, QuadConfig()), (300, _COARSE),
                                  (600, _COARSE)])
def test_peak_within_counted_bytes(monkeypatch, k, q):
    sp = euclidean(1, 1.0)
    # first-call allocations that persist (caches) are not the call's
    dcov_charfn_1d(DiscreteJoint([0.0, 1.0], [0.0, 1.0], [0.5, 0.5], sp, sp))
    # distinct gaps throughout, the largest gap table k atoms can have
    rng = np.random.default_rng(k)
    x = rng.uniform(size=k)
    joint = DiscreteJoint(x, x + rng.uniform(size=k), np.full(k, 1.0 / k),
                          sp, sp)
    counted = []
    require = charfn._require_memory
    monkeypatch.setattr(charfn, "_require_memory",
                        lambda need, *args: counted.append(need)
                        or require(need, *args))
    tracemalloc.start()
    try:
        dcov_charfn_1d(joint, q)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(counted) == 1
    assert peak <= counted[0]


def _listed_log_panel_grid(q, freq=0.0):
    """Verbatim copy of log_panel_grid when it listed its edges."""
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


# the atom spans of the benchmark's charfn joints are exactly 2 and 2.5;
# at 300 the default grid fills 96% of the node cap
@pytest.mark.parametrize("freq", [0.0, 2.0, 2.5, 37.3, 300.0])
@pytest.mark.parametrize("q", [
    QuadConfig(), QuadConfig(eps=1e-5, tmax=1e2, panels_per_decade=6,
                             points_per_panel=12),
    QuadConfig(eps=3e-4, tmax=7.0, panels_per_decade=1, points_per_panel=2)])
def test_panel_grid_matches_listed_edges(q, freq):
    nodes, weights = log_panel_grid(q, freq)
    ref_nodes, ref_weights = _listed_log_panel_grid(q, freq)
    assert nodes.tobytes() == ref_nodes.tobytes()
    assert weights.tobytes() == ref_weights.tobytes()


@pytest.mark.parametrize("freq", [320.0, 1e12])
def test_panel_grid_cap_matches_listed_edges(freq):
    with pytest.raises(QuadratureError) as ref:
        _listed_log_panel_grid(QuadConfig(), freq)
    with pytest.raises(QuadratureError, match=str(ref.value)):
        log_panel_grid(QuadConfig(), freq)


def test_unreliable_tail_raises():
    sp = euclidean(1, 1.0)
    joint = DiscreteJoint([[0.0], [1e-3]], [[0.0], [1e-3]], [0.5, 0.5], sp, sp)
    with pytest.raises(QuadratureError, match="extrapolation unreliable"):
        dcov_charfn_1d(joint)


def test_unreliable_tail_of_near_independent_joint_raises():
    # x = X + d Z and y = Y + d Z with X, Y independent on {0, 30} and
    # {0, 21}: all the dependence sits at |t|, |u| near 1/d, past T/2.
    # The full box cancels to 0 in double precision, and the tail, 5e-13
    # in the units of the kernels, matches its extended-precision value to
    # 1e-5 and is above half the full box there too. The contraction's
    # rounding bound of the full kernels, 2.7e-12, would let it through;
    # that of the outer-band kernels, which the tail is taken from, is
    # 1.4e-16.
    d = 5e-5
    x, y, p = np.array([(x1 + d * z, y1 + d * z, px * py * 0.5)
                        for x1, px in ((0.0, 0.5), (30.0, 0.5))
                        for y1, py in ((0.0, 0.4), (21.0, 0.6))
                        for z in (0.0, 1.0)]).T
    sp = euclidean(1, 1.0)
    joint = DiscreteJoint(x[:, None], y[:, None], p, sp, sp)
    with pytest.raises(QuadratureError, match="extrapolation unreliable"):
        dcov_charfn_1d(joint)


# ------------------------------------------------ separable box kernels

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


def _ref_charfn_1d(joint, q=None, chunk=256):
    """The two-dimensional grid quadrature the separable kernels replace,
    kept verbatim as the reference."""
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

    xs = joint.x[:, 0]
    ys = joint.y[:, 0]
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
    # one-step Richardson correction for the outer cutoffs
    f = 1.0 / (2.0 ** beta - 1.0)
    tail_t = (full - ht) * f
    tail_u = (full - th) * f
    cross = (full - ht - th + hh) * f * f
    corrected = full + tail_t + tail_u + cross
    tail = tail_t + tail_u + cross

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
                        n=joint.n, aux=aux)


def _longdouble_kernels(nodes, w, atoms, q):
    """The five box kernels of charfn._box_kernels (all nodes, (T/2, T],
    (T/10, T], below 10 eps and below 2 eps), each gap's own sine taken
    in extended precision."""
    ld = np.longdouble
    wm = np.asarray(w, dtype=ld)[:, None] * np.column_stack([
        nodes > 0, nodes > q.tmax / 2.0, nodes > q.tmax / 10.0,
        nodes < 10.0 * q.eps, nodes < 2.0 * q.eps])
    x = atoms.astype(ld)
    k = atoms.size
    iu, ju = np.triu_indices(k, 1)
    gaps = np.abs(x[iu] - x[ju])
    vals = np.empty((gaps.size, 5), dtype=ld)
    for lo in range(0, gaps.size, 64):
        s = np.sin(np.multiply.outer(gaps[lo:lo + 64], nodes.astype(ld)) / 2)
        vals[lo:lo + 64] = 2 * (s * s) @ wm
    kern = np.zeros((5, k, k), dtype=ld)
    kern[:, iu, ju] = kern[:, ju, iu] = vals.T
    return kern


def _longdouble_fields(joint, q=QuadConfig()):
    """value and aux error fields of the same discretisation, summed in
    extended precision.

    The masses beyond T/2 and T/10 are contracted from the outer-band
    kernels: differencing the boxes up to T/2 and T/10 would keep only
    about 13 digits of the tail at beta = 1.5, even in extended precision.
    """
    ld = np.longdouble
    beta = joint.x_spec.beta
    p = joint.probs.astype(ld)

    def kernels(atoms):
        nodes, w = log_panel_grid(q, freq=float(atoms.max() - atoms.min()))
        w = w.astype(ld) * nodes.astype(ld) ** ld(-1.0 - beta)
        return _longdouble_kernels(nodes, w, atoms, q)

    def box(a, b):
        aw = a @ p
        bw = b @ p
        return 4 * (np.sum(p[:, None] * p[None, :] * (a * b))
                    + (p @ aw) * (p @ bw) - 2 * np.sum(p * (aw * bw)))

    (ax, ax2, ax10, ax_o, ax_b), (by, by2, by10, by_o, by_b) = (
        kernels(joint.x[:, 0]), kernels(joint.y[:, 0]))
    f = 1 / (ld(2) ** ld(beta) - 1)
    tail = (box(ax2, by) + box(ax, by2)) * f + box(ax2, by2) * f * f
    origin_corr = ((box(ax_b, by) + box(ax, by_b))
                   / (ld(2) ** (2 - ld(beta)) - 1))
    c2 = ld(c_const(1, beta)) ** 2
    return {"value": float(c2 * (box(ax, by) + tail + origin_corr)),
            "trunc_err": float(c2 * abs(box(ax10, by) + box(ax, by10)
                                        - box(ax10, by10))),
            "tail_correction": float(c2 * tail),
            "origin_err": float(c2 * (box(ax_o, by) + box(ax, by_o))),
            "origin_correction": float(c2 * origin_corr)}


def _ref_joint(beta, k):
    rng = np.random.default_rng([k if k != "lattice" else 0, int(10 * beta)])
    sp = euclidean(1, beta)
    if k == "lattice":
        # eight atoms on a coarse lattice: many pairs share a gap, and
        # pairs sharing an x or a y atom give zero gaps off the diagonal
        ix = np.array([0, 1, 2, 3, 0, 1, 2, 3])
        iy = np.array([0, 0, 1, 1, 1, 2, 2, 0])
        return DiscreteJoint(0.5 * ix[:, None], 0.25 * iy[:, None],
                             rng.dirichlet(np.ones(8)), sp, sp)
    xa = rng.normal(size=(k, 1))
    ya = xa + 0.3 * rng.normal(size=(k, 1))
    return DiscreteJoint(xa, ya, rng.dirichlet(np.ones(k)), sp, sp)


class TestSeparableKernels:
    @pytest.mark.parametrize("beta", [0.5, 1.0, 1.5])
    @pytest.mark.parametrize("k", [2, 3, 8, "lattice"])
    def test_matches_grid_reference(self, beta, k):
        joint = _ref_joint(beta, k)
        est = dcov_charfn_1d(joint)
        ref = _ref_charfn_1d(joint)
        assert est.value == pytest.approx(ref.value, rel=1e-10)
        assert est.aux["trunc_err"] == pytest.approx(ref.aux["trunc_err"],
                                                     rel=1e-10)
        for key in ("nodes_t", "nodes_u"):
            assert est.aux[key] == ref.aux[key]
        # the tail and origin fields are small differences and band sums
        # that enter the value additively; at beta = 1.5 the reference
        # rounds them at up to about 1e-8 of their own size (its grid
        # integrand is a squared difference that cancels near the origin),
        # so they are held to 1e-10 of the value there, and the
        # extended-precision sums pin the library's origin fields to 1e-10
        # of their own size
        for key in ("tail_correction", "origin_err", "origin_correction"):
            assert abs(est.aux[key] - ref.aux[key]) <= 1e-10 * abs(ref.value)
            if beta <= 1.0:
                assert est.aux[key] == pytest.approx(ref.aux[key], rel=1e-10)
        if np.finfo(np.longdouble).eps < 1e-18:
            ref = _longdouble_fields(joint)
            for key in ("origin_err", "origin_correction"):
                assert est.aux[key] == pytest.approx(ref[key], rel=1e-10)

    def test_kernel_memory_is_bounded(self):
        # the grid reference peaks at about 155 MB on this joint
        joint = _ref_joint(1.0, 64)
        tracemalloc.start()
        try:
            est = dcov_charfn_1d(joint)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert est.aux["nodes_t"] * est.aux["nodes_u"] > 4e7
        assert peak < 24e6

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                        reason="needs an extended-precision long double")
    @pytest.mark.parametrize("beta, k", [
        (0.5, 3), (1.5, 3), (0.5, 8), (1.0, 8), (1.5, 8), (1.0, "lattice"),
        (1.5, "lattice"), (0.5, 32), (1.5, 32)])
    def test_tail_and_truncation_keep_their_digits(self, beta, k):
        # both fields are the mass beyond T/2 or T/10; as differences of
        # nearly equal box values they kept about 10 digits at beta = 1.5
        joint = _ref_joint(beta, k)
        est = dcov_charfn_1d(joint)
        ref = _longdouble_fields(joint)
        assert est.value == pytest.approx(ref["value"], rel=1e-13, abs=0)
        for key in ("tail_correction", "trunc_err"):
            assert est.aux[key] == pytest.approx(ref[key], rel=1e-13, abs=0)

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                        reason="needs an extended-precision long double")
    @pytest.mark.parametrize("beta", [0.5, 1.0, 1.5])
    def test_cluster_with_far_atom_keeps_value_digits(self, beta):
        # eight atoms 0.01 to 0.02 apart carry all but 1e-9 of the mass,
        # and one atom sits 100 away, so span / smallest gap is about 1e4.
        # Per-atom phases round one kernel entry at about eps span / gap
        # of its size, which leaves about 1e-13 on the value
        rng = np.random.default_rng(0)
        xc = np.r_[0.0, 0.01 * np.cumsum(1.0 + rng.random(7))]
        yc = 0.5 * xc[rng.permutation(8)] + 0.003 * rng.random(8)
        p = np.r_[(1.0 - 1e-9) * rng.dirichlet(np.ones(8)), 1e-9]
        sp = euclidean(1, beta)
        joint = DiscreteJoint(np.r_[xc, 100.0][:, None],
                              np.r_[yc, -70.0][:, None], p, sp, sp)
        est = dcov_charfn_1d(joint)
        assert est.value == pytest.approx(_longdouble_fields(joint)["value"],
                                          rel=1e-12, abs=0)

    def test_k32_peak_is_a_few_phase_blocks(self):
        # the gap x node phases of a default grid at k = 32 took one
        # 8.4 MB block, and the call peaked at 8.8 MB
        joint = _ref_joint(1.5, 32)
        dcov_charfn_1d(joint)
        tracemalloc.start()
        try:
            dcov_charfn_1d(joint)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6


def _kernel_atoms(case):
    x = np.random.default_rng(7).normal(size=12)
    return {"continuous": x, "lattice": 0.25 * np.arange(10.0),
            "ties": np.repeat(x[:8], [1, 2, 1, 3, 1, 1, 2, 1]),
            "one atom": x[:1], "offset": x + 1e4}[case]


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                    reason="needs an extended-precision long double")
@pytest.mark.parametrize("block", [None, 1000])
@pytest.mark.parametrize("case", ["continuous", "lattice", "ties", "one atom",
                                  "offset"])
def test_box_kernels_match_extended_precision(monkeypatch, case, block):
    atoms = _kernel_atoms(case)
    # per-atom phases when the distinct atoms are fewer than half the
    # distinct gaps, each gap's own sine otherwise
    gaps = np.abs(np.subtract.outer(atoms, atoms))[
        np.triu_indices(atoms.size, 1)]
    per_atom = 2 * np.unique(atoms).size < np.unique(gaps).size
    assert per_atom == (case in ("continuous", "ties", "offset"))
    if block:
        # 31 nodes by 32 of the 66 gaps (continuous, offset), 34 nodes by
        # the 29 gaps with ties, 111 nodes by the lattice's 9 gaps: none
        # of them splits 3856 or 3760 nodes evenly
        monkeypatch.setattr(charfn, "PHASE_BLOCK", block)
    q = QuadConfig()
    nodes, w = log_panel_grid(q, freq=float(atoms.max() - atoms.min()))
    w = w * nodes ** -2.0
    kern = charfn._box_kernels(nodes, w, atoms, q)
    ref = _longdouble_kernels(nodes, w, atoms, q)
    assert kern.shape == ref.shape == (5, atoms.size, atoms.size)
    for box, box_ref in zip(kern, ref):
        assert np.all(np.abs(box - box_ref)
                      <= 1e-14 * np.abs(box_ref).max())


# atoms on a 0.01 lattice in [0, 4]
_lattice = st.integers(0, 400).map(lambda v: v / 100.0)


@st.composite
def _scalar_joints(draw):
    k = draw(st.integers(2, 12))
    xa = draw(st.lists(_lattice, min_size=k, max_size=k))
    ya = draw(st.lists(_lattice, min_size=k, max_size=k))
    w = np.array(draw(st.lists(st.integers(1, 20), min_size=k, max_size=k)),
                 dtype=float)
    beta = draw(st.floats(0.3, 1.7))
    sp = euclidean(1, beta)
    return DiscreteJoint(np.array(xa)[:, None], np.array(ya)[:, None],
                         w / w.sum(), sp, sp)


@given(_scalar_joints())
def test_property_within_own_error_estimate(joint):
    try:
        est = dcov_charfn_1d(joint)
    except QuadratureError:
        # refusing is the route's answer when the weight's tail is too
        # heavy for the default cutoff, which happens near beta = 0.3
        reject()
    oracle = dcov_exact(joint, "d1").value
    err = est.aux["trunc_err"] + est.aux["origin_err"]
    assert abs(est.value - oracle) <= err + 1e-12


@given(_scalar_joints())
def test_property_d1_matches_d3(joint):
    d1 = dcov_exact(joint, "d1").value
    assert dcov_exact(joint, "d3").value == pytest.approx(d1, abs=1e-10)
