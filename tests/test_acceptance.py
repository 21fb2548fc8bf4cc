"""End-to-end acceptance checks, one test per criterion.

Each test prints a one-line verdict so a `pytest -v -s` run doubles as
an acceptance report.
"""

import re
import subprocess
import sys
import time

import numpy as np

from betadcov import (DiscreteJoint, PairedSample, c_const, consistency_sweep,
                      dcov2_closed, dcov_centered, dcov_charfn_1d,
                      dcov_charrv_mc, dcov_exact, dcov_hm, dcov_plugin_d1,
                      euclidean, hhat_eval, perm_test, projection_demo,
                      tail_diagnostic, ttilde_eval)
from conftest import random_joint

SP1 = euclidean(1, 1.0)


def verdict(num, ok, detail=""):
    print("criterion %2d: %s %s" % (num, "PASS" if ok else "FAIL", detail))
    assert ok, "criterion %d failed: %s" % (num, detail)


def bernoulli_joint():
    return DiscreteJoint([[0.0], [1.0]], [[0.0], [1.0]], [0.5, 0.5],
                         SP1, SP1)


def test_criterion_01_definition_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst12 = worst23 = 0.0
    for i in range(50):
        beta = float(rng.choice([0.5, 1.0, 1.5, 2.0, 3.0]))
        joint = random_joint(rng, beta=beta)
        v1 = dcov_exact(joint, "d1").value
        v2 = dcov_exact(joint, "d2").value
        v3 = dcov_exact(joint, "d3").value
        worst12 = max(worst12, abs(v1 - v2))
        worst23 = max(worst23, abs(v2 - v3))
    elapsed = time.perf_counter() - start
    verdict(1, worst12 <= 1e-10 and worst23 <= 1e-10 and elapsed < 10.0,
            "max|d1-d2|=%.2e max|d2-d3|=%.2e in %.1fs"
            % (worst12, worst23, elapsed))


def test_criterion_02_plugin_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(102)
    worst_d1 = worst_c = 0.0
    for n in (10, 100, 500):
        for beta in (0.5, 1.0, 2.0):
            x = rng.normal(size=(n, 2))
            y = x + rng.normal(size=(n, 2))
            sx = euclidean(2, beta)
            sample = PairedSample(x, y, sx, sx)
            joint = DiscreteJoint(x, y, np.full(n, 1.0 / n), sx, sx)
            oracle = dcov_exact(joint, "d1").value
            worst_d1 = max(worst_d1, abs(dcov_plugin_d1(sample).value - oracle))
            worst_c = max(worst_c, abs(dcov_centered(sample).value - oracle))
    elapsed = time.perf_counter() - start
    verdict(2, worst_d1 <= 1e-10 and worst_c <= 1e-9 and elapsed < 5.0,
            "plugin gap %.2e centered gap %.2e in %.1fs"
            % (worst_d1, worst_c, elapsed))


def test_criterion_03_bernoulli_oracle():
    joint = bernoulli_joint()
    exact = dcov_exact(joint, "d1").value
    ok_exact = abs(exact - 0.25) <= 1e-12

    x = np.repeat([0.0, 1.0], 100)[:, None]
    sample = PairedSample(x, x, SP1, SP1)
    centered = dcov_centered(sample).value
    ok_centered = abs(centered - 0.25) <= 1e-15

    quad = dcov_charfn_1d(joint).value
    ok_quad = abs(quad - 0.25) / 0.25 <= 1e-3

    # both parts are 1-D, so the unit directions are +-1 and every draw
    # is the exact d1: value and stderr are exact up to the rounding of
    # the mean over draws
    mc = dcov_charrv_mc(sample, draws=2000, seed=303)
    ok_mc = abs(mc.value - 0.25) <= 1e-12 and mc.stderr <= 1e-15

    hm = dcov_hm(sample, 1e6).value   # max squared distance is 1
    ok_hm = abs(hm - 0.25) <= 1e-3

    verdict(3, ok_exact and ok_centered and ok_quad and ok_mc and ok_hm,
            "exact=%.12f centered=%.15f quad=%.6f mc=%.4f+-%.4f hm=%.6f"
            % (exact, centered, quad, mc.value, mc.stderr, hm))


def test_criterion_04_beta2_closed_form():
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(10, 80))
        p = int(rng.integers(1, 4))
        q = int(rng.integers(1, 4))
        x = rng.normal(size=(n, p))
        y = rng.normal(size=(n, q)) + x[:, :1]
        sp = euclidean(p, 2.0)
        sq = euclidean(q, 2.0)
        sample = PairedSample(x, y, sp, sq)
        worst = max(worst, abs(dcov2_closed(sample).value
                               - dcov_centered(sample).value))
    ok_cross = worst <= 1e-10

    x1 = rng.normal(size=(50, 1))
    s1 = PairedSample(x1, x1, euclidean(1, 2.0), euclidean(1, 2.0))
    cov = float(np.mean((x1 - x1.mean()) ** 2))
    gap_1d = abs(dcov2_closed(s1).value - 4.0 * cov ** 2)
    ok_1d = gap_1d <= 1e-12

    sp2 = euclidean(1, 2.0)
    xa = [[-1.0], [0.0], [1.0]]
    ya = [[1.0], [0.0], [1.0]]
    probs = [1 / 3] * 3
    dc2 = dcov_exact(DiscreteJoint(xa, ya, probs, sp2, sp2), "d1").value
    dc1 = dcov_exact(DiscreteJoint(xa, ya, probs, SP1, SP1), "d1").value
    ok_demo = abs(dc2) <= 1e-12 and dc1 > 0.01

    verdict(4, ok_cross and ok_1d and ok_demo,
            "cross gap %.2e, 1d gap %.2e, dc2=%.2e dc1=%.4f"
            % (worst, gap_1d, dc2, dc1))


def test_criterion_05_truncated_kernel_limit():
    rng = np.random.default_rng(105)
    x = rng.uniform(size=(60, 2))
    y = x + 0.3 * rng.uniform(size=(60, 2))
    sample = PairedSample(x, y, euclidean(2, 1.0), euclidean(2, 1.0))
    values = [dcov_hm(sample, m).value
              for m in (1e-2, 1e-1, 1.0, 10.0, 1e3, 1e5)]
    monotone = all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
    from betadcov import pairwise_distances
    maxd2 = max(float(np.max(pairwise_distances(x, euclidean(2, 2.0)))),
                float(np.max(pairwise_distances(y, euclidean(2, 2.0)))))
    target = dcov_plugin_d1(sample).value
    limit_gap = abs(dcov_hm(sample, 1e6 * maxd2).value - target)
    verdict(5, monotone and limit_gap <= 1e-3,
            "monotone=%s limit gap %.2e" % (monotone, limit_gap))


def test_criterion_06_consistency():
    start = time.perf_counter()
    trace = consistency_sweep(bernoulli_joint(), [100, 1000, 10000, 100000],
                              seeds=[1, 2, 3, 4, 5])
    errors = [err for _, _, err in trace.rows]
    decreasing = all(b < a for a, b in zip(errors, errors[1:]))
    elapsed = time.perf_counter() - start
    verdict(6, decreasing and errors[-1] <= 0.01 and elapsed < 60.0,
            "median errors %s in %.1fs"
            % (["%.2e" % e for e in errors], elapsed))


def test_criterion_07_permutation_test():
    start = time.perf_counter()
    rejections = 0
    for run in range(100):
        rng = np.random.default_rng([700, run])
        x = rng.normal(size=(100, 1))
        sample = PairedSample(x, x, SP1, SP1)
        if perm_test(sample, B=199, seed=run).p_value <= 0.05:
            rejections += 1
    power = rejections / 100

    false_pos = 0
    for run in range(200):
        rng = np.random.default_rng([701, run])
        x = rng.normal(size=(100, 1))
        y = rng.normal(size=(100, 1))
        sample = PairedSample(x, y, SP1, SP1)
        if perm_test(sample, B=199, seed=run).p_value <= 0.05:
            false_pos += 1
    type1 = false_pos / 200
    elapsed = time.perf_counter() - start
    verdict(7, power >= 0.95 and 0.0 <= type1 <= 0.10 and elapsed < 120.0,
            "power=%.2f type-I=%.3f in %.1fs" % (power, type1, elapsed))


def test_criterion_08_pointwise_bound_suite():
    rng = np.random.default_rng(108)
    n = 100_000

    def norms(q):
        return np.linalg.norm(q, axis=-1)

    def hhat_batch(q, beta):
        def d(a, b):
            return np.linalg.norm(a - b, axis=-1) ** beta
        return (d(q[:, 0], q[:, 1]) - d(q[:, 1], q[:, 2])
                + d(q[:, 2], q[:, 3]) - d(q[:, 3], q[:, 0]))

    ok = True
    detail = []
    quads = np.concatenate([rng.normal(size=(n // 2, 4, 2)) * 3,
                            rng.standard_cauchy(size=(n - n // 2, 4, 2))])
    nn = norms(quads)
    nxt = np.roll(nn, -1, axis=1)
    prv = np.roll(nn, 1, axis=1)
    for beta in (0.4, 0.8, 1.0):
        h = np.abs(hhat_batch(quads, beta))
        bound = 2.0 * np.sum(np.minimum(nn, nxt) ** beta, axis=1)
        gap = float(np.max(h - bound))
        ok &= gap <= 1e-9
        detail.append("a(%.1f)=%.1e" % (beta, gap))
    for beta in (0.4, 1.0, 1.6, 2.0):
        c = max(2.0, beta * 2.0 ** beta)
        h = np.abs(hhat_batch(quads, beta))
        bound = c * np.sum(nn ** (beta / 2) * nxt ** (beta / 2), axis=1)
        gap = float(np.max(h - bound))
        ok &= gap <= 1e-9 * max(1.0, float(np.max(bound)))
        detail.append("b(%.1f)=%.1e" % (beta, gap))
    for beta in (1.0, 1.6, 2.0, 3.0):
        c = beta * 2.0 ** beta
        h = np.abs(hhat_batch(quads, beta))
        bound = c * np.sum(nn ** (beta - 1.0) * (nxt + prv), axis=1)
        gap = float(np.max(h - bound))
        ok &= gap <= 1e-9 * max(1.0, float(np.max(bound)))
        detail.append("c(%.1f)=%.1e" % (beta, gap))

    # exact algebraic identities on random quadruples
    spec = euclidean(2, 1.3)
    atoms = rng.normal(size=(6, 2))
    probs = rng.dirichlet(np.ones(6))
    probs = probs / probs.sum()
    for _ in range(25):
        a, b, c_, d_ = rng.normal(size=(4, 2))
        anti = abs(hhat_eval(a, b, c_, d_, spec)
                   + hhat_eval(b, c_, d_, a, spec))
        ok &= anti <= 1e-12
        q = atoms[rng.integers(0, 6, size=4)]
        recon = (ttilde_eval(q[0], q[1], atoms, probs, spec)
                 - ttilde_eval(q[1], q[2], atoms, probs, spec)
                 + ttilde_eval(q[2], q[3], atoms, probs, spec)
                 - ttilde_eval(q[3], q[0], atoms, probs, spec))
        ok &= abs(recon - hhat_eval(q[0], q[1], q[2], q[3], spec)) <= 1e-12
    verdict(8, bool(ok), " ".join(detail))


def test_criterion_09_tail_divergence():
    beta = 0.5
    spec = euclidean(1, beta)
    grew = []
    for seed in range(5):
        vals = {}
        for n in (1000, 100_000):
            rng = np.random.default_rng([900, seed, n])
            u = rng.uniform(size=n)
            x = np.maximum(2.0, u ** (-1.0 / beta))
            vals[n] = tail_diagnostic(x[:, None], spec)
        grew.append(vals[100_000] > vals[1000])
    pareto_ok = sorted(grew)[len(grew) // 2]   # median of the indicators

    rel_changes = []
    for seed in range(5):
        vals = {}
        for n in (10_000, 100_000):
            rng = np.random.default_rng([901, seed, n])
            vals[n] = tail_diagnostic(rng.uniform(size=(n, 1)), spec)
        rel_changes.append(abs(vals[100_000] - vals[10_000]) / vals[10_000])
    bounded_ok = float(np.median(rel_changes)) < 0.10
    verdict(9, bool(pareto_ok) and bounded_ok,
            "pareto grew %d/5, bounded median change %.3f"
            % (sum(grew), float(np.median(rel_changes))))


def test_criterion_10_constants():
    gap1 = abs(c_const(1, 1.0) - 1.0 / np.pi)
    gap2 = abs(c_const(2, 1.0) - 1.0 / (2.0 * np.pi))
    verdict(10, gap1 <= 1e-12 and gap2 <= 1e-12,
            "gaps %.1e %.1e" % (gap1, gap2))


def test_criterion_11_projection_non_monotonicity():
    dc_full, dc_projected = projection_demo()
    margin = dc_projected - dc_full
    verdict(11, margin > 1e-6,
            "full=%.6f projected=%.6f margin=%.2e"
            % (dc_full, dc_projected, margin))


def test_criterion_12_determinism(tmp_path):
    path = tmp_path / "det.csv"
    rng = np.random.default_rng(112)
    x = rng.normal(size=80)
    y = x + rng.normal(size=80)
    path.write_text("x1,y1\n"
                    + "\n".join("%.17g,%.17g" % p for p in zip(x, y)) + "\n")
    outs = []
    for threads in ("1", "8"):
        proc = subprocess.run(
            [sys.executable, "-m", "betadcov.cli",
             "dcov", "--input", str(path), "--x-cols", "x1",
             "--y-cols", "y1", "--beta", "1", "--method", "charrv",
             "--seed", "42", "--draws", "80"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        stripped = re.sub(r'"wall_time_s": [0-9.e+-]+,?\s*', "",
                          proc.stdout)
        outs.append(stripped.encode())
    verdict(12, outs[0] == outs[1],
            "identical %d-byte reports" % len(outs[0]))
