import argparse
import importlib.resources
import io
import json
import re
import subprocess
import sys

import jsonschema
import numpy as np
import pytest

from betadcov import (DiscreteJoint, cli, dcov2_closed, dcov_centered,
                      dcov_charfn_1d, dcov_charrv_mc, dcov_exact, dcov_hm,
                      dcov_plugin_d1, euclidean, exact)
from betadcov.cli import main
from betadcov.io import load_csv

SCHEMA = json.loads(importlib.resources.files("betadcov")
                    .joinpath("report_schema.json").read_text())


def run_cli(args, stdin=None):
    proc = subprocess.run([sys.executable, "-m", "betadcov.cli"] + args,
                          capture_output=True, text=True, input=stdin)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.fixture(scope="module")
def sample_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "sample.csv"
    rng = np.random.default_rng(7)
    x = rng.normal(size=120)
    y = x + 0.5 * rng.normal(size=120)
    lines = ["x1,y1"] + ["%.17g,%.17g" % (a, b) for a, b in zip(x, y)]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.fixture(scope="module")
def joint_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "joint.csv"
    path.write_text("x1,y1,prob\n0,0,0.5\n1,1,0.5\n")
    return str(path)


def check_schema(stdout):
    report = json.loads(stdout)
    jsonschema.validate(report, SCHEMA)
    return report


class TestDcov:
    def test_d1_equals_centered(self, sample_csv):
        vals = {}
        for method in ("d1", "centered"):
            rc, out, _ = run_cli(["dcov", "--input", sample_csv,
                                  "--x-cols", "x1", "--y-cols", "y1",
                                  "--beta", "1", "--method", method])
            assert rc == 0
            vals[method] = check_schema(out)["value"]
        assert vals["d1"] > 0
        assert abs(vals["d1"] - vals["centered"]) <= 1e-9

    def test_exact_on_joint(self, joint_csv):
        rc, out, _ = run_cli(["dcov", "--input", joint_csv,
                              "--x-cols", "x1", "--y-cols", "y1",
                              "--beta", "1", "--method", "exact",
                              "--prob-col", "prob"])
        assert rc == 0
        assert check_schema(out)["value"] == pytest.approx(0.25, abs=1e-12)

    def test_charfn_on_joint(self, joint_csv):
        rc, out, _ = run_cli(["dcov", "--input", joint_csv,
                              "--x-cols", "x1", "--y-cols", "y1",
                              "--beta", "1", "--method", "charfn",
                              "--prob-col", "prob"])
        assert rc == 0
        report = check_schema(out)
        assert report["value"] == pytest.approx(0.25, rel=1e-3)
        assert report["error_estimate"] is not None

    def test_charrv_needs_seed(self, sample_csv):
        rc, _, err = run_cli(["dcov", "--input", sample_csv,
                              "--x-cols", "x1", "--y-cols", "y1",
                              "--beta", "1", "--method", "charrv"])
        assert rc == 2
        assert "seed" in err

    def test_charfn_beta_two_is_domain_error(self, sample_csv):
        rc, _, err = run_cli(["dcov", "--input", sample_csv,
                              "--x-cols", "x1", "--y-cols", "y1",
                              "--beta", "2", "--method", "charfn"])
        assert rc == 3
        assert "diverges" in err

    @staticmethod
    def _wide_csv(tmp_path):
        wide = tmp_path / "wide.csv"
        wide.write_text("x1,y1,prob\n0,0,0.25\n10000,0,0.25\n"
                        "0,1,0.25\n10000,1,0.25\n")
        return str(wide)

    # the four rows carry equal weight, so rows and --prob-col give the
    # same law and the same grid
    @pytest.mark.parametrize("method, extra", [
        ("charfn", []),
        ("charfn", ["--prob-col", "prob"])])
    def test_node_cap_is_exit_3(self, tmp_path, method, extra):
        rc, out, err = run_cli(["dcov", "--input", self._wide_csv(tmp_path),
                                "--x-cols", "x1", "--y-cols", "y1",
                                "--beta", "1", "--method", method] + extra)
        assert rc == 3
        assert out == ""
        assert err.startswith("error: quadrature grid would need")
        assert err.count("\n") == 1

    def test_charrv_has_no_grid_to_cap(self, tmp_path):
        # the same wide span; the four rows form a product law, so every
        # draw is 0 up to rounding
        rc, out, err = run_cli(["dcov", "--input", self._wide_csv(tmp_path),
                                "--x-cols", "x1", "--y-cols", "y1",
                                "--beta", "1", "--method", "charrv",
                                "--seed", "1", "--draws", "4"])
        assert rc == 0, err
        report = check_schema(out)
        assert abs(report["value"]) <= 1e-12 * 10000

    def test_charfn_unreliable_tail_is_exit_3(self, tmp_path):
        narrow = tmp_path / "narrow.csv"
        narrow.write_text("x1,y1,prob\n0,0,0.5\n0.001,0.001,0.5\n")
        rc, out, err = run_cli(["dcov", "--input", str(narrow),
                                "--x-cols", "x1", "--y-cols", "y1",
                                "--beta", "1", "--method", "charfn",
                                "--prob-col", "prob"])
        assert rc == 3
        assert out == ""
        assert err == ("error: outer-cutoff extrapolation unreliable; "
                       "multiply the data by c > 1 (as raising tmax by c), "
                       "then divide the value by c^(2 beta)\n")

    def test_charfn_rescaled_data_passes(self, tmp_path):
        # the joint of the test above times 1000; its exact value at
        # beta = 1 is 0.25, so the unscaled one is 0.25 / 1000^2
        scaled = tmp_path / "scaled.csv"
        scaled.write_text("x1,y1,prob\n0,0,0.5\n1,1,0.5\n")
        rc, out, err = run_cli(["dcov", "--input", str(scaled),
                                "--x-cols", "x1", "--y-cols", "y1",
                                "--beta", "1", "--method", "charfn",
                                "--prob-col", "prob"])
        assert rc == 0, err
        report = check_schema(out)
        assert abs(report["value"] - 0.25) <= report["error_estimate"]

    def test_beta2_requires_beta_two(self, sample_csv):
        rc, _, _ = run_cli(["dcov", "--input", sample_csv,
                            "--x-cols", "x1", "--y-cols", "y1",
                            "--beta", "1", "--method", "beta2"])
        assert rc == 3

    def test_hm_default_truncation_level(self, sample_csv, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "dcov_hm",
                            lambda sample, m: seen.append(m) or
                            cli.dcov_plugin_d1(sample))
        assert main(["dcov", "--input", sample_csv, "--x-cols", "x1",
                     "--y-cols", "y1", "--beta", "1", "--method", "hm"]) == 0
        _, data = load_csv(sample_csv)
        dx = np.subtract.outer(data[:, 0], data[:, 0])
        dy = np.subtract.outer(data[:, 1], data[:, 1])
        assert seen == [1e6 * max(float(np.max(dx * dx)),
                                  float(np.max(dy * dy)), 1.0)]

    def test_hm_and_beta2_reports(self, sample_csv):
        for method, beta in (("hm", "1"), ("beta2", "2")):
            rc, out, _ = run_cli(["dcov", "--input", sample_csv,
                                  "--x-cols", "x1", "--y-cols", "y1",
                                  "--beta", beta, "--method", method])
            assert rc == 0
            check_schema(out)


def _scaled_csv(tmp_path_factory, sample_csv, scale):
    _, data = load_csv(sample_csv)
    path = tmp_path_factory.mktemp("data") / "scaled.csv"
    path.write_text("x1,y1\n" + "".join("%.17g,%.17g\n" % tuple(row * scale)
                                        for row in data))
    return str(path)


@pytest.fixture(scope="module")
def huge_csv(tmp_path_factory, sample_csv):
    """The sample_csv data times 1e160: its squared distances overflow."""
    return _scaled_csv(tmp_path_factory, sample_csv, 1e160)


@pytest.fixture(scope="module")
def big_csv(tmp_path_factory, sample_csv):
    """Times 1e80: at beta = 1.9 the kernels stay finite, products do not."""
    return _scaled_csv(tmp_path_factory, sample_csv, 1e80)


@pytest.fixture(scope="module")
def bigger_csv(tmp_path_factory, sample_csv):
    """Times 1e82: at beta = 1.9 every sum of kernel products overflows."""
    return _scaled_csv(tmp_path_factory, sample_csv, 1e82)


class TestNonFiniteResults:
    @pytest.mark.parametrize("method, extra, entries", [
        ("d1", [], "inf, inf"), ("centered", [], "inf, inf"),
        # the default level M is refused there: the squared distances
        # it is set from are inf
        ("hm", [], "inf, inf"),
        ("charrv", ["--seed", "1", "--draws", "4"], "inf, inf")])
    def test_dcov_kernel_overflow_is_exit_3(self, huge_csv, method, extra,
                                            entries):
        rc, out, err = run_cli(["dcov", "--input", huge_csv, "--x-cols",
                                "x1", "--y-cols", "y1", "--beta", "1",
                                "--method", method] + extra)
        assert rc == 3
        assert out == ""
        assert err.startswith("error: result is not finite: at this data "
                              "scale the kernels or their products overflow "
                              "double precision (typical kernel entries %s)"
                              % entries)
        assert err.count("\n") == 1

    @pytest.mark.parametrize("method", ["d1", "centered"])
    def test_dcov_product_overflow_is_exit_3(self, bigger_csv, method):
        rc, out, err = run_cli(["dcov", "--input", bigger_csv, "--x-cols",
                                "x1", "--y-cols", "y1", "--beta", "1.9",
                                "--method", method])
        assert rc == 3
        assert out == ""
        assert err.startswith("error: result is not finite")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("beta, data", [("1", "huge_csv"),
                                            ("1.9", "bigger_csv")])
    def test_perm_test_overflow_is_exit_3(self, request, beta, data):
        rc, out, err = run_cli(["test", "--input",
                                request.getfixturevalue(data), "--x-cols",
                                "x1", "--y-cols", "y1", "--beta", beta,
                                "-B", "19", "--seed", "1"])
        assert rc == 3
        assert out == ""
        assert err.startswith("error: result is not finite")
        assert err.count("\n") == 1

    def test_perm_test_reports_where_centered_does(self, big_csv):
        # its weighted sums overflow no sooner than the centered estimator
        args = ["--input", big_csv, "--x-cols", "x1", "--y-cols", "y1",
                "--beta", "1.9"]
        rc, out, _ = run_cli(["test"] + args + ["-B", "19", "--seed", "1"])
        assert rc == 0
        observed = json.loads(out)["observed"]
        rc, out, _ = run_cli(["dcov"] + args + ["--method", "centered"])
        assert rc == 0
        assert observed == pytest.approx(json.loads(out)["value"], rel=1e-12)


class TestEntryPointRefusals:
    """Values no report may print, and option values no route can use."""

    def test_emit_refuses_non_finite_values(self):
        stream = io.StringIO()
        for bad in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(exact.DomainError, match="^the diag report "
                               "holds a value that is not finite$"):
                cli._emit({"subcommand": "diag", "value": bad}, 0.0, stream)
        assert stream.getvalue() == ""

    def test_diag_overflow_is_exit_3(self, tmp_path, capsys):
        path = tmp_path / "huge.csv"
        path.write_text("x1\n1e300\n-1e300\n2e300\n")
        rc = main(["diag", "--input", str(path), "--x-cols", "x1",
                   "--beta", "1"])
        out, err = capsys.readouterr()
        assert rc == 3
        assert out == ""
        assert err.startswith("error: result is not finite")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("option, value, message", [
        ("--n-schedule", "0,10", "sample sizes must be positive"),
        ("--n-schedule", "10,x", "--n-schedule must be comma separated "
         "integers, got '10,x'"),
        ("--seeds", "", "--seeds must be comma separated integers, got ''"),
        ("--seeds", "1,,2", "--seeds must be comma separated integers, "
         "got '1,,2'")])
    def test_converge_list_options(self, joint_csv, capsys, option, value,
                                   message):
        opts = {"--n-schedule": "10", "--seeds": "1"}
        opts[option] = value
        rc = main(["converge", "--input", joint_csv, "--x-cols", "x1",
                   "--y-cols", "y1", "--beta", "1", "--prob-col", "prob"]
                  + [v for item in opts.items() for v in item])
        out, err = capsys.readouterr()
        assert rc == 2
        assert out == ""
        assert err == "error: %s\n" % message

    @pytest.mark.parametrize("level", ["nan", "inf", "0", "-2"])
    def test_truncation_level_must_be_positive_and_finite(
            self, sample_csv, capsys, level):
        rc = main(["dcov", "--input", sample_csv, "--x-cols", "x1",
                   "--y-cols", "y1", "--beta", "1", "--method", "hm",
                   "--trunc-m", level])
        out, err = capsys.readouterr()
        assert rc == 2
        assert out == ""
        assert err == ("error: M must be a positive finite number, got %g\n"
                       % float(level))


class TestUsageErrors:
    def test_missing_column(self, sample_csv):
        rc, _, err = run_cli(["dcov", "--input", sample_csv,
                              "--x-cols", "nope", "--y-cols", "y1",
                              "--beta", "1", "--method", "d1"])
        assert rc == 2
        assert "nope" in err

    def test_malformed_csv(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("x1,y1\n1,banana\n")
        rc, _, err = run_cli(["dcov", "--input", str(bad),
                              "--x-cols", "x1", "--y-cols", "y1",
                              "--beta", "1", "--method", "d1"])
        assert rc == 2
        assert "line 2" in err and "banana" in err

    def test_unknown_subcommand(self):
        rc, _, _ = run_cli(["frobnicate"])
        assert rc == 2

    @pytest.mark.parametrize("rows, method, beta, message", [
        ("", "d1", "1", "no data rows"),
        ("1,2\n", "d1", "1", "need at least 2 observations, got 1"),
        ("1,2\n", "centered", "1", "need at least 2 observations, got 1"),
        ("1,2\n", "hm", "1", "need at least 2 observations, got 1"),
        ("1,2\n", "beta2", "2", "need at least 2 observations, got 1"),
        ("1,2\n", "charrv", "1", "need at least 2 observations, got 1")])
    def test_empty_or_one_row_sample_is_one_line(self, tmp_path, capsys,
                                                  rows, method, beta,
                                                  message):
        path = tmp_path / "short.csv"
        path.write_text("x1,y1\n" + rows)
        seed = ["--seed", "1"] if method == "charrv" else []
        rc = main(["dcov", "--input", str(path), "--x-cols", "x1",
                   "--y-cols", "y1", "--beta", beta, "--method", method]
                  + seed)
        out, err = capsys.readouterr()
        assert rc == 2
        assert out == ""
        assert err.startswith("error: ") and err.endswith(message + "\n")
        assert err.count("\n") == 1

    def test_threads_flag_is_gone(self):
        rc, out, err = run_cli(["constants", "--ell", "1", "--beta", "1",
                                "--threads", "2"])
        assert rc == 2
        assert out == ""
        assert "unrecognized arguments: --threads 2" in err

    def test_perm_test_beyond_memory_is_one_line(self, tmp_path):
        import os
        phys = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        B = 199
        # one n x n float64 matrix plus B int64 permutations of n
        n = int(np.sqrt(phys / 8)) + 2
        path = tmp_path / "big.csv"
        path.write_text("x1,y1\n" + "".join("%d,%d\n" % (i, n - i)
                                             for i in range(n)))
        rc, out, err = run_cli(["test", "--input", str(path), "--x-cols",
                                "x1", "--y-cols", "y1", "--beta", "1",
                                "--seed", "1"])
        assert rc == 2
        assert out == ""
        assert err.startswith("error: permutation test at n=%d, B=%d needs "
                              "about %d bytes" % (n, B, 8 * n * (n + B)))
        assert err.count("\n") == 1


#: a value for every dcov method option
_OPTION_VALUES = {"seed": "1", "draws": "5", "trunc_m": "3",
                  "grid_panels": "4"}

#: per method: beta, extra options, the library call on the same points
_WEIGHTED_CALLS = {
    "d1": ("1", [], dcov_plugin_d1),
    "centered": ("1", [], dcov_centered),
    "beta2": ("2", [], dcov2_closed),
    "charrv": ("1", ["--seed", "1", "--draws", "5"],
               lambda pts: dcov_charrv_mc(pts, draws=5, seed=1)),
    "hm": ("1", ["--trunc-m", "3"], lambda pts: dcov_hm(pts, 3.0)),
    "exact": ("1", [], lambda pts: dcov_exact(pts, "d1")),
    "charfn": ("1", [], dcov_charfn_1d),
}


def test_weighted_calls_cover_every_method():
    assert set(_WEIGHTED_CALLS) == set(cli.METHODS)


@pytest.mark.parametrize("method", sorted(_WEIGHTED_CALLS))
def test_every_method_reads_prob_col(tmp_path, capsys, method):
    # unequal weights, and one (x, y) row given twice
    rows = [(0, 0.5, 0.1), (1, 0.2, 0.15), (2, 1.5, 0.3), (0.5, 2.5, 0.15),
            (3, 2, 0.25), (1, 0.2, 0.05)]
    path = tmp_path / "weighted.csv"
    path.write_text("x1,y1,prob\n" + "".join("%r,%r,%r\n" % r for r in rows))
    beta, extra, call = _WEIGHTED_CALLS[method]
    argv = ["dcov", "--input", str(path), "--x-cols", "x1", "--y-cols", "y1",
            "--beta", beta, "--method", method] + extra
    reports = []
    for prob in ([], ["--prob-col", "prob"]):
        assert main(argv + prob) == 0
        reports.append(json.loads(capsys.readouterr().out))
    data = np.array(rows, dtype=float)
    spec = euclidean(1, float(beta))
    probs = data[:, 2] / data[:, 2].sum()
    points = DiscreteJoint(data[:, :1], data[:, 1:2], probs, spec, spec)
    assert reports[1]["value"] == call(points).value
    assert reports[1]["n"] == len(rows)
    assert reports[1]["value"] != reports[0]["value"]


@pytest.mark.parametrize("argv, message", [
    (["dcov", "--method", "charfn"], "charfn quadrature at k=2 atoms needs "
     "about 8667568 bytes (0.0 GB) for two stacks of five k x k box "
     "kernels, a gap table and a phase block")])
def test_joint_beyond_memory_is_one_line(joint_csv, monkeypatch, capsys, argv,
                                         message):
    monkeypatch.setattr(exact, "_physical_memory", lambda: 63)
    rc = main(argv[:1] + ["--input", joint_csv, "--x-cols", "x1", "--y-cols",
                          "y1", "--prob-col", "prob", "--beta", "1"]
              + argv[1:])
    out, err = capsys.readouterr()
    assert rc == 2
    assert out == ""
    assert err == ("error: %s, more than the 0.0 GB of physical memory\n"
                   % message)


@pytest.mark.parametrize("method,option", [
    (method, option) for method, (reads, _) in cli.METHODS.items()
    for option in _OPTION_VALUES if option not in reads])
def test_unread_method_option_is_refused(joint_csv, capsys, method, option):
    flag = "--" + option.replace("_", "-")
    rc = main(["dcov", "--input", joint_csv, "--x-cols", "x1", "--y-cols",
               "y1", "--beta", "1", "--method", method, flag,
               _OPTION_VALUES[option]])
    out, err = capsys.readouterr()
    readers = [name for name, (reads, _) in cli.METHODS.items()
               if option in reads]
    assert rc == 2
    assert out == ""
    assert err == "error: %s applies only to method%s %s\n" % (
        flag, "s" if len(readers) > 1 else "", " and ".join(readers))


def test_every_method_option_has_a_reader():
    read = {opt for reads, _ in cli.METHODS.values() for opt in reads}
    assert read == set(_OPTION_VALUES)


def test_charfn_grid_panels_zero_is_refused(joint_csv, capsys):
    rc = main(["dcov", "--input", joint_csv, "--x-cols", "x1", "--y-cols",
               "y1", "--beta", "1", "--method", "charfn", "--prob-col",
               "prob", "--grid-panels", "0"])
    out, err = capsys.readouterr()
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv,draws", [([], 2000), (["--draws", "7"], 7)])
def test_charrv_draws_default(sample_csv, monkeypatch, capsys, argv, draws):
    seen = []

    def fake(sample, draws, seed):
        seen.append(draws)
        return cli.dcov_plugin_d1(sample)

    monkeypatch.setattr(cli, "dcov_charrv_mc", fake)
    rc = main(["dcov", "--input", sample_csv, "--x-cols", "x1", "--y-cols",
               "y1", "--beta", "1", "--method", "charrv", "--seed", "3"]
              + argv)
    capsys.readouterr()
    assert rc == 0
    assert seen == [draws]


@pytest.mark.parametrize("argv", [
    ["dcov", "--method", "exact"],
    ["dcov", "--method", "charfn"],
    ["converge", "--n-schedule", "10", "--seeds", "1"]])
def test_joint_input_is_read_once(joint_csv, monkeypatch, capsys, argv):
    reads = []

    def counting_load(path):
        reads.append(path)
        return load_csv(path)

    monkeypatch.setattr(cli, "load_csv", counting_load)
    rc = main(argv[:1] + ["--input", joint_csv, "--x-cols", "x1",
                          "--y-cols", "y1", "--beta", "1",
                          "--prob-col", "prob"] + argv[1:])
    capsys.readouterr()
    assert rc == 0
    assert reads == [joint_csv]


# converge on the joint.csv fixture at --beta 1, --n-schedule 10,100,1000
# and --seeds 1,2,3: fixed report bytes, the JSON without its wall time
CONVERGE_BYTES = {
    "csv": (b"n,median_estimate,median_abs_error,population\n"
            b"10,0.23039999999999994,0.019600000000000062,0.25\n"
            b"100,0.24820323999999994,0.0017967600000000639,0.25\n"
            b"1000,0.25,0,0.25\n"),
    "json": (b'{"beta": 1.0, "method": "d1", "population": 0.25, "rows": '
             b'[{"median_abs_error": 0.019600000000000062, '
             b'"median_estimate": 0.23039999999999994, "n": 10}, '
             b'{"median_abs_error": 0.0017967600000000639, '
             b'"median_estimate": 0.24820323999999994, "n": 100}, '
             b'{"median_abs_error": 0.0, "median_estimate": 0.25, '
             b'"n": 1000}], "seeds": [1, 2, 3], "subcommand": "converge", '
             b'}\n'),
}


class TestOtherSubcommands:
    def test_test_subcommand(self, sample_csv):
        rc, out, _ = run_cli(["test", "--input", sample_csv,
                              "--x-cols", "x1", "--y-cols", "y1",
                              "--beta", "1", "--seed", "4", "-B", "99"])
        assert rc == 0
        report = check_schema(out)
        assert report["p_value"] <= 0.05

    def test_converge_csv(self, joint_csv):
        rc, out, _ = run_cli(["converge", "--input", joint_csv,
                              "--x-cols", "x1", "--y-cols", "y1",
                              "--beta", "1", "--prob-col", "prob",
                              "--n-schedule", "100,1000",
                              "--seeds", "1,2,3"])
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,median_estimate,median_abs_error,population"
        assert len(lines) == 3
        assert float(lines[1].split(",")[3]) == pytest.approx(0.25)

    def test_converge_json(self, joint_csv):
        rc, out, _ = run_cli(["converge", "--input", joint_csv,
                              "--x-cols", "x1", "--y-cols", "y1",
                              "--beta", "1", "--prob-col", "prob",
                              "--n-schedule", "100", "--seeds", "1,2,3",
                              "--format", "json"])
        assert rc == 0
        report = check_schema(out)
        assert report["seeds"] == [1, 2, 3]
        assert "seed" not in report

    @pytest.mark.parametrize("fmt", sorted(CONVERGE_BYTES))
    def test_converge_report_bytes(self, joint_csv, fmt):
        rc, out, _ = run_cli(["converge", "--input", joint_csv,
                              "--x-cols", "x1", "--y-cols", "y1",
                              "--beta", "1", "--prob-col", "prob",
                              "--n-schedule", "10,100,1000",
                              "--seeds", "1,2,3", "--format", fmt])
        assert rc == 0
        assert strip_wall_time(out).encode() == CONVERGE_BYTES[fmt]

    def test_diag(self, sample_csv):
        rc, out, _ = run_cli(["diag", "--input", sample_csv,
                              "--x-cols", "x1", "--beta", "1"])
        assert rc == 0
        assert check_schema(out)["value"] > 0

    def test_classify_from_stdin(self):
        rc, out, _ = run_cli(["classify", "--flags", "-"],
                             stdin='{"x_2beta": true, "y_2beta": true}')
        assert rc == 0
        report = check_schema(out)
        assert report["def1"] == "finite"

    def test_classify_bad_field(self):
        rc, _, err = run_cli(["classify", "--flags", "-"],
                             stdin='{"bogus": true}')
        assert rc == 2
        assert "bogus" in err

    def test_constants(self):
        rc, out, _ = run_cli(["constants", "--ell", "1", "--beta", "1"])
        assert rc == 0
        assert check_schema(out)["value"] == pytest.approx(1 / np.pi,
                                                           abs=1e-12)

    def test_demo(self):
        rc, out, err = run_cli(["demo"])
        assert rc == 0
        report = check_schema(out)
        assert all(c["passed"] for c in report["checks"])
        assert "PASS" in err


def _method_choices(subcommand):
    parser = cli.build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    return next(a.choices for a in sub.choices[subcommand]._actions
                if "--method" in a.option_strings)


def test_method_registry_is_the_only_list():
    assert (set(SCHEMA["properties"]["method"]["enum"])
            == set(_method_choices("dcov")) == set(cli.METHODS))


def strip_wall_time(raw):
    return re.sub(r'"wall_time_s": [0-9.e+-]+,?\s*', "", raw)


class TestDeterminism:
    def test_threads_do_not_change_bytes(self, sample_csv):
        outs = []
        for threads in ("1", "8"):
            rc, out, _ = run_cli(["dcov",
                                  "--input", sample_csv,
                                  "--x-cols", "x1", "--y-cols", "y1",
                                  "--beta", "1", "--method", "charrv",
                                  "--seed", "11", "--draws", "60"])
            assert rc == 0
            outs.append(strip_wall_time(out).encode())
        assert outs[0] == outs[1]


    def test_seeded_permutation_test_repeats_bytes(self, sample_csv):
        outs = []
        for _ in range(2):
            rc, out, _ = run_cli(["test", "--input", sample_csv,
                                  "--x-cols", "x1", "--y-cols", "y1",
                                  "--beta", "0.5", "-B", "99",
                                  "--seed", "5"])
            assert rc == 0
            assert json.loads(out)["permutations"] == 99
            outs.append(strip_wall_time(out).encode())
        assert outs[0] == outs[1]


def test_cli_import_loads_no_scipy():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, betadcov.cli; print(sorted("
         "m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "[]\n"


def test_main_callable_directly(sample_csv):
    assert main(["constants", "--ell", "2", "--beta", "1"]) == 0
