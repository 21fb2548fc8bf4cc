#!/usr/bin/env python3
"""betadcov benchmark: CLI and library latency, set-up cost and peak RSS.

Run from the repository root:

    python3 perfbench/run.py --workload dense_sample --seed 1 --seconds 40 --trace 0

With --trace 0 a run generates the workload's inputs from the seed,
times three fresh interpreters importing betadcov.cli (setup_s), issues
every request as a ``python -m betadcov.cli`` process (the CLI pass,
one child at a time, rusage from os.wait4), then issues the same
requests as library calls in this warm process (the library pass).
Every result is checked against the benchmark's own numpy oracle.

With --trace 1 a run instead profiles the CLI import with
``-X importtime`` and times the library requests twice, untraced and
then with spans around every layer function, and prints the per-layer
metrics. --smoke shrinks every input for a quick end-to-end check.

Human-readable lines come first; the last line of standard output is
one JSON object with keys correct, attempted, failed and metrics.
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "betadcov")
WORK = os.path.join(ROOT, ".perfbench_work")
OUT = os.path.join(ROOT, ".perfbench_out")

SETUP_REPS = 3          # fresh interpreters timed for setup_s
IMPORT_PROFILES = 3     # -X importtime children in the traced run
CHILD_TIMEOUT_S = 60
RUN_DEADLINE_S = 110    # no new request is issued after this

END_TO_END = [
    ("setup_s", "s"), ("cli_p50_s", "s"), ("cli_tail_s", "s"),
    ("lib_p50_s", "s"), ("lib_tail_s", "s"), ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
]
IMPORT_METRICS = [
    ("cli.import_s", "s"), ("cli.import.numpy_s", "s"),
    ("cli.import.scipy_s", "s"), ("cli.import.betadcov_s", "s"),
    ("cli.modules_loaded", "count"),
]
TRACE_HEALTH = [("trace.overhead_ratio", "ratio"),
                ("trace.self_time_coverage", "ratio")]


def layer_unit(key):
    if key == "peak_mb":
        return "MB"
    if key == "bytes_computed":
        return "bytes"
    if key == "atoms_per_row":
        return "ratio"
    return "s" if key.endswith("_s") else "count"


def per_layer_names():
    """(name, unit) of every per-layer metric, in print order."""
    from tracing import LAYERS
    names = list(IMPORT_METRICS)
    for layer, spec in LAYERS.items():
        names += [(layer + "." + key, layer_unit(key)) for key in spec.reports]
    return names + TRACE_HEALTH


def tail(values):
    """Highest percentile with at least ten calls beyond it.

    Returns (value, percentile, calls beyond). By nearest rank, the call
    of rank N-10 is the 100 (N-10)/N percentile and has ten calls above
    it. With ten calls or fewer no percentile qualifies; the maximum is
    then returned as p100 with none beyond.
    """
    s = sorted(values)
    n = len(s)
    if n > 10:
        return s[n - 11], 100.0 * (n - 10) / n, 10
    return s[-1], 100.0, 0


# ------------------------------------------------------------ children

def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


class Launcher:
    """Interpreter children, one at a time, through launcher.py.

    run() returns (wall seconds, exit code, peak RSS bytes, CPU seconds,
    minor page faults) of that child alone; see launcher.py for why
    children are not spawned from here.
    """

    def __init__(self, env):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env,
            text=True)

    def run(self, args, out_path, err_path):
        argv = [sys.executable] + args
        self.proc.stdin.write(json.dumps(
            [argv, out_path, err_path, CHILD_TIMEOUT_S]) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("child launcher exited")
        return tuple(json.loads(line))

    def close(self):
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait(timeout=CHILD_TIMEOUT_S)


def _read(path):
    with open(path, errors="replace") as fh:
        return fh.read()


# ---------------------------------------------------------- machine note

def _lscpu_caches():
    try:
        text = subprocess.run(["lscpu"], capture_output=True, text=True,
                              timeout=20).stdout
    except (OSError, subprocess.SubprocessError):
        return "unknown", "unknown"
    found = {}
    for line in text.splitlines():
        key, _, value = line.partition(":")
        if key.strip() in ("L2 cache", "L3 cache"):
            found[key.strip()] = value.strip()
    return found.get("L2 cache", "unknown"), found.get("L3 cache", "unknown")


def _blas():
    """BLAS name and the thread count it will use, as loaded here."""
    import ctypes

    import numpy as np
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = "%s %s" % (info.get("name"), info.get("version"))
    except (KeyError, TypeError):
        name = "unknown"
    threads = "unknown"
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return name, threads


def _commit():
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=20)
    except (OSError, subprocess.SubprocessError):
        res = None
    if res is not None and res.returncode == 0:
        return res.stdout.strip()
    return "none (not a git checkout)"


def _src_digest():
    h = hashlib.sha256()
    for name in sorted(os.listdir(PACKAGE)):
        path = os.path.join(PACKAGE, name)
        if os.path.isfile(path):
            h.update(name.encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def machine_note(seed, digest):
    import numpy as np
    import scipy
    blas, threads = _blas()
    l2, l3 = _lscpu_caches()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas, "blas_threads": threads,
        "blas_env": {k: os.environ[k] for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ},
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "l2": l2, "l3": l3,
        "commit": _commit(), "src_sha256": _src_digest(),
        "seed": seed, "inputs_sha256": digest,
    }


# -------------------------------------------------------------- passes

class Tally:
    """Every attempted call, its time, and the reason of each failure."""

    def __init__(self, deadline):
        self.calls = []
        self.failures = []
        self.deadline = deadline

    @property
    def attempted(self):
        return len(self.calls)

    def expired(self):
        return time.monotonic() > self.deadline

    def record(self, where, label, reason, seconds=None, extra=""):
        self.calls.append("%s %s%s  %s" % (
            where, "-" if seconds is None else "%.4f s" % seconds, extra, label))
        if reason is not None:
            self.failures.append("%s %s: %s" % (where, label, reason))


def cli_pass(reqs, cycles, tally, workdir, launcher):
    """Issue each request as a CLI child.

    Returns (wall seconds per call, one list per cycle; peak RSS bytes).
    """
    import jsonschema
    with open(os.path.join(PACKAGE, "report_schema.json")) as fh:
        validator = jsonschema.Draft202012Validator(json.load(fh))
    out_path = os.path.join(workdir, "child.out")
    err_path = os.path.join(workdir, "child.err")
    walls, peaks = [[] for _ in range(cycles)], []
    for cycle in walls:
        for req in reqs:
            if req.cli is None:
                continue
            if tally.expired():
                tally.record("cli", req.label, "not issued: run deadline")
                continue
            wall, rc, rss, cpu, faults = launcher.run(
                ["-m", "betadcov.cli"] + req.cli, out_path, err_path)
            cycle.append(wall)
            peaks.append(rss)
            tally.record("cli", req.label,
                         _cli_verdict(req, rc, out_path, err_path, validator),
                         wall, "  cpu %.3f s  %.1f MB  %d faults" % (
                             cpu, rss / 1e6, faults))
    return walls, peaks


def _cli_verdict(req, rc, out_path, err_path, validator):
    if rc != 0:
        err = _read(err_path).strip().splitlines()
        return "exit code %d: %s" % (rc, err[-1] if err else "")
    lines = _read(out_path).strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return "no JSON report on stdout"
    problems = [e.message for e in validator.iter_errors(report)]
    if problems:
        return "report fails report_schema.json: %s" % problems[0]
    return req.check(report)


def warm_up(reqs):
    """One untimed library call per request kind, on its smallest input."""
    first = {}
    for req in reqs:
        if req.kind not in first or req.size < first[req.kind].size:
            first[req.kind] = req
    for req in first.values():
        try:
            req.lib()
        except Exception:       # the timed call of the same kind reports it
            pass


def lib_pass(reqs, cycles, tally, rec=None):
    """Issue each request as a library call.

    Returns seconds per call, one list per cycle. With a recorder, each
    call runs inside a "request" span whose id is its index in the pass.
    """
    where = "lib" if rec is None else "traced"
    times = [[] for _ in range(cycles)]
    gc.collect()
    for rid, req in enumerate(reqs * cycles):
        if tally.expired():
            tally.record(where, req.label, "not issued: run deadline")
            continue
        t0 = time.perf_counter()
        c0 = time.process_time()
        try:
            if rec is None:
                out = req.lib()
            else:
                rec.request = rid
                with rec.span("request"):
                    out = req.lib()
        except Exception as exc:    # keep going; the call counts as failed
            out = "%s: %s" % (type(exc).__name__, exc)
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
        times[rid // len(reqs)].append(wall)
        tally.record(where, req.label,
                     out if isinstance(out, str) else req.check(out),
                     wall, "  cpu %.3f s" % cpu)
    return times


def import_profile(text):
    """Self seconds per top-level package from ``-X importtime`` output."""
    totals = {}
    for line in text.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        own, _, name = line[len("import time:"):].split("|")
        top = name.strip().split(".")[0]
        totals[top] = totals.get(top, 0.0) + int(own) / 1e6
    return totals


# ----------------------------------------------------------------- runs

def run_untraced(reqs, cycles, tally, workdir, launcher):
    metrics, notes = {}, {}
    setup = []
    for _ in range(SETUP_REPS):
        wall, rc = launcher.run(["-c", "import betadcov.cli"],
                                os.path.join(workdir, "setup.out"),
                                os.path.join(workdir, "setup.err"))[:2]
        if rc != 0:
            raise RuntimeError("import betadcov.cli failed: %s"
                               % _read(os.path.join(workdir, "setup.err")))
        setup.append(wall)
    metrics["setup_s"] = statistics.median(setup)
    notes["setup_s"] = "median of %d fresh interpreters" % len(setup)

    walls, peaks = cli_pass(reqs, cycles, tally, workdir, launcher)
    warm_up(reqs)
    times = lib_pass(reqs, cycles, tally)
    for side, per_cycle in (("cli", walls), ("lib", times)):
        values = [t for cycle in per_cycle for t in cycle]
        if not values:
            raise RuntimeError("the %s pass issued no call" % side)
        metrics[side + "_p50_s"] = statistics.median(values)
        notes[side + "_p50_s"] = "median of %d calls" % len(values)
        tails = [tail(cycle) for cycle in per_cycle if cycle]
        metrics[side + "_tail_s"] = statistics.median(t[0] for t in tails)
        notes[side + "_tail_s"] = "median over %d cycles of p%s%s" % (
            len(tails), "/".join("%.4g" % t[1] for t in tails),
            "" if all(t[2] for t in tails) else
            " (10 or fewer calls in a cycle: its maximum)")
    metrics["peak_rss_mb"] = max(peaks) / 1e6
    notes["peak_rss_mb"] = "largest of %d CLI children" % len(peaks)
    return metrics, notes


def run_traced(reqs, cycles, tally, workdir, launcher, spans_path):
    import tracing
    from betadcov import (beta2, charfn, charrv, estimators, exact,
                          inference, io, metric)
    metrics, notes = {}, {}

    walls, counts, profiles = [], [], []
    for _ in range(IMPORT_PROFILES):
        out = os.path.join(workdir, "import.out")
        err = os.path.join(workdir, "import.err")
        wall, rc = launcher.run(
            ["-X", "importtime", "-c",
             "import sys, betadcov.cli; print(len(sys.modules))"], out, err)[:2]
        tally.record("import", "betadcov.cli",
                     None if rc == 0 else "exit code %d" % rc, wall)
        if rc == 0:
            walls.append(wall)
            counts.append(int(_read(out).split()[-1]))
            profiles.append(import_profile(_read(err)))
    if walls:
        metrics["cli.import_s"] = statistics.median(walls)
        metrics["cli.modules_loaded"] = statistics.median(counts)
        for pkg in ("numpy", "scipy", "betadcov"):
            metrics["cli.import.%s_s" % pkg] = statistics.median(
                p.get(pkg, 0.0) for p in profiles)
        notes["cli.import_s"] = ("median of %d children under -X importtime; "
                                 "per-package values are summed self time"
                                 % len(walls))

    warm_up(reqs)
    plain = sum(lib_pass(reqs, cycles, tally), [])
    rec = tracing.Recorder()
    modules = {"io": io, "metric": metric, "estimators": estimators,
               "exact": exact, "charrv": charrv, "charfn": charfn,
               "beta2": beta2, "inference": inference}
    undo, missing = tracing.instrument(rec, modules)
    tracemalloc.start()
    try:
        traced = sum(lib_pass(reqs, cycles, tally, rec), [])
    finally:
        tracemalloc.stop()
        undo()
    os.makedirs(os.path.dirname(spans_path), exist_ok=True)
    rec.write(spans_path)

    pairs = {rid: req.pair for rid, req in enumerate(reqs * cycles)
             if req.pair is not None}
    metrics.update(tracing.layer_metrics(rec, pairs))
    metrics["trace.overhead_ratio"] = sum(traced) / sum(plain)
    metrics["trace.self_time_coverage"] = tracing.coverage(rec.spans)
    notes["trace.overhead_ratio"] = (
        "traced %.3f s / untraced %.3f s over the same %d library calls"
        % (sum(traced), sum(plain), len(plain)))
    for layer, count in sorted(rec.errors.items()):
        tally.failures.append("layer %s raised %d times" % (layer, count))
    for layer in missing:
        print("# layer %s not obtained: betadcov.%s is gone" % (layer, layer))
    return metrics, notes


# ----------------------------------------------------------------- main

def _parse(argv):
    from workloads import WORKLOADS
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs, one cycle: checks the plumbing only")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv=None):
    if not os.path.isfile(os.path.join(PACKAGE, "cli.py")):
        sys.stderr.write("perfbench: %s not found; run from a betadcov "
                         "checkout\n" % os.path.join("src", "betadcov"))
        return 2
    sys.path.insert(0, SRC)
    import workloads
    args = _parse(argv)
    start = time.monotonic()
    env = child_env()
    # compile bytecode first: setup_s is the import with .pyc files present
    subprocess.run([sys.executable, "-m", "compileall", "-q", PACKAGE],
                   check=True, env=env, stdout=subprocess.DEVNULL,
                   timeout=CHILD_TIMEOUT_S)
    os.makedirs(WORK, exist_ok=True)
    workdir = os.path.join(WORK, str(os.getpid()))
    os.makedirs(workdir)
    launcher = Launcher(env)
    try:
        scale = "smoke" if args.smoke else "full"
        reqs, digest = workloads.build(args.workload, args.seed, workdir,
                                       scale, args.trace == 1)
        spec = workloads.WORKLOADS[args.workload]
        cycles = 1 if args.smoke else max(1, int(args.seconds // spec.cycle_s))
        tally = Tally(start + RUN_DEADLINE_S)
        print("# perfbench workload=%s seed=%d trace=%d scale=%s cycles=%d "
              "requests=%d" % (args.workload, args.seed, args.trace, scale,
                               cycles, len(reqs)))
        print("# machine %s" % json.dumps(machine_note(args.seed, digest)))
        if args.trace:
            spans = os.path.join(OUT, "spans_%s_%d.json" % (args.workload,
                                                            args.seed))
            metrics, notes = run_traced(reqs, cycles, tally, workdir,
                                        launcher, spans)
            names = per_layer_names()
            print("# spans written to %s" % os.path.relpath(spans, ROOT))
        else:
            metrics, notes = run_untraced(reqs, cycles, tally, workdir,
                                          launcher)
            names = END_TO_END
    finally:
        launcher.close()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:         # another run still uses it
            pass

    failed = len(tally.failures)
    metrics["ok_ratio"] = (tally.attempted - failed) / tally.attempted
    notes["ok_ratio"] = "correct calls / attempted calls"
    for line in tally.calls:
        print("# call %s" % line)
    for line in tally.failures:
        print("# FAIL %s" % line)
    print("# failed_ratio %d/%d = %.6g (failed or incorrect calls / attempted "
          "calls)" % (failed, tally.attempted, failed / tally.attempted))
    if args.trace:
        from tracing import IMPORT_LAYER, LAYERS
        print("# layer %s moves %s; measured on %s" % IMPORT_LAYER)
        for layer, spec in LAYERS.items():
            print("# layer %s moves %s; measured on %s" % (
                layer, spec.moves, spec.workload))
    result = {}
    for name, unit in names:
        if name not in metrics:
            print("# metric %s not obtained" % name)
            continue
        print("%-40s %.6g %s  %s" % (name, metrics[name], unit,
                                     notes.get(name, "")))
        result[name] = {"value": metrics[name], "unit": unit}
    print(json.dumps({"correct": failed == 0 and len(result) == len(names),
                      "attempted": tally.attempted, "failed": failed,
                      "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
