"""Self-tests of the benchmark: python3 -m pytest perfbench -q

The smoke tests run every workload at tiny size, untraced and traced,
and check that each metric BENCHMARK.json names is printed with its
unit; they take about a minute.
"""

import json
import os
import shutil
import subprocess
import sys
import tracemalloc

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run        # noqa: E402
import tracing    # noqa: E402


def test_tail_takes_rank_n_minus_10():
    value, pct, beyond = run.tail(list(range(100, 0, -1)))
    assert (value, pct, beyond) == (90, 90.0, 10)


def test_tail_of_eleven_calls_has_ten_beyond():
    value, pct, beyond = run.tail([5.0] + [9.0] * 10)
    assert value == 5.0 and beyond == 10
    assert pct == pytest.approx(100.0 / 11)


def test_tail_of_ten_or_fewer_calls_is_the_maximum():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)
    assert run.tail([float(v) for v in range(10)]) == (9.0, 100.0, 0)


def _span(sid, parent, name, t0, t1):
    return (sid, parent, 0, name, t0, t1, 0)


SPANS = [
    # request [0, 10] > a [1, 5] > b [2, 3]; request > c [6, 9]
    _span(2, 1, "b", 2.0, 3.0),
    _span(1, 0, "a", 1.0, 5.0),
    _span(3, 0, "c", 6.0, 9.0),
    _span(0, None, "request", 0.0, 10.0),
]


def test_self_time_subtracts_direct_children_only():
    own = tracing.self_times(SPANS)
    assert own == {0: 3.0, 1: 3.0, 2: 1.0, 3: 3.0}
    assert sum(own.values()) == 10.0


def test_coverage_counts_direct_children_of_requests():
    assert tracing.coverage(SPANS) == pytest.approx(0.7)


def test_pair_split_recovers_line():
    # t = 0.5 + 0.01 w for both pairs
    pairs = {"a": [(64, 1.14), (16, 0.66)], "b": [(199, 2.49), (49, 0.99)]}
    per_unit, fixed = tracing.pair_split(pairs)
    assert per_unit == pytest.approx(0.01)
    assert fixed == pytest.approx(0.5)
    assert tracing.pair_split({"a": [(16, 1.0)]}) == (None, None)
    # repeated cycles: the calls of each work value are averaged
    per_unit, fixed = tracing.pair_split(
        {"a": [(64, 1.10), (16, 0.70), (64, 1.18), (16, 0.62)]})
    assert per_unit == pytest.approx(0.01)
    assert fixed == pytest.approx(0.5)


def test_recorder_nests_spans_and_peaks():
    rec = tracing.Recorder()
    tracemalloc.start()
    try:
        with rec.span("request"):
            with rec.span("child"):
                block = bytearray(4_000_000)
                del block
            with rec.span("sibling"):
                pass
    finally:
        tracemalloc.stop()
    by_name = {s[3]: s for s in rec.spans}
    assert by_name["child"][1] == by_name["request"][0]
    assert by_name["sibling"][1] == by_name["request"][0]
    assert by_name["child"][6] >= 4_000_000
    assert by_name["request"][6] >= by_name["child"][6]
    assert by_name["sibling"][6] < 1_000_000


def _bench_run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    res = _bench_run(ROOT, workload, trace)
    assert res.returncode == 0, res.stderr
    lines = res.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"], [ln for ln in lines if ln.startswith("# FAIL")]
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = BENCH["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        printed = [ln.split() for ln in lines[:-1]
                   if ln.split()[:1] == [m["name"]]]
        assert printed and printed[0][2] == m["unit"], m["name"]


def test_bare_directory_fails_without_result():
    bare = os.path.join(ROOT, ".perfbench_work", "bare_%d" % os.getpid())
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        res = _bench_run(bare, BENCH["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare)
    assert res.returncode != 0
    assert res.stdout.strip() == ""
