"""Span recorder and per-layer metrics for the traced benchmark run.

Spans are recorded from outside the package: each layer's public
function is replaced, on every module that holds it, by a wrapper that
opens a span, counts work and errors, and tracks the tracemalloc peak.
Spans are kept in memory and written out when the run ends.
"""

import functools
import json
import time
import tracemalloc
from collections import defaultdict


def _count_rows(c, args, kwargs, out):
    c["rows"] += len(out[1])


def _count_distances(c, args, kwargs, out):
    c["bytes_computed"] += out.nbytes      # 8 n^2 per matrix, computed


def _count_perms(c, args, kwargs, out):
    c["perms"] += out.B


def _count_draws(c, args, kwargs, out):
    c["draws"] += out.aux["draws"]
    c["atoms"] += out.aux["atoms"]
    c["rows"] += out.n
    c["grid_nodes"] += out.aux["grid_nodes"]


def _count_grid(c, args, kwargs, out):
    c["grid_points"] += out.aux["nodes_t"] * out.aux["nodes_u"]


def _count_replicates(c, args, kwargs, out):
    c["replicates"] += len(out.rows) * len(out.seeds)


class Layer:
    """A traced layer: where its function lives and what it reports."""

    def __init__(self, owners, count, reports, moves, workload):
        self.owners = owners        # modules holding the function
        self.count = count          # work counter, or None
        self.reports = reports      # metric suffixes the run prints
        self.moves = moves          # end-to-end metrics it should move
        self.workload = workload    # where its numbers matter


_E2E = "lib_p50_s cli_p50_s peak_rss_mb"
LAYERS = {
    "io.load_csv": Layer(("io",), _count_rows, ("busy_s", "rows"),
                         "cli_p50_s", "dense_sample (small)"),
    "metric.pairwise_distances": Layer(
        ("metric", "estimators", "exact"), _count_distances,
        ("busy_s", "calls", "bytes_computed", "peak_mb"), _E2E,
        "dense_sample; once per permutation test"),
    "estimators.dcov_plugin_d1": Layer(
        ("estimators",), None, ("busy_s", "peak_mb"), _E2E, "dense_sample"),
    "estimators.dcov_centered": Layer(
        ("estimators",), None, ("busy_s", "peak_mb"), _E2E, "dense_sample"),
    "estimators.dcor": Layer(
        ("estimators",), None, ("busy_s", "peak_mb"), _E2E, "dense_sample"),
    "charrv.dcov_hm": Layer(
        ("charrv",), None, ("busy_s", "peak_mb"), _E2E, "dense_sample"),
    "beta2.dcov2_closed": Layer(
        ("beta2",), None, ("busy_s",), _E2E, "dense_sample"),
    "inference.perm_test": Layer(
        ("inference",), _count_perms,
        ("busy_s", "perms", "per_perm_s", "fixed_s", "peak_mb"),
        "lib_p50_s cli_p50_s", "dense_sample (permutation tests)"),
    "charrv.dcov_charrv_mc": Layer(
        ("charrv",), _count_draws,
        ("busy_s", "draws", "atoms", "atoms_per_row", "grid_nodes",
         "per_draw_s", "fixed_s", "peak_mb"), _E2E, "projection_mc"),
    "charfn.dcov_charfn_1d": Layer(
        ("charfn",), _count_grid, ("busy_s", "grid_points", "peak_mb"),
        "lib_p50_s cli_p50_s", "joint_quad"),
    "charfn.log_panel_grid": Layer(
        ("charfn", "charrv"), None, ("busy_s",), "lib_p50_s cli_p50_s",
        "joint_quad; milliseconds on projection_mc"),
    "exact.dcov_exact": Layer(
        ("exact", "inference"), None, ("busy_s", "calls"),
        "none visible (predicted no change)", "joint_quad"),
    "inference.consistency_sweep": Layer(
        ("inference",), _count_replicates, ("busy_s", "replicates"),
        "none visible (predicted no change)", "joint_quad"),
}

# the import layer is timed from fresh interpreters, not from spans
IMPORT_LAYER = ("cli.import", "setup_s cli_p50_s",
                "every workload, largest share on joint_quad")


class _Open:
    __slots__ = ("sid", "parent", "name", "base", "peak", "t0")

    def __init__(self, sid, parent, name, base):
        self.sid = sid
        self.parent = parent
        self.name = name
        self.base = base
        self.peak = base
        self.t0 = 0.0


class Recorder:
    """In-memory spans: (id, parent id, request id, name, start, end, peak).

    peak is the tracemalloc peak above the traced memory at span start,
    in bytes; it is 0 while tracemalloc is off.
    """

    def __init__(self):
        self.spans = []
        self.request = None
        self.counters = defaultdict(lambda: defaultdict(int))
        self.errors = defaultdict(int)
        self._stack = []

    def _memory(self):
        if tracemalloc.is_tracing():
            return tracemalloc.get_traced_memory()
        return 0, 0

    def span(self, name):
        return _SpanContext(self, name)

    def _enter(self, name):
        cur, peak = self._memory()
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent.peak = max(parent.peak, peak)
        if tracemalloc.is_tracing():
            tracemalloc.reset_peak()
        frame = _Open(len(self.spans) + len(self._stack),
                      parent.sid if parent else None, name, cur)
        self._stack.append(frame)
        frame.t0 = time.perf_counter()
        return frame

    def _exit(self, frame):
        t1 = time.perf_counter()
        self._stack.pop()
        _, peak = self._memory()
        frame.peak = max(frame.peak, peak)
        if self._stack:
            self._stack[-1].peak = max(self._stack[-1].peak, frame.peak)
        self.spans.append((frame.sid, frame.parent, self.request, frame.name,
                           frame.t0, t1, frame.peak - frame.base))

    def write(self, path):
        keys = ("id", "parent", "request", "name", "start", "end", "peak_bytes")
        with open(path, "w") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)


class _SpanContext:
    __slots__ = ("rec", "name", "frame")

    def __init__(self, rec, name):
        self.rec = rec
        self.name = name

    def __enter__(self):
        self.frame = self.rec._enter(self.name)

    def __exit__(self, *exc):
        self.rec._exit(self.frame)
        return False


def _wrap(rec, layer, fn, count):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with rec.span(layer):
            try:
                out = fn(*args, **kwargs)
            except Exception:
                rec.errors[layer] += 1
                raise
        rec.counters[layer]["calls"] += 1
        if count is not None:
            count(rec.counters[layer], args, kwargs, out)
        return out
    return traced


def instrument(rec, modules):
    """Wrap every layer function; return (undo callable, missing layers).

    modules maps short module names ("charrv") to module objects. A
    module is patched only where it holds the very function object the
    layer's own module defines, so internal calls go through the wrapper.
    """
    saved = []
    missing = []
    for layer, spec in LAYERS.items():
        home, name = layer.split(".")
        fn = getattr(modules[home], name, None)
        if fn is None:
            missing.append(layer)
            continue
        wrapper = _wrap(rec, layer, fn, spec.count)
        for owner in spec.owners:
            if getattr(modules[owner], name, None) is fn:
                saved.append((modules[owner], name, fn))
                setattr(modules[owner], name, wrapper)

    def undo():
        for mod, name, fn in reversed(saved):
            setattr(mod, name, fn)
    return undo, missing


def self_times(spans):
    """{span id: duration minus the durations of its direct children}."""
    own = {s[0]: s[5] - s[4] for s in spans}
    for sid, parent, _, _, t0, t1, _ in spans:
        if parent is not None:
            own[parent] -= t1 - t0
    return own


def coverage(spans, root="request"):
    """Share of root-span time covered by the root spans' direct children."""
    roots = {s[0]: s[5] - s[4] for s in spans if s[3] == root}
    covered = sum(s[5] - s[4] for s in spans if s[1] in roots)
    total = sum(roots.values())
    return covered / total if total > 0 else 0.0


def pair_split(durations):
    """Per-unit and fixed time from pairs of calls that differ in work.

    durations is {pair key: [(work, seconds), ...]}; a key may hold
    several calls per work value (one per cycle), which are averaged.
    The per-unit time is the summed time difference over the summed
    work difference; the fixed time is the mean remainder of the
    smaller call of each pair.
    """
    dt = dw = 0.0
    lows = []
    for calls in durations.values():
        by_work = defaultdict(list)
        for work, seconds in calls:
            by_work[work].append(seconds)
        if len(by_work) < 2:
            continue
        w_lo, w_hi = min(by_work), max(by_work)
        t_lo = sum(by_work[w_lo]) / len(by_work[w_lo])
        t_hi = sum(by_work[w_hi]) / len(by_work[w_hi])
        dt += t_hi - t_lo
        dw += w_hi - w_lo
        lows.append((w_lo, t_lo))
    if dw == 0:
        return None, None
    per_unit = dt / dw
    fixed = sum(t - w * per_unit for w, t in lows) / len(lows)
    return per_unit, fixed


def layer_metrics(rec, pairs):
    """Per-layer metrics from the spans and counters of one traced pass.

    pairs maps request id to the Request.pair tuple of that request.
    Returns {layer.metric: value} for the metrics each Layer reports,
    for every layer that ran. busy_s is summed self time; peak_mb the
    largest tracemalloc peak of one call; atoms, grid_nodes and
    grid_points are means per call.
    """
    own = self_times(rec.spans)
    busy = defaultdict(float)
    peak = defaultdict(int)
    for s in rec.spans:
        busy[s[3]] += own[s[0]]
        peak[s[3]] = max(peak[s[3]], s[6])
    # outermost span of the paired layer within each paired request
    by_id = {s[0]: s for s in rec.spans}
    split = defaultdict(lambda: defaultdict(list))
    for s in rec.spans:
        pair = pairs.get(s[2])
        if pair is None or s[3] != pair[1]:
            continue
        if s[1] is not None and by_id[s[1]][3] == pair[1]:
            continue
        split[pair[1]][pair[0]].append((pair[2], s[5] - s[4]))

    out = {}
    for layer, spec in LAYERS.items():
        c = rec.counters.get(layer)
        if not c:
            continue
        calls = c["calls"]
        values = dict(c, busy_s=busy[layer], peak_mb=peak[layer] / 1e6)
        for key in ("atoms", "grid_nodes", "grid_points"):
            if key in c:
                values[key] = c[key] / calls
        if "atoms" in c:
            values["atoms_per_row"] = c["atoms"] / c["rows"]
        per_unit, fixed = pair_split(split.get(layer, {}))
        if per_unit is not None:
            values["per_perm_s" if "perms" in c else "per_draw_s"] = per_unit
            values["fixed_s"] = fixed
        for key in spec.reports:
            if key in values:
                out[layer + "." + key] = values[key]
    return out
