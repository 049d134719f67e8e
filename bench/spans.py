"""In-memory span tracer wrapped around the public functions of twoshare.

The tracer never edits the library.  It replaces module attributes (and a
few class methods) with wrappers that record a span per call: name, start,
end and parent span.  Every module attribute bound to the same function
object is rebound, because `symbol` and `attack` import `power_convolve`,
`sample` and `iid_extension` by name.  A name that no longer exists is
reported as absent and the run carries on, so the benchmark keeps working
when a later change deletes or renames a function.

Spans are grouped into phases (one set-up, then one phase per timed pass);
each phase has a root span and its own counters.  A span's self time is its
duration minus the durations of its direct children; calls are
single-threaded, so children never overlap.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import math
import statistics
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

MODULES = ("prob", "typical", "block", "symbol", "iidsum", "attack", "harness")


# ---------------------------------------------------------------------------
# Counter hooks: each gets the tracer's current counters, the bound
# arguments of the call and its result.


def _grid_cells(c, a, result):
    idx = a["params"].index
    c["block.grid_cells"] += idx.k ** idx.n * (idx.m_count + 1)


def _all_probs(c, a, result):
    ext = a["self"]
    c["prob.all_probs.calls"] += 1
    c["prob.all_probs.states"] += ext.k ** ext.n
    c.setdefault("prob.all_probs.keys", set()).add(
        (tuple(float(p) for p in ext.source.probs), ext.n))


def _build_index(c, a, result):
    k, n = a["source"].support_size, a["n"]
    c["typical.sequences_enumerated"] += k ** n
    c["typical.type_classes"] += math.comb(n + k - 1, k - 1)


def _power_convolve(c, a, result):
    key = (tuple(sorted(a["dist"].items())), a["n"])
    seen = c.setdefault("iidsum.power_convolve.keys", set())
    if key in seen:
        c["iidsum.power_convolve.repeat_calls"] += 1
    seen.add(key)
    c["iidsum.power_convolve.calls"] += 1
    c["iidsum.power_convolve.support_points"] += len(result)


def _sample(c, a, result):
    size = a["size"]
    if size is None:
        c["prob.sample.draws"] += 1
    elif isinstance(size, int):
        c["prob.sample.draws"] += size
    else:
        c["prob.sample.draws"] += math.prod(size)


def _mc(c, trials, estimate):
    hits = round(estimate * trials)
    c["mc.trials"] += trials
    c["mc.hits"] += hits
    c["mc.zero_hit_estimates"] += hits == 0


def _mc_pair(c, a, result):
    _mc(c, a["trials"], result[0])


def _mc_attack(c, a, result):
    _mc(c, a["trials"], result.success_prob)


def _records(c, a, result):
    c["harness.records"] += len(result.records)
    c["harness.records_skipped"] += sum(r.skipped is not None
                                        for r in result.records)


# (module, attribute or Class.method, counter hook) -- one span per call
SPANNED = (
    ("prob", "IIDExtension.all_probs", _all_probs),
    ("prob", "sample", _sample),
    ("typical", "build_index", _build_index),
    ("typical", "TypicalIndex.xi_plus_all", None),
    ("typical", "atypical_mass_mc", _mc_pair),
    ("block", "encode", None),
    ("block", "decode", None),
    ("block", "exact_quantities", _grid_cells),
    ("block", "monte_carlo_error", _mc_pair),
    ("symbol", "make_codec", None),
    ("symbol", "encode_n", None),
    ("symbol", "decode_n", None),
    ("symbol", "exact_symbolwise_quantities", None),
    ("symbol", "monte_carlo_error", _mc_pair),
    ("iidsum", "power_convolve", _power_convolve),
    ("attack", "blockwise_attack", None),
    ("attack", "blockwise_test_quantities", None),
    ("attack", "symbolwise_attack", None),
    ("attack", "symbolwise_test_quantities", None),
    ("attack", "monte_carlo_attack", _mc_attack),
    ("attack", "logsum_bound_check", None),
    ("attack", "fano_check", None),
    ("attack", "converse_exponent_check", None),
    ("harness", "run_experiment", _records),
    ("harness", "emit_jsonl", None),
    ("harness", "emit_csv", None),
    ("harness", "emit_report", None),
)

# (module, attribute, counter) -- counted without a span, because they run
# per symbol or per round trip and a span would cost more than the call;
# `_compositions` is the generator of forged-sequence types that
# `symbolwise_attack` scans, so each item it yields is one type scanned
COUNTED = (
    ("typical", "TypicalIndex.rank", "typical.rank_lookups"),
    ("typical", "TypicalIndex.unrank", "typical.rank_lookups"),
    ("typical", "TypicalIndex.xi_plus", "typical.rank_lookups"),
    ("typical", "TypicalIndex.contains", "typical.rank_lookups"),
    ("attack", "_compositions", "attack.types_scanned"),
)


class Tracer:
    """Span recorder; spans live in flat arrays until the run ends."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.phases: list[tuple[str, int, dict]] = []
        self.counters: dict = defaultdict(float)
        self.absent: list[str] = []
        self.broken_hooks: set[str] = set()
        self._swaps: list[tuple[object, str, object, object]] = []

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(i)
        return i

    @contextmanager
    def phase(self, name: str):
        """Root span `bench.<name>` with fresh counters for its subtree."""
        self.counters = defaultdict(float)
        i = self._open(self._intern("bench." + name))
        self.phases.append((name, i, self.counters))
        self.start[i] = time.perf_counter()
        try:
            yield
        finally:
            self.end[i] = time.perf_counter()
            self._stack.pop()
            # counts made between phases belong to no phase
            self.counters = defaultdict(float)

    def spanned(self, name: str, fn, hook=None):
        nid = self._intern(name)
        sig = inspect.signature(fn) if hook else None
        perf = time.perf_counter
        start, end, stack = self.start, self.end, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self._open(nid)
            start[i] = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = perf()
                stack.pop()
            if hook is not None:
                try:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    hook(self.counters, bound.arguments, result)
                except (AttributeError, KeyError, TypeError, ValueError):
                    # the library changed shape under the hook; the span
                    # still counts, the counter is reported as broken
                    self.broken_hooks.add(name)
            return result
        return traced

    def counted(self, counter: str, fn):
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def counted_gen(*args, **kwargs):
                for item in fn(*args, **kwargs):
                    self.counters[counter] += 1
                    yield item
            return counted_gen

        @functools.wraps(fn)
        def counted_call(*args, **kwargs):
            self.counters[counter] += 1
            return fn(*args, **kwargs)
        return counted_call

    def enable(self, on: bool):
        """Switch every installed wrapper on, or back to the original."""
        for owner, key, original, wrapped in self._swaps:
            setattr(owner, key, wrapped if on else original)

    def install(self):
        """Wrap every listed name that exists; record the ones that do not."""
        for mod_name, attr, hook in SPANNED:
            label = f"{mod_name}.{attr.rsplit('.', 1)[-1]}"
            self._replace(mod_name, attr,
                          lambda fn, label=label, hook=hook:
                          self.spanned(label, fn, hook))
        for mod_name, attr, counter in COUNTED:
            self._replace(mod_name, attr,
                          lambda fn, counter=counter: self.counted(counter, fn))

    def _replace(self, mod_name: str, attr: str, make):
        try:
            module = importlib.import_module(f"twoshare.{mod_name}")
        except ImportError:
            self.absent.append(f"{mod_name}.{attr}")
            return
        owner = module
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        original = getattr(owner, leaf, None) if owner is not None else None
        if not callable(original):
            self.absent.append(f"{mod_name}.{attr}")
            return
        wrapped = make(original)
        if path:
            self._swaps.append((owner, leaf, original, wrapped))
        else:
            self._swaps += [(mod, key, original, wrapped)
                            for name, mod in list(sys.modules.items())
                            if name == "twoshare" or name.startswith("twoshare.")
                            for key, value in list(vars(mod).items())
                            if value is original]
        self.enable(True)

    # -- aggregation --------------------------------------------------------

    def phase_stats(self) -> list[tuple[str, float, dict, dict, dict]]:
        """Per phase: (name, wall, self seconds by span name, calls by span
        name, counters)."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out = []
        bounds = [root for _, root, _ in self.phases] + [n]
        for k, (name, root, counters) in enumerate(self.phases):
            self_s: dict[str, float] = defaultdict(float)
            calls: dict[str, int] = defaultdict(int)
            for i in range(root, bounds[k + 1]):
                label = self.names[self.name_id[i]]
                self_s[label] += dur[i] - child[i]
                calls[label] += 1
            out.append((name, dur[root], self_s, calls, counters))
        return out


def per_layer(tracer: Tracer, untraced_wall: float) -> dict[str, float]:
    """Per-layer metrics: the traced set-up plus the median traced pass."""
    phases = tracer.phase_stats()
    setup = [p for p in phases if p[0] == "setup"]
    passes = [p for p in phases if p[0] == "pass"]

    def value(fn) -> float:
        once = sum(fn(*p[1:]) for p in setup)
        return once + statistics.median(fn(*p[1:]) for p in passes)

    def self_s(*labels):
        return lambda wall, s, calls, c: sum(s.get(x, 0.0) for x in labels)

    def count(key):
        return lambda wall, s, calls, c: float(c.get(key, 0.0))

    def per_call_us(label):
        # mean self time per call over every traced pass
        tot = sum(p[2].get(label, 0.0) for p in passes)
        n = sum(p[3].get(label, 0) for p in passes)
        return 1e6 * tot / n if n else 0.0

    def distinct_ratio(wall, s, calls, c):
        n = c.get("prob.all_probs.calls", 0.0)
        return len(c.get("prob.all_probs.keys", ())) / n if n else 0.0

    def module_self(mod):
        return lambda wall, s, calls, c: sum(
            (v for k, v in s.items() if k.split(".", 1)[0] == mod), 0.0)

    m: dict[str, float] = {}
    for label in ("block.exact_quantities", "attack.blockwise_attack",
                  "attack.blockwise_test_quantities", "typical.build_index",
                  "iidsum.power_convolve", "symbol.exact_symbolwise_quantities",
                  "attack.symbolwise_test_quantities", "attack.symbolwise_attack",
                  "prob.sample", "block.monte_carlo_error",
                  "symbol.monte_carlo_error", "attack.monte_carlo_attack",
                  "typical.atypical_mass_mc", "symbol.make_codec"):
        m[label + ".s"] = value(self_s(label))
    for key in ("block.grid_cells", "prob.all_probs.calls",
                "prob.all_probs.states", "typical.sequences_enumerated",
                "typical.type_classes", "iidsum.power_convolve.calls",
                "iidsum.power_convolve.repeat_calls",
                "iidsum.power_convolve.support_points", "attack.types_scanned",
                "prob.sample.draws", "mc.trials", "mc.hits",
                "mc.zero_hit_estimates", "typical.rank_lookups",
                "harness.records", "harness.records_skipped"):
        m[key] = value(count(key))
    m["typical.xi_plus_all.calls"] = value(
        lambda wall, s, calls, c: float(calls.get("typical.xi_plus_all", 0)))
    m["prob.all_probs.distinct_ratio"] = value(distinct_ratio)
    for label in ("block.encode", "block.decode", "symbol.encode_n",
                  "symbol.decode_n"):
        m[label + ".us"] = per_call_us(label)
    m["attack.checks.s"] = value(self_s(
        "attack.logsum_bound_check", "attack.fano_check",
        "attack.converse_exponent_check"))
    m["harness.run_experiment.self_s"] = value(self_s("harness.run_experiment"))
    m["harness.emit.s"] = value(self_s("harness.emit_jsonl", "harness.emit_csv",
                                       "harness.emit_report"))
    for mod in MODULES + ("bench",):
        m[mod + ".self_s"] = value(module_self(mod))
    traced_wall = statistics.median(p[1] for p in passes)
    m["trace.wall_s"] = traced_wall
    m["trace.untraced_wall_s"] = untraced_wall
    m["trace.overhead_s"] = traced_wall - untraced_wall
    # time inside no library span: the benchmark's own loop and checks
    m["trace.unaccounted_s"] = statistics.median(
        p[1] - sum(v for k, v in p[2].items() if not k.startswith("bench."))
        for p in passes)
    m["trace.spans"] = statistics.median(sum(p[3].values()) for p in passes)
    return m
