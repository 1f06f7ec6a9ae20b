"""In-memory span tracing of the package's public functions.

The tracer replaces each traced function at every ``torusgerbe`` module
namespace that binds it, so calls between modules are seen as well as the
benchmark's own calls.  A span records name, start, end, parent span and
query id.  Spans stay in memory until the run ends; self time is a span's
duration minus the durations of its direct children (calls are nested and
single-threaded, so children never overlap).
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from array import array
from pathlib import Path

# Layer (= package module) -> traced public functions.
TARGETS = {
    "exact": ("hermite_normal_form", "lattice_membership"),
    "torus": (
        "integral_anti_invariant_member",
        "type_condition_check",
        "anti_invariant_part",
        "check_complex_structure",
    ),
    "gerbe": (
        "exponent_re",
        "exponent_im",
        "pair_exponent",
        "translation_factor",
        "translate_gerbe",
        "gerbes_isomorphic",
    ),
    "symmetry": ("fixes_gerbe", "in_case_subgroup", "case_decomposition"),
    "trivialization": (
        "verify_trivialization",
        "trivialization_residual",
        "trivializing_exponent",
    ),
    "obstruction": (
        "obstruction_vanishes",
        "first_obstruction_alternating",
        "second_obstruction_alternating",
        "defect_correction_fn",
    ),
    "cli": ("parse_problem", "run_command", "main"),
}

SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in TARGETS.items() for fn in fns)
HOOK_SPAN = "trace.hook"


class UnwrappedBinding(RuntimeError):
    """A traced function is still reachable unwrapped from some module."""


def package_modules(package):
    prefix = package + "."
    return [
        m for name, m in sorted(sys.modules.items())
        if m is not None and (name == package or name.startswith(prefix))
    ]


def _references(value, depth=2):
    """Objects reachable from a module global through containers and
    class attributes, so a dispatch table holding a function is seen."""
    yield value
    if depth == 0:
        return
    if isinstance(value, dict):
        inner = value.values()
    elif isinstance(value, (list, tuple, set, frozenset)):
        inner = value
    elif isinstance(value, type):
        inner = [getattr(v, "__func__", v) for v in vars(value).values()]
    else:
        return
    for v in inner:
        yield from _references(v, depth - 1)


def unwrapped_bindings(package, originals):
    """Where the package still reaches one of the original functions:
    (module, global name) pairs, directly or through a container."""
    ids = {id(f) for f in originals}
    return [
        (m.__name__, attr)
        for m in package_modules(package)
        for attr, value in vars(m).items()
        if any(id(v) in ids for v in _references(value))
    ]


def percentile(values, q):
    """q-th percentile (0 < q < 100) with linear interpolation between
    closest ranks, as ``statistics.quantiles(method="inclusive")``."""
    data = sorted(values)
    if len(data) == 1:
        return data[0]
    pos = (len(data) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def self_times(starts, ends, parents):
    """Per-span self time: duration minus the durations of direct children."""
    out = [e - s for s, e in zip(starts, ends)]
    for i, p in enumerate(parents):
        if p >= 0:
            out[p] -= ends[i] - starts[i]
    return out


class Tracer:
    """Records spans for the wrapped functions of one package."""

    def __init__(self, package="torusgerbe"):
        self.package = package
        self.names = list(SPAN_NAMES) + [HOOK_SPAN]
        self._ids = {n: i for i, n in enumerate(self.names)}
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.query_ids = array("q")
        self.query_id = -1
        self._stack = []
        self._hooks = {}
        self._restore = []
        self.missing = []

    def on_return(self, name, hook):
        """Call ``hook(args, kwargs, result)`` after each return of ``name``.
        Hook time is recorded as a child span, so it leaves the caller's
        self time and counts as tracing overhead."""
        self._hooks[name] = hook

    def _span_open(self, nid):
        idx = len(self.starts)
        self.name_ids.append(nid)
        self.starts.append(0.0)
        self.ends.append(0.0)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.query_ids.append(self.query_id)
        self._stack.append(idx)
        return idx

    def _span_close(self, idx, start, end):
        self._stack.pop()
        self.starts[idx] = start
        self.ends[idx] = end

    def wrap(self, name, fn):
        nid = self._ids[name]
        hook_id = self._ids[HOOK_SPAN]
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._span_open(nid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._span_close(idx, start, clock())
            hook = tracer._hooks.get(name)
            if hook is not None:
                h = tracer._span_open(hook_id)
                hs = clock()
                hook(args, kwargs, result)
                tracer._span_close(h, hs, clock())
            return result

        return traced

    def install(self):
        """Wrap every target at every module binding it; raise if any
        binding of a target stays unwrapped."""
        modules = package_modules(self.package)
        originals = []
        for layer, fns in TARGETS.items():
            home = sys.modules.get(f"{self.package}.{layer}")
            for fn_name in fns:
                original = getattr(home, fn_name, None)
                if original is None:
                    self.missing.append(f"{layer}.{fn_name}")
                    continue
                originals.append(original)
                wrapped = self.wrap(f"{layer}.{fn_name}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapped)
                            self._restore.append((m, attr, original))
        left = unwrapped_bindings(self.package, originals)
        if left:
            self.uninstall()
            raise UnwrappedBinding(f"unwrapped bindings remain: {left}")
        return self

    def uninstall(self):
        for m, attr, original in reversed(self._restore):
            setattr(m, attr, original)
        self._restore.clear()

    def span_count(self):
        return len(self.starts)

    def summary(self):
        """{name: (calls, self seconds)} over all recorded spans."""
        selfs = self_times(self.starts, self.ends, self.parents)
        calls = [0] * len(self.names)
        total = [0.0] * len(self.names)
        for nid, s in zip(self.name_ids, selfs):
            calls[nid] += 1
            total[nid] += s
        return {n: (calls[i], total[i]) for i, n in enumerate(self.names)}

    def extend(self, spans, query_id):
        """Append spans recorded elsewhere, as [name, start, end, parent]
        with parent indices local to ``spans``."""
        base = len(self.starts)
        for name, start, end, parent in spans:
            self.name_ids.append(self._ids[name])
            self.starts.append(start)
            self.ends.append(end)
            self.parents.append(base + parent if parent >= 0 else -1)
            self.query_ids.append(query_id)

    def export(self):
        return [
            [self.names[n], s, e, p]
            for n, s, e, p in zip(self.name_ids, self.starts, self.ends, self.parents)
        ]

    def write(self, directory, stem):
        """Write the spans: a JSON header and one binary array per field."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        fields = ("name_ids", "starts", "ends", "parents", "query_ids")
        header = {
            "names": self.names,
            "count": self.span_count(),
            "fields": [[f, getattr(self, f).typecode] for f in fields],
        }
        (directory / f"{stem}.spans.json").write_text(json.dumps(header) + "\n")
        with open(directory / f"{stem}.spans.bin", "wb") as fh:
            for f in fields:
                getattr(self, f).tofile(fh)


def calibrate_span_cost(rounds=5, calls=20000):
    """Median extra seconds a traced call costs over a plain call."""

    def noop(x):
        return x

    costs = []
    for _ in range(rounds):
        tracer = Tracer()
        traced = tracer.wrap(SPAN_NAMES[0], noop)
        t0 = time.perf_counter()
        for i in range(calls):
            noop(i)
        plain = time.perf_counter() - t0
        t0 = time.perf_counter()
        for i in range(calls):
            traced(i)
        costs.append((time.perf_counter() - t0 - plain) / calls)
    return statistics.median(costs)
