"""torusgerbe benchmark: seeded query streams through the public API.

Run from the repository root:

    python3 bench/run.py --workload membership-sweep --seed 1 --seconds 20 --trace 0

One process, one thread and one client drive a closed loop: the next query
starts when the previous one has returned and been checked.  Queries come
in rounds; each round is a fixed mix of queries whose parameters come from
the seed, run in a seeded order.  The loop ends with the round during which
``--seconds`` have passed, once at least MIN_QUERIES queries have completed.
Every answer is checked against an independent oracle, a paper value or a
stored digest.

Times are reported at a reference speed: each query's wall time is scaled
by a speed probe taken around it (see ``Clock``), so that the host's own
changes of speed do not show as changes of the package.

With ``--trace 0`` the last stdout line reports the end-to-end metrics; with
``--trace 1`` a separate traced run reports per-layer metrics from spans
recorded around the package's public functions (see tracer.py).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
PKG = "torusgerbe"

sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
import tracer as tr  # noqa: E402

F = Fraction
MIN_QUERIES = 100
SETUP_REPS = 3
MAX_RUN_S = 150.0
REFERENCE_PROBE_S = 0.5e-3  # about speed_probe() on the measuring host in its fast state
HALF = F(1, 2)


def fresh_import(*names):
    """Import the package anew and return the named modules."""
    for key in [k for k in sys.modules if k == PKG or k.startswith(PKG + ".")]:
        del sys.modules[key]
    importlib.invalidate_caches()
    return [importlib.import_module(n) for n in names]


class Query:
    """One call into the package: ``run()`` returns the answer, ``check``
    says whether it is right."""

    __slots__ = ("kind", "run", "check")

    def __init__(self, kind, run, check):
        self.kind, self.run, self.check = kind, run, check


def build_gerbe(tg, inst):
    torus = tg.TorusData(inst.n, inst.j)
    b = tg.AltForm2.from_pairs(inst.dim, inst.b)
    return tg.GerbeData(torus, b, tg.AltForm3.from_coeffs(inst.dim, inst.e3))


class PoolWorkload:
    """A workload over seeded gerbes: ``SLOTS`` names the shapes,
    ``VARIANTS`` copies of each are drawn from the seed, and round r uses
    copy r mod VARIANTS.

    Each round's mix is chosen so that p50 and p90 fall inside a cluster of
    similar queries rather than on the step between two clusters, where a
    small change in the mix would move them a lot.
    """

    modules = (PKG,)
    SLOTS = {}  # label -> (n, twist, complex-coordinate pairs, pattern triples, factor)
    VARIANTS = 1

    def plan(self, seed):
        rng = gen.stream_rng(seed, self.name, "pool")
        pool = []
        for _ in range(self.VARIANTS):
            row = {}
            for label, (n, twist, pairs, triples, factor) in self.SLOTS.items():
                inst = gen.make_instance(rng, n, twist, pairs, triples, factor, label)
                inst.b = {(0, 1): F(rng.randint(-3, 3), 2)}
                row[label] = (inst, gen.oneone_kernel(inst.e3, inst.j, inst.dim))
            pool.append(row)
        return pool

    def setup(self, mods, plan):
        (tg,) = mods
        return tg, [
            {k: (inst, kernel, build_gerbe(tg, inst)) for k, (inst, kernel) in row.items()}
            for row in plan
        ]

    def round(self, rng, state, r):
        tg, pool = state
        return self.queries(tg, rng, pool[r % len(pool)], r)


def case_vector(rng, inst, kernel, case, inside):
    if not inside:
        return gen.outside_vector(rng, inst, case)
    if case == "integral":
        return gen.integral_vector(rng, inst)
    return gen.oneone_vector(rng, inst, kernel)


# ------------------------------------------------------------ membership

class Membership(PoolWorkload):
    """fixes_gerbe, in_case_subgroup and translate-and-compare per vector."""

    name = "membership"
    VARIANTS = 2
    SLOTS = {
        "n2": (2, None, [(0, 1)], [], 2),
        "n2-twisted": (2, 0, [(0, 1)], [], 2),
        "n3": (3, None, [(0, 1), (1, 2)], [(0, 1, 2)], 2),
        "n3-twisted": (3, 0, [(0, 1), (1, 2)], [(0, 1, 2)], 2),
        "n4": (4, None, [(0, 1), (2, 3), (1, 3)], [(0, 1, 2)], 2),
        "n4-twisted": (4, 0, [(0, 1), (2, 3), (1, 3)], [(0, 1, 2)], 2),
    }
    # Queries per round; each torus cycles through the four (case, inside)
    # pairs.  Of the 46, the n2 tori take the lowest 12, standard n3 the next
    # 4, twisted n3 the 16 around p50, standard n4 the 12 around p90 and
    # twisted n4, at more than twice the cost of standard n4, the top 2.
    COUNTS = {"n2": 8, "n2-twisted": 4, "n3": 4, "n3-twisted": 16, "n4": 12, "n4-twisted": 2}

    def queries(self, tg, rng, pool, r):
        out = []
        pairs = list(itertools.product(("integral", "oneone"), (True, False)))
        for label, count in self.COUNTS.items():
            inst, kernel, g = pool[label]
            for i in range(count):
                case, inside = pairs[(i + 2 * r) % len(pairs)]
                w = case_vector(rng, inst, kernel, case, inside)
                out.append(self._query(tg, inst, g, w, case, inside))
        return out

    @staticmethod
    def _query(tg, inst, g, w, case, inside):
        sub = tg.SubgroupCase(case)
        expected_member = inst.member(w, case)

        def run():
            t = g.torus
            return (
                tg.fixes_gerbe(t, g.e, w),
                tg.in_case_subgroup(t, g.e, w, sub),
                tg.gerbes_isomorphic(g, tg.translate_gerbe(g, w)),
            )

        def check(out):
            fixes, member, iso = out
            # both decisions reduce to the anti-invariant part of E(w,.,.);
            # case-subgroup vectors always fix the gerbe
            return fixes == iso and member == expected_member and (fixes or not inside)

        return Query(f"{inst.label}/{case}/{'in' if inside else 'out'}", run, check)


# ------------------------------------------------------------ obstruction

H = tuple(tuple(HALF if k == a else F(0) for k in range(4)) for a in range(4))
E3_BASIS = (F(0), F(0), F(1), F(0))


class Obstruction(PoolWorkload):
    """obstruction_vanishes FIRST and SECOND on small seeded subgroups."""

    name = "obstruction"
    VARIANTS = 4
    SLOTS = {
        "n2-int": (2, None, [(0, 1)], [], 2),
        "n2-oneone": (2, None, [(0, 1)], [], 1),
        "n3-oneone": (3, None, [], [(0, 1, 2)], 1),
        "n3-int": (3, None, [], [(0, 1, 2)], 1),
    }
    # (slot, case, obstruction, generators, queries).  Candidates are the
    # generators plus the admissible basis vectors: at most 8 at n = 2 and 6
    # at n = 3, because SECOND costs grow with the cube of their number.
    # With the three paper queries a round has 20: the n = 2 and paper
    # FIRST queries are the lowest 6, n3-int FIRST (always all 15 pairs)
    # holds p50, and n3-int SECOND holds p90.  n3-oneone generators are
    # integral, so its FIRST queries never stop early and their cost does
    # not depend on the seed.
    MIX = (
        ("n2-int", "integral", "first", 3, 2),
        ("n2-oneone", "oneone", "first", 3, 1),
        ("n2-oneone", "oneone", "second", 3, 1),
        ("n3-int", "integral", "first", 2, 7),
        ("n3-oneone", "oneone", "first", 2, 3),
        ("n3-int", "integral", "second", 2, 2),
        ("n3-oneone", "oneone", "second", 2, 1),
    )

    def setup(self, mods, plan):
        tg, pool = super().setup(mods, plan)
        j2 = gen.standard_j(2)
        paper = {
            k: build_gerbe(tg, gen.Instance(2, j2, {(0, 1, 2): F(k)})) for k in (2, 4)
        }
        return tg, pool, paper

    def round(self, rng, state, r):
        tg, pool, paper = state
        out = [
            self._two_generator(tg, paper[2]),
            self._half_lattice(tg, paper[4], "first"),
            self._half_lattice(tg, paper[4], "second"),
        ]
        row = pool[r % len(pool)]
        for label, case, which, count, repeats in self.MIX:
            inst, kernel, g = row[label]
            for _ in range(repeats):
                if label == "n3-int":  # any other integral vector adds a candidate
                    gens = rng.sample(inst.basis, count)
                elif label == "n3-oneone":
                    gens = gen.new_generators(
                        lambda: gen.oneone_vector(rng, inst, kernel, (1,)), count, inst)
                else:
                    gens = gen.new_generators(
                        lambda: case_vector(rng, inst, kernel, case, True), count, inst)
                out.append(self._seeded(tg, inst, g, gens, case, which))
        return out

    @staticmethod
    def _seeded(tg, inst, g, gens, case, which):
        expected = gen.expected_obstruction(inst, gens, case, which)
        spec_args = (tuple(gens), tg.SubgroupCase(case))
        kind = tg.ObstructionKind(which)

        def run():
            r = tg.obstruction_vanishes(g, tg.SubgroupSpec.create(*spec_args), kind)
            return r.vanishes, r.certificate, r.tuples_checked

        return Query(f"{inst.label}/{which}", run, lambda out: out == expected)

    @staticmethod
    def _half_lattice(tg, g, which):
        """E = 4 e123 with the four half-lattice generators: FIRST vanishes;
        SECOND fails on all 56 triples, first at (H1, H2, H3), with closed
        form exp(-9 * E(H1, H2, H3)) = exp(1/2) = -1."""
        spec = tg.SubgroupSpec.create(H, tg.SubgroupCase.INTEGRAL)
        ctx = tg.ObstructionContext(g, tg.SubgroupCase.INTEGRAL)

        def run():
            r = tg.obstruction_vanishes(g, spec, tg.ObstructionKind(which))
            value = None
            if r.certificate is not None:
                values = tg.second_obstruction_alternating(ctx, *r.certificate)
                value = values.closed_form.exponent
            return r.vanishes, r.certificate, r.tuples_checked, value

        if which == "first":
            expected = (True, None, 28, None)
        else:
            expected = (False, H[:3], 56, tg.GaussianRational(HALF, F(0)))
        return Query(f"half-lattice/{which}", run, lambda out: out == expected)

    @staticmethod
    def _two_generator(tg, g):
        """E = 2 e123 with generators H1, H2: FIRST fails at (H1, H2, e3)
        with value exp(-1/2) = -1."""
        spec = tg.SubgroupSpec.create(H[:2], tg.SubgroupCase.INTEGRAL)
        ctx = tg.ObstructionContext(g, tg.SubgroupCase.INTEGRAL)

        def run():
            r = tg.obstruction_vanishes(g, spec, tg.ObstructionKind.FIRST)
            char = tg.first_obstruction_alternating(ctx, *r.certificate[:2])
            value = char.exponent_at(r.certificate[2])
            return r.vanishes, r.certificate, value.re % 1, value.im

        expected = (False, (H[0], H[1], E3_BASIS), HALF, F(0))
        return Query("two-generator/first", run, lambda out: out == expected)


# ------------------------------------------------------------ trivialization

class Trivialization(PoolWorkload):
    """verify_trivialization inside (True) and outside (False) the case
    subgroup, in both cases, at n = 2 and 3."""

    name = "trivialization"
    VARIANTS = 4
    SLOTS = {
        "n2": (2, None, [(0, 1)], [], 2),
        "n2-twisted": (2, 0, [(0, 1)], [], 2),
        "n3": (3, None, [(0, 1), (1, 2)], [(0, 1, 2)], 2),
        "n3-pattern": (3, None, [], [(0, 1, 2)], 2),
    }
    # (slot, case, inside, queries).  Outside instances stop at the first
    # failing pair and fill the lowest fifth; n2-twisted inside instances
    # hold the middle (p50) and n3 inside instances the top fifth (p90).
    MIX = (
        ("n2", "integral", False, 1),
        ("n2-twisted", "oneone", False, 1),
        ("n3", "integral", False, 1),
        ("n3-pattern", "oneone", False, 1),
        ("n2", "integral", True, 2),
        ("n2", "oneone", True, 1),
        ("n2-twisted", "integral", True, 3),
        ("n2-twisted", "oneone", True, 3),
        ("n3-pattern", "integral", True, 2),
        ("n3-pattern", "oneone", True, 1),
        ("n3", "integral", True, 2),
        ("n3", "oneone", True, 2),
    )

    def queries(self, tg, rng, pool, r):
        out = []
        for label, case, inside, repeats in self.MIX:
            inst, kernel, g = pool[label]
            for _ in range(repeats):
                w = case_vector(rng, inst, kernel, case, inside)
                out.append(self._query(tg, inst, g, w, case, inside, rng.randrange(10**6)))
        return out

    @staticmethod
    def _query(tg, inst, g, w, case, inside, seed):
        sub = tg.SubgroupCase(case)

        def run():
            # outside instances skip the membership check, so the verifier
            # has to witness the failure itself
            ctx = tg.TranslationContext.create(g, w, sub, check=inside)
            return tg.verify_trivialization(ctx, seed=seed)

        return Query(f"{inst.label}/{case}/{'in' if inside else 'out'}", run,
                     lambda out: out is inside)


# ------------------------------------------------------------ cli

CLI_DIR = BENCH / "cli"


def cli_cases():
    """(case id, argv) for every command on each problem file, plus the
    three built-in examples."""
    cases = []
    for name in ("n2", "n3", "n4"):
        path = str((CLI_DIR / f"problem-{name}.json").relative_to(ROOT))
        for label, args in (
            ("check-torus", []),
            ("check-type", []),
            ("translate", ["--w", "u"]),
            ("membership", ["--w", "u"]),
            ("tau-verify", ["--w", "u"]),
            ("tau-verify-v", ["--w", "v"]),
            ("xi", ["--w1", "u", "--w2", "v"]),
            ("obstruction1", ["--generators", "u,v"]),
            ("obstruction2", ["--generators", "u,v,x"]),
            ("theta-table", ["--generators", "u,v"]),
            ("gerbal-class", ["--w1", "u", "--w2", "v", "--w3", "x"]),
        ):
            cases.append((f"{name}/{label}", [label.removesuffix("-v"), path, *args]))
    for example in ("k-group", "first-obstruction", "second-obstruction"):
        cases.append((f"example/{example}", ["example", "--name", example]))
    return cases


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


class Cli:
    """One ``python -m torusgerbe`` child per query, one child at a time."""

    modules = (PKG, PKG + ".cli")

    def __init__(self, traced=False):
        self.traced = traced
        self.queries_run = 0
        self.child_reports = []  # (query id, report of the traced child)

    def plan(self, seed):
        golden = json.loads((CLI_DIR / "golden.json").read_text())
        texts = [(CLI_DIR / f"problem-{n}.json").read_text() for n in ("n2", "n3", "n4")]
        return golden, texts

    def setup(self, mods, plan):
        # the parent parses each problem file once, as each child will
        _, cli = mods
        golden, texts = plan
        for text in texts:
            cli.parse_problem(text)
        return golden

    def round(self, rng, golden, r):
        cases = cli_cases()
        return [self._query(case_id, argv, golden[case_id]) for case_id, argv in cases]

    def _query(self, case_id, argv, expected):
        def run():
            if self.traced:
                report = OUT / "cli-child.json"
                report.unlink(missing_ok=True)
                cmd = [sys.executable, str(BENCH / "cli_child.py"), str(report), *argv]
            else:
                cmd = [sys.executable, "-m", PKG, *argv]
            qid = self.queries_run
            self.queries_run += 1
            proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                                  timeout=120)
            if self.traced:
                self.child_reports.append((qid, json.loads(report.read_text())))
            return proc.returncode, hashlib.sha256(proc.stdout).hexdigest()

        def check(out):
            return out == (expected["status"], expected["sha256"])

        return Query(case_id, run, check)


WORKLOADS = {
    "membership-sweep": Membership,
    "obstruction-sweep": Obstruction,
    "trivialization-suite": Trivialization,
    "cli-oneshot": Cli,
}


# ------------------------------------------------------------ running

def speed_probe():
    """Wall time of a fixed piece of the benchmark's own exact rational
    arithmetic, the kind of work the package does.  Taken between queries,
    it tracks how fast the host runs Python code at that moment; no change
    to the package can move it."""
    t0 = time.perf_counter()
    for _ in range(2):
        acc = F(0)
        for k in range(1, 60):
            acc = acc * F(k, k + 2) + F(3, 2 * k + 1)
    return time.perf_counter() - t0


class Clock:
    """Times work at the reference speed: wall time scaled by
    REFERENCE_PROBE_S over the mean of the probes taken just before and
    just after it.  Keeps the raw wall times and the probes too."""

    def __init__(self):
        self.probes = [speed_probe()]
        self.wall = []

    def time(self, fn, *args):
        """(result or raised exception, reference-speed seconds)"""
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        except Exception as exc:  # a raising query is a failed query
            out = exc
        dt = time.perf_counter() - t0
        self.wall.append(dt)
        before = self.probes[-1]
        self.probes.append(speed_probe())
        return out, dt * 2 * REFERENCE_PROBE_S / (before + self.probes[-1])

    def speed(self):
        """Median probe over the run, as a multiple of the reference."""
        return REFERENCE_PROBE_S / statistics.median(self.probes)


def measure_setup(workload, plan):
    """Median over SETUP_REPS of a fresh package import plus every object
    the workload builds, at the reference speed; returns (median seconds,
    clock, state)."""
    clock = Clock()
    times = []
    state = None
    for _ in range(SETUP_REPS):
        state, dt = clock.time(lambda: workload.setup(fresh_import(*workload.modules), plan))
        if isinstance(state, Exception):
            raise state
        times.append(dt)
    return statistics.median(times), clock, state


def measure_cli_import():
    clock = Clock()
    return statistics.median(
        clock.time(fresh_import, PKG + ".cli")[1] for _ in range(SETUP_REPS))


class Loop:
    """Outcome of a closed-loop run: per-query latencies at the reference
    speed (seconds), failed queries, rounds started, and the clock with the
    raw wall times and probes."""

    def __init__(self):
        self.latencies = []
        self.failures = []
        self.rounds = 0
        self.clock = Clock()

    def queries_per_s(self):
        return len(self.latencies) / sum(self.latencies)


def run_loop(workload, state, seed, name, seconds, tracer=None):
    """Closed loop over whole rounds, each in a seeded random order, until
    ``seconds`` have passed and MIN_QUERIES are done.  Whole rounds keep the
    run's mix, and with it the percentiles, the same from run to run."""
    gc.collect()
    loop = Loop()
    start = time.perf_counter()
    for r in itertools.count():
        rng = gen.stream_rng(seed, name, r)
        queries = workload.round(rng, state, r)
        rng.shuffle(queries)
        loop.rounds += 1
        for q in queries:
            if tracer is not None:
                tracer.query_id = len(loop.latencies)
            out, dt = loop.clock.time(q.run)
            loop.latencies.append(dt)
            if isinstance(out, Exception) or not q.check(out):
                loop.failures.append((q.kind, repr(out)[:300]))
        elapsed = time.perf_counter() - start
        if elapsed >= MAX_RUN_S or (elapsed >= seconds and len(loop.latencies) >= MIN_QUERIES):
            return loop


def peak_rss_mib(children):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # Linux reports KiB


def end_to_end(name, loop, setup_s):
    attempted = len(loop.latencies)
    return {
        "setup_s": (setup_s, "s"),
        "queries_per_s": (loop.queries_per_s(), "1/s"),
        "query_p50_ms": (tr.percentile(loop.latencies, 50) * 1e3, "ms"),
        "query_p90_ms": (tr.percentile(loop.latencies, 90) * 1e3, "ms"),
        "correct_frac": ((attempted - len(loop.failures)) / attempted, "ratio"),
        "peak_rss_mib": (peak_rss_mib(children=name == "cli-oneshot"), "MiB"),
    }


class Probes:
    """Derived per-layer counts taken at the traced boundaries.

    An HNF input repeats when the same process has already reduced it, so
    the repeat ratio is the share of calls a per-process cache could serve.
    """

    def __init__(self):
        self.hnf_calls = 0
        self.hnf_repeats = 0
        self.hnf_bits = 0
        self._seen = set()
        self.tuples_checked = 0

    def attach(self, tracer):
        tracer.on_return("exact.hermite_normal_form", self._hnf)
        tracer.on_return("obstruction.obstruction_vanishes", self._vanishing)
        return self

    def _hnf(self, args, kwargs, result):
        m = args[0] if args else kwargs["m"]
        rows = tuple(tuple(int(x) for x in r) for r in m)
        self.hnf_calls += 1
        self.hnf_repeats += rows in self._seen
        self._seen.add(rows)
        self.hnf_bits = max(self.hnf_bits, max_bits(rows, *result))

    def _vanishing(self, args, kwargs, result):
        self.tuples_checked += result.tuples_checked

    def counts(self):
        return {
            "hnf_calls": self.hnf_calls,
            "hnf_repeats": self.hnf_repeats,
            "hnf_bits": self.hnf_bits,
            "tuples_checked": self.tuples_checked,
        }

    def merge(self, counts):
        self.hnf_calls += counts["hnf_calls"]
        self.hnf_repeats += counts["hnf_repeats"]
        self.hnf_bits = max(self.hnf_bits, counts["hnf_bits"])
        self.tuples_checked += counts["tuples_checked"]


def max_bits(*matrices):
    return max((abs(int(x)).bit_length() for m in matrices for r in m for x in r), default=0)


def per_layer(tracer, probes, loop, span_cost, cli_import_s):
    """Calls and self time per traced function, the derived counts, and the
    tracing overhead: spans times the calibrated cost of one span, as a
    share of the traced wall time.  Self times are scaled to the reference
    speed by the run's median probe."""
    speed = loop.clock.speed()
    metrics = {}
    for name, (calls, self_s) in tracer.summary().items():
        if name == tr.HOOK_SPAN:
            continue
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_ms"] = (self_s * speed * 1e3, "ms")
    metrics["exact.hermite_normal_form.max_int_bits"] = (probes.hnf_bits, "bits")
    metrics["exact.hermite_normal_form.repeat_ratio"] = (
        probes.hnf_repeats / probes.hnf_calls if probes.hnf_calls else 0.0, "ratio")
    metrics["obstruction.tuples_checked"] = (probes.tuples_checked, "count")
    metrics["cli.import_ms"] = (cli_import_s * 1e3, "ms")
    spans = tracer.span_count()
    metrics["trace.spans"] = (spans, "count")
    metrics["trace.overhead_frac"] = (spans * span_cost / sum(loop.clock.wall), "ratio")
    metrics["trace.query_p50_ms"] = (tr.percentile(loop.latencies, 50) * 1e3, "ms")
    return metrics


def traced_run(name, workload, plan, seed, seconds):
    OUT.mkdir(exist_ok=True)
    span_cost = tr.calibrate_span_cost()
    _, _, state = measure_setup(workload, plan)
    tracer = tr.Tracer(PKG).install()
    for name_ in tracer.missing:
        print(f"warning: traced function {name_} no longer exists", file=sys.stderr)
    probes = Probes().attach(tracer)
    try:
        loop = run_loop(workload, state, seed, name, seconds, tracer)
    finally:
        tracer.uninstall()
    if name == "cli-oneshot":
        imports = []
        for qid, child in workload.child_reports:
            tracer.extend(child["spans"], qid)
            probes.merge(child["counts"])
            imports.append(child["import_s"])
        cli_import_s = statistics.median(imports) * loop.clock.speed()
    else:
        cli_import_s = measure_cli_import()
    tracer.write(OUT, f"{name}-seed{seed}")
    return loop, per_layer(tracer, probes, loop, span_cost, cli_import_s)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / PKG / "__init__.py").is_file():
        print(f"error: {SRC / PKG} not found; run from a torusgerbe checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    name = args.workload
    cls = WORKLOADS[name]
    workload = cls(traced=bool(args.trace)) if cls is Cli else cls()
    plan = workload.plan(args.seed)

    if args.trace:
        loop, metrics = traced_run(name, workload, plan, args.seed, args.seconds)
    else:
        setup_s, setup_clock, state = measure_setup(workload, plan)
        loop = run_loop(workload, state, args.seed, name, args.seconds)
        metrics = end_to_end(name, loop, setup_s)
        wall = loop.clock.wall
        print(f"{name}: wall time as measured: setup {statistics.median(setup_clock.wall):.4f} s, "
              f"{len(wall) / sum(wall):.4f} queries/s, p50 {tr.percentile(wall, 50) * 1e3:.3f} ms, "
              f"p90 {tr.percentile(wall, 90) * 1e3:.3f} ms", file=sys.stderr)

    for kind, detail in loop.failures[:10]:
        print(f"FAILED {kind}: {detail}", file=sys.stderr)
    n = len(loop.latencies)
    print(f"{name}: {n} queries in {loop.rounds} rounds, {len(loop.failures)} failed; "
          f"p50/p90 over {n} samples; host speed {loop.clock.speed():.3f} of the reference",
          file=sys.stderr)
    result = {
        "correct": not loop.failures,
        "attempted": n,
        "failed": len(loop.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
