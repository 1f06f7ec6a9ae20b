"""Self-tests of the benchmark's tracer, statistics and input generator.

    python3 -m pytest bench -q
"""

import random
import statistics
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (puts bench/ first on sys.path)
import gen  # noqa: E402
import tracer as tr  # noqa: E402

sys.path.insert(0, str(run.SRC))


@pytest.fixture
def package():
    tg, cli = run.fresh_import(run.PKG, run.PKG + ".cli")
    yield tg, cli
    run.fresh_import(run.PKG)


def test_every_binding_of_a_traced_function_is_wrapped(package):
    tg, cli = package
    originals = [
        getattr(sys.modules[f"{run.PKG}.{layer}"], fn)
        for layer, fns in tr.TARGETS.items()
        for fn in fns
    ]
    tracer = tr.Tracer(run.PKG).install()
    try:
        assert tracer.missing == []
        assert tr.unwrapped_bindings(run.PKG, originals) == []
        # re-exports and cross-module imports are wrapped too
        assert tg.torus.lattice_membership.__wrapped__ is originals[1]
        assert cli.obstruction_vanishes.__wrapped__ is tg.obstruction.obstruction_vanishes.__wrapped__
        assert hasattr(tg.fixes_gerbe, "__wrapped__")
    finally:
        tracer.uninstall()
    assert tg.fixes_gerbe is tg.symmetry.fixes_gerbe
    assert not hasattr(tg.fixes_gerbe, "__wrapped__")


def test_a_function_reachable_only_through_a_table_fails_install(package):
    tg, _ = package
    tg.symmetry._TABLE = {"fixes": tg.symmetry.fixes_gerbe}
    with pytest.raises(tr.UnwrappedBinding, match="_TABLE"):
        tr.Tracer(run.PKG).install()
    assert not hasattr(tg.symmetry.fixes_gerbe, "__wrapped__")  # rolled back


def test_spans_nest_along_calls(package):
    tg, _ = package
    inst = gen.Instance(2, gen.standard_j(2), {(0, 1, 2): gen.F(1)})
    g = run.build_gerbe(tg, inst)
    tracer = tr.Tracer(run.PKG).install()
    try:
        tg.fixes_gerbe(g.torus, g.e, (gen.F(1, 3), 0, 0, 0))
    finally:
        tracer.uninstall()
    names = [tracer.names[i] for i in tracer.name_ids]
    assert names[:4] == [
        "symmetry.fixes_gerbe",
        "torus.integral_anti_invariant_member",
        "torus.anti_invariant_part",
        "torus.anti_invariant_part",
    ]
    assert names.count("exact.hermite_normal_form") == 1
    parents = list(tracer.parents)
    assert parents[0] == -1 and all(p >= 0 for p in parents[1:])
    selfs = tr.self_times(tracer.starts, tracer.ends, tracer.parents)
    assert all(x >= 0 for x in selfs)
    assert sum(selfs) == pytest.approx(tracer.ends[0] - tracer.starts[0])


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] > a [1, 4] > c [2, 3];  root > b [5, 6]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 6.0]
    parents = [-1, 0, 1, 0]
    assert tr.self_times(starts, ends, parents) == [6.0, 2.0, 1.0, 1.0]


def test_extend_rebases_parents():
    tracer = tr.Tracer()
    tracer.extend([["cli.main", 0.0, 3.0, -1], ["cli.run_command", 1.0, 2.0, 0]], 0)
    tracer.extend([["cli.main", 5.0, 6.0, -1]], 1)
    assert list(tracer.parents) == [-1, 0, -1]
    summary = tracer.summary()
    assert summary["cli.main"] == (2, 3.0)
    assert summary["cli.run_command"] == (1, 1.0)


@pytest.mark.parametrize("n", [1, 2, 9, 10, 11, 100, 257])
def test_percentile_matches_statistics(n):
    rng = random.Random(n)
    data = [rng.expovariate(1.0) for _ in range(n)]
    assert tr.percentile(data, 50) == pytest.approx(statistics.median(data))
    if n > 1:
        deciles = statistics.quantiles(data, n=10, method="inclusive")
        assert tr.percentile(data, 90) == pytest.approx(deciles[8])


def test_percentile_on_known_values():
    assert tr.percentile(range(1, 12), 90) == 10.0
    assert tr.percentile([3.0, 1.0, 2.0, 4.0], 50) == 2.5


def test_clock_scales_wall_time_by_the_probes_around_it(monkeypatch):
    probes = iter([2e-3, 4e-3, 1e-3])
    monkeypatch.setattr(run, "speed_probe", lambda: next(probes))
    clock = run.Clock()
    out, dt = clock.time(lambda: 7)
    assert out == 7
    # the probes before and after average 3e-3 s, six times the reference
    assert dt == pytest.approx(clock.wall[0] * run.REFERENCE_PROBE_S / 3e-3)
    out, dt = clock.time(lambda: 1 / 0)
    assert isinstance(out, ZeroDivisionError)
    assert dt == pytest.approx(clock.wall[1] * run.REFERENCE_PROBE_S / 2.5e-3)
    assert clock.speed() == pytest.approx(run.REFERENCE_PROBE_S / 2e-3)


@pytest.mark.parametrize("workload", [run.Membership, run.Obstruction, run.Trivialization])
def test_generated_gerbes_are_type_compatible(workload, package):
    tg, _ = package
    wl = workload()
    plan = wl.plan(seed=7)
    _, _, state = run.measure_setup(wl, plan)  # GerbeData checks the type condition
    tg = state[0]
    rng = random.Random(0)
    for row in plan:
        for inst, kernel in row.values():
            assert kernel, inst.label
            for case in ("integral", "oneone"):
                for inside in (True, False):
                    w = run.case_vector(rng, inst, kernel, case, inside)
                    assert inst.member(w, case) is inside
                    g = run.build_gerbe(tg, inst)
                    assert tg.in_case_subgroup(g.torus, g.e, w, tg.SubgroupCase(case)) is inside


def test_same_seed_same_queries():
    wl = run.Membership()
    a, b = wl.plan(3), wl.plan(3)
    assert [(i.j, i.e3, i.b) for i, _ in a[0].values()] == [(i.j, i.e3, i.b) for i, _ in b[0].values()]
    assert wl.plan(4)[0]["n3"][0].e3 != a[0]["n3"][0].e3


def test_golden_covers_every_cli_case():
    import json

    golden = json.loads((run.CLI_DIR / "golden.json").read_text())
    assert sorted(golden) == sorted(case for case, _ in run.cli_cases())
