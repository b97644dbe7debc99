"""Self-tests of the benchmark: python3 -m pytest perfbench/test_perfbench.py"""

import json
import signal
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import hostclock  # noqa: E402
import metrics  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_self_time_of_nested_spans():
    t = tracing.Tracer()
    root = t.add_span("a.root", 0.0, 10.0)
    child = t.add_span("b.child", 1.0, 4.0, root)
    t.add_span("c.leaf", 2.0, 3.0, child)
    t.add_span("b.child", 5.0, 8.0, root)
    assert tracing.self_times(t.parent, t.start, t.end) == [4.0, 2.0, 1.0, 3.0]
    s = tracing.summarize(t)
    assert s.self_s == {"a.root": 4.0, "b.child": 5.0, "c.leaf": 1.0}
    assert s.layer_self_s("b") == 5.0
    assert s.entries == {"a": 1, "b": 2, "c": 1}


def test_self_time_merges_overlapping_children_and_clips():
    # children [1, 4] and [2, 6] cover [1, 6]; [9, 12] is clipped to [9, 10]
    own = tracing.self_times([-1, 0, 0, 0], [0.0, 1.0, 2.0, 9.0], [10.0, 4.0, 6.0, 12.0])
    assert own[0] == 10.0 - 5.0 - 1.0


def test_wrappers_record_parents_with_a_fake_clock():
    ticks = iter(range(100))
    t = tracing.Tracer(clock=lambda: float(next(ticks)))
    inner = t.wrap("x.inner", lambda: None)
    outer = t.wrap("y.outer", lambda: inner())
    outer()  # untraced while inactive
    assert len(t) == 0
    t.active = True
    outer()
    assert list(t.parent) == [-1, 0]
    assert list(t.start) == [0.0, 1.0] and list(t.end) == [3.0, 2.0]
    assert tracing.summarize(t).self_s == {"y.outer": 2.0, "x.inner": 1.0}


def test_install_rebinds_names_imported_by_other_modules():
    import jetcones.catalog as cat
    import jetcones.jets as jets

    original = cat.eigenvalues
    t = tracing.Tracer()
    replaced = tracing.install(t)
    t.active = True
    cat.cone_P(2).value(np.eye(2))
    t.active = False
    tracing.uninstall(replaced)
    names = {t.names[i] for i in t.name_id}
    # catalog calls eigenvalues through its own `from .jets import` binding
    assert {"catalog.cone_P", "catalog.FiberOracle.value", "jets.eigenvalues",
            "jets.SymMat.__init__", "jets.Jet2.__init__"} <= names
    assert cat.eigenvalues is original is jets.eigenvalues
    assert "__wrapped__" not in vars(jets.SymMat.__init__)


def _write_solution(out_dir: Path, x1, x2, values):
    """solution.csv as the CLI writes it: coordinates, then the value."""
    rows = ["x1,x2,value"] + [",".join(repr(float(c)) for c in row) for row in
                              zip(x1.ravel(), x2.ravel(), values.ravel())]
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "solution.csv").write_text("\n".join(rows) + "\n")


def test_perturbed_solve_output_is_a_failed_operation(tmp_path):
    prob = next(p for p in workloads.solve_problems(0) if p.name == "P_33")
    n = prob.n_side
    x1, x2 = np.meshgrid(*[np.linspace(0.0, 1.0, n)] * 2, indexing="ij")
    exact = prob.exact(x1, x2)
    _write_solution(tmp_path, x1, x2, exact)
    good = workloads.check_solve(prob, tmp_path, (0, '{"iterations": 1}'))
    assert (good.checks, good.failed) == (1, 0)

    bumped = exact.copy()
    bumped[n // 2, n // 3] += 1e-3
    _write_solution(tmp_path, x1, x2, bumped)
    bad = workloads.check_solve(prob, tmp_path, (0, '{"iterations": 1}'))
    assert (bad.checks, bad.failed) == (1, 1)
    records = [metrics.Record("P_33", 1.0, bad), metrics.Record("P_65", 1.0, good)]
    assert metrics.end_to_end(records, [0.5], 80.0)["pass_frac"][0] == 0.5

    nonzero = workloads.check_solve(prob, tmp_path, (4, ""))
    assert (nonzero.failed, nonzero.stats["nonconverged"]) == (1, 1)


def _synthetic_metric_names(wl):
    records = [metrics.Record(op.name, 1.0, workloads.Outcome(op.checks, 0, items=1),
                              op.focus) for op in wl.ops]
    e2e = metrics.end_to_end(records, [0.5], 80.0)
    summary = tracing.summarize(tracing.Tracer(), under=metrics.UNDER)
    layer = metrics.per_layer(summary, records, 0.1, 0)
    return {k: u for k, (_, u) in e2e.items()}, {k: u for k, (_, u) in layer.items()}


def test_seeds_change_inputs_but_not_metric_names(tmp_path):
    expected_e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    expected_layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    for name in workloads.WORKLOADS:
        a = workloads.build(name, 1, tmp_path)
        b = workloads.build(name, 2, tmp_path)
        assert [op.name for op in a.ops] == [op.name for op in b.ops]
        assert repr(a.inputs) != repr(b.inputs), name
        for wl in (a, b):
            e2e, layer = _synthetic_metric_names(wl)
            assert e2e == expected_e2e
            assert layer == expected_layer


def test_seed_leaves_the_stencil_exact_solve_problems_alone():
    a, b = workloads.solve_problems(1), workloads.solve_problems(2)
    assert [p for p in a if p.stencil_exact] == [p for p in b if p.stencil_exact]
    assert [p.boundary for p in a if not p.stencil_exact] != \
        [p.boundary for p in b if not p.stencil_exact]
    assert workloads.solve_problems(1) == a


def test_pucci_closed_form_is_a_root():
    ev = np.array([-1.3, 0.4])
    t = workloads.pucci_canonical(ev, 1.0, 2.0)
    s = ev - t
    assert abs(1.0 * s[s > 0].sum() + 2.0 * s[s < 0].sum()) < 1e-12


def test_calibrated_clock_integrates_the_rate_and_skips_kernel_time(monkeypatch):
    def slow_kernel():  # takes 0.2 s of wall time, reports half the reference speed
        time.sleep(0.2)
        return 2 * hostclock.REF_S

    monkeypatch.setattr(hostclock, "kernel", slow_kernel)
    clock = hostclock.CalibratedClock()
    clock._since = time.perf_counter() - 1.0   # one wall second at rate 1
    before = clock.mark()
    assert abs(before - 1.0) < 0.01
    clock._tick(signal.SIGALRM, None)
    assert abs(clock.since(before)) < 0.01      # the kernel's 0.2 s do not count
    assert clock._rate == 0.5
    mark = clock.mark()
    time.sleep(0.2)
    assert abs(clock.since(mark) - 0.1) < 0.02


def test_calibrated_clock_stops_its_timer_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with hostclock.CalibratedClock() as clock:
        mark = clock.mark()
        t_end = time.perf_counter() + 0.2
        while time.perf_counter() < t_end:
            pass
        took = clock.since(mark)
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(clock.samples) > hostclock.WARMUP_SAMPLES
    assert took > 0
