"""What perfbench reads of the package: the names its tracer wraps, the
reference figures' script, and the traced pass's kernel metric.

perfbench/ is the benchmark, and its files are not edited with the package.
A package change that drops a name perfbench looks up (a tracer-only import,
a geometry tag, `reflection_coefficients`) would otherwise pass these tests
and fail only there, so each lookup perfbench makes is made here too.
"""

import math
import os

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import bench_trace
    import run
    return bench_trace, run


def test_tracer_wraps_every_name_and_restores_it(perfbench, tmp_path):
    bench_trace, run = perfbench
    pkg = run.import_package()
    held = [(pkg[holder], name) for holder, names in bench_trace.WRAPPED.items() for name in names]
    held.append((pkg["lifshitz"], "quad"))
    originals = [getattr(module, name) for module, name in held]  # AttributeError if one is gone
    tracer = bench_trace.Tracer(pkg)
    tracer.install()
    try:
        assert all(getattr(module, name) is not fn for (module, name), fn in zip(held, originals))
        out = tmp_path / "fig1.csv"
        assert pkg["cli"].main(["fig1", "--points", "3", "--output", str(out)]) == 0
    finally:
        tracer.restore()
    assert all(getattr(module, name) is fn for (module, name), fn in zip(held, originals))
    assert {("cli", "main"), ("scenarios", "sweep_separation")} <= {s[2:4] for s in tracer.spans}


def test_reference_figures_run(perfbench, capsys):
    import reference_figures
    assert reference_figures.main() == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split()[0] == "figure" and len(lines) == 7


def test_kernel_metric_reads_the_scalar_wrapper(perfbench):
    # the traced pass times dielectric.reflection_coefficients on points built
    # from quantities.CODATA2018
    bench_trace, run = perfbench
    pkg = run.import_package()
    model = pkg["dielectric"].Plasma(136e-9)
    grid = bench_trace.kernel_points([(0.5e-6, 300.0, model)], pkg["quantities"].CODATA2018)
    ns = bench_trace.kernel_ns_per_eval(pkg["dielectric"].reflection_coefficients, grid, repeats=1)
    assert math.isfinite(ns) and ns > 0.0
