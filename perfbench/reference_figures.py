"""Reference figures quoted in perfbench/README.md, measured with the
benchmark's tracer: `validate`'s checklist, the default 75-point sweeps, and
two single engine calls with their Matsubara order and integrand counts.

    python3 perfbench/reference_figures.py

Run from the repository root; takes about half a minute.
"""

import os
import statistics
import sys
import time

from run import import_package  # run.py puts src/ on sys.path

import bench_trace


def wall(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def counted(pkg: dict, fn) -> tuple[int, int]:
    tracer = bench_trace.Tracer(pkg)
    tracer.install()
    try:
        fn()
    finally:
        tracer.restore()
    m = bench_trace.layer_metrics(tracer.spans, 0)
    return m["lifshitz.orders"][0], m["lifshitz.integrand_evals"][0]


def main() -> int:
    pkg = import_package()
    from casimir_delta import validation
    from casimir_delta.scenarios import DEFAULT_SEPARATION_GRID, TemperaturePair

    L, S = pkg["lifshitz"], pkg["scenarios"]
    gold = pkg["dielectric"].Plasma(136e-9)
    pair = TemperaturePair(300.0, 350.0)
    rows = [
        ("run_acceptance_checks() (validate)", wall(validation.run_acceptance_checks, 3), None),
        ("sweep_separation, plates, 75 points", wall(
            lambda: S.sweep_separation(pair, 136e-9, L.ParallelPlates(), grid=DEFAULT_SEPARATION_GRID), 20), None),
        ("sweep_separation, sphere, 75 points", wall(
            lambda: S.sweep_separation(pair, 136e-9, L.SpherePlate(2e-3), grid=DEFAULT_SEPARATION_GRID), 20), None),
    ]
    for a, T, repeats in ((0.5e-6, 300.0, 9), (0.15e-6, 1.0, 3)):
        call = lambda a=a, T=T: L.plate_pressure(a, T, gold)  # noqa: E731
        rows.append((f"plate_pressure, gold, a={a * 1e6:g} um, T={T:g} K", wall(call, repeats),
                     counted(pkg, call)))
    print(f"{'figure':48s} {'median s':>10s} {'orders':>8s} {'integrand evals':>16s}")
    for name, seconds, counts in rows:
        orders, evals = counts if counts else ("", "")
        print(f"{name:48s} {seconds:10.4f} {orders!s:>8s} {evals!s:>16s}")
    print(f"python {sys.version.split()[0]}, {os.cpu_count()} cpus")
    return 0


if __name__ == "__main__":
    sys.exit(main())
