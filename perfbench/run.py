"""Benchmark of casimir_delta: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload engine-room --seed 1 --seconds 20 --trace 0

Run from the repository root. One process, one operation at a time (a closed
loop with one client). The workload's batch of operations is made from the
seed and run in whole rounds until the next round would pass --seconds.
Outputs are checked against bench_reference after the timed loop.

End-to-end times are speed-corrected: each operation's time is its fastest
of the run's rounds, and it and the set-up time are scaled by REFERENCE_S
over the fastest time of a fixed reference computation (apart from the
package) run between operations every REFERENCE_EVERY_S. The host's speed
drifts by tens of per cent over minutes; raw wall times of runs minutes
apart spread as widely, the corrected times less (perfbench/README.md).
Per-layer times are not corrected.

--trace 0 prints the end-to-end metrics. --trace 1 runs the batch twice
untraced and once traced (wrappers from bench_trace, no edit to the
package) and prints the per-layer metrics; the spans go to
perfbench/out/trace-<workload>-<seed>.json.

Exit codes: 0 correct, 1 an output failed its check (the result is still
printed), 2 the benchmark could not run (no result printed).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, os.path.join(ROOT, "src"))

import bench_checks  # noqa: E402
import bench_trace  # noqa: E402
import bench_workloads as wl  # noqa: E402
from scipy.integrate import quad  # noqa: E402

SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60

# About the reference computation's fastest time on the 2-vCPU sandbox the
# bounds were measured on (Python 3.11.7, scipy 1.17): corrected times are
# wall times at the speed that host had at its fastest.
REFERENCE_S = 0.005
# The reference computation runs before the next operation once this much
# time has passed since it last ran: engine-cold rounds take seconds, and
# one sample per round caught no fast spell in some of its runs.
REFERENCE_EVERY_S = 0.25


def _bose(y: float) -> float:
    return y ** 3 * math.exp(-y) / (1.0 - math.exp(-y))


def reference_time() -> float:
    """Seconds taken by a fixed computation that shares no code with the
    package: a pure-Python loop and scipy quadratures of a Bose integrand,
    the two kinds of work the workloads do, in about equal parts."""
    t0 = time.perf_counter()
    s = 0
    for i in range(40000):
        s += i * i % 7
    for i in range(30):
        quad(_bose, 0.1 + 0.01 * i, math.inf, epsabs=0.0, epsrel=1e-10)
    return time.perf_counter() - t0


def measure_setup(workload: str, tmpdir: str) -> dict:
    """Median over SETUP_PROBES fresh processes of: process start to the end of
    the warm-up call (setup_s), the import alone, and the warm-up alone.
    Wall times; timed_run corrects setup_s with the timed loop's factor.
    Reference computations timed between the probes read up to 60% slower
    than those of the timed loop that followed, and corrected it no better."""
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "bench_setup_probe.py"), workload, tmpdir],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            _, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise RuntimeError("set-up probe timed out")
        if proc.returncode != 0 or not line:
            raise RuntimeError(f"set-up probe failed: {err.strip()[-400:]}")
        d = json.loads(line)
        samples.append((elapsed, d["import_s"], d["warmup_s"]))
    return {name: statistics.median(s[k] for s in samples)
            for k, name in enumerate(("setup_s", "import_s", "warmup_s"))}


def import_package() -> dict:
    """The package modules, from this checkout's src/ and nowhere else."""
    from casimir_delta import cli, dielectric, lifshitz, quantities, perturbative, scenarios
    if not cli.__file__.startswith(os.path.join(ROOT, "src") + os.sep):
        raise ImportError(f"casimir_delta comes from {cli.__file__}, not from {ROOT}/src")
    return {"cli": cli, "dielectric": dielectric, "lifshitz": lifshitz, "quantities": quantities,
            "perturbative": perturbative, "scenarios": scenarios}


class Pass:
    """Outputs, fastest times and failures of the rounds run so far."""

    def __init__(self, batch: list, reference_every: float | None = None):
        self.batch = batch
        self.reference_every = reference_every
        self.reference: list[float] = []  # reference_time() samples
        self._reference_at = -math.inf
        self.first: list = [None] * len(batch)
        self.best: list[float] = [math.inf] * len(batch)  # fastest time of each operation
        self.round_s: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []  # failed operations
        self.problems: list[str] = []  # outputs that failed a check
        self.cli_bytes = 0

    def run_round(self, calls: list, tracer=None) -> None:
        t_round = time.perf_counter()
        for i, call in enumerate(calls):
            if self.reference_every is not None and time.perf_counter() - self._reference_at >= self.reference_every:
                self.reference.append(reference_time())
                self._reference_at = time.perf_counter()
            if tracer is not None:
                tracer.op = i
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                out = call()
            except Exception as exc:  # a failed operation is counted, not fatal
                self.failed += 1
                self.errors.append(f"op {i} ({self.batch[i].kind}) failed: {exc!r}")
                continue
            self.best[i] = min(self.best[i], time.perf_counter() - t0)
            if self.batch[i].argv:
                with open(out) as fh:
                    out = fh.read()
                self.cli_bytes += len(out.encode())
            if self.first[i] is None:
                self.first[i] = out
            elif out != self.first[i]:
                self.problems.append(f"op {i} ({self.batch[i].kind}): output changed between rounds")
        self.round_s.append(time.perf_counter() - t_round)


def check_outputs(batch: list, outputs: list) -> list[str]:
    problems: list[str] = []
    groups: dict[int, dict] = {}
    for op, out in zip(batch, outputs):
        if out is None:
            continue  # failed; counted in `failed`
        if op.argv:
            problems += bench_checks.check_cli(op.kind, op.p, out)
            continue
        problems += bench_checks.check_engine(op.kind, op.p, out)
        if op.group >= 0:
            key = op.kind if op.kind == "te0" else op.p["presc"]
            groups.setdefault(op.group, {"p": op.p})[key] = out
    for g in groups.values():
        if {"plasma", "modified-te", "te0"} <= g.keys():
            problems += bench_checks.check_triplet(g["p"], g["plasma"], g["modified-te"], g["te0"])
    return problems


def engine_points(batch: list) -> list[tuple]:
    """(a, T, lambda_p) the workload's operations meet, lambda_p 0 for ideal."""
    pts = []
    for op in batch:
        p = op.p
        if not op.argv:
            pts.append((p["a"], p["T"], 0.0 if p["metal"] == "ideal" else p["lambda_p"]))
            continue
        lam = 0.0 if p["approach"] == "ideal" else p["lambda_p_nm"] * 1e-9
        if "a_um" in p:
            a1 = a2 = p["a_um"] * 1e-6
        else:
            a1, a2 = p["a_min_um"] * 1e-6, p["a_max_um"] * 1e-6
        pts += [(a1, p["t1_k"], lam), (a2, p["t2_k"], lam)]
    return pts


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def timed_run(batch: list, runner: wl.Runner, seconds: float, setup_s: float) -> tuple[Pass, dict]:
    calls = [runner.prepare(op, i) for i, op in enumerate(batch)]
    run = Pass(batch, REFERENCE_EVERY_S)
    t_start = time.perf_counter()
    while True:
        run.run_round(calls)
        elapsed = time.perf_counter() - t_start
        if elapsed + statistics.median(run.round_s) > seconds:
            break
    scale = REFERENCE_S / min(run.reference)
    print(f"reference computation: {len(run.reference)} samples, fastest {min(run.reference) * 1e3:.3f} ms, "
          f"median {statistics.median(run.reference) * 1e3:.3f} ms; set-up {setup_s:.3f} s", file=sys.stderr)
    best = [scale * x for x in run.best if x < math.inf]
    ms = [x * 1e3 for x in best]
    metrics = {
        "throughput_ops_per_s": (len(best) / sum(best), "1/s"),
        "latency_p50_ms": (statistics.median(ms), "ms"),
        "latency_p90_ms": (percentile(ms, 90), "ms"),
        # the set-up probes ran just before the timed loop
        "setup_s": (scale * setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    run.problems += check_outputs(batch, run.first)
    return run, metrics


def traced_run(workload: str, seed: int, batch: list, runner: wl.Runner, pkg: dict) -> tuple[Pass, dict]:
    calls = [runner.prepare(op, i) for i, op in enumerate(batch)]
    run = Pass(batch)
    # the first pass runs slower than later ones (measured 8% on the engine
    # workloads), so the overhead is taken against the second
    run.run_round(calls)
    run.run_round(calls)
    untraced_s = run.round_s[-1]
    tracer = bench_trace.Tracer(pkg)
    tracer.install()
    try:
        run.cli_bytes = 0
        run.run_round(calls, tracer)
        traced_s = run.round_s[-1]
        # a layer this workload never calls is timed by one probe call on the
        # workload's first inputs, so that its per-call figures are measured
        tracer.op = -2
        points = engine_points(batch)
        models = [pkg["dielectric"].Plasma(lam) if lam > 0 else pkg["dielectric"].IdealMetal()
                  for _, _, lam in points]
        layers = {s[2] for s in tracer.spans}
        a, T, _ = points[0]
        if "lifshitz" not in layers:
            pkg["lifshitz"].plate_pressure(a, T, models[0])
        if "cli" not in layers:
            out = os.path.join(runner.tmpdir, "probe.out")
            pkg["cli"].main(["compute", "--a-um", repr(a * 1e6), "--output", out])
            run.cli_bytes += os.path.getsize(out)
    finally:
        tracer.restore()
    metrics = bench_trace.layer_metrics(tracer.spans, run.cli_bytes)
    grid = bench_trace.kernel_points([(a, T, m) for (a, T, _), m in zip(points, models)],
                                     pkg["quantities"].CODATA2018)
    metrics["dielectric.kernel_ns_per_eval"] = (
        bench_trace.kernel_ns_per_eval(pkg["dielectric"].reflection_coefficients, grid), "ns")
    metrics["trace.overhead_pct"] = ((traced_s / untraced_s - 1.0) * 100.0, "%")
    tracer.dump(os.path.join(OUT, f"trace-{workload}-{seed}.json"))
    run.problems += check_outputs(batch, run.first)
    return run, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "casimir_delta", "__init__.py")):
        print(f"error: no package source at {ROOT}/src/casimir_delta", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    tmpdir = os.path.join(OUT, f"tmp-{os.getpid()}")
    os.makedirs(tmpdir)
    try:
        try:
            setup = measure_setup(args.workload, tmpdir)
            pkg = import_package()
        except (RuntimeError, ImportError, OSError) as exc:
            print(f"error: cannot set up {args.workload}: {exc}", file=sys.stderr)
            return 2
        runner = wl.Runner(pkg, tmpdir)
        wl.warmup_call(args.workload, runner)()
        batch = wl.BUILDERS[args.workload](args.seed)
        if args.trace:
            run, metrics = traced_run(args.workload, args.seed, batch, runner, pkg)
            metrics["setup.import_s"] = (setup["import_s"], "s")
            metrics["setup.warmup_s"] = (setup["warmup_s"], "s")
        else:
            run, metrics = timed_run(batch, runner, args.seconds, setup["setup_s"])
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    for line in (run.errors + run.problems)[:20]:
        print(line, file=sys.stderr)
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }
    with open(os.path.join(OUT, f"result-{args.workload}-{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(result, fh, indent=1)
    print(f"{args.workload} seed {args.seed}: {run.attempted} ops in {len(run.round_s)} rounds, "
          f"{run.failed} failed, {len(run.problems)} problems", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
