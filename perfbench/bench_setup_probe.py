"""Set-up of one workload process: import casimir_delta, then make the
workload's untimed warm-up call. Prints one JSON line with the two times.

Run by run.py as `python3 perfbench/bench_setup_probe.py <workload> <tmpdir>`;
run.py times this process from its start to that line.
"""

import json
import os
import sys
import time

t0 = time.perf_counter()
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from casimir_delta import cli, dielectric, lifshitz  # noqa: E402

t1 = time.perf_counter()
import bench_workloads  # noqa: E402

runner = bench_workloads.Runner({"cli": cli, "dielectric": dielectric, "lifshitz": lifshitz}, sys.argv[2])
bench_workloads.warmup_call(sys.argv[1], runner)()
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "warmup_s": t2 - t1}), flush=True)
