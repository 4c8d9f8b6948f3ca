"""Tracing from outside the package, and the per-layer metrics it yields.

The tracer replaces functions in the module namespaces that call them (the
`sweep_separation` that `cli` holds, the `quad` that `lifshitz` holds, ...)
with wrappers that record a span: id, parent id, layer, name, start, end,
operation index, and for `quad` the integrand evaluations scipy reports.
Spans stay in memory and are written out once the run ends. `restore()`
puts the original functions back.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import statistics
import time

# module that holds the names -> names of the calls that cross a layer boundary
WRAPPED = {
    "cli": ("main", "sweep_separation", "sweep_temperature", "delta_force_plates", "delta_force_sphere",
            "plate_force_perturbative", "sphere_force_perturbative", "te_zero_frequency_asymptotic",
            "plate_pressure", "sphere_plate_force_pfa"),
    # delta_force_* are wrapped in their own module too, so that the sweeps'
    # per-point calls are seen
    "scenarios": ("derived_scales", "classify_validity", "delta_force_plates", "delta_force_sphere"),
    "perturbative": ("derived_scales", "classify_validity"),
    "lifshitz": ("plate_pressure", "plate_free_energy_per_area", "sphere_plate_force_pfa",
                 "te_zero_frequency_sphere_term"),
}
TE0 = "te_zero_frequency_sphere_term"


class Tracer:
    def __init__(self, pkg: dict):
        self.pkg = pkg
        self.spans: list[tuple] = []  # (id, parent, layer, name, t0_ns, t1_ns, op, neval)
        self.stack: list[tuple[int, str]] = []  # open (id, name)
        self.op = -1
        self._ids = itertools.count()
        self._saved: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, object] = {}

    # -- recording ------------------------------------------------------------------
    def _open(self) -> tuple[int, int]:
        return next(self._ids), (self.stack[-1][0] if self.stack else -1)

    def span(self, layer: str, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid, parent = self._open()
            self.stack.append((sid, name))
            t0 = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                self.stack.pop()
                self.spans.append((sid, parent, layer, name, t0, t1, self.op, 0))
        return wrapper

    def _quad(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid, parent = self._open()
            # an order of a Matsubara sum, unless the n = 0 TE term asked
            name = "quad-te0" if self.stack and self.stack[-1][1] == TE0 else "quad"
            t0 = time.perf_counter_ns()
            out = fn(*args, **kwargs)
            t1 = time.perf_counter_ns()
            neval = out[2]["neval"] if len(out) > 2 and isinstance(out[2], dict) else 0
            self.spans.append((sid, parent, "lifshitz", name, t0, t1, self.op, neval))
            return out
        return wrapper

    # -- installing -------------------------------------------------------------------
    def _set(self, module, name: str, value) -> None:
        self._saved.append((module, name, getattr(module, name)))
        setattr(module, name, value)

    def install(self) -> None:
        for holder, names in WRAPPED.items():
            module = self.pkg[holder]
            for name in names:
                fn = getattr(module, name)
                if id(fn) not in self._wrappers:
                    layer = fn.__module__.rsplit(".", 1)[-1]
                    self._wrappers[id(fn)] = self.span(layer, name, fn)
                self._set(module, name, self._wrappers[id(fn)])
        self._set(self.pkg["lifshitz"], "quad", self._quad(self.pkg["lifshitz"].quad))

    def restore(self) -> None:
        for module, name, value in reversed(self._saved):
            setattr(module, name, value)
        self._saved.clear()

    def dump(self, path: str) -> None:
        keys = ("id", "parent", "layer", "name", "t0_ns", "t1_ns", "op", "neval")
        with open(path, "w") as fh:
            json.dump({"fields": keys, "spans": sorted(self.spans)}, fh, separators=(",", ":"))


def layer_metrics(spans: list[tuple], cli_bytes: int) -> dict:
    """Per-layer counts and times from one traced pass.

    A call is counted at its outermost span in a layer (the nested
    plate_free_energy_per_area under sphere_plate_force_pfa is not a second
    engine call); self time is a span minus the spans directly under it."""
    by_id = {s[0]: s for s in spans}
    child_ns: dict[int, int] = {}
    for s in spans:
        if s[1] >= 0:
            child_ns[s[1]] = child_ns.get(s[1], 0) + s[5] - s[4]

    def outer(layer: str) -> list[tuple]:
        return [s for s in spans if s[2] == layer and not s[3].startswith("quad")
                and (s[1] < 0 or by_id[s[1]][2] != layer)]

    def total_ns(items) -> int:
        return sum(s[5] - s[4] for s in items)

    def per(x: float, n: int) -> float:
        return x / n if n else 0.0

    engine = outer("lifshitz")
    quads = [s for s in spans if s[3].startswith("quad")]
    orders = [s for s in quads if s[3] == "quad"]
    quad_ns = total_ns(quads)
    pert = outer("perturbative")
    scen = outer("scenarios")
    points = [s for s in spans if s[3] in ("delta_force_plates", "delta_force_sphere")]
    qty = [s for s in spans if s[2] == "quantities"]
    cli = [s for s in spans if s[2] == "cli"]
    cli_self = sum(s[5] - s[4] - child_ns.get(s[0], 0) for s in cli)
    n_orders = len(orders)
    return {
        "lifshitz.calls": (len(engine), "count"),
        "lifshitz.ms_per_call": (per(total_ns(engine), len(engine)) / 1e6, "ms"),
        "lifshitz.orders": (n_orders, "count"),
        "lifshitz.integrand_evals": (sum(s[7] for s in quads), "count"),
        "lifshitz.evals_per_order": (per(sum(s[7] for s in orders), n_orders), "ratio"),
        "lifshitz.quad_ms": (quad_ns / 1e6, "ms"),
        "lifshitz.self_ms": ((total_ns(engine) - quad_ns) / 1e6, "ms"),
        "perturbative.calls": (len(pert), "count"),
        "perturbative.us_per_call": (per(total_ns(pert), len(pert)) / 1e3, "us"),
        "scenarios.points": (len(points), "count"),
        "scenarios.us_per_point": (per(total_ns(scen), len(points)) / 1e3, "us"),
        "quantities.calls": (len(qty), "count"),
        "quantities.us_per_call": (per(total_ns(qty), len(qty)) / 1e3, "us"),
        "cli.calls": (len(cli), "count"),
        "cli.self_ms_per_call": (per(cli_self, len(cli)) / 1e6, "ms"),
        "cli.bytes_out": (cli_bytes, "bytes"),
    }


def kernel_points(points: list[tuple], constants) -> list[tuple]:
    """(xi_n, k_perp) pairs as the engine meets them at each (a, T): orders
    n = 0..15 and y = y_n + u at fixed offsets u, k_perp = sqrt(y^2 - y_n^2)/(2a)."""
    out = []
    for a, T, model in points:
        y1 = 4.0 * math.pi * a * constants.k_B * T / (constants.hbar * constants.c)
        for n in range(16):
            xi = 2.0 * math.pi * constants.k_B * T * n / constants.hbar
            for u in (0.05, 0.3, 1.0, 2.5, 6.0, 15.0):
                y = n * y1 + u
                out.append((model, xi, math.sqrt(y * y - (n * y1) ** 2) / (2.0 * a)))
    return out


def kernel_ns_per_eval(reflection_coefficients, grid: list[tuple], repeats: int = 7) -> float:
    """Median over `repeats` passes of the time per reflection_coefficients call."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        for model, xi, k in grid:
            reflection_coefficients(model, xi, k)
        times.append((time.perf_counter_ns() - t0) / len(grid))
    return statistics.median(times)
