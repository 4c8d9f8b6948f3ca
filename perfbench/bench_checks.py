"""Checks of the package's outputs against bench_reference and against
properties the outputs must have. Each check returns a list of problems; an
empty list means the output is correct. None of this runs inside a timed
call."""

from __future__ import annotations

import json
import math

import numpy as np

import bench_reference as ref

PRINTED_REL = 5e-9  # half a unit in the 9th significant digit


def engine_band(p: dict) -> float:
    """Relative error the engine may have at the requested tolerances.

    The tail criterion leaves a remainder of about the tail tolerance (1.1x
    measured) and each order's quadrature is good to its own tolerance."""
    return 2.0 * (p["tail"] + p["quad"])


def printed_ok(printed: float, exact: float) -> bool:
    """True when `printed` is `exact` rounded to 9 significant digits."""
    if exact == 0.0:
        return printed == 0.0
    unit = 10.0 ** (math.floor(math.log10(abs(exact))) - 8)
    return abs(printed - exact) <= 0.5 * unit * (1.0 + 1e-6)


def _rel(x: float, y: float) -> float:
    return abs(x - y) / abs(y)


def ideal_reference(kind: str, a: float, T: float, R: float, modified_te: bool) -> float:
    if kind == "pressure":
        return ref.ideal_plate_pressure(a, T, modified_te)
    if kind == "energy":
        return ref.ideal_plate_free_energy(a, T, modified_te)
    return ref.ideal_sphere_force(a, T, R, modified_te)


# --- direct engine calls ------------------------------------------------------------

COLD_T_MAX = 20.0
# Band of the cold plasma checks, times d^4. What the series omits is
# ~243 d^4 + 830 d^5 for plates and ~104 d^4 + 230 d^5 for the energy and
# sphere; at the workloads' largest d = 0.106 that is 332 and 128 d^4.
SERIES_BAND = {"pressure": 400.0, "energy": 150.0, "sphere": 150.0}


def check_engine(kind: str, p: dict, value: float) -> list[str]:
    a, T = p["a"], p["T"]
    where = f"{kind} {p['metal']}/{p.get('presc', '')} a={a:.4e} T={T:.4f}"
    if not math.isfinite(value):
        return [f"{where}: not finite ({value!r})"]
    if kind == "te0":
        bound = ref.K_B * T * ref.ZETA3 * p["R"] / (8.0 * a * a)
        if not -bound < value < 0.0:
            return [f"{where}: TE term {value:.6e} outside (-{bound:.6e}, 0)"]
        return []
    modified_te = p["presc"] == "modified-te"
    ideal = ideal_reference(kind, a, T, p.get("R", 0.0), modified_te)
    if p["metal"] == "ideal":
        gap = _rel(value, ideal)
        if gap > engine_band(p):
            return [f"{where}: {value:.10e} vs exact sum {ideal:.10e} (rel {gap:.2e} > {engine_band(p):.1e})"]
        return []
    problems = []
    if not value < 0.0:
        problems.append(f"{where}: plasma result {value:.6e} is not attractive")
    if not abs(value) < abs(ideal):
        problems.append(f"{where}: plasma |{value:.6e}| not weaker than ideal |{ideal:.6e}|")
    if T <= COLD_T_MAX and not modified_te:
        series = ref.cold_plasma_reference(kind, a, T, p["lambda_p"], p.get("R", 0.0))
        band = SERIES_BAND[kind] * ref.delta_over_a(a, p["lambda_p"]) ** 4 + engine_band(p)
        gap = _rel(value, series)
        if gap > band:
            problems.append(f"{where}: {value:.10e} vs zero-T series {series:.10e} (rel {gap:.2e} > {band:.2e})")
    return problems


def check_triplet(p: dict, plasma: float, modified_te: float, te_term: float) -> list[str]:
    """The prescriptions differ only in the n = 0 TE term."""
    gap = abs(plasma - modified_te - te_term)
    limit = engine_band(p) * abs(plasma)
    if not gap <= limit:
        return [f"sphere a={p['a']:.4e} T={p['T']:.4f}: plasma - modified-te - TE term = {gap:.3e} N "
                f"> {limit:.3e} N"]
    return []


# --- CLI output ------------------------------------------------------------------------

def parse_table(text: str, fmt: str) -> tuple[list[str], list[list[float]]]:
    if fmt == "json":
        payload = json.loads(text)
        rows = payload["rows"]
        columns = list(rows[0]) if rows else []
        return columns, [[float(r[c]) for c in columns] for r in rows]
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return lines[0].split(","), [[float(x) for x in ln.split(",")] for ln in lines[1:]]


def _compare_column(name: str, printed: list[float], exact, problems: list[str]) -> None:
    for i, (x, y) in enumerate(zip(printed, exact)):
        if not printed_ok(x, float(y)):
            problems.append(f"{name} row {i}: printed {x!r}, paper's closed form {float(y):.9e}")
            return


def _strictly_decreasing(values: list[float]) -> bool:
    mags = [abs(v) for v in values]
    return all(x > y for x, y in zip(mags, mags[1:]))


def check_figure(command: str, p: dict, text: str) -> list[str]:
    columns, rows = parse_table(text, p["format"])
    problems: list[str] = []
    if len(rows) != p["points"]:
        return [f"{command}: {len(rows)} rows, asked for {p['points']}"]
    cols = list(zip(*rows))
    T1, T2 = p["t1_k"], p["t2_k"]
    lam = 0.0 if p["approach"] == "ideal" else p["lambda_p_nm"] * 1e-9
    R = p["radius_mm"] * 1e-3
    if command == "fig3":
        a = p["a_um"] * 1e-6
        grid = np.linspace(T1, T2, p["points"])
        _compare_column("T2_K", cols[0], grid, problems)
        exact = {
            "plasma": [ref.delta_f_sphere(a, T1, t, R, lam) / R for t in grid],
            "modified_te": [ref.delta_f_sphere(a, T1, t, R, lam, True) / R for t in grid],
            "ideal": [ref.delta_f_sphere(a, T1, t, R, 0.0) / R for t in grid],
        }
        for col, key in zip(cols[1:], ("plasma", "modified_te", "ideal")):
            _compare_column(key, col, exact[key], problems)
        return problems
    grid = np.geomspace(p["a_min_um"] * 1e-6, p["a_max_um"] * 1e-6, p["points"])
    _compare_column("a_um", cols[0], grid * 1e6, problems)
    if command == "fig1":
        real = [ref.delta_f_plates(a, T1, T2, lam) for a in grid]
        ideal = [ref.delta_f_plates(a, T1, T2, 0.0) for a in grid]
        if len(set(cols[2])) != 1:
            problems.append("fig1: ideal plate column depends on a")
    else:
        mod = p["approach"] == "modified-te"
        real = [ref.delta_f_sphere(a, T1, T2, R, lam, mod) / R for a in grid]
        ideal = [ref.delta_f_sphere(a, T1, T2, R, 0.0, mod) / R for a in grid]
    _compare_column(columns[1], cols[1], real, problems)
    _compare_column(columns[2], cols[2], ideal, problems)
    # under modified TE the sphere difference changes sign, so |dF| need not fall
    if lam > 0.0 and p["approach"] != "modified-te" and not _strictly_decreasing(list(cols[1])):
        problems.append(f"{command}: |dF| of the real metal does not strictly decrease in a")
    return problems


def check_compute(p: dict, text: str) -> list[str]:
    rec = json.loads(text)
    problems: list[str] = []
    a, R = p["a_um"] * 1e-6, p["radius_mm"] * 1e-3
    T1, T2 = p["t1_k"], p["t2_k"]
    lam = 0.0 if p["approach"] == "ideal" else p["lambda_p_nm"] * 1e-9
    mod = p["approach"] == "modified-te"
    plates = p["geometry"] == "plates"
    if plates:
        exact = {"force_T1": ref.plate_force(a, T1, lam), "force_T2": ref.plate_force(a, T2, lam),
                 "delta_F": ref.delta_f_plates(a, T1, T2, lam)}
    else:
        exact = {"force_T1": ref.sphere_force(a, T1, R, lam, mod),
                 "force_T2": ref.sphere_force(a, T2, R, lam, mod),
                 "delta_F": ref.delta_f_sphere(a, T1, T2, R, lam, mod)}
    for key, value in exact.items():
        if not printed_ok(rec[key], value):
            problems.append(f"compute {key}: printed {rec[key]!r}, closed form {value:.9e}")
    if rec["units"] != ("N_per_m2" if plates else "N"):
        problems.append(f"compute units {rec['units']!r}")
    if p["oracle"]:
        problems += check_oracle(p, rec, a, R, mod, plates)
    elif "oracle" in rec:
        problems.append("compute printed an oracle block it was not asked for")
    return problems


def check_oracle(p: dict, rec: dict, a: float, R: float, mod: bool, plates: bool) -> list[str]:
    o = rec.get("oracle")
    if o is None:
        return ["compute --oracle printed no oracle block"]
    problems: list[str] = []
    if o["tail_tolerance"] != p["tail"] or o["quadrature_tolerance"] != p["quad"]:
        problems.append("compute --oracle: tolerances differ from the ones asked for")
    kind = "pressure" if plates else "sphere"
    for T, key in ((p["t1_k"], "force_T1"), (p["t2_k"], "force_T2")):
        ideal = ideal_reference(kind, a, T, R, mod)
        if p["approach"] == "ideal":
            band = engine_band(p) + 2.0 * PRINTED_REL
            if _rel(o[key], ideal) > band:
                problems.append(f"oracle {key} {o[key]!r} vs exact sum {ideal:.9e}")
        elif not (o[key] < 0.0 and abs(o[key]) < abs(ideal)):
            problems.append(f"oracle {key} {o[key]!r} not attractive and weaker than ideal {ideal:.9e}")
    # the deviations, recomputed from the printed fields; 9-digit rounding of
    # the fields allows 2e-8 (1 + deviation)
    recomputed = {
        "rel_deviation_T1": abs(rec["force_T1"] - o["force_T1"]) / abs(o["force_T1"]),
        "rel_deviation_T2": abs(rec["force_T2"] - o["force_T2"]) / abs(o["force_T2"]),
        "rel_deviation_delta_F": abs(rec["delta_F"] - o["delta_F"]) / abs(o["delta_F"]),
    }
    for key, value in recomputed.items():
        if abs(o[key] - value) > 2e-8 * (1.0 + value):
            problems.append(f"oracle {key} printed {o[key]!r}, recomputed {value:.9e}")
    spread = abs(o["force_T1"]) + abs(o["force_T2"]) + abs(o["delta_F"])
    if abs(o["delta_F"] - (o["force_T2"] - o["force_T1"])) > 2.0 * PRINTED_REL * spread:
        problems.append("oracle delta_F is not force_T2 - force_T1")
    return problems


def check_cli(kind: str, p: dict, text: str) -> list[str]:
    try:
        if kind == "cli-compute":
            return check_compute(p, text)
        return check_figure(kind, p, text)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"{kind}: output does not parse ({type(exc).__name__}: {exc})"]
