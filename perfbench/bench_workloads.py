"""Seeded inputs of the three workloads and the calls that run them.

A workload is a fixed batch of operations made from the seed; a run repeats
the batch in whole rounds. Each operation is one call into the package: an
engine function, or one in-process `cli.main` run that writes a file.

The draws are stratified so that the batch's work, and how it is spread
over the operations, hardly depend on the seed while every input still
does: every class of operation gets the same number of items, each
continuous input is spread over equal bins (one item per bin, bins shuffled
per input), and the inputs that set an operation's cost are drawn near the
middle of their bins in pairs whose sum is fixed, and matched with each
other in a fixed order of their bins.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass, field

import bench_reference as ref

UM = 1e-6
NM = 1e-9

ENGINE_ROOM = "engine-room"
ENGINE_COLD = "engine-cold"
CLI_FIGURES = "cli-figures"
WORKLOADS = (ENGINE_ROOM, ENGINE_COLD, CLI_FIGURES)

# engine-cold: every call uses these tolerances, and the Matsubara spacing
# y1 = 4 pi a k_B T/(hbar c) is drawn with 1/y1 in [15, 110], i.e. roughly
# 270 to 2,000 orders per call. The coldest, closest corner (0.3 um at 1 K,
# 1/y1 = 606) would cost ~2 s a call and is left out.
COLD_TAIL_TOL = 1e-8
COLD_QUAD_TOL = 1e-9
COLD_INV_Y1 = (15.0, 110.0)


@dataclass
class Op:
    """One operation: `kind` names the call, `p` holds its inputs.

    `group` ties operations whose outputs are checked together (the sphere
    triplet of engine-room). CLI operations carry their argv; the output
    path is appended when the operation runs.
    """

    kind: str
    p: dict
    argv: list = field(default_factory=list)
    group: int = -1


def _bins(rng: random.Random, k: int) -> list[float]:
    """k values in [0, 1), one per equal bin, in shuffled order."""
    order = list(range(k))
    rng.shuffle(order)
    return [(i + rng.random()) / k for i in order]


def _antithetic(rng: random.Random, k: int, jitter: float = 0.2) -> list[float]:
    """k values in [0, 1), each within jitter/2 of a bin width from the middle
    of its own equal bin, drawn in pairs (+v, -v) so that their sum is exactly
    k/2; shuffled. Used for the input that sets an operation's cost, so that
    neither the batch's total nor its costliest operations move with the seed."""
    u = [(i + 0.5) / k for i in range(k)]
    for i in range(k // 2):
        v = jitter * (rng.random() - 0.5) / k
        u[i] += v
        u[k - 1 - i] -= v
    rng.shuffle(u)
    return u


def _log_between(lo: float, hi: float, u: float) -> float:
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def _lin_between(lo: float, hi: float, u: float) -> float:
    return lo + u * (hi - lo)


def _num(x: float) -> str:
    return repr(float(x))


# --- engine-room ------------------------------------------------------------------

# (kind, metal, prescription); ROOM_PER_CLASS items of each per batch
_ROOM_ENGINE = [
    (kind, metal, presc)
    for kind in ("pressure", "energy")
    for metal in ("plasma", "ideal")
    for presc in ("plasma", "modified-te")
] + [("sphere", "ideal", "plasma"), ("sphere", "ideal", "modified-te"), ("triplet", "plasma", "")]
# (geometry, approach) of `compute --oracle`; plates refuse modified-te
_ROOM_CLI = [("plates", "plasma"), ("plates", "ideal"), ("sphere", "plasma"),
             ("sphere", "modified-te"), ("sphere", "ideal")]
ROOM_PER_CLASS = 8


def _room_draws(rng: random.Random, k: int) -> list[dict]:
    cols = {name: _bins(rng, k) for name in ("T", "t_lo", "t_hi", "lam", "R")}
    # a and the two tolerances set the call's cost: the r-th smallest a goes
    # with the (r + shift)-th tightest tolerance, so that the costs of a
    # class's calls do not depend on how the seed pairs them
    cols["a"] = _antithetic(rng, k)
    rank = sorted(range(k), key=cols["a"].__getitem__)
    for name, shift in (("tail", 3), ("quad", 6)):
        u = sorted(_antithetic(rng, k))
        cols[name] = [0.0] * k
        for r, i in enumerate(rank):
            cols[name][i] = u[(r + shift) % k]
    out = []
    for i in range(k):
        out.append({
            "a": _log_between(0.15 * UM, 2.0 * UM, cols["a"][i]),
            "T": _lin_between(280.0, 350.0, cols["T"][i]),
            "T1": _lin_between(280.0, 314.0, cols["t_lo"][i]),
            "T2": _lin_between(316.0, 350.0, cols["t_hi"][i]),
            "lambda_p": _lin_between(100 * NM, 200 * NM, cols["lam"][i]),
            "R": _log_between(0.5e-3, 5e-3, cols["R"][i]),
            "tail": _log_between(1e-11, 1e-7, cols["tail"][i]),
            "quad": _log_between(1e-11, 1e-7, cols["quad"][i]),
        })
    return out


def engine_room(seed: int) -> list[Op]:
    rng = random.Random(f"{ENGINE_ROOM}:{seed}")
    ops: list[Op] = []
    group = 0
    for kind, metal, presc in _ROOM_ENGINE:
        for d in _room_draws(rng, ROOM_PER_CLASS):
            base = {"a": d["a"], "T": d["T"], "metal": metal, "lambda_p": d["lambda_p"],
                    "R": d["R"], "tail": d["tail"], "quad": d["quad"]}
            if kind == "triplet":
                ops.append(Op("sphere", dict(base, presc="plasma"), group=group))
                ops.append(Op("sphere", dict(base, presc="modified-te"), group=group))
                ops.append(Op("te0", dict(base), group=group))
                group += 1
            else:
                ops.append(Op(kind, dict(base, presc=presc)))
    for geometry, approach in _ROOM_CLI:
        for d in _room_draws(rng, ROOM_PER_CLASS):
            ops.append(_compute_op(d, geometry, approach, oracle=True))
    rng.shuffle(ops)
    return ops


def _compute_op(d: dict, geometry: str, approach: str, oracle: bool) -> Op:
    """`compute` at the drawn point. The inputs kept in `p` are the values the
    CLI parses back from argv, in its units."""
    p = {"geometry": geometry, "approach": approach, "a_um": d["a"] / UM,
         "t1_k": d["T1"], "t2_k": d["T2"], "lambda_p_nm": d["lambda_p"] / NM,
         "radius_mm": d["R"] * 1e3, "oracle": oracle}
    if oracle:
        p.update(tail=d["tail"], quad=d["quad"])
    argv = ["compute", "--geometry", geometry, "--approach", approach,
            "--a-um", _num(p["a_um"]), "--t1-k", _num(p["t1_k"]), "--t2-k", _num(p["t2_k"]),
            "--lambda-p-nm", _num(p["lambda_p_nm"]), "--radius-mm", _num(p["radius_mm"])]
    if oracle:
        argv += ["--oracle", "--tail-tol", _num(p["tail"]), "--quad-tol", _num(p["quad"])]
    return Op("cli-compute", p, argv)


# --- engine-cold ------------------------------------------------------------------

COLD_PER_CLASS = 6
_COLD_CLASSES = [(kind, metal) for kind in ("pressure", "sphere") for metal in ("plasma", "ideal")]
_Y1_PER_AT = ref.y1(1.0, 1.0)  # y1 per (metre kelvin)


def engine_cold(seed: int) -> list[Op]:
    rng = random.Random(f"{ENGINE_COLD}:{seed}")
    ops: list[Op] = []
    lo, hi = COLD_INV_Y1
    for kind, metal in _COLD_CLASSES:
        k = COLD_PER_CLASS
        # in order, so that the alternating prescription meets the same
        # costs whatever the seed
        inv = sorted(_antithetic(rng, k))
        split, lam, radius = _bins(rng, k), _bins(rng, k), _bins(rng, k)
        for i in range(k):
            aT = 1.0 / (_lin_between(lo, hi, inv[i]) * _Y1_PER_AT)  # metre kelvin
            a_lo, a_hi = max(0.3 * UM, aT / 20.0), min(2.0 * UM, aT / 1.0)
            a = _log_between(a_lo, a_hi, split[i])
            ops.append(Op(kind, {
                "a": a, "T": aT / a, "metal": metal,
                "lambda_p": _lin_between(100 * NM, 200 * NM, lam[i]),
                "R": _log_between(0.5e-3, 5e-3, radius[i]),
                # the series reference holds for the plasma prescription only;
                # the exact ideal-metal sums take either
                "presc": "modified-te" if metal == "ideal" and i % 2 else "plasma",
                "tail": COLD_TAIL_TOL, "quad": COLD_QUAD_TOL,
            }))
    rng.shuffle(ops)
    return ops


# --- cli-figures ------------------------------------------------------------------

FIG_PER_CLASS = 8
FIG_POINTS = (10, 500)
_FIG_APPROACHES = {"fig1": ("plasma", "ideal"), "fig2": ("plasma", "modified-te", "ideal"),
                   "fig3": ("plasma", "ideal")}


def cli_figures(seed: int) -> list[Op]:
    rng = random.Random(f"{CLI_FIGURES}:{seed}")
    ops: list[Op] = []
    k = FIG_PER_CLASS
    for command in ("fig1", "fig2", "fig3", "compute"):
        # in order, so that each (approach, format) always gets the same
        # grid sizes, up to the jitter: the batch's costs then do not
        # depend on how the seed pairs them
        pts = sorted(_antithetic(rng, k))
        cols = {n: _bins(rng, k) for n in ("t_lo", "t_hi", "lam", "R", "amin", "amax", "a")}
        for i in range(k):
            d = {
                "T1": _lin_between(280.0, 314.0, cols["t_lo"][i]),
                "T2": _lin_between(316.0, 350.0, cols["t_hi"][i]),
                "lambda_p": _lin_between(100 * NM, 200 * NM, cols["lam"][i]),
                "R": _log_between(0.5e-3, 5e-3, cols["R"][i]),
                "a": _log_between(0.3 * UM, 2.0 * UM, cols["a"][i]),
            }
            if command == "compute":  # compute writes JSON whatever --format says
                geometry, approach = _ROOM_CLI[i % len(_ROOM_CLI)]
                ops.append(_compute_op(d, geometry, approach, oracle=False))
                continue
            approaches = _FIG_APPROACHES[command]
            p = {"approach": approaches[i % len(approaches)],
                 "format": "json" if (i // len(approaches)) % 2 else "csv",
                 "t1_k": d["T1"], "t2_k": d["T2"], "lambda_p_nm": d["lambda_p"] / NM,
                 "radius_mm": d["R"] * 1e3,
                 "points": int(round(_lin_between(FIG_POINTS[0], FIG_POINTS[1], pts[i])))}
            if command == "fig3":
                p["a_um"] = d["a"] / UM
            else:
                p["a_min_um"] = _lin_between(0.15, 0.3, cols["amin"][i])
                p["a_max_um"] = _lin_between(1.5, 2.0, cols["amax"][i])
            argv = [command]
            for key, value in p.items():
                argv += ["--" + key.replace("_", "-"), value if isinstance(value, str) else repr(value)]
            ops.append(Op(command, p, argv))
    rng.shuffle(ops)
    return ops


BUILDERS = {ENGINE_ROOM: engine_room, ENGINE_COLD: engine_cold, CLI_FIGURES: cli_figures}


# --- running one operation --------------------------------------------------------

class Runner:
    """Runs operations against the package's modules.

    Every call goes through a module attribute (`lifshitz.plate_pressure`,
    `cli.main`), so that a traced run sees the wrappers put there.
    """

    def __init__(self, pkg: dict, tmpdir: str):
        self.lifshitz = pkg["lifshitz"]
        self.cli = pkg["cli"]
        self.dielectric = pkg["dielectric"]
        self.tmpdir = tmpdir

    def model(self, p: dict):
        if p["metal"] == "ideal":
            return self.dielectric.IdealMetal()
        return self.dielectric.Plasma(p["lambda_p"])

    def specs(self, p: dict):
        L = self.lifshitz
        return (L.MatsubaraSpec(relative_tail_tolerance=p["tail"]),
                L.QuadratureSpec(relative_tolerance=p["quad"]))

    def approach(self, p: dict):
        V = self.dielectric.ApproachVariant
        return V.MODIFIED_TE if p["presc"] == "modified-te" else V.PLASMA_ZERO_FREQUENCY

    def prepare(self, op: Op, index: int):
        """Return a no-argument call for `op`; all input objects are built here,
        outside the timed call."""
        L = self.lifshitz
        p = op.p
        if op.argv:
            path = os.path.join(self.tmpdir, f"op{index}.out")
            argv = op.argv + ["--output", path]
            cli = self.cli

            def run_cli() -> str:
                code = cli.main(argv)
                if code != 0:
                    raise RuntimeError(f"{' '.join(op.argv)} exited with {code}")
                return path
            return run_cli
        if op.kind == "te0":
            _, quad = self.specs(p)
            return lambda: L.te_zero_frequency_sphere_term(p["a"], p["T"], p["R"], p["lambda_p"], quad)
        model, approach = self.model(p), self.approach(p)
        tail, quad = self.specs(p)
        if op.kind == "pressure":
            return lambda: L.plate_pressure(p["a"], p["T"], model, approach, tail, quad)
        if op.kind == "energy":
            return lambda: L.plate_free_energy_per_area(p["a"], p["T"], model, approach, tail, quad)
        if op.kind == "sphere":
            return lambda: L.sphere_plate_force_pfa(p["a"], p["T"], p["R"], model, approach, tail, quad)
        raise ValueError(f"unknown operation kind {op.kind!r}")


def warmup_call(workload: str, runner: Runner):
    """The untimed operation that ends set-up: a small call of the kind the
    workload makes."""
    if workload == CLI_FIGURES:
        op = Op("fig1", {}, ["fig1", "--points", "10"])
    else:
        op = Op("pressure", {"a": 0.5 * UM, "T": 300.0, "metal": "plasma", "lambda_p": 136 * NM,
                             "presc": "plasma", "tail": 1e-9, "quad": 1e-9})
    return runner.prepare(op, -1)
