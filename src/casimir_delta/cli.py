"""Command-line frontend: figure datasets, single-point computations, and the
validation report, in CSV or JSON.

Exit codes: 0 success, 1 usage error, 2 numerical failure, 3 validation
failure. Identical configs produce byte-identical output (floats fixed at 9
significant digits)."""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import stat
import sys
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .dielectric import ApproachVariant, IdealMetal, Plasma
from .lifshitz import (
    MatsubaraSpec,
    ParallelPlates,
    QuadratureError,
    QuadratureSpec,
    SpherePlate,
    plate_pressure,
    sphere_plate_force_pfa,
)
from .perturbative import (
    OMITTED_REMAINDER_NOTE,
    plate_force_perturbative,
    sphere_force_perturbative,
    te_zero_frequency_asymptotic,  # noqa: F401  (perfbench's tracer wraps cli's copy)
)
from .quantities import classify_validity, positive
from .scenarios import (
    SweepSpec,
    TemperaturePair,
    delta_force_plates,
    delta_force_sphere,
    sweep_separation,
    sweep_temperature,
)
from .validation import run_acceptance_checks


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit code 1, not argparse's 2
        raise UsageError(message)


# every float the CLI prints is rounded to 9 significant digits: CSV cells are
# this format's text, JSON numbers the float it parses back to (figure tables
# reach the same text by _csv_body and by format(x, ".9"), see _emit_table)
_DIGITS9 = "%.8e"
_POW10 = np.array([float(f"1e{k}") for k in range(-120, 121)])  # 10^k at k + 120, correctly rounded
_PLACES = _POW10[128:119:-1, None]  # 1e8 ... 1e0, a column
_CELL = np.frombuffer(b"-0.00000000e+00,", np.uint8)[:, None]  # a cell's bytes, a column


def _csv_body(values: np.ndarray) -> Optional[str]:
    """The rows of `values` as _DIGITS9 cells ended by "," and "\n", built in
    whole-array passes as one (16 x cells) byte array, or None for the %
    template where a cell needs printf's own rounding: within 1e-6 of a tie,
    a three-digit exponent (subnormals too) or not finite.

    With e = floor(log10|x|), m = |x| 10^(8-e) is the product of two correctly
    rounded factors, so it is within 2.4e-7 of exact, and rint(m) is printf's
    round-half-even mantissa. A carry to 1e9 is 1e8 with e + 1; that also
    mends log10 missing by one next to a power of ten, where m lies within
    1e-6 of 1e8 or 1e9. The digits are exact float divisions of rint(m)."""
    x = np.abs(values).ravel()
    e = np.floor(np.log10(np.where(x == 0.0, 1.0, x)))  # 0 for a zero
    if not (np.abs(e) <= 100.0).all():  # false for nan and inf too; keeps e's index in _POW10
        return None
    m = x * _POW10[128 - e.astype(np.intp)]  # |x| 10^(8-e)
    q = np.rint(m)
    if (np.abs(m - q) >= 0.5 - 1e-6).any():  # within 1e-6 of a tie
        return None
    carry = q == 1e9
    e += carry
    if not (np.abs(e) <= 99.0).all():
        return None
    digits = np.floor(np.where(carry, 1e8, q) / _PLACES)  # row k: the leading k + 1 digits
    digits[1:] -= 10.0 * digits[:-1]
    tens = np.floor(np.abs(e) / 10.0)
    cells = np.repeat(_CELL, x.size, axis=1)
    cells[0] = 45 * np.signbit(values.ravel())  # "-", for -0.0 too, or 0 to drop
    cells[1] = digits[0] + 48
    cells[3:11] = digits[1:] + 48
    cells[12, e < 0.0] = 45  # "-"
    cells[13] = tens + 48
    cells[14] = np.abs(e) - 10.0 * tens + 48
    cells[15].reshape(len(values), -1)[:, -1] = 10  # "\n" ends a row
    return cells.T.tobytes().replace(b"\0", b"").decode("ascii")


def _round9(x: float) -> float:
    return float(_DIGITS9 % x)


def _config_flags(args: argparse.Namespace) -> list[str]:
    """The --config file's `key = value` lines as `--key=value` flags, so that
    each value goes through its flag's type and choices. '#' starts a comment;
    keys are flag names, with '-' or '_'. A true value sets a store_true flag."""
    path = args.config
    flags = []
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from exc
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        dest = key.replace("-", "_")
        if dest in ("command", "config") or dest not in vars(args):
            raise UsageError(f"unknown config key {key!r}")
        flag = "--" + dest.replace("_", "-")
        if not isinstance(getattr(args, dest), bool):
            flags.append(f"{flag}={value}")
        elif value.lower() in ("1", "true", "yes"):
            flags.append(flag)
        elif value.lower() not in ("0", "false", "no"):
            raise UsageError(f"{path}:{lineno}: {key} takes true or false, got {value!r}")
    return flags


def _radius_mm(text: str) -> float:
    """--radius-mm's type: checked on every command that takes the flag,
    though only compute --geometry sphere uses it (fig2 and fig3 print per
    unit radius, and plates have no radius)."""
    try:
        return positive("sphere radius", float(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_common(p: argparse.ArgumentParser, approaches: Sequence[str]) -> None:
    p.add_argument("--approach", choices=approaches, default="plasma")
    p.add_argument("--lambda-p-nm", type=float, default=136.0, help="plasma wavelength, nm")
    p.add_argument("--t1-k", type=float, default=300.0)
    p.add_argument("--t2-k", type=float, default=350.0)
    p.add_argument("--radius-mm", type=_radius_mm, default=2.0)
    p.add_argument("--config", type=str, default=None,
                   help="file of key = value lines, read as --key=value flags before the explicit ones")
    p.add_argument("--output", type=str, default=None, help="output path (default stdout)")


def _add_figure(sub, name: str, summary: str, approaches: Sequence[str]) -> argparse.ArgumentParser:
    p = sub.add_parser(name, help=summary)
    _add_common(p, approaches)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    return p


def _add_a_grid(p: argparse.ArgumentParser) -> None:
    p.add_argument("--a-min-um", type=float, default=0.15)
    p.add_argument("--a-max-um", type=float, default=2.0)
    p.add_argument("--points", type=int, default=75)


@functools.cache  # the tree is never mutated after it is built; parse_args makes fresh namespaces
def build_parser() -> _Parser:
    parser = _Parser(prog="casimir-delta", description=__doc__)
    parser.add_argument("--version", action="version", version=f"casimir-delta {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    # fig1 has no sphere, and fig3 prints both prescriptions
    plasma_ideal = ["plasma", "ideal"]
    all_approaches = ["plasma", "modified-te", "ideal"]

    _add_a_grid(_add_figure(sub, "fig1", "plate-plate difference force vs separation",
                            plasma_ideal))
    _add_a_grid(_add_figure(sub, "fig2", "sphere-plate difference force per radius vs separation",
                            all_approaches))
    p3 = _add_figure(sub, "fig3", "sphere-plate difference force per radius vs upper temperature",
                     plasma_ideal)
    p3.add_argument("--a-um", type=float, default=0.5)
    p3.add_argument("--points", type=int, default=51)

    pc = sub.add_parser("compute", help="single-point forces and difference force (JSON)")
    _add_common(pc, all_approaches)
    pc.add_argument("--geometry", choices=["plates", "sphere"], default="sphere")
    pc.add_argument("--a-um", type=float, default=0.5)
    pc.add_argument("--oracle", action="store_true",
                    help="also run the Lifshitz engine and report deviations")
    pc.add_argument("--tail-tol", type=float, default=MatsubaraSpec.relative_tail_tolerance,
                    help="Matsubara tail tolerance, in (0, 1): the sum stops at the first "
                         "order below it relative to the partial sum; a sum that would run "
                         "past 256 orders is closed analytically after 64 (default 1e-9)")
    pc.add_argument("--quad-tol", type=float, default=QuadratureSpec.relative_tolerance,
                    help="quadrature tolerance, in (0, 1): bounds each order's error, and the "
                         "zero-frequency TE term's, relative to that integral, estimated as the "
                         "square of its relative change from the rule at twice the step; one "
                         "below the rounding of the rule's sums, about 2.9e-14, is a numerical "
                         "error (default 1e-9)")

    pv = sub.add_parser("validate", help="run the acceptance checklist")
    pv.add_argument("--format", choices=["text", "json"], default="text")
    pv.add_argument("--output", type=str, default=None)
    for name, command in sub.choices.items():
        command.set_defaults(command=name)  # what the root parser would set on handing a line on
    parser.commands = sub.choices  # each command's parser by name, for main
    return parser


def _resolved_config(args: argparse.Namespace, keys: Sequence[str]) -> dict:
    cfg = {"command": args.command, "version": __version__}
    for key in keys:
        cfg[key] = getattr(args, key)
    return cfg


def _emit_table(values: np.ndarray, columns: Sequence[str], cfg: dict, fmt: str) -> str:
    """Render a sweep's (rows x columns) array under the column names, its
    column 0 already in CLI units (at least one row, every cell finite, as
    the sweeps guarantee).

    The CSV body is _csv_body's whole-array print, or where it declines one %
    over a row template, every cell at 9 significant digits. The JSON text
    is the bytes of
    json.dumps({"config": cfg, "rows": [{column: _round9(cell), ...}, ...]},
    indent=2) + "\\n", built without json's indenting encoder, which runs in
    Python for every cell: the rows are one % over a row template. Each cell
    is printed once, by format(cell, ".9"), which is the text json writes
    (the repr of the 9-digit float) but in two ranges: a 9-digit value in
    [1e8, 1e16), which repr keeps in fixed notation, and a subnormal, whose
    shortest repr can have other digits. Cells whose text has an "e+" or an
    "e-3" exponent, a superset of both, are that repr instead."""
    nrows, ncols = values.shape
    if fmt == "csv":
        lines = [f"# {k} = {v}" for k, v in cfg.items()] + [",".join(columns), ""]
        row = ",".join([_DIGITS9] * ncols) + "\n"
        body = _csv_body(values) or row * nrows % tuple(values.ravel().tolist())
        return "\n".join(lines) + body
    cells = values.ravel().tolist()
    text = ",".join(["{:.9}"] * len(cells)).format(*cells)
    cells = text.split(",")
    if "e+" in text or "e-3" in text:
        cells = [repr(float(c)) if "e+" in c or "e-3" in c else c for c in cells]
    config = json.dumps({"config": cfg}, indent=2)[:-2]  # open: without the closing "\n}"
    keys = (json.dumps(c).replace("%", "%%") for c in columns)  # literal in the template
    row = "    {\n" + ",\n".join(f"      {k}: %s" for k in keys) + "\n    }"
    rows = ",\n".join([row] * nrows) % tuple(cells)
    return config + ',\n  "rows": [\n' + rows + "\n  ]\n}\n"


def _open_in_place(path: str, flags: int) -> int:
    return os.open(path, flags & ~os.O_TRUNC, 0o666)  # 0o666: the mode open(path, "w") gives


def _write(text: str, output: Optional[str]) -> None:
    if not output:
        sys.stdout.write(text)
        return
    try:
        # in place, then cut to the new length: O_TRUNC would first free the old
        # blocks, which costs more than rendering a figure; devices and pipes are never cut
        with open(output, "w", opener=_open_in_place) as fh:
            fh.write(text)
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh.truncate()
    except OSError as exc:
        raise UsageError(f"cannot write {output}: {exc}") from exc


def _lambda_p(args: argparse.Namespace) -> float:
    if not math.isfinite(args.lambda_p_nm):  # printed in the config, even where ideal ignores it
        raise UsageError(f"--lambda-p-nm must be finite, got {args.lambda_p_nm}")
    if args.approach == "ideal":
        return 0.0
    lam = args.lambda_p_nm * 1e-9
    if lam <= 0.0:
        raise UsageError("--lambda-p-nm must be positive (use --approach ideal for ideal metal)")
    return lam


def _approach(args: argparse.Namespace) -> ApproachVariant:
    if args.approach == "modified-te":
        return ApproachVariant.MODIFIED_TE
    return ApproachVariant.PLASMA_ZERO_FREQUENCY


def cmd_separation_sweep(args: argparse.Namespace) -> int:
    """fig1 (plates) and fig2 (sphere, per unit radius, so at R = 1 m)."""
    grid = SweepSpec(args.a_min_um * 1e-6, args.a_max_um * 1e-6, args.points)
    pair = TemperaturePair(args.t1_k, args.t2_k)
    if args.command == "fig1":
        geometry, columns = ParallelPlates(), ("a_um", "dF_real_N_per_m2", "dF_ideal_N_per_m2")
    else:
        geometry = SpherePlate(1.0)
        columns = ("a_um", "dFps_over_R_real_N_per_m", "dFps_over_R_ideal_N_per_m")
    values = sweep_separation(pair, _lambda_p(args), geometry, _approach(args), grid)
    values[:, 0] *= 1e6  # m to um
    cfg = _resolved_config(args, ["approach", "lambda_p_nm", "t1_k", "t2_k",
                                  "a_min_um", "a_max_um", "points", "format"])
    _write(_emit_table(values, columns, cfg, args.format), args.output)
    return 0


def cmd_fig3(args: argparse.Namespace) -> int:
    grid = SweepSpec(args.t1_k, args.t2_k, args.points)
    values = sweep_temperature(args.a_um * 1e-6, _lambda_p(args), grid)
    columns = ("T2_K", "dFps_over_R_plasma_N_per_m", "dFps_over_R_modified_te_N_per_m",
               "dFps_over_R_ideal_N_per_m")
    cfg = _resolved_config(args, ["approach", "lambda_p_nm", "t1_k", "t2_k",
                                  "a_um", "points", "format"])
    _write(_emit_table(values, columns, cfg, args.format), args.output)
    return 0


def cmd_compute(args: argparse.Namespace) -> int:
    a = args.a_um * 1e-6
    R = args.radius_mm * 1e-3
    lam = _lambda_p(args)
    pair = TemperaturePair(args.t1_k, args.t2_k)
    approach = _approach(args)
    if args.geometry == "plates" and approach is ApproachVariant.MODIFIED_TE:
        raise UsageError("the modified-te prescription is defined for the sphere geometry only")
    # checked with or without --oracle: a bad tolerance is a usage error either way
    matsubara = MatsubaraSpec(relative_tail_tolerance=args.tail_tol)
    quadrature = QuadratureSpec(relative_tolerance=args.quad_tol)

    if args.geometry == "plates":
        f1, f2 = (plate_force_perturbative(a, T, lam) for T in (pair.T1, pair.T2))
        diff = delta_force_plates(a, pair, lam)
        engine = lambda T, *specs: plate_pressure(a, T, *specs)
    else:
        f1, f2 = (sphere_force_perturbative(a, T, R, lam, approach) for T in (pair.T1, pair.T2))
        diff = delta_force_sphere(a, pair, R, lam, approach)
        engine = lambda T, *specs: sphere_plate_force_pfa(a, T, R, *specs)

    record = {
        "config": _resolved_config(
            args, ["geometry", "approach", "lambda_p_nm", "t1_k", "t2_k",
                   "a_um", "radius_mm", "oracle"]),
        "force_T1": _round9(f1.total),
        "force_T2": _round9(f2.total),
        "delta_F": _round9(diff),
        "units": "N_per_m2" if args.geometry == "plates" else "N",
        "terms_T2": {k: _round9(v) for k, v in f2._asdict().items() if k != "total"},
        "notes": [OMITTED_REMAINDER_NOTE] if lam > 0.0 else [],
        "validity_warnings": list(classify_validity(
            a, pair.T1, pair.T2, lam, modified_te=approach is ApproachVariant.MODIFIED_TE)),
    }

    if args.oracle:
        model = IdealMetal() if lam == 0.0 else Plasma(lam)
        o1, o2 = (engine(T, model, approach, matsubara, quadrature) for T in (pair.T1, pair.T2))
        engine_diff = o2 - o1
        record["oracle"] = {
            "tail_tolerance": matsubara.relative_tail_tolerance,
            "quadrature_tolerance": quadrature.relative_tolerance,
            "force_T1": _round9(o1),
            "force_T2": _round9(o2),
            "delta_F": _round9(engine_diff),
            "rel_deviation_T1": _round9(abs(f1.total - o1) / abs(o1)),
            "rel_deviation_T2": _round9(abs(f2.total - o2) / abs(o2)),
            # null where the engine's difference is exactly 0, as at T1 == T2
            "rel_deviation_delta_F": (None if engine_diff == 0.0 else
                                      _round9(abs(diff - engine_diff) / abs(engine_diff))),
        }

    _write(json.dumps(record, indent=2) + "\n", args.output)
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    checks = run_acceptance_checks()
    all_passed = all(c.passed for c in checks)
    if args.format == "json":
        payload = {
            "version": __version__,
            "all_passed": all_passed,
            "checks": [
                {
                    "id": c.check_id,
                    "passed": c.passed,
                    "measured": _round9(c.measured),
                    "expected": c.expected,
                    "detail": c.detail,
                }
                for c in checks
            ],
        }
        _write(json.dumps(payload, indent=2) + "\n", args.output)
    else:
        lines = [c.line() for c in checks]
        n_fail = sum(not c.passed for c in checks)
        lines.append(f"{len(checks) - n_fail}/{len(checks)} checks passed")
        _write("\n".join(lines) + "\n", args.output)
    return 0 if all_passed else 3


_COMMANDS = {
    "fig1": cmd_separation_sweep,
    "fig2": cmd_separation_sweep,
    "fig3": cmd_fig3,
    "compute": cmd_compute,
    "validate": cmd_validate,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        # a command's line goes to its own parser alone, one argparse pass; the
        # root parser takes the rest (no words, -h, --version, an unknown command)
        if argv and argv[0] in parser.commands:
            args = parser.commands[argv[0]].parse_args(argv[1:])
        else:
            args = parser.parse_args(argv)
        if getattr(args, "config", None):
            # the file's flags go right after the command name, so that the
            # explicit flags after them win
            at = argv.index(args.command) + 1
            args = parser.commands[args.command].parse_args(_config_flags(args) + argv[at:])
        return _COMMANDS[args.command](args)
    except (UsageError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except QuadratureError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
