"""Golden outputs: each CLI run below is regenerated through cli.main and
compared with its file under tests/golden/.

The closed-form outputs (fig1-fig3, compute) must match byte for byte.
`compute --oracle` and `validate` run the Lifshitz engine. Its sums do
not go through BLAS, so they do not depend on the CPU kernel OpenBLAS picks
(CI runs this file under OPENBLAS_CORETYPE=Prescott too), but numpy's and
libm's last bits may differ between builds, so they compare as parsed JSON:
strings and bools equal, numbers to rel 1e-8 (one unit in the 9th printed
digit). A failure lists every mismatch of the file, not just the first.

After an intended output change, rewrite the files it changes, by name,
with
    PYTHONPATH=src python tests/test_golden.py NAME ...
(NAME as under tests/golden/, e.g. validate.json; an unknown name is an
error and rewrites nothing). With no name every file is rewritten.
"""

import json
import math
import sys
from pathlib import Path

import pytest

from casimir_delta.cli import main

GOLDEN = Path(__file__).parent / "golden"

FIGURE_APPROACHES = {
    "fig1": ("plasma", "ideal"),
    "fig2": ("plasma", "modified-te", "ideal"),
    "fig3": ("plasma", "ideal"),
}
COMPUTE_PAIRS = [
    ("plates", "plasma"), ("plates", "ideal"),
    ("sphere", "plasma"), ("sphere", "modified-te"), ("sphere", "ideal"),
]

EXACT = {
    f"{command}-{approach}.{fmt}": [command, "--approach", approach, "--format", fmt]
    for command, approaches in FIGURE_APPROACHES.items()
    for approach in approaches
    for fmt in ("csv", "json")
}
EXACT.update({
    f"compute-{geometry}-{approach}.json": ["compute", "--geometry", geometry, "--approach", approach]
    for geometry, approach in COMPUTE_PAIRS
})
NUMERIC = {
    f"compute-oracle-{geometry}-{approach}.json":
        ["compute", "--geometry", geometry, "--approach", approach, "--oracle"]
    for geometry, approach in COMPUTE_PAIRS
}
NUMERIC["validate.json"] = ["validate", "--format", "json"]


def _render(argv: list, path: Path) -> str:
    assert main(argv + ["--output", str(path)]) == 0
    return path.read_text()


def _mismatches(got, want, where: str = ""):
    """The place and values of each difference of got from want: keys and
    types exact, floats to rel 1e-8."""
    if isinstance(want, dict):
        if not (isinstance(got, dict) and got.keys() == want.keys()):
            yield f"{where}: not a dict with the keys {sorted(want)}"
            return
        for key in want:
            yield from _mismatches(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        if not (isinstance(got, list) and len(got) == len(want)):
            yield f"{where}: {got!r} is not a list of {len(want)}"
            return
        for i, (g, w) in enumerate(zip(got, want)):
            yield from _mismatches(g, w, f"{where}[{i}]")
    elif isinstance(want, float) and not isinstance(got, bool):
        if not (isinstance(got, (int, float))
                and math.isclose(got, want, rel_tol=1e-8, abs_tol=0.0)):
            yield f"{where}: {got!r} != {want!r}"
    elif not (type(got) is type(want) and got == want):
        yield f"{where}: {got!r} != {want!r}"


def _assert_close(got, want) -> None:
    """Every mismatch of got from want, in one assertion."""
    mismatches = list(_mismatches(got, want))
    assert not mismatches, "\n".join(mismatches)


@pytest.mark.parametrize("name", sorted(EXACT))
def test_closed_form_output_is_byte_identical(name, tmp_path):
    assert _render(EXACT[name], tmp_path / name) == (GOLDEN / name).read_text()


@pytest.mark.parametrize("name", sorted(NUMERIC))
def test_engine_output_matches_to_nine_digits(name, tmp_path):
    got = json.loads(_render(NUMERIC[name], tmp_path / name))
    _assert_close(got, json.loads((GOLDEN / name).read_text()))


if __name__ == "__main__":
    runs = {**EXACT, **NUMERIC}
    names = sys.argv[1:] or list(runs)
    unknown = [name for name in names if name not in runs]
    if unknown:
        sys.exit(f"unknown golden file(s): {', '.join(unknown)}")
    GOLDEN.mkdir(exist_ok=True)
    for name in names:
        _render(runs[name], GOLDEN / name)
