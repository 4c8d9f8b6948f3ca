"""Golden outputs: each CLI run below is regenerated through cli.main and
compared with its file under tests/golden/.

The closed-form outputs (fig1-fig3, compute) must match byte for byte.
`compute --oracle` and `validate` run the Lifshitz engine. Its sums do
not go through BLAS, so they do not depend on the CPU kernel OpenBLAS picks
(CI runs this file under OPENBLAS_CORETYPE=Prescott too), but numpy's and
libm's last bits may differ between builds, so they compare as parsed JSON:
strings and bools equal, numbers to rel 1e-8 (one unit in the 9th printed
digit).

After an intended output change, rewrite the files with
    PYTHONPATH=src python tests/test_golden.py
"""

import json
import math
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


def _assert_close(got, want, where: str = "") -> None:
    if isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), where
        for key in want:
            _assert_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, f"{where}[{i}]")
    elif isinstance(want, float) and not isinstance(got, bool):
        assert math.isclose(got, want, rel_tol=1e-8, abs_tol=0.0), f"{where}: {got!r} != {want!r}"
    else:
        assert type(got) is type(want) and got == want, f"{where}: {got!r} != {want!r}"


@pytest.mark.parametrize("name", sorted(EXACT))
def test_closed_form_output_is_byte_identical(name, tmp_path):
    assert _render(EXACT[name], tmp_path / name) == (GOLDEN / name).read_text()


@pytest.mark.parametrize("name", sorted(NUMERIC))
def test_engine_output_matches_to_nine_digits(name, tmp_path):
    got = json.loads(_render(NUMERIC[name], tmp_path / name))
    _assert_close(got, json.loads((GOLDEN / name).read_text()))


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in {**EXACT, **NUMERIC}.items():
        _render(argv, GOLDEN / name)
