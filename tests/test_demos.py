"""Run every demo script and compare its stdout with a recorded digest."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ncindiv

DEMOS = Path(__file__).resolve().parent.parent / "demos"

# SHA-256 of each demo's stdout; a change to any printed number or line
# shows here
DEMO_STDOUT = {
    "01_counting_and_poset.py":
        "a3d6db6bf8939a3a8579b127f5f0b35099856dcd926a1c9bd15a4c3eba19723a",
    "02_hurwitz_and_parking.py":
        "0b79b2f8da48b105dcb7616320ba7c8a8b720147f2f1e50e4dc5ffebc51ee062",
    "03_dissections_and_cambrian.py":
        "d4d3190c81355d19ccbbd44fdfcce05680351cad84029603e84c38bccd59a79f",
    "04_nonnesting_and_trees.py":
        "7f0e36683c6200676fb237236baa0fa3d3b34f745ad6b3eaba7933b939c67ccb",
    "05_typeb_lab.py":
        "6b9803403ce542f5d5b03ee67e33a154f1c71630e9e89c7c7ee824841dd16916",
    "06_mdivisible.py":
        "ec8621b215e17633ff9b918102314ec206020dabcbad8c2ee93103cf075b5244",
}


def test_every_demo_has_a_digest():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(DEMO_STDOUT)


@pytest.mark.parametrize("name", sorted(DEMO_STDOUT))
def test_demo_runs_and_prints_the_recorded_output(name):
    src = os.path.dirname(os.path.dirname(os.path.abspath(ncindiv.__file__)))
    result = subprocess.run(
        [sys.executable, str(DEMOS / name)],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    assert "Traceback" not in result.stderr
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == DEMO_STDOUT[name]
