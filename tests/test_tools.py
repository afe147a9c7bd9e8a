"""The fixture generator still writes the committed FCIDUMP fixtures, byte
for byte, so a change to it cannot silently move the tests' inputs."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("molecule, fixture", [("h2", "h2_sto3g"), ("water", "h2o_sto3g")])
def test_make_fcidump_reproduces_the_fixture(molecule, fixture, tmp_path):
    out = tmp_path / f"{fixture}.fcidump"
    subprocess.run(
        [sys.executable, str(ROOT / "tools" / "make_fcidump.py"), molecule, str(out)],
        check=True, cwd=tmp_path, capture_output=True,
    )
    assert out.read_bytes() == (ROOT / "tests" / "fixtures" / f"{fixture}.fcidump").read_bytes()
