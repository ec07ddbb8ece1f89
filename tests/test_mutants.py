"""Every mutant of the committed catalogue (``tests/mutants.py``) is caught.

Each mutant runs in a subprocess of its own — its edited function bound
in place of the original — against the tests it names, and every one of
them must fail. A mutant that survives a catcher, or whose edit no longer
applies to the source, fails here. ``slow``: CI's ``soa-equivalence``
job runs it; by hand, ``python -m pytest tests/test_mutants.py -m slow``.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from mutants import CATALOGUE, ROOT

pytestmark = pytest.mark.slow


@pytest.mark.parametrize("name", [mutant.name for mutant in CATALOGUE])
def test_mutant_is_caught(name: str) -> None:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("mutants.py")), name],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    report = [line for line in result.stdout.splitlines() if line.startswith("[mutants]")]
    assert result.returncode == 0, report or result.stdout[-2000:] + result.stderr[-2000:]


def test_catalogue_names_are_unique_and_every_mutant_has_a_catcher() -> None:
    assert len({mutant.name for mutant in CATALOGUE}) == len(CATALOGUE)
    assert all(mutant.catchers and mutant.edits for mutant in CATALOGUE)
