"""The committed benchmark's tracing contract, checked in tier-1.

``bench/spans.py`` wraps ``owner.__dict__[attr]`` for every row of
``bench/harness.py::TRACED``: a refactor that hoists a traced method
into a base class leaves the name resolvable but absent from the
owner's own ``__dict__``, and would otherwise only die in the traced
half of ``bench/run.py``.
"""

from __future__ import annotations

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402


def test_every_traced_name_lives_in_its_owner_class_body():
    assert harness.TRACED
    missing = [
        f"{owner.__name__}.{attr} ({name})"
        for owner, attr, name in harness.TRACED
        if attr not in owner.__dict__
    ]
    assert not missing, f"bench tracer cannot wrap: {missing}"
