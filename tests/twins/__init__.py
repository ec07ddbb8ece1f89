"""Reference twins of the product's vectorized stages, for the tests only.

Each twin subclasses the product class it checks and overrides only its
kernel methods, with pure-Python loops (for membership, a bank of the
protocol core's per-monitor machines and a per-report gossip plane, which
:class:`ScalarProbeView` installs in place of the kernels). Everything
both paths share stays the product's, stated once. The differentials run
a product instance and its twin on the same inputs and require
bit-identical outputs; ``tests/test_twins.py`` holds every override to a
method the product class still has, so a renamed kernel cannot leave a
twin running the product's code on both sides.
"""

from .engine import ReferenceChurnEngine, ReferenceQueryEngine
from .membership import ScalarDetectorBank, ScalarGossipMembership, ScalarProbeView
from .store import ReferenceStore

__all__ = [
    "ReferenceChurnEngine",
    "ReferenceQueryEngine",
    "ReferenceStore",
    "ScalarDetectorBank",
    "ScalarGossipMembership",
    "ScalarProbeView",
]
