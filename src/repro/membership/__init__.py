"""Failure detection and gossip membership — probe-derived liveness.

The package behind the liveness API redesign: one
:class:`~repro.membership.views.MembershipView` base class is the only
surface engines and the net runtime use to learn who is alive.
:class:`~repro.membership.views.OracleView` preserves the historical
omniscient behavior bit-for-bit; :class:`~repro.membership.probe
.ProbeView` derives knowledge from :class:`~repro.membership.detector
.FailureDetector` probe schedules, quorum suspicion and
:class:`~repro.membership.gossip.GossipMembership` epidemics — through
a vectorized kernel (:class:`~repro.membership.vectorized
.VectorizedDetectorBank`) pinned bit-identical to the scalar machines of
``tests/twins/``. See ``docs/membership.md``.
"""

from .config import DetectorConfig
from .detector import POLL_TIMER, FailureDetector
from .gossip import GossipMembership
from .probe import ProbeView
from .vectorized import VectorizedDetectorBank
from .views import MembershipView, OracleView

__all__ = [
    "DetectorConfig",
    "FailureDetector",
    "GossipMembership",
    "MembershipView",
    "OracleView",
    "POLL_TIMER",
    "ProbeView",
    "VectorizedDetectorBank",
]
