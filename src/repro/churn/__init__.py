"""Failure models: crash waves and session times.

* :func:`apply_churn` — static kill of 10%/33% of the population with
  optional ring repair (Figure 2), routed through the unified
  :class:`~repro.membership.views.MembershipView` liveness API;
* :mod:`repro.churn.sessions` — pluggable session-time distributions
  (exponential, Pareto heavy-tail, Gnutella-trace-driven) for
  steady-state churn.

Churn *over time* is :class:`~repro.engine.churn.SteadyStateChurnEngine`.
"""

from .failures import apply_churn, revive_all
from .sessions import (
    SESSION_DISTRIBUTIONS,
    ExponentialSessions,
    ParetoSessions,
    SessionTimes,
    TraceSessions,
    make_sessions,
)

__all__ = [
    "SESSION_DISTRIBUTIONS",
    "ExponentialSessions",
    "ParetoSessions",
    "SessionTimes",
    "TraceSessions",
    "apply_churn",
    "make_sessions",
    "revive_all",
]
