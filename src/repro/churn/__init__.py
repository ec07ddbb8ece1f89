"""Failure models: crash waves, session times, and continuous churn.

* :func:`apply_churn` — static kill of 10%/33% of the population with
  optional ring repair (Figure 2), routed through the unified
  :class:`~repro.membership.views.MembershipView` liveness API;
* :mod:`repro.churn.sessions` — pluggable session-time distributions
  (exponential, Pareto heavy-tail, Gnutella-trace-driven) for
  steady-state churn;
* :class:`ContinuousChurn` — Poisson crashes + periodic maintenance on
  the event kernel (the scalar, event-driven twin of
  :class:`~repro.engine.churn.SteadyStateChurnEngine`).
"""

from .failures import apply_churn, revive_all
from .process import ContinuousChurn
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
    "ContinuousChurn",
    "ExponentialSessions",
    "ParetoSessions",
    "SessionTimes",
    "TraceSessions",
    "apply_churn",
    "make_sessions",
    "revive_all",
]
