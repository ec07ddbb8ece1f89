"""Session-time models for churn over time.

:mod:`repro.churn.sessions` holds the pluggable session-time
distributions (exponential, Pareto heavy-tail, Gnutella-trace-driven)
that :class:`~repro.engine.churn.SteadyStateChurnEngine` draws from.

Figure 2's static crash wave (10% / 33% killed at once) needs no module
of its own: it is :meth:`OracleView.crash_fraction
<repro.membership.views.OracleView.crash_fraction>` then
``Substrate.repair_ring()``, undone by ``OracleView.revive``, as
:func:`repro.experiments.growth.grow_and_measure` calls them.
"""

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
    "make_sessions",
]
