"""Session-time distributions for steady-state churn.

Under continuous membership turnover every peer lives for one *session*
— the time between its arrival and its departure — and the shape of the
session-time distribution is what separates benign churn (everyone
stays about equally long) from the regimes measured on deployed
peer-to-peer systems, where session times are heavy-tailed: most peers
vanish within minutes while a stable core stays for days.

Three pluggable distributions cover that spectrum, all normalized so
that ``half_life`` is the **median** session length in epochs (half the
cohort is gone after ``half_life`` epochs whatever the shape):

* :class:`ExponentialSessions` — memoryless departures, the classic
  analytical model (a peer's remaining lifetime never depends on its
  age);
* :class:`ParetoSessions` — heavy-tailed sessions: the longer a peer
  has been up, the longer it is expected to stay, matching measured
  file-sharing populations;
* :class:`TraceSessions` — trace-driven: session lengths follow the
  multiplicative-cascade landscape of
  :class:`~repro.workloads.gnutella.GnutellaLikeDistribution` mapped
  log-uniformly onto durations, so the burstiness of the synthetic
  Gnutella trace drives *when* peers leave, not just where their keys
  live.

All sampling is vectorized and consumes the provided generator in a
single bulk draw per call, so the steady-state churn engine's RNG
layout stays state-independent across its vectorized and reference
execution paths.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ConfigError
from ..workloads.gnutella import GnutellaLikeDistribution

__all__ = [
    "SessionTimes",
    "ExponentialSessions",
    "ParetoSessions",
    "TraceSessions",
    "SESSION_DISTRIBUTIONS",
    "make_sessions",
]


class SessionTimes:
    """Base class: a distribution over positive session lengths (epochs).

    Subclasses implement :meth:`sample`; ``half_life`` is always the
    distribution's median, and :attr:`mean` reports the analytic (or
    numerically exact) expectation — what the steady-state population
    size works out to per unit arrival rate (Little's law:
    ``N = arrival_rate x mean session``).
    """

    name = "base"

    def __init__(self, half_life: float) -> None:
        if not (half_life > 0.0 and math.isfinite(half_life)):
            raise ConfigError(f"half_life must be a positive finite float, got {half_life}")
        self.half_life = float(half_life)

    @property
    def mean(self) -> float:
        """Expected session length in epochs."""
        raise NotImplementedError

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` session lengths as one bulk array.

        Exactly one bulk draw against ``rng`` per call (the engine's
        state-independent stream contract); every value is strictly
        positive and finite.
        """
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}(half_life={self.half_life})"


class ExponentialSessions(SessionTimes):
    """Memoryless sessions: ``P(session > t) = 2**(-t / half_life)``."""

    name = "exponential"

    @property
    def mean(self) -> float:
        """Expected session length: ``half_life / ln 2``."""
        return self.half_life / math.log(2.0)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """One ``rng.exponential`` draw of shape ``(size,)``."""
        return rng.exponential(self.mean, size=size)


class ParetoSessions(SessionTimes):
    """Heavy-tailed sessions: classic Pareto with tail index ``alpha``.

    ``alpha`` must exceed 1 so the mean is finite (a steady-state
    population size exists); the scale is chosen so the median equals
    ``half_life``. Lower ``alpha`` = heavier tail: with the default 1.6
    a few peers live one to two orders of magnitude longer than the
    median — the stable core measured in deployed systems.
    """

    name = "pareto"

    def __init__(self, half_life: float, alpha: float = 1.6) -> None:
        super().__init__(half_life)
        if not alpha > 1.0:
            raise ConfigError(f"alpha must be > 1 (finite mean), got {alpha}")
        self.alpha = float(alpha)
        self.x_min = self.half_life * 2.0 ** (-1.0 / self.alpha)

    @property
    def mean(self) -> float:
        """Expected session length: ``alpha * x_min / (alpha - 1)``."""
        return self.alpha * self.x_min / (self.alpha - 1.0)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """One ``rng.pareto`` draw of shape ``(size,)``, shifted to the
        classic Pareto support ``[x_min, inf)``."""
        return self.x_min * (1.0 + rng.pareto(self.alpha, size=size))


class TraceSessions(SessionTimes):
    """Trace-driven sessions from the synthetic Gnutella cascade.

    A session length is ``half_life * dynamic_range ** (k - k_median)``
    where ``k`` is a key drawn from
    :class:`~repro.workloads.gnutella.GnutellaLikeDistribution` and
    ``k_median`` its median key — a monotone log-uniform map of the
    cascade onto durations spanning ``dynamic_range`` across the unit
    interval. The cascade's multifractal skew therefore shapes the
    session population directly: dense key regions become session
    lengths the cohort clusters at, sparse regions become rare
    stragglers, and the median is ``half_life`` exactly (the map is
    monotone).
    """

    name = "trace"

    def __init__(
        self,
        half_life: float,
        dynamic_range: float = 100.0,
        trace: GnutellaLikeDistribution | None = None,
    ) -> None:
        super().__init__(half_life)
        if not dynamic_range > 1.0:
            raise ConfigError(f"dynamic_range must be > 1, got {dynamic_range}")
        self.dynamic_range = float(dynamic_range)
        self.trace = trace if trace is not None else GnutellaLikeDistribution()
        self.k_median = self._median_key()

    def _median_key(self) -> float:
        """The cascade key with ``cdf(key) = 0.5``, by bisection."""
        lo, hi = 0.0, 1.0
        for __ in range(80):
            mid = (lo + hi) / 2.0
            if self.trace.cdf(mid) < 0.5:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2.0

    @property
    def mean(self) -> float:
        """Numerically exact expectation over the cascade's leaf masses."""
        leaves = self.trace.n_leaves
        edges = np.arange(leaves + 1, dtype=float) / leaves
        mass = np.diff(np.array([self.trace.cdf(edge) for edge in edges]))
        ln_r = math.log(self.dynamic_range)
        lo = self.half_life * self.dynamic_range ** (edges[:-1] - self.k_median)
        hi = self.half_life * self.dynamic_range ** (edges[1:] - self.k_median)
        # Exact mean of the log-uniform map over each leaf interval.
        per_leaf = (hi - lo) * leaves / ln_r
        return float((mass * per_leaf).sum())

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """One bulk cascade-key draw mapped monotonically to durations."""
        keys = self.trace.sample(rng, size)
        return self.half_life * self.dynamic_range ** (keys - self.k_median)


#: Session-distribution factories addressable by name from experiment
#: specs and the CLI; every factory takes the median ``half_life``.
SESSION_DISTRIBUTIONS: dict[str, type[SessionTimes]] = {
    "exponential": ExponentialSessions,
    "pareto": ParetoSessions,
    "trace": TraceSessions,
}


def make_sessions(name: str, half_life: float) -> SessionTimes:
    """Construct a session distribution by registry name.

    Raises :class:`~repro.errors.ConfigError` for unknown names — the
    validation boundary shared by the churn specs (``steady-churn``,
    ``detector-churn``, ``serve-churn``).
    """
    try:
        factory = SESSION_DISTRIBUTIONS[name]
    except KeyError:
        raise ConfigError(
            f"unknown session distribution {name!r}; known: {sorted(SESSION_DISTRIBUTIONS)}"
        ) from None
    return factory(half_life)
