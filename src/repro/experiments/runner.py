"""One execution path for every experiment: the :class:`Runner`.

The runner turns (spec id, parameter overrides) requests into
:class:`RunRecord` objects through a single code path — parameter
validation against the spec schema, shared-default injection (scale,
seed, query budget), artifact-cache lookup, ``ProcessPoolExecutor``
fan-out across requests (``jobs > 1``), wall-time capture and artifact
write-back. Sequential and parallel execution are bit-identical: each
run derives all of its randomness from its own resolved parameters, so
``--jobs 4`` returns exactly the results of ``--jobs 1`` at the same
seed, and a repeated invocation is served entirely from the store.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Mapping, Sequence

from ..errors import ConfigError
from .base import ExperimentResult
from .spec import ExperimentSpec, SweepSpec, get_spec
from .store import ArtifactStore

__all__ = ["RunRecord", "Runner", "Stopwatch"]


class Stopwatch:
    """Wall-clock seconds between marks — how specs time what they report.

    This module is a sanctioned wall-clock scope of the CLK001 lint rule
    (``docs/determinism.md``), so a spec that *reports* timing series
    times them through here instead of reading the clock itself::

        watch = Stopwatch()
        overlay.grow_batch(size, keys, degrees)
        build_seconds = watch.lap()
    """

    def __init__(self) -> None:
        self._mark = time.perf_counter()

    def lap(self) -> float:
        """Seconds since construction or the previous lap; restarts the lap."""
        now = time.perf_counter()
        elapsed, self._mark = now - self._mark, now
        return elapsed


@dataclass(frozen=True)
class RunRecord:
    """Outcome of one runner request.

    Attributes:
        spec_id: Registry id of the executed experiment.
        params: Fully resolved parameters (defaults + overrides).
        result: The experiment result (fresh or loaded from the store).
        wall_time: Seconds the simulation took. For cache hits this is
            the *original* run's wall time (the hit itself is ~free).
        cached: True when served from the artifact store.
        label: Optional display label (sweeps label points ``k=v,k=v``).
    """

    spec_id: str
    params: dict[str, object]
    result: ExperimentResult
    wall_time: float
    cached: bool
    label: str = ""


def _execute(spec_id: str, params: dict[str, object]) -> tuple[dict[str, object], float]:
    """Run one spec in the current process; returns (result dict, wall).

    Module-level so :class:`ProcessPoolExecutor` can pickle it; importing
    this module in a worker runs the package ``__init__``, which imports
    every experiment module and thereby populates the registry. The
    result crosses the process boundary in canonical JSON form, which
    keeps worker payloads plain and matches what the store persists.
    """
    watch = Stopwatch()
    result = get_spec(spec_id).run(**params)
    return result.to_json_dict(), watch.lap()


class Runner:
    """Execute experiment specs: validation, caching, parallel fan-out.

    Args:
        store: Artifact store for caching; ``None`` disables persistence.
        jobs: Worker processes for :meth:`run_many` (1 = in-process).
        force: Re-simulate even when a cached artifact exists.
        defaults: Overrides applied to *every* request, filtered per spec
            to the parameters it actually declares — this is how one
            ``--scale``/``--seed``/``--queries`` flag feeds specs with
            differing signatures (fig1a has no query phase, for example).
    """

    def __init__(
        self,
        store: ArtifactStore | None = None,
        jobs: int = 1,
        force: bool = False,
        defaults: Mapping[str, object] | None = None,
    ):
        if jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {jobs}")
        self.store = store
        self.jobs = jobs
        self.force = force
        self.defaults = dict(defaults or {})

    def resolve(self, spec: ExperimentSpec, overrides: Mapping[str, object] | None = None) -> dict[str, object]:
        """Shared defaults (filtered to the spec) + overrides + schema."""
        merged = {k: v for k, v in self.defaults.items() if k in spec.param_names}
        merged.update(overrides or {})
        return spec.resolve(merged)

    def run(self, spec_id: str, overrides: Mapping[str, object] | None = None, label: str = "") -> RunRecord:
        """Run one spec in-process (through the cache, if any)."""
        spec = get_spec(spec_id)
        params = self.resolve(spec, overrides)
        cached = self._load(spec_id, params, label)
        if cached is not None:
            return cached
        result_dict, wall = _execute(spec_id, params)
        return self._admit(spec_id, params, result_dict, wall, label)

    def run_many(
        self,
        requests: Sequence[tuple[str, Mapping[str, object]] | tuple[str, Mapping[str, object], str]],
        jobs: int | None = None,
    ) -> list[RunRecord]:
        """Run many (spec_id, overrides[, label]) requests, preserving order.

        Cache hits are answered immediately; only misses are dispatched,
        across ``jobs`` worker processes when ``jobs > 1``. Results are
        identical to sequential execution — each run is a pure function
        of its resolved parameters.
        """
        jobs = self.jobs if jobs is None else jobs
        if jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {jobs}")

        prepared: list[tuple[str, dict[str, object], str]] = []
        for request in requests:
            spec_id, overrides = request[0], request[1]
            label = request[2] if len(request) > 2 else ""  # type: ignore[misc]
            prepared.append((spec_id, self.resolve(get_spec(spec_id), overrides), str(label)))

        records: list[RunRecord | None] = [None] * len(prepared)
        misses: list[int] = []
        for index, (spec_id, params, label) in enumerate(prepared):
            cached = self._load(spec_id, params, label)
            if cached is not None:
                records[index] = cached
            else:
                misses.append(index)

        if misses and jobs > 1:
            with ProcessPoolExecutor(max_workers=min(jobs, len(misses))) as pool:
                futures = {
                    index: pool.submit(_execute, prepared[index][0], prepared[index][1])
                    for index in misses
                }
                for index, future in futures.items():
                    result_dict, wall = future.result()
                    spec_id, params, label = prepared[index]
                    records[index] = self._admit(spec_id, params, result_dict, wall, label)
        else:
            for index in misses:
                spec_id, params, label = prepared[index]
                result_dict, wall = _execute(spec_id, params)
                records[index] = self._admit(spec_id, params, result_dict, wall, label)

        return [record for record in records if record is not None]

    def run_sweep(
        self,
        sweep: SweepSpec,
        overrides: Mapping[str, object] | None = None,
        jobs: int | None = None,
    ) -> list[RunRecord]:
        """Expand a sweep's grid and run every point through the cache."""
        spec = get_spec(sweep.spec_id)
        # points() filters shared keys to the spec's schema, same as resolve.
        merged = {**self.defaults, **(overrides or {})}
        points = sweep.points(spec, merged)
        labels = sweep.labels()
        return self.run_many(
            [(sweep.spec_id, point, label) for point, label in zip(points, labels)],
            jobs=jobs,
        )

    def _load(self, spec_id: str, params: dict[str, object], label: str) -> RunRecord | None:
        if self.store is None or self.force:
            return None
        stored = self.store.load(spec_id, params)
        if stored is None:
            return None
        return RunRecord(
            spec_id=spec_id,
            params=params,
            result=stored.result,
            wall_time=stored.wall_time,
            cached=True,
            label=label,
        )

    def _admit(
        self,
        spec_id: str,
        params: dict[str, object],
        result_dict: Mapping[str, object],
        wall: float,
        label: str,
    ) -> RunRecord:
        result = ExperimentResult.from_json(result_dict)
        if self.store is not None:
            self.store.save(spec_id, params, result, wall)
        return RunRecord(
            spec_id=spec_id,
            params=params,
            result=result,
            wall_time=wall,
            cached=False,
            label=label,
        )
