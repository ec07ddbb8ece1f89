"""Content-addressed JSON artifact store for experiment results.

Every run of a spec at a resolved parameter set produces one artifact
file ``<root>/<spec_id>/<key>.json``, where ``key`` is the SHA-256 of
the canonical JSON of ``{"spec": id, "params": {...}}``. Repeating an
invocation at the same spec/scale/seed is therefore a cache hit — the
stored :class:`~repro.experiments.base.ExperimentResult` is loaded
instead of re-simulating — and ``repro report`` can regenerate
EXPERIMENTS.md mechanically from whatever artifacts exist.

Corrupted or truncated artifacts never poison a run: they are detected
on load, renamed aside to ``<name>.corrupt`` and treated as cache
misses, so the next run rewrites them.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Mapping

from .base import ExperimentResult, jsonify

__all__ = ["ArtifactStore", "StoredRun", "artifact_key"]

_FORMAT = 1


def artifact_key(spec_id: str, params: Mapping[str, object]) -> str:
    """Content address of one (spec, resolved params) combination."""
    canonical = json.dumps(
        {"spec": spec_id, "params": jsonify(dict(params))}, sort_keys=True
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class StoredRun:
    """One artifact: the result plus its provenance.

    Attributes:
        spec_id: Registry id of the experiment that produced the result.
        params: The resolved parameters of the run (canonical JSON form).
        result: The deserialized experiment result.
        wall_time: Seconds the original simulation took.
        created: Unix timestamp of the original run.
        key: Content address (also the artifact's file stem).
    """

    spec_id: str
    params: dict[str, object]
    result: ExperimentResult
    wall_time: float
    created: float
    key: str


class ArtifactStore:
    """Filesystem-backed result cache, one JSON file per run."""

    def __init__(self, root: str | Path):
        self.root = Path(root)

    def path_for(self, spec_id: str, params: Mapping[str, object]) -> Path:
        """Where the artifact for this run lives (existing or not)."""
        return self.root / spec_id / f"{artifact_key(spec_id, params)}.json"

    def save(
        self,
        spec_id: str,
        params: Mapping[str, object],
        result: ExperimentResult,
        wall_time: float,
    ) -> StoredRun:
        """Write one artifact (atomically via a temp file) and return it."""
        key = artifact_key(spec_id, params)
        canonical_params = jsonify(dict(params))
        # Artifact provenance timestamp in the store metadata, never read
        # back into simulation state.
        created = time.time()  # repro: allow[CLK001] provenance only
        payload = {
            "format": _FORMAT,
            "spec": spec_id,
            "key": key,
            "params": canonical_params,
            "wall_time": wall_time,
            "created": created,
            "result": result.to_json_dict(),
        }
        path = self.root / spec_id / f"{key}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(payload, sort_keys=True, indent=1), encoding="utf-8")
        tmp.replace(path)
        return StoredRun(
            spec_id=spec_id,
            params=dict(canonical_params),  # type: ignore[arg-type]
            result=result,
            wall_time=wall_time,
            created=created,
            key=key,
        )

    def load(self, spec_id: str, params: Mapping[str, object]) -> StoredRun | None:
        """Load the artifact for this run, or None (missing or corrupted).

        A file that exists but fails to parse is renamed to
        ``<name>.corrupt`` so the caller re-runs and rewrites it.
        """
        return self._read(self.path_for(spec_id, params))

    def _read(self, path: Path) -> StoredRun | None:
        if not path.exists():
            return None
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
            if payload.get("format") != _FORMAT:
                raise ValueError(f"unsupported artifact format {payload.get('format')!r}")
            return StoredRun(
                spec_id=str(payload["spec"]),
                params=dict(payload["params"]),
                result=ExperimentResult.from_json(payload["result"]),
                wall_time=float(payload["wall_time"]),
                created=float(payload.get("created", 0.0)),
                key=str(payload["key"]),
            )
        except (ValueError, KeyError, TypeError, OSError):
            quarantine = path.with_suffix(".corrupt")
            try:
                path.replace(quarantine)
            except OSError:
                pass
            return None

    def records(self) -> Iterator[StoredRun]:
        """Iterate every readable artifact in the store (sorted paths)."""
        if not self.root.exists():
            return
        for path in sorted(self.root.glob("*/*.json")):
            stored = self._read(path)
            if stored is not None:
                yield stored

    def latest_by_spec(self) -> dict[str, StoredRun]:
        """The most recently created artifact per spec id."""
        latest: dict[str, StoredRun] = {}
        for stored in self.records():
            current = latest.get(stored.spec_id)
            if current is None or stored.created >= current.created:
                latest[stored.spec_id] = stored
        return latest
