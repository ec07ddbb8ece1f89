"""Experiment result container and shared plumbing.

Every experiment's run function returns an :class:`ExperimentResult`:
named (x, y) series (one per curve of the paper figure), scalar
findings (e.g. exploited degree volume) and any derived metadata; the
spec layer stamps its id, title and resolved parameters on it — enough
for EXPERIMENTS.md to be regenerated mechanically.

``scale`` shrinks the paper-sized workload proportionally (network
sizes, query counts) so the same code path serves full reproductions,
CI smoke runs and the tier-1 tests.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

from ..config import DEFAULT_SIZE_FLOOR
from ..errors import ConfigError
from ..reporting import ascii_chart, format_table, write_series

__all__ = ["ExperimentResult", "jsonify", "scaled_sizes"]


def jsonify(value: object) -> object:
    """Canonicalize a value for JSON artifacts.

    Tuples become lists, numpy scalars become Python numbers, anything
    else non-serializable falls back to ``repr`` (deterministic for the
    frozen config dataclasses). Used both when writing artifacts and when
    hashing resolved parameters into artifact keys, so the two always
    agree.
    """
    if isinstance(value, dict):
        return {str(k): jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonify(v) for v in value]
    if isinstance(value, (str, bool, int, float)) or value is None:
        return value
    if hasattr(value, "item"):  # numpy scalar
        return value.item()
    return repr(value)


@dataclass
class ExperimentResult:
    """Outcome of one experiment run.

    Attributes:
        experiment_id: Index key (``fig1a`` .. ``abl-partitions``).
        title: Human title matching the paper's figure caption.
        series: Curve name -> (x, y) points.
        scalars: Named scalar findings.
        metadata: The resolved parameters and derived values (e.g. the
            scaled ``sizes``), which win over a parameter of their name.

    A run function leaves ``experiment_id``, ``title`` and the parameters
    to :meth:`~repro.experiments.spec.ExperimentSpec.run`, which stamps
    them from the spec.
    """

    experiment_id: str = ""
    title: str = ""
    series: dict[str, list[tuple[float, float]]] = field(default_factory=dict)
    scalars: dict[str, float] = field(default_factory=dict)
    metadata: dict[str, object] = field(default_factory=dict)

    def render(
        self,
        width: int = 72,
        height: int = 18,
        log_x: bool = False,
        log_y: bool = False,
    ) -> str:
        """ASCII figure + scalar table, ready for the terminal or a log."""
        parts: list[str] = []
        if self.series:
            parts.append(
                ascii_chart(
                    self.series,
                    title=f"{self.experiment_id}: {self.title}",
                    width=width,
                    height=height,
                    log_x=log_x,
                    log_y=log_y,
                )
            )
        else:
            parts.append(f"{self.experiment_id}: {self.title}")
        if self.scalars:
            parts.append("")
            parts.append(format_table(("scalar", "value"), sorted(self.scalars.items())))
        if self.metadata:
            meta = ", ".join(f"{k}={v}" for k, v in sorted(self.metadata.items()))
            parts.append("")
            parts.append(f"[{meta}]")
        return "\n".join(parts)

    def write_csv(self, directory: str | Path, stem: str | None = None) -> Path:
        """Write the series (long format) to ``directory/<stem>.csv``.

        ``stem`` defaults to the experiment id; sweeps pass a per-point
        stem so grid points don't overwrite one another.
        """
        return write_series(
            Path(directory) / f"{stem or self.experiment_id}.csv", self.series
        )

    def to_json_dict(self) -> dict[str, object]:
        """Canonical JSON-ready representation (see :func:`jsonify`).

        Tuples inside ``metadata`` are canonicalized to lists, so a result
        that has been through :meth:`from_json` serializes identically to
        the original.
        """
        return {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "series": {name: jsonify(points) for name, points in self.series.items()},
            "scalars": {name: jsonify(v) for name, v in self.scalars.items()},
            "metadata": jsonify(self.metadata),
        }

    def to_json(self, indent: int | None = None) -> str:
        """Serialize to a JSON string (stable key order)."""
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=indent)

    @classmethod
    def from_json(cls, payload: str | Mapping[str, object]) -> "ExperimentResult":
        """Rebuild a result from :meth:`to_json` output (string or dict).

        Series points come back as tuples; metadata stays in its canonical
        JSON form (tuples were serialized as lists).
        """
        data = json.loads(payload) if isinstance(payload, str) else dict(payload)
        series = {
            str(name): [(float(x), float(y)) for x, y in points]
            for name, points in dict(data.get("series", {})).items()
        }
        scalars = {str(name): float(v) for name, v in dict(data.get("scalars", {})).items()}
        return cls(
            experiment_id=str(data["experiment_id"]),
            title=str(data["title"]),
            series=series,
            scalars=scalars,
            metadata=dict(data.get("metadata", {})),
        )


def scaled_sizes(
    paper_sizes: Sequence[int], scale: float, floor: int = DEFAULT_SIZE_FLOOR
) -> tuple[int, ...]:
    """Scale the paper's measurement sizes, deduplicated and floored.

    This is the one floor rule for scaled sizes: no scaled size drops
    below :data:`repro.config.DEFAULT_SIZE_FLOOR` (64 peers) unless a
    caller explicitly passes a different ``floor``.
    """
    if not scale > 0:
        raise ConfigError(f"scale must be > 0, got {scale}")
    out: list[int] = []
    for size in paper_sizes:
        value = max(floor, int(round(size * scale)))
        if not out or value > out[-1]:
            out.append(value)
    return tuple(out)
