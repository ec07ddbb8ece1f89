"""One table of what the system counts, stamped with simulation time.

Every overlay's :class:`~repro.core.soa.SubstrateState` carries one
:class:`Registry` as ``state.obs``. The churn engine, the replicated
store and the probe membership view reach it through the ring they hold
and write one row per epoch or pass into their own *layer* — never per
hop or per request, and with nothing to switch on. A layer is a set of
named columns (TabulaROSA's "system state is a table"), and every row
is stamped with its epoch, never the wall clock, so one seed gives
byte-identical tables. ``docs/observability.md`` lists the layers.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

__all__ = ["Registry"]


class Registry:
    """Columns keyed by ``(layer, name)``; every row stamped with its epoch.

    A layer's first row fixes its columns, and every later row must give
    the same names. A value is a number, a bool or a fixed-length tuple
    (a histogram), and a column reads back as one numpy array.
    """

    def __init__(self) -> None:
        self._layers: dict[str, dict[str, list]] = {}

    def record(self, layer: str, epoch: int, **values: object) -> SimpleNamespace:
        """Append one row to ``layer``; returns it as one record
        (``row.epoch``, ``row.<name>``)."""
        columns = self._layers.setdefault(layer, {name: [] for name in ("epoch", *values)})
        if columns.keys() != {"epoch", *values}:
            raise ValueError(f"layer {layer!r} rows carry {list(columns)[1:]}, got {list(values)}")
        columns["epoch"].append(int(epoch))
        for name, value in values.items():
            columns[name].append(value)
        return SimpleNamespace(epoch=int(epoch), **values)

    def table(self, layer: str) -> dict[str, np.ndarray]:
        """``{name: column}`` of ``layer``, ``epoch`` first (empty before
        its first row)."""
        return {name: np.asarray(values) for name, values in self._layers.get(layer, {}).items()}

    def rows(self, layer: str) -> list[SimpleNamespace]:
        """``layer``'s rows in recording order, one record each."""
        columns = self._layers.get(layer, {})
        return [SimpleNamespace(**dict(zip(columns, row))) for row in zip(*columns.values())]

    def total(self, layer: str, name: str) -> int:
        """Sum of one integer column (0 before the layer's first row)."""
        return int(sum(self._layers.get(layer, {}).get(name, ())))
