"""Per-peer state of the Mercury baseline."""

from __future__ import annotations

import numpy as np

from ..core.node import StateNodeView
from ..sampling import NodeDensityHistogram
from ..types import NodeId

__all__ = ["MercuryNode"]


class MercuryNode(StateNodeView):
    """One Mercury peer.

    Mirrors :class:`~repro.core.node.OscarNode` bookkeeping (the two
    systems share the acceptance protocol) but carries Mercury's learned
    state: the equi-width density histogram it built from its uniform
    samples, instead of a recursive-median partition table. Like the
    Oscar node it is a view over a :class:`~repro.core.soa.SubstrateState`
    slot: the histogram's cumulative vector is the slot's ``hist_cdf``
    row, and ``histogram`` is a read-only view of it.
    """

    __slots__ = ()
    _fields = StateNodeView._fields + ("histogram",)

    def __init__(
        self,
        node_id: NodeId,
        position: float,
        rho_max_in: int,
        rho_max_out: int,
        out_links=None,
        in_degree: int = 0,
        histogram: NodeDensityHistogram | None = None,
        samples_spent: int = 0,
    ) -> None:
        self._init_standalone(
            node_id, position, rho_max_in, rho_max_out, out_links, in_degree, samples_spent
        )
        if histogram is not None:
            self.histogram = histogram

    @property
    def histogram(self) -> NodeDensityHistogram | None:
        row = self._state.hist_cdf[self._slot]
        cumulative = row[: row.size - int(np.isnan(row).sum())]
        if cumulative.size == 0:
            return None
        cumulative.flags.writeable = False
        return NodeDensityHistogram(cumulative=cumulative)

    @histogram.setter
    def histogram(self, value: NodeDensityHistogram | None) -> None:
        state, slot = self._state, self._slot
        cumulative = np.empty(0) if value is None else value.cumulative
        state.ensure_width("hist_cdf", cumulative.size)
        state.hist_cdf[slot] = np.nan
        state.hist_cdf[slot, : cumulative.size] = cumulative
