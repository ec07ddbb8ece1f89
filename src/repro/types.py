"""Shared type aliases used across the library.

Centralizing these keeps signatures consistent between the Oscar core,
the Mercury baseline and the simulation harness, and gives downstream
users one place to look up the vocabulary of the public API.
"""

from __future__ import annotations

__all__ = ["NodeId", "Key", "Seed"]

#: Opaque, stable identifier of a peer. Node ids are dense integers assigned
#: at join time and never reused, so they double as indices into per-node
#: arrays kept by the metrics layer.
NodeId = int

#: A point on the unit circle ``[0, 1)``. Peer positions and query targets
#: are both keys.
Key = float

#: Seed material accepted by :func:`repro.rng.make_rng` /
#: :func:`repro.rng.split`.
Seed = int
