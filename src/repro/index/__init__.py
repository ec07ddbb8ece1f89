"""Application layer: a replicated key-value catalog over the overlay."""

from .replication import ReplicatedStore

__all__ = ["ReplicatedStore"]
