"""Application layer: a replicated key-value catalog over the overlay."""

from .replication import ReplicatedStore, ReplicationEpochStats

__all__ = ["ReplicatedStore", "ReplicationEpochStats"]
