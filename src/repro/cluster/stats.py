"""Aggregated statistics over every shard of a cluster.

Each shard's :meth:`~repro.core.database.EncipheredDatabase.stats` dict
nests one level per subsystem with numeric leaves; :class:`ClusterStats`
keeps the per-shard dicts verbatim (benchmark C8 reports per-shard write
amplification from them) and sums them leaf-wise into a cluster-level
rollup.  Balance metrics summarise how evenly the router spread the
keys.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property


def merge_counter_dicts(dicts: list[dict[str, object]]) -> dict[str, object]:
    """Leaf-wise sum of same-shaped nested dicts of numbers."""
    if not dicts:
        return {}
    merged: dict[str, object] = {}
    for key, value in dicts[0].items():
        if isinstance(value, dict):
            merged[key] = merge_counter_dicts([d[key] for d in dicts])
        else:
            merged[key] = sum(d[key] for d in dicts)
    return merged


def subtract_counter_dicts(
    current: dict[str, object], base: dict[str, object]
) -> dict[str, object]:
    """Leaf-wise ``current - base`` of same-shaped nested dicts.

    The process executor uses this to turn two snapshots of a worker's
    counters into the delta attributable to the operations in between.
    """
    delta: dict[str, object] = {}
    for key, value in current.items():
        if isinstance(value, dict):
            delta[key] = subtract_counter_dicts(value, base[key])
        else:
            delta[key] = value - base[key]
    return delta


@dataclass
class ClusterStats:
    """Point-in-time statistics for a sharded database.

    ``per_shard[i]`` is shard ``i``'s full counter rollup;
    ``aggregate`` is their leaf-wise sum.  ``replica_sync`` carries the
    process executor's ship accounting (full vs delta re-syncs and the
    platter bytes each moved) when that backend has run, ``None``
    otherwise; it is executor-level state, not a per-shard counter, so
    it stays outside the leaf-wise merge.  ``health`` is the
    fault-tolerance rollup from :class:`~repro.cluster.health.
    ClusterHealth` -- per-shard state machines, lifetime fault counters
    and the executor's supervision counters; like ``replica_sync`` it
    carries cluster-level state and stays outside the merge.
    """

    router: str
    per_shard: list[dict[str, object]]
    replica_sync: dict[str, int] | None = None
    health: dict[str, object] | None = None

    @property
    def num_shards(self) -> int:
        return len(self.per_shard)

    @cached_property
    def aggregate(self) -> dict[str, object]:
        # cached: a ClusterStats is a point-in-time snapshot, and several
        # properties (cache rollups, hit rates) derive from one merge
        return merge_counter_dicts(self.per_shard)

    @property
    def shard_sizes(self) -> list[int]:
        return [s["size"] for s in self.per_shard]

    @property
    def total_size(self) -> int:
        return sum(self.shard_sizes)

    @property
    def imbalance(self) -> float:
        """Largest shard over the mean shard size (1.0 = perfectly even)."""
        sizes = self.shard_sizes
        mean = sum(sizes) / len(sizes)
        return max(sizes) / mean if mean else 0.0

    # -- read-path cache rollups -----------------------------------------

    @staticmethod
    def _hit_rate(counters: dict[str, object]) -> float:
        accesses = counters["hits"] + counters["misses"]
        return counters["hits"] / accesses if accesses else 0.0

    @property
    def record_cache(self) -> dict[str, object]:
        """Cluster-wide plaintext record-block cache counters."""
        return self.aggregate["record_cache"]

    @property
    def node_decoded_cache(self) -> dict[str, object]:
        """Cluster-wide decoded node-view cache counters."""
        return self.aggregate["node_decoded_cache"]

    @property
    def record_cipher(self) -> dict[str, object]:
        """Cluster-wide record-cipher counters: block operations and DES blocks."""
        return self.aggregate["record_cipher"]

    @property
    def record_cache_hit_rate(self) -> float:
        return self._hit_rate(self.record_cache)

    @property
    def node_decoded_cache_hit_rate(self) -> float:
        return self._hit_rate(self.node_decoded_cache)

    # -- observability rollups -------------------------------------------

    @property
    def observability(self) -> dict[str, object]:
        """Cluster-wide merged latency histograms, heat and span counts."""
        return self.aggregate["observability"]

    @property
    def latency(self) -> dict[str, object]:
        """Merged per-instrument latency histogram snapshots."""
        return self.observability["latency"]

    @property
    def heat(self) -> dict[str, object]:
        """Cluster-wide key-range heat counters (see ``shard_heat``)."""
        return self.observability["heat"]

    @property
    def shard_heat(self) -> list[dict[str, object]]:
        """Per-shard key-range heat -- the hot-shard-splitting signal."""
        return [s["observability"]["heat"] for s in self.per_shard]

    def hottest_shards(self) -> list[tuple[int, int]]:
        """``(shard_id, ops)`` pairs sorted busiest first (ties by id)."""
        ranked = sorted(
            ((heat["ops"], i) for i, heat in enumerate(self.shard_heat)),
            key=lambda pair: (-pair[0], pair[1]),
        )
        return [(i, ops) for ops, i in ranked]

    def summary(self) -> str:
        """One human-readable line per shard plus the rollup."""
        lines = []
        for i, s in enumerate(self.per_shard):
            node, cipher = s["node_disk"], s["pointer_cipher"]
            rcache = s["record_cache"]
            lines.append(
                f"shard {i}: {s['size']} keys, "
                f"{node['writes']} node writes, "
                f"{cipher['encryptions']}E/{cipher['decryptions']}D pointer ops, "
                f"record cache {self._hit_rate(rcache):.0%} "
                f"({rcache['hits']}/{rcache['hits'] + rcache['misses']})"
            )
        agg = self.aggregate  # one leaf-wise merge serves every line below
        lines.append(
            f"cluster ({self.router}, {self.num_shards} shards): "
            f"{self.total_size} keys, "
            f"{agg['node_disk']['writes']} node writes, "
            f"imbalance {self.imbalance:.2f}, "
            f"record cache {self._hit_rate(agg['record_cache']):.0%}, "
            f"decoded-node cache {self._hit_rate(agg['node_decoded_cache']):.0%}, "
            f"{agg['record_cipher']['decryptions']} record reads in "
            f"{agg['record_cipher']['des_blocks']} DES blocks"
        )
        if self.replica_sync is not None:
            sync = self.replica_sync
            lines.append(
                f"replica sync: {sync['delta_ships']} delta ships "
                f"({sync['delta_bytes']} B), {sync['full_ships']} full ships "
                f"({sync['full_bytes']} B)"
            )
        if self.health is not None:
            states = self.health["states"]
            worker = self.health["worker"]
            lines.append(
                f"health: {states['healthy']} healthy / "
                f"{states['degraded']} degraded / "
                f"{states['quarantined']} quarantined; "
                f"{worker['respawns']} respawns, "
                f"{worker['worker_deaths']} worker deaths, "
                f"{self.health['degraded_reads_served']} degraded reads"
            )
        heat = agg.get("observability", {}).get("heat")
        if heat and heat.get("ops"):
            busiest = self.hottest_shards()[0]
            lines.append(
                f"heat: {heat['ops']} ops over {heat['keys']} keys; "
                f"busiest shard {busiest[0]} ({busiest[1]} ops)"
            )
        return "\n".join(lines)
