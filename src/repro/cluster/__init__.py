"""Horizontal partitioning of enciphered databases (``repro.cluster``).

The paper's enciphered B-Tree is a single-file, single-threaded
structure.  This package scales it out the classical way -- N shards,
each a private :class:`~repro.core.database.EncipheredDatabase` -- with a
security bonus specific to enciphered storage: every shard carries its
own substitution secret and independently derived superblock/data keys,
so one compromised shard opens one shard, and an opponent dumping all
platters cannot correlate block frequencies across shards.

* :mod:`repro.cluster.router` -- hash and range key-to-shard routing;
* :mod:`repro.cluster.manifest` -- the enciphered, self-describing
  cluster manifest (shard count, router, key-derivation labels, shard
  scope names) a durable backend stores beside its platters;
* :mod:`repro.cluster.sharded` -- the
  :class:`~repro.cluster.sharded.ShardedEncipheredDatabase` engine
  (serial or process fan-out, per-shard key derivation,
  cross-shard transactions);
* :mod:`repro.cluster.executor` -- the process-pool backend: picklable
  shard specs, one worker process per shard, merged counter rollups;
* :mod:`repro.cluster.stats` -- per-shard and aggregated counter rollups.

Benchmark C8 (``benchmarks/bench_c8_sharding.py``) measures the
cluster's write amplification, range-query speedup and cross-shard block
indistinguishability; C10 (``benchmarks/bench_c10_crypto_throughput.py``)
measures cipher-kernel throughput and the executor backends' wall-clock.
"""

from repro.cluster.executor import ProcessShardExecutor, ShardSpec
from repro.cluster.manifest import ClusterManifest
from repro.cluster.router import HashRouter, RangeRouter, ShardRouter
from repro.cluster.sharded import ShardedEncipheredDatabase, derive_shard_key
from repro.cluster.stats import (
    ClusterStats,
    merge_counter_dicts,
    subtract_counter_dicts,
)

__all__ = [
    "ClusterManifest",
    "ClusterStats",
    "HashRouter",
    "ProcessShardExecutor",
    "RangeRouter",
    "ShardRouter",
    "ShardSpec",
    "ShardedEncipheredDatabase",
    "derive_shard_key",
    "merge_counter_dicts",
    "subtract_counter_dicts",
]
