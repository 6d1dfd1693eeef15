#!/usr/bin/env python3
"""A tour of the observability plane added in PR 7.

The enciphered database already counted *what* it does (cipher calls,
disk blocks, cache hits); the ``repro.obs`` subsystem adds *how long*
and *where*: latency histograms behind a near-zero-cost span tracer, a
slow-operation log, per-key-range and per-record-block heat tracking,
and heat persistence so a reopened store can pre-warm its hottest
blocks.  This example walks through all of it on one small store:

1. enable tracing (``ObsConfig(enabled=True)`` or ``REPRO_OBS_TRACE=1``)
   and run some traffic;
2. read ``stats()["observability"]`` and the human ``dump()`` table;
3. catch a deliberately slow operation in the slow-op log;
4. persist the heat map, reopen, and warm the hottest record blocks;
5. show the same merged picture from a sharded cluster.

Run:  PYTHONPATH=src python examples/observability_tour.py
"""

from __future__ import annotations

import random
import time

from repro.cluster.sharded import ShardedEncipheredDatabase
from repro.core.database import EncipheredDatabase
from repro.crypto.rsa import RSA, generate_rsa_keypair
from repro.designs.difference_sets import planar_difference_set
from repro.designs.multipliers import non_multiplier_units
from repro.obs import ObsConfig
from repro.storage.backend import MemoryBackend
from repro.substitution.oval import OvalSubstitution

DESIGN = planar_difference_set(23)  # v = 553
UNITS = non_multiplier_units(DESIGN)


def new_cipher(seed: int) -> RSA:
    return RSA(generate_rsa_keypair(bits=128, rng=random.Random(seed)))


def sub_factory(i: int) -> OvalSubstitution:
    return OvalSubstitution(DESIGN, t=UNITS[i * 3 % len(UNITS)])


def cipher_factory(i: int) -> RSA:
    return new_cipher(0x70 + i)


def main() -> None:
    # -- 1. a traced single database -----------------------------------
    backend = MemoryBackend()
    db = EncipheredDatabase.create(
        OvalSubstitution(DESIGN, t=5),
        new_cipher(42),
        backend=backend,
        observability=ObsConfig(enabled=True),
        record_cache_blocks=16,
    )
    keys = random.Random(7).sample(range(DESIGN.v), 120)
    for k in keys:
        db.insert(k, f"record #{k}".encode())
    hot = keys[:12]  # a skewed read pattern: some keys much hotter
    for _ in range(8):
        for k in hot:
            db.search(k)
    db.range_search(0, DESIGN.v // 4)

    # -- 2. the machine-readable and human-readable views --------------
    obs = db.stats()["observability"]
    get_lat = obs["latency"]["db.get"]
    print("== stats()['observability'] (excerpt) ==")
    print(f"  db.get        count={get_lat['count']:<5} "
          f"total={get_lat['total_ns'] / 1e6:.1f} ms")
    print(f"  heat          ops={obs['heat']['ops']} "
          f"keys touched={obs['heat']['keys']}")
    print(f"  spans traced  {obs['tracing']['spans']}")
    print()
    print("== dump() ==")
    print(db.obs.dump())
    print()

    # -- 3. the slow-op log catches outliers ----------------------------
    db.obs.tracer.slow_op_threshold_s = 0.005
    with db.obs.trace("example.deliberately_slow"):
        time.sleep(0.01)
    name, _, duration_ns, _ = db.obs.tracer.slow_ops()[-1]
    print(f"slow-op log caught: {name} ({duration_ns / 1e6:.1f} ms)")
    print()

    # -- 4. heat persists; warm() pre-decodes the hottest blocks --------
    hottest = db.obs.heat.hot_blocks(3)
    print(f"hottest record blocks this run: {hottest}")
    db.close()  # enabled + backend => heat map auto-saved (enciphered)

    reopened = EncipheredDatabase.reopen_from_backend(
        OvalSubstitution(DESIGN, t=5),
        new_cipher(42),
        backend,
        observability=ObsConfig(enabled=True),
        record_cache_blocks=16,
    )
    warmed = reopened.warm(levels=2, hot_record_blocks=3)
    stats = reopened.stats()["cache_warming"]
    print(f"after reopen: warmed {stats['nodes_warmed']} tree nodes and "
          f"{stats['record_blocks_warmed']} hot record blocks "
          f"({warmed} total) before serving any query")
    reopened.close()
    print()

    # -- 5. the same picture, merged across a sharded cluster ----------
    cluster = ShardedEncipheredDatabase.create(
        sub_factory,
        cipher_factory,
        num_shards=3,
        router="hash",
        observability=ObsConfig(enabled=True),
    )
    cluster.bulk_load([(k, f"rec{k}".encode()) for k in keys])
    cluster.range_search(0, DESIGN.v)
    for k in hot:
        cluster.search(k)
    cstats = cluster.stats()
    print("== cluster rollup (3 shards, serial executor) ==")
    print(f"  merged db.get count: {cstats.latency['db.get']['count']}")
    print(f"  merged heat: {cstats.heat['ops']} ops over "
          f"{cstats.heat['keys']} keys")
    for shard_id, ops in cstats.hottest_shards():
        print(f"    shard {shard_id}: {ops} ops")
    print(f"  summary: {cstats.summary().splitlines()[-1]}")
    cluster.close()


if __name__ == "__main__":
    main()
