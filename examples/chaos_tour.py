#!/usr/bin/env python3
"""A tour of the fault-tolerance plane added in PR 10.

The engine now assumes its devices and workers *will* misbehave, and
makes the misbehaviour reproducible: a seeded fault plan
(:class:`repro.faults.FaultPlan`) injects transient errors, torn
writes, latency and permanent failures at the block-device seam, a
capped-backoff :class:`repro.faults.RetryPolicy` heals what can be
healed, the process executor supervises its workers (heartbeats, op
deadlines, bounded respawn), and the cluster tracks per-shard health
(healthy -> degraded -> quarantined) so a dying shard degrades
gracefully instead of wedging the fleet.  This example walks through
all of it:

1. arm a transient-fault schedule on one database and watch the retry
   loop heal it byte-for-byte;
2. kill a worker process mid ``put_many`` offload and watch the parent
   rescue the batch and respawn the worker;
3. fail a shard's devices permanently and watch the cluster quarantine
   it, fail fast with the typed error, then serve explicit partial
   reads once ``degraded_reads=True`` opts in;
4. revive the shard and show full service restored.

Run:  PYTHONPATH=src python examples/chaos_tour.py
"""

from __future__ import annotations

import random

from repro.cluster.sharded import ShardedEncipheredDatabase
from repro.core.database import EncipheredDatabase
from repro.crypto.rsa import RSA, generate_rsa_keypair
from repro.designs.difference_sets import planar_difference_set
from repro.designs.multipliers import non_multiplier_units
from repro.exceptions import ShardUnavailableError
from repro.faults import FaultInjector, FaultPlan, RetryPolicy
from repro.storage.backend import MemoryBackend
from repro.substitution.oval import OvalSubstitution

DESIGN = planar_difference_set(13)  # v = 183
UNITS = non_multiplier_units(DESIGN)


def new_cipher(seed: int) -> RSA:
    return RSA(generate_rsa_keypair(bits=128, rng=random.Random(seed)))


def sub_factory(i: int) -> OvalSubstitution:
    return OvalSubstitution(DESIGN, t=UNITS[i * 5 % len(UNITS)])


def cipher_factory(i: int) -> RSA:
    return new_cipher(0xE0 + i)


def main() -> None:
    # -- 1. transient faults heal invisibly ------------------------------
    print("=== 1. seeded transient faults, healed by the retry loop ===")
    db = EncipheredDatabase.create(
        OvalSubstitution(DESIGN, t=5), new_cipher(42), backend=MemoryBackend(),
        block_size=512, min_degree=2,
    )
    # every 5th read and the 3rd write fail once; the policy retries.
    # the same spec string works from the environment: REPRO_FAULTS=...
    plan = FaultPlan.parse("seed=7 attempts=4 delay=0.0 read.transient*5 write.transient@3")
    db.disk.attach_faults(plan.injector("node"), plan.retry)
    keys = random.Random(1).sample(range(DESIGN.v), 24)
    for k in keys:
        db.insert(k, f"payload-{k}".encode())
    db.clear_caches()
    assert all(db.search(k) == f"payload-{k}".encode() for k in keys)
    snap = db.stats()["faults"]["node"]
    print(f"  injected transient faults : {snap['injected_transient']}")
    print(f"  retries that healed them  : {snap['retries']}")
    print(f"  operations lost           : 0 (by construction)")
    db.close()

    # -- 2. a worker dies mid-offload ------------------------------------
    print("\n=== 2. worker killed mid put_many offload ===")
    cluster = ShardedEncipheredDatabase.create(
        sub_factory, cipher_factory, num_shards=3, router="hash",
        block_size=512, min_degree=2, executor="processes",
    )
    cluster.put_many([(k, f"rec-{k}".encode()) for k in range(0, 120, 2)])
    cluster.range_search(0, DESIGN.v)  # spawn + ship every worker
    procs = cluster._process_pool()
    procs.inject_worker_fault(1, crash_after=1)  # next op: os._exit(17)
    cluster.put_many([(k, f"rec-{k}".encode()) for k in range(1, 121, 2)])
    stats = procs.sync_stats
    print(f"  worker deaths             : {stats['worker_deaths']}")
    print(f"  respawns                  : {stats['respawns']}")
    print(f"  rows after the crash      : {len(cluster)} (all {120} arrived)")
    health = cluster.stats().health
    print(f"  worker losses seen by health plane: "
          f"{health['per_shard'][1]['worker_losses']}")
    cluster.close()

    # -- 3. permanent shard loss -> quarantine -> partial reads ----------
    print("\n=== 3. permanent shard failure, graceful degradation ===")
    cluster = ShardedEncipheredDatabase.create(
        sub_factory, cipher_factory, num_shards=3, router="hash",
        block_size=512, min_degree=2, degraded_reads=True,
    )
    items = {k: f"rec-{k}".encode()
             for k in random.Random(2).sample(range(DESIGN.v), 40)}
    cluster.put_many(sorted(items.items()))
    dead = FaultPlan.parse("read.permanent@1 write.permanent@1")
    for device in (cluster.shards[0].disk, cluster.shards[0].records.disk):
        device.attach_faults(dead.injector(), RetryPolicy(max_attempts=2))
    cluster.clear_caches()
    victim_key = next(k for k in items if cluster.router.shard_for(k) == 0)
    try:
        cluster.search(victim_key)
    except ShardUnavailableError as exc:
        print(f"  typed failure             : {exc}")
    print(f"  shard 0 state             : {cluster.health.state(0)}")
    partial = cluster.range_search(0, DESIGN.v)
    print(f"  partial range_search      : {len(partial)} of {len(items)} rows, "
          f"complete={partial.complete}, missing shards={partial.missing_shards}")
    print("  " + cluster.stats().summary().splitlines()[-1].strip())

    # -- 4. operator revives the shard -----------------------------------
    print("\n=== 4. revive: device replaced, shard back in service ===")
    for device in (cluster.shards[0].disk, cluster.shards[0].records.disk):
        device.attach_faults(None)  # "replace" the device
    cluster.health.revive(0)
    full = cluster.range_search(0, DESIGN.v)
    print(f"  full range_search         : {len(full)} rows, "
          f"partial={isinstance(full, type(partial))}")
    assert len(full) == len(items)
    cluster.close()


if __name__ == "__main__":
    main()
