"""C14 -- write offload: batched mutations executed on the process pool.

Before this PR, every mutation ran parent-side; the process executor
only *read* in parallel, then re-shipped deltas to catch replicas up.
This experiment measures the complement: ``put_many``/``delete_many``
batches whose per-shard slices execute inside the owning worker (cipher
work and tree reorganisation on the worker's interpreter), with only the
resulting :class:`~repro.storage.journal.ShardDelta` shipped back for a
parent-side apply.

1. **Parity.**  The same deterministic batch workload on the ``serial``
   and ``processes`` executors must end byte-identical --
   every shard's node and record platters compared raw -- with identical
   query results and identical cluster-wide cipher-operation totals
   (offloading moves the work, it must not change the work).
2. **Critical path.**  Each batch's per-shard slices timed separately on
   a serial probe: the sum of per-batch *maxima* is what one core per
   shard can reach.  The acceptance bar: >= 1.5x shorter than the
   parent-side total at 4 shards (``C14_FLOOR``).  Wall clock is
   reported for every arm and asserted only on hosts with >= 4 CPUs
   (``C14_WALL_FLOOR``), because a single-core container cannot beat
   serial and the numbers should say so rather than pretend.
3. **Offload accounting.**  ``sync_stats()`` must show the batches
   actually offloaded, the delta bytes shipped back, and the id-index
   bytes the contiguous-run encoding saved.

``C14_N``, ``C14_BATCHES`` and ``C14_BATCH`` (env vars) shrink the
workload for CI smoke runs.
"""

from __future__ import annotations

import os
import random
import time

from repro.cluster.sharded import ShardedEncipheredDatabase
from repro.crypto.rsa import RSA, generate_rsa_keypair
from repro.designs.difference_sets import planar_difference_set
from repro.designs.multipliers import non_multiplier_units
from repro.substitution.oval import OvalSubstitution

DESIGN = planar_difference_set(37)  # v = 1407
UNITS = non_multiplier_units(DESIGN)

NUM_KEYS = int(os.environ.get("C14_N", "600"))
NUM_BATCHES = int(os.environ.get("C14_BATCHES", "6"))
BATCH = int(os.environ.get("C14_BATCH", "96"))
FLOOR = float(os.environ.get("C14_FLOOR", "1.5"))
WALL_FLOOR = float(os.environ.get("C14_WALL_FLOOR", "1.2"))
NUM_SHARDS = 4
ARMS = ("serial", "processes")


def _sub_factory(shard: int) -> OvalSubstitution:
    return OvalSubstitution(DESIGN, t=UNITS[shard * 7 % len(UNITS)])


def _cipher_factory(shard: int) -> RSA:
    return RSA(generate_rsa_keypair(bits=128, rng=random.Random(0xC140 + shard)))


def _new_cluster(executor: str) -> ShardedEncipheredDatabase:
    return ShardedEncipheredDatabase.create(
        _sub_factory,
        _cipher_factory,
        num_shards=NUM_SHARDS,
        router="hash",  # batches spread across every shard
        block_size=512,
        min_degree=4,
        cache_blocks=64,
        executor=executor,
    )


def _workload():
    """Deterministic base load, put batches and delete batches."""
    rng = random.Random(0xC14)
    keys = rng.sample(range(DESIGN.v), NUM_KEYS + NUM_BATCHES * BATCH)
    base = [(k, f"rec{k}".encode()) for k in keys[:NUM_KEYS]]
    fresh = keys[NUM_KEYS:]
    puts = [
        [(k, f"new{k}".encode()) for k in fresh[i * BATCH : (i + 1) * BATCH]]
        for i in range(NUM_BATCHES)
    ]
    # delete half of each inserted batch, as batches
    deletes = [[k for k, _ in batch[::2]] for batch in puts]
    return base, puts, deletes


def _cipher_totals(cluster) -> tuple:
    agg = cluster.stats().aggregate
    return (agg["substitution"], agg["pointer_cipher"], agg["record_cipher"])


def _run_arm(executor: str, base, puts, deletes):
    """One arm: returns (wall_s, results, cipher_totals, platters, stats)."""
    cluster = _new_cluster(executor)
    try:
        cluster.bulk_load(base)
        cluster.range_search(0, 40)  # warm pools, ship worker specs
        start = time.perf_counter()
        for batch in puts:
            cluster.put_many(batch)
        for batch in deletes:
            cluster.delete_many(batch)
        wall = time.perf_counter() - start
        results = cluster.range_search(0, DESIGN.v)
        totals = _cipher_totals(cluster)
        platters = [
            (s.disk.raw_blocks(), s.records.disk.raw_blocks())
            for s in cluster.shards
        ]
        sync = cluster.sync_stats()
        return wall, results, totals, platters, dict(sync) if sync else None
    finally:
        cluster.close()


def _critical_path(base, puts, deletes):
    """Per-shard slice times on a serial probe cluster.

    Returns ``(parent_total_s, critical_s)``: the parent-side cost is
    the *sum* of every slice, the offloaded cost is bounded below by the
    slowest slice of each batch (one core per shard runs the rest
    concurrently).
    """
    cluster = _new_cluster("serial")
    parent_total = critical = 0.0
    try:
        cluster.bulk_load(base)
        cluster.range_search(0, 40)
        for op, batches in (("put", puts), ("delete", deletes)):
            for batch in batches:
                if op == "put":
                    parts = cluster.router.partition(batch, key=lambda kv: kv[0])
                else:
                    parts = cluster.router.partition(batch, key=lambda k: k)
                slice_times = []
                for i, part in enumerate(parts):
                    if not part:
                        continue
                    start = time.perf_counter()
                    if op == "put":
                        cluster.shards[i].put_many(part)
                    else:
                        cluster.shards[i].delete_many(part)
                    slice_times.append(time.perf_counter() - start)
                parent_total += sum(slice_times)
                critical += max(slice_times)
    finally:
        cluster.close()
    return parent_total, critical


def test_c14_write_offload(benchmark, reporter):
    base, puts, deletes = _workload()

    runs = benchmark.pedantic(
        lambda: {arm: _run_arm(arm, base, puts, deletes) for arm in ARMS},
        rounds=1, iterations=1,
    )
    wall = {arm: runs[arm][0] for arm in ARMS}

    # -- parity ----------------------------------------------------------
    assert runs["processes"][1] == runs["serial"][1], "results differ"
    assert runs["processes"][2] == runs["serial"][2], (
        "processes did different cipher work than serial"
    )
    assert runs["processes"][3] == runs["serial"][3], (
        "process platters are not byte-identical to serial"
    )

    # -- offload accounting ---------------------------------------------
    sync = runs["processes"][4]
    batches_run = len(puts) + len(deletes)
    assert sync is not None
    assert sync["offloaded_batches"] >= batches_run, (
        f"only {sync['offloaded_batches']} shard-slices offloaded across "
        f"{batches_run} batches: the process arm fell back to parent-side"
    )
    assert sync["offload_bytes"] > 0 and sync["offload_blocks"] > 0

    # -- critical path ---------------------------------------------------
    parent_total, critical = _critical_path(base, puts, deletes)
    speedup_critical = parent_total / critical
    cpus = os.cpu_count() or 1
    assert speedup_critical >= FLOOR, (
        f"offloading shortens the write critical path only "
        f"{speedup_critical:.2f}x at {NUM_SHARDS} shards (floor {FLOOR}x)"
    )
    if cpus >= 4:
        wall_speedup = wall["serial"] / wall["processes"]
        assert wall_speedup >= WALL_FLOOR, (
            f"process offload only {wall_speedup:.2f}x serial wall-clock "
            f"on a {cpus}-CPU host"
        )

    reporter.table(
        f"{len(puts)} put_many + {len(deletes)} delete_many batches of "
        f"<= {BATCH} keys over {NUM_KEYS} base keys, {NUM_SHARDS} "
        f"hash-routed shards, {cpus} CPU(s); results, platter bytes and "
        "cipher totals identical across executors",
        ["arm", "batch wall-clock", "vs serial"],
        [
            [arm, f"{wall[arm] * 1e3:,.1f} ms",
             f"{wall['serial'] / wall[arm]:,.2f}x"]
            for arm in ARMS
        ] + [
            ["critical path (1 core/shard)", f"{critical * 1e3:,.1f} ms",
             f"{parent_total / critical:,.2f}x"],
        ],
    )
    reporter.table(
        "offload accounting (process arm)",
        ["metric", "value"],
        [
            ["shard-slices offloaded", sync["offloaded_batches"]],
            ["delta bytes shipped back", f"{sync['offload_bytes']:,}"],
            ["blocks shipped back", sync["offload_blocks"]],
            ["id-index bytes saved by run encoding",
             f"{sync['delta_run_bytes_saved']:,}"],
            ["full ships", sync["full_ships"]],
            ["delta ships (read-path catch-ups)", sync["delta_ships"]],
        ],
    )

    reporter.metrics({
        "cpus": cpus,
        "num_shards": NUM_SHARDS,
        "base_keys": NUM_KEYS,
        "batches": batches_run,
        "batch_size": BATCH,
        "wall_clock_s": wall,
        "parent_total_s": parent_total,
        "critical_path_s": critical,
        "speedup_critical_path": speedup_critical,
        "parity": {
            "results_identical": True,
            "platters_byte_identical": True,
            "cipher_totals_identical": True,
        },
        "offload_sync_stats": sync,
    })
