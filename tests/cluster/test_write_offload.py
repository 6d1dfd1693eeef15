"""Worker-side batched mutations: parity, staleness, failure semantics.

The offload contract: routing a ``put_many``/``delete_many`` slice into
the owning process worker must be *observationally invisible* -- the
parent's platters end byte-identical to the parent-side path, query
results and cluster cipher totals match exactly, per-shard atomicity is
preserved -- while the accounting (``sync_stats()``) shows the batch
actually executed worker-side and the read path needed no catch-up
ships afterwards.
"""

from __future__ import annotations

import random

import pytest

from repro.cluster.sharded import ShardedEncipheredDatabase
from repro.crypto.rsa import RSA, generate_rsa_keypair
from repro.designs.difference_sets import planar_difference_set
from repro.designs.multipliers import non_multiplier_units
from repro.exceptions import DuplicateKeyError, KeyNotFoundError
from repro.substitution.oval import OvalSubstitution

DESIGN = planar_difference_set(13)  # v = 183
UNITS = non_multiplier_units(DESIGN)
NUM_SHARDS = 4


def sub_factory(i: int) -> OvalSubstitution:
    return OvalSubstitution(DESIGN, t=UNITS[i * 5 % len(UNITS)])


def cipher_factory(i: int) -> RSA:
    return RSA(generate_rsa_keypair(bits=128, rng=random.Random(0xF0 + i)))


def make_cluster(executor: str, **kwargs) -> ShardedEncipheredDatabase:
    return ShardedEncipheredDatabase.create(
        sub_factory,
        cipher_factory,
        num_shards=NUM_SHARDS,
        block_size=512,
        min_degree=2,
        executor=executor,
        **kwargs,
    )


def seed_keys(count: int, seed: int = 0xF01) -> dict[int, bytes]:
    keys = random.Random(seed).sample(range(DESIGN.v), count)
    return {k: f"rec{k}".encode() for k in keys}


def platter_bytes(cluster) -> list:
    return [
        (s.disk.raw_blocks(), s.records.disk.raw_blocks())
        for s in cluster.shards
    ]


def cipher_totals(cluster) -> tuple:
    agg = cluster.stats().aggregate
    return (agg["substitution"], agg["pointer_cipher"], agg["record_cipher"])


def run_batches(cluster, records):
    absent = [k for k in range(DESIGN.v) if k not in records]
    cluster.bulk_load(records.items())
    cluster.range_search(0, DESIGN.v)  # processes: ship worker specs
    cluster.put_many([(k, f"b{k}".encode()) for k in absent[:24]])
    cluster.put_many([(k, f"c{k}".encode()) for k in absent[24:40]])
    cluster.delete_many(absent[:10])
    cluster.delete_many(sorted(records)[:8])
    return cluster.range_search(0, DESIGN.v)


class TestOffloadParity:
    def test_offloaded_batches_end_byte_identical_to_serial(self):
        records = seed_keys(40)
        control = make_cluster("serial")
        offloaded = make_cluster("processes")
        try:
            control_result = run_batches(control, records)
            offload_result = run_batches(offloaded, records)
            assert offload_result == control_result
            assert platter_bytes(offloaded) == platter_bytes(control), (
                "worker-side execution left different bytes at rest"
            )
            assert cipher_totals(offloaded) == cipher_totals(control), (
                "offloading changed the amount of cipher work"
            )
            sync = offloaded.sync_stats()
            assert sync["offloaded_batches"] > 0, "nothing was offloaded"
            assert sync["offload_bytes"] > 0
            assert sync["offload_blocks"] > 0
            offloaded.check_invariants()
        finally:
            control.close()
            offloaded.close()

    def test_offload_leaves_replicas_current(self):
        """After an offloaded batch the read path ships nothing: the
        workers executed the mutation, so they already hold its result."""
        records = seed_keys(40)
        cluster = make_cluster("processes")
        try:
            run_batches(cluster, records)
            sync = dict(cluster.sync_stats())
            cluster.range_search(0, DESIGN.v)
            after = cluster.sync_stats()
            assert after["delta_ships"] == sync["delta_ships"]
            assert after["full_ships"] == sync["full_ships"]
        finally:
            cluster.close()

    def test_consecutive_offloads_stay_offloaded(self):
        """The parent-side apply must leave every shard committed and
        sealed, or the second batch would silently fall back."""
        records = seed_keys(30)
        absent = [k for k in range(DESIGN.v) if k not in records]
        cluster = make_cluster("processes")
        try:
            cluster.bulk_load(records.items())
            cluster.range_search(0, DESIGN.v)
            for start in range(0, 30, 6):
                cluster.put_many(
                    [(k, b"wave") for k in absent[start : start + 6]]
                )
            sync = cluster.sync_stats()
            bumps = 5 * NUM_SHARDS  # upper bound: every batch hit all shards
            assert 5 <= sync["offloaded_batches"] <= bumps
            data = dict(cluster.range_search(0, DESIGN.v))
            for k in absent[:30]:
                assert data[k] == b"wave"
        finally:
            cluster.close()

    def test_single_key_ops_interleave_with_offloads(self):
        records = seed_keys(30)
        absent = [k for k in range(DESIGN.v) if k not in records]
        cluster = make_cluster("processes")
        control = make_cluster("serial")
        try:
            for db in (cluster, control):
                db.bulk_load(records.items())
                db.range_search(0, DESIGN.v)
                db.put_many([(k, b"x") for k in absent[:12]])
                db.insert(absent[12], b"solo")
                db.delete(absent[0])
                db.put_many([(k, b"y") for k in absent[13:20]])
            assert cluster.range_search(0, DESIGN.v) == control.range_search(
                0, DESIGN.v
            )
            assert platter_bytes(cluster) == platter_bytes(control)
        finally:
            cluster.close()
            control.close()


class TestOffloadFailureSemantics:
    def test_failing_slice_rolls_back_only_its_shard(self):
        records = seed_keys(30)
        cluster = make_cluster("processes")
        try:
            cluster.bulk_load(records.items())
            cluster.range_search(0, DESIGN.v)
            present = sorted(records)
            absent = [k for k in range(DESIGN.v) if k not in records]
            dup = present[0]
            batch = [(k, b"n") for k in absent[:12]] + [(dup, b"dup")]
            with pytest.raises(DuplicateKeyError):
                cluster.put_many(batch)
            data = dict(cluster.range_search(0, DESIGN.v))
            assert data[dup] == records[dup]  # original value intact
            bad_shard = cluster.router.shard_for(dup)
            for k, _ in batch[:-1]:
                if cluster.router.shard_for(k) == bad_shard:
                    assert k not in data  # rolled back with its slice
                else:
                    assert data[k] == b"n"  # sibling slices committed
            cluster.check_invariants()
        finally:
            cluster.close()

    def test_missing_key_in_delete_batch(self):
        records = seed_keys(30)
        cluster = make_cluster("processes")
        try:
            cluster.bulk_load(records.items())
            cluster.range_search(0, DESIGN.v)
            absent = [k for k in range(DESIGN.v) if k not in records]
            with pytest.raises(KeyNotFoundError):
                cluster.delete_many(sorted(records)[:6] + [absent[0]])
            cluster.check_invariants()
            # the cluster keeps serving, offload included
            more = [(k, b"after") for k in absent[1:9]]
            cluster.put_many(more)
            data = dict(cluster.range_search(0, DESIGN.v))
            for k, v in more:
                assert data[k] == v
        finally:
            cluster.close()

    def test_failed_shard_recovers_for_the_next_offload(self):
        # on a partial failure both the serial fan-out and the offload
        # path drain every slice and roll back only the failing shard --
        # the documented per-shard contract
        records = seed_keys(30)
        cluster = make_cluster("processes")
        control = make_cluster("serial")
        try:
            present = sorted(records)
            absent = [k for k in range(DESIGN.v) if k not in records]
            dup = present[0]
            batch = [(k, b"n") for k in absent[:12]] + [(dup, b"dup")]
            for db in (cluster, control):
                db.bulk_load(records.items())
                db.range_search(0, DESIGN.v)
                with pytest.raises(DuplicateKeyError):
                    db.put_many(batch)
                db.put_many([(k, b"retry") for k in absent[12:24]])
            assert cluster.range_search(0, DESIGN.v) == control.range_search(
                0, DESIGN.v
            )
            # byte parity holds for every *successful* slice; the failed
            # shard's platters legitimately differ -- the control rolled
            # back parent-side (churning freed record slots), while the
            # offloaded failure never touched the parent platter at all
            bad_shard = cluster.router.shard_for(dup)
            for i, (mine, theirs) in enumerate(
                zip(platter_bytes(cluster), platter_bytes(control))
            ):
                if i != bad_shard:
                    assert mine == theirs, f"shard {i} bytes diverged"
            cluster.check_invariants()
        finally:
            cluster.close()
            control.close()


class TestOffloadGating:
    def test_single_shard_work_stays_on_parent(self):
        cluster = make_cluster("processes")
        try:
            assert cluster._use_processes([0, 1]) is True
            assert cluster._use_processes([0]) is False
        finally:
            cluster.close()

    def test_transactions_never_offload(self):
        records = seed_keys(30)
        absent = [k for k in range(DESIGN.v) if k not in records]
        cluster = make_cluster("processes")
        try:
            cluster.bulk_load(records.items())
            cluster.range_search(0, DESIGN.v)
            base = cluster.sync_stats()["offloaded_batches"]
            with cluster.transaction():
                cluster.put_many([(k, b"txn") for k in absent[:12]])
            assert cluster.sync_stats()["offloaded_batches"] == base, (
                "a transactional batch escaped to a worker (workers "
                "commit their replica: rollback would be impossible)"
            )
            data = dict(cluster.range_search(0, DESIGN.v))
            for k in absent[:12]:
                assert data[k] == b"txn"
        finally:
            cluster.close()

    def test_serial_executor_never_offloads(self):
        records = seed_keys(30)
        absent = [k for k in range(DESIGN.v) if k not in records]
        cluster = make_cluster("serial")
        try:
            cluster.bulk_load(records.items())
            cluster.put_many([(k, b"t") for k in absent[:12]])
            assert cluster.sync_stats() is None  # no process pool exists
        finally:
            cluster.close()
