"""Incremental replica sync: delta ships, fallbacks, epoch hygiene.

The contract extends PR 4's executor parity: for identical workloads
backend -- serial and processes with delta sync -- must return
byte-identical results and report identical cipher totals, while the
delta path ships strictly fewer bytes per parent-side write than a full
re-ship of the shard's spec would.  Failure modes (worker crash mid-protocol,
journal history truncated past the replica's epoch) must degrade to the
full ship, never to wrong answers.
"""

from __future__ import annotations

import random

import pytest

from repro.cluster.executor import spec_from_shard
from repro.cluster.sharded import ShardedEncipheredDatabase
from repro.crypto.rsa import RSA, generate_rsa_keypair
from repro.designs.difference_sets import planar_difference_set
from repro.designs.multipliers import non_multiplier_units
from repro.exceptions import KeyNotFoundError
from repro.substitution.oval import OvalSubstitution
from repro.workloads.generators import mixed_operations

DESIGN = planar_difference_set(13)  # v = 183
UNITS = non_multiplier_units(DESIGN)
NUM_SHARDS = 4


def sub_factory(i: int) -> OvalSubstitution:
    return OvalSubstitution(DESIGN, t=UNITS[i * 5 % len(UNITS)])


def cipher_factory(i: int) -> RSA:
    return RSA(generate_rsa_keypair(bits=128, rng=random.Random(0xD5 + i)))


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


ARMS = ("serial", "processes")


def seed_keys(count: int, seed: int = 0xD51) -> dict[int, bytes]:
    keys = random.Random(seed).sample(range(DESIGN.v), count)
    return {k: f"rec{k}".encode() for k in keys}


class TestMixedWorkloadParity:
    """Property-style: replay one deterministic mixed op stream through
    every arm and require byte-identical answers and cipher totals."""

    def _replay(self, cluster, ops):
        transcript = []
        for op in ops:
            if op[0] == "range":
                transcript.append(cluster.range_search(op[1], op[2]))
            elif op[0] == "put":
                cluster.insert(op[1], op[2])
            else:
                cluster.delete(op[1])
        transcript.append(cluster.range_search(0, DESIGN.v))
        return transcript

    def test_all_arms_agree_on_a_mixed_stream(self):
        records = seed_keys(50)
        ops = mixed_operations(
            range(DESIGN.v), sorted(records), count=40, read_fraction=0.6,
            seed=0xD52,
        )
        transcripts, totals = {}, {}
        for name in ARMS:
            cluster = make_cluster(name)
            try:
                cluster.bulk_load(records.items())
                transcripts[name] = self._replay(cluster, ops)
                agg = cluster.stats().aggregate
                totals[name] = (
                    agg["pointer_cipher"], agg["record_cipher"], agg["size"]
                )
            finally:
                cluster.close()
        for name in ARMS:
            assert transcripts[name] == transcripts["serial"], name
            assert totals[name] == totals["serial"], name

    def test_delta_arm_actually_ships_deltas(self):
        records = seed_keys(40)
        absent = [k for k in range(DESIGN.v) if k not in records]
        cluster = make_cluster("processes")
        try:
            cluster.bulk_load(records.items())
            cluster.range_search(0, DESIGN.v)
            # drop the bulk-load-era accounting; measure mutations only
            cluster._procs.sync_stats.update(
                dict.fromkeys(cluster._procs.sync_stats, 0)
            )
            full_bytes = 0  # what re-shipping each touched shard would move
            for k in absent[:5]:
                cluster.insert(k, b"w")
                i = cluster.router.shard_for(k)
                full_bytes += spec_from_shard(
                    cluster.shards[i], i, sub_factory, cipher_factory
                ).payload_bytes
                cluster.range_search(0, DESIGN.v)
            d = cluster.sync_stats()
            assert d["full_ships"] == 0 and d["delta_ships"] == 5
            assert d["delta_bytes"] < full_bytes, (
                "the incremental protocol shipped no fewer bytes than "
                "full re-ships"
            )
        finally:
            cluster.close()

    def test_stats_surface_replica_sync(self):
        records = seed_keys(30)
        cluster = make_cluster("processes")
        try:
            cluster.bulk_load(records.items())
            cluster.range_search(0, DESIGN.v)
            stats = cluster.stats()
            assert stats.replica_sync is not None
            assert stats.replica_sync == cluster.sync_stats()
            assert "replica sync:" in stats.summary()
            # non-process arms report no sync accounting
            serial = make_cluster("serial")
            try:
                assert serial.stats().replica_sync is None
            finally:
                serial.close()
        finally:
            cluster.close()


class TestFallbacks:
    def test_worker_crash_falls_back_to_full_ship(self):
        """Kill a worker between syncs: the respawned replica must be
        rebuilt by a full ship, and answers must stay correct."""
        records = seed_keys(40)
        absent = [k for k in range(DESIGN.v) if k not in records]
        control = make_cluster("serial")
        cluster = make_cluster("processes")
        try:
            for c in (control, cluster):
                c.bulk_load(records.items())
            cluster.range_search(0, DESIGN.v)  # workers live, synced

            victim = cluster._procs._procs[0]
            victim.terminate()
            victim.join(timeout=5)

            for c in (control, cluster):
                c.insert(absent[0], b"fresh")  # stale epochs everywhere
            full_before = cluster._procs.sync_stats["full_ships"]
            assert cluster.range_search(0, DESIGN.v) == control.range_search(
                0, DESIGN.v
            )
            assert cluster._procs.sync_stats["full_ships"] > full_before
            # cipher totals still exact: the crashed replica's unsent
            # counters died with it, but the re-run work is counted once
            agg = cluster.stats().aggregate
            expected = control.stats().aggregate
            assert agg["size"] == expected["size"]
        finally:
            control.close()
            cluster.close()

    def test_truncated_journal_falls_back_to_full_ship(self):
        """More unsynced epochs than the journals retain: the worker is
        past the floor and must get a full ship, not a wrong delta."""
        records = seed_keys(30)
        absent = [k for k in range(DESIGN.v) if k not in records]
        control = make_cluster("serial")
        cluster = make_cluster("processes")
        try:
            for c in (control, cluster):
                c.bulk_load(records.items())
            cluster.range_search(0, DESIGN.v)  # replicas synced
            retention = cluster.shards[0].disk.journal.max_epochs
            # hammer ONE key so one shard's epoch counter races past its
            # journal retention with no sync in between (epochs are per
            # shard: spreading writes would never overflow any journal)
            key = absent[0]
            for c in (control, cluster):
                c.insert(key, b"v0")
            for round_no in range(retention // 2 + 8):
                for c in (control, cluster):
                    c.delete(key)
                    c.insert(key, f"v{round_no}".encode())
            full_before = cluster._procs.sync_stats["full_ships"]
            assert cluster.range_search(0, DESIGN.v) == control.range_search(
                0, DESIGN.v
            )
            assert cluster._procs.sync_stats["full_ships"] > full_before
        finally:
            control.close()
            cluster.close()


class TestEpochHygiene:
    """Satellite regression: rolled-back and no-op transactions must not
    force replica re-ships."""

    def test_rolled_back_transaction_keeps_epochs(self):
        records = seed_keys(30)
        cluster = make_cluster("processes")
        try:
            cluster.bulk_load(records.items())
            cluster.range_search(0, DESIGN.v)
            epochs = list(cluster._shard_epochs)
            sent = list(cluster._procs.epochs_sent)
            with pytest.raises(RuntimeError):
                with cluster.transaction():
                    cluster.range_search(0, DESIGN.v)  # reads only
                    raise RuntimeError("abort")
            assert cluster._shard_epochs == epochs
            cluster.range_search(0, DESIGN.v)
            assert cluster._procs.epochs_sent == sent  # nothing re-shipped
        finally:
            cluster.close()

    def test_no_op_transaction_keeps_epochs(self):
        records = seed_keys(30)
        cluster = make_cluster("processes")
        try:
            cluster.bulk_load(records.items())
            cluster.range_search(0, DESIGN.v)
            epochs = list(cluster._shard_epochs)
            sent = list(cluster._procs.epochs_sent)
            with cluster.transaction():
                pass  # commits, but rewrites identical superblock bytes
            assert cluster._shard_epochs == epochs
            cluster.range_search(0, DESIGN.v)
            assert cluster._procs.epochs_sent == sent
        finally:
            cluster.close()

    def test_mutating_transaction_bumps_only_touched_shards(self):
        records = seed_keys(30)
        absent = [k for k in range(DESIGN.v) if k not in records]
        cluster = make_cluster("processes")
        try:
            cluster.bulk_load(records.items())
            cluster.range_search(0, DESIGN.v)
            epochs = list(cluster._shard_epochs)
            key = absent[0]
            with cluster.transaction():
                cluster.insert(key, b"txn")
            touched = cluster.router.shard_for(key)
            bumped = [
                i for i in range(NUM_SHARDS)
                if cluster._shard_epochs[i] > epochs[i]
            ]
            assert touched in bumped
            assert len(bumped) < NUM_SHARDS, (
                "a single-shard transaction re-shipped every replica"
            )
            assert dict(cluster.range_search(0, DESIGN.v))[key] == b"txn"
        finally:
            cluster.close()

    def test_rolled_back_batched_writes_keep_epochs(self):
        """Regression: put_many inside a rolled-back cluster transaction
        must not seal mid-transaction state under an epoch -- the scope
        rolled back, so no replica may re-ship."""
        records = seed_keys(30)
        absent = [k for k in range(DESIGN.v) if k not in records]
        cluster = make_cluster("processes")
        try:
            cluster.bulk_load(records.items())
            baseline = cluster.range_search(0, DESIGN.v)
            epochs = list(cluster._shard_epochs)
            sent = list(cluster._procs.epochs_sent)
            with pytest.raises(RuntimeError):
                with cluster.transaction():
                    cluster.put_many([(k, b"doomed") for k in absent[:12]])
                    raise RuntimeError("abort")
            assert cluster._shard_epochs == epochs
            assert cluster.range_search(0, DESIGN.v) == baseline
            assert cluster._procs.epochs_sent == sent  # nothing re-shipped
        finally:
            cluster.close()

    def test_no_op_commit_keeps_epochs(self):
        records = seed_keys(20)
        cluster = make_cluster("processes")
        try:
            cluster.bulk_load(records.items())
            cluster.range_search(0, DESIGN.v)
            epochs = list(cluster._shard_epochs)
            cluster.commit()
            assert cluster._shard_epochs == epochs
        finally:
            cluster.close()


class TestBatchedClusterMutations:
    def test_put_many_agrees_across_arms(self):
        records = seed_keys(30)
        absent = [k for k in range(DESIGN.v) if k not in records]
        batch = [(k, f"b{k}".encode()) for k in absent[:20]]
        doomed = sorted(records)[:8]
        results, totals = {}, {}
        for name in ARMS:
            cluster = make_cluster(name)
            try:
                cluster.bulk_load(records.items())
                cluster.put_many(batch)
                cluster.delete_many(doomed)
                results[name] = cluster.range_search(0, DESIGN.v)
                agg = cluster.stats().aggregate
                totals[name] = (agg["pointer_cipher"], agg["record_cipher"])
            finally:
                cluster.close()
        for name in ARMS:
            assert results[name] == results["serial"], name
            assert totals[name] == totals["serial"], name

    def test_burst_costs_one_epoch_and_one_delta_per_shard(self):
        records = seed_keys(30)
        absent = [k for k in range(DESIGN.v) if k not in records]
        cluster = make_cluster("processes")
        try:
            cluster.bulk_load(records.items())
            cluster.range_search(0, DESIGN.v)
            epochs = list(cluster._shard_epochs)
            ships = cluster._procs.sync_stats["delta_ships"]
            cluster.put_many([(k, b"burst") for k in absent[:24]])
            per_shard_bumps = [
                cluster._shard_epochs[i] - epochs[i] for i in range(NUM_SHARDS)
            ]
            assert all(b <= 1 for b in per_shard_bumps), (
                "a batched burst bumped a shard's epoch per key, not per batch"
            )
            # the burst itself was offloaded: it *executed* worker-side,
            # so every worker already holds the post-burst state and the
            # follow-up fan-out ships nothing at all
            assert cluster.sync_stats()["offloaded_batches"] == sum(
                per_shard_bumps
            )
            cluster.range_search(0, DESIGN.v)
            new_ships = cluster._procs.sync_stats["delta_ships"] - ships
            assert new_ships == 0
        finally:
            cluster.close()

    def test_put_many_partial_failure_is_per_shard(self):
        records = seed_keys(24)
        cluster = make_cluster("serial")
        try:
            cluster.bulk_load(records.items())
            present = sorted(records)
            absent = [k for k in range(DESIGN.v) if k not in records]
            # one slice carries a duplicate: its shard rolls back whole
            dup = present[0]
            batch = [(k, b"n") for k in absent[:12]] + [(dup, b"dup")]
            with pytest.raises(Exception):
                cluster.put_many(batch)
            data = dict(cluster.range_search(0, DESIGN.v))
            assert data[dup] == records[dup]  # original value intact
            bad_shard = cluster.router.shard_for(dup)
            for k, _ in batch[:-1]:
                if cluster.router.shard_for(k) == bad_shard:
                    assert k not in data  # rolled back with its slice
            cluster.check_invariants()
        finally:
            cluster.close()

    def test_failing_slice_does_not_strand_a_slow_sibling_shard(self):
        """Regression: when one shard's slice fails fast, the fan-out
        must wait for still-running sibling slices before the journals
        are sealed -- sealing mid-transaction would strand the sibling's
        committed bytes in the open set, and worker replicas would serve
        the pre-batch state forever (or a corrupt delta)."""
        import time

        from repro.core.database import EncipheredDatabase

        records = seed_keys(30)
        cluster = make_cluster("processes")
        try:
            cluster.bulk_load(records.items())
            cluster.range_search(0, DESIGN.v)  # replicas live and synced
            absent = [k for k in range(DESIGN.v) if k not in records]
            shard_of = cluster.router.shard_for
            slices: dict[int, list[int]] = {}
            for k in absent[:16]:
                slices.setdefault(shard_of(k), []).append(k)
            # the duplicate must land on a shard that is *iterated before*
            # the slow one: the old map()-based fan-out re-raised results
            # in shard order, so only then did the failure surface while
            # the slow slice was still mid-transaction
            dup = next(
                k for k in sorted(records)
                if any(s > shard_of(k) for s in slices)
            )
            slow_index = max(s for s in slices if s > shard_of(dup))
            slow_shard = cluster.shards[slow_index]
            batch = [(k, b"n") for k in absent[:16]] + [(dup, b"dup")]

            # stall the slow shard *inside* its transaction (at commit,
            # with its record writes already journaled and its node
            # writes still dirty), so the duplicate's failure surfaces
            # while this slice is genuinely mid-flight
            real_commit = EncipheredDatabase.commit

            def stalling_commit(self):
                if self is slow_shard:
                    time.sleep(0.3)
                return real_commit(self)

            EncipheredDatabase.commit = stalling_commit
            try:
                with pytest.raises(Exception):
                    cluster.put_many(batch)
            finally:
                EncipheredDatabase.commit = real_commit
            # drain the slow slice if the fan-out returned without it
            deadline = time.time() + 5
            while (
                slow_shard._in_txn or slow_shard.lock.write_held
            ) and time.time() < deadline:
                time.sleep(0.01)
            # the slow shard's committed slice was sealed, not stranded
            assert not slow_shard.has_unsealed_changes
            # ... so worker replicas re-sync to exactly the parent's
            # committed state (read in-process under each shard's lock)
            parent_truth = sorted(
                pair
                for shard in cluster.shards
                for pair in shard.range_search(0, DESIGN.v)
            )
            assert cluster.range_search(0, DESIGN.v) == parent_truth
        finally:
            cluster.close()

    def test_delete_many_missing_key_rolls_back_its_shard(self):
        records = seed_keys(24)
        cluster = make_cluster("serial")
        try:
            cluster.bulk_load(records.items())
            present = sorted(records)
            missing = next(k for k in range(DESIGN.v) if k not in records)
            shard_id = cluster.router.shard_for(missing)
            same_shard = [
                k for k in present if cluster.router.shard_for(k) == shard_id
            ]
            with pytest.raises(KeyNotFoundError):
                cluster.delete_many(same_shard[:2] + [missing])
            data = dict(cluster.range_search(0, DESIGN.v))
            for k in same_shard[:2]:
                assert k in data  # the shard's slice rolled back whole
        finally:
            cluster.close()


class TestConcurrentDeltaSync:
    def test_writers_racing_process_readers_stay_consistent(self):
        """Concurrent parent-side writers must never let a reader ship
        a worker an epoch whose changes are not yet sealed (the
        seal-before-publish ordering in _note_writes); the replicas must
        end exactly at the parent's final state."""
        import threading as _threading

        records = seed_keys(40)
        absent = [k for k in range(DESIGN.v) if k not in records]
        cluster = make_cluster("processes")
        try:
            cluster.bulk_load(records.items())
            cluster.range_search(0, DESIGN.v)  # replicas live
            slices = [absent[i::3][:8] for i in range(3)]
            errors: list[BaseException] = []

            def writer(keys):
                try:
                    for k in keys:
                        cluster.insert(k, f"w{k}".encode())
                except BaseException as exc:  # pragma: no cover - fail path
                    errors.append(exc)

            def reader():
                try:
                    for _ in range(12):
                        for _, record in cluster.range_search(0, DESIGN.v):
                            assert record  # deciphered cleanly
                except BaseException as exc:  # pragma: no cover - fail path
                    errors.append(exc)

            threads = [
                _threading.Thread(target=writer, args=(s,)) for s in slices
            ] + [_threading.Thread(target=reader) for _ in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors, errors
            expected = dict(records)
            expected.update(
                (k, f"w{k}".encode()) for s in slices for k in s
            )
            # served through the (re-synced) worker replicas
            assert dict(cluster.range_search(0, DESIGN.v)) == expected
            cluster.check_invariants()
        finally:
            cluster.close()


class TestClusterWarming:
    def test_warm_fans_out_and_counts(self):
        records = seed_keys(60)
        cluster = make_cluster("serial", decoded_node_cache_blocks=64)
        try:
            cluster.bulk_load(records.items())
            cluster.clear_caches()
            warmed = cluster.warm(levels=2)
            assert warmed >= NUM_SHARDS  # at least every root
            agg = cluster.stats().aggregate
            assert agg["cache_warming"]["nodes_warmed"] == warmed
        finally:
            cluster.close()

    def test_warm_reaches_process_workers(self):
        records = seed_keys(60)
        cluster = make_cluster(
            "processes", decoded_node_cache_blocks=64
        )
        try:
            cluster.bulk_load(records.items())
            parent_only = sum(
                shard.warming.nodes_warmed for shard in cluster.shards
            )
            warmed = cluster.warm(levels=2)
            parent_after = sum(
                shard.warming.nodes_warmed for shard in cluster.shards
            )
            # the total includes worker-side warming beyond the parent's
            assert warmed > parent_after - parent_only
            # worker warming work rolls up into cluster stats
            agg = cluster.stats().aggregate
            assert agg["cache_warming"]["nodes_warmed"] == warmed
            assert cluster.range_search(0, DESIGN.v) == sorted(
                records.items()
            )
        finally:
            cluster.close()
