"""The two fan-out backends: serial and processes.

The contract is strict parity: for identical workloads every backend
must return byte-identical results, leave byte-identical platters, and
-- with the plaintext caches off -- report identical cipher-operation
totals through ``stats()``, no matter which process did the work.

The process backend additionally owns a replica-consistency protocol
(epoch-tracked spec re-shipping) and a state ship-back path for
``bulk_load``; both are exercised here.
"""

from __future__ import annotations

import random

import pytest

from repro.cluster.sharded import ShardedEncipheredDatabase
from repro.core.database import EncipheredDatabase
from repro.core.records import RecordStore
from repro.crypto.rsa import RSA, generate_rsa_keypair
from repro.designs.difference_sets import planar_difference_set
from repro.designs.multipliers import non_multiplier_units
from repro.exceptions import ShardUnavailableError, StorageError
from repro.faults import FaultInjector, FaultPlan, RetryPolicy
from repro.storage.backend import FileBackend
from repro.storage.disk import SimulatedDisk
from repro.substitution.oval import OvalSubstitution

DESIGN = planar_difference_set(13)  # v = 183
UNITS = non_multiplier_units(DESIGN)
NUM_SHARDS = 4
BACKENDS = ("serial", "processes")


def sub_factory(i: int) -> OvalSubstitution:
    return OvalSubstitution(DESIGN, t=UNITS[i * 5 % len(UNITS)])


def cipher_factory(i: int) -> RSA:
    # deterministic per index: workers must re-derive the identical cipher
    return RSA(generate_rsa_keypair(bits=128, rng=random.Random(0xE0 + i)))


def make_cluster(executor: str, router: str = "hash") -> ShardedEncipheredDatabase:
    return ShardedEncipheredDatabase.create(
        sub_factory,
        cipher_factory,
        num_shards=NUM_SHARDS,
        router=router,
        block_size=512,
        min_degree=2,
        executor=executor,
    )


def records_for(keys) -> dict[int, bytes]:
    return {k: f"rec{k}".encode() for k in keys}


class TestBackendParity:
    def test_results_identical_across_backends(self):
        sample = random.Random(0xE1).sample(range(DESIGN.v), 60)
        records = records_for(sample)
        clusters = {name: make_cluster(name) for name in BACKENDS}
        try:
            for cluster in clusters.values():
                cluster.bulk_load(records.items())
            expected = clusters["serial"].range_search(0, DESIGN.v)
            assert len(expected) == len(sample)
            assert clusters["processes"].range_search(0, DESIGN.v) == expected
            probes = sample[:25] + [k + 1 for k in sample[:5]]
            expected_many = clusters["serial"].get_many(probes, default=b"?")
            assert clusters["processes"].get_many(probes, default=b"?") == expected_many
        finally:
            for cluster in clusters.values():
                cluster.close()

    def test_platters_identical_after_process_bulk_load(self):
        sample = random.Random(0xE2).sample(range(DESIGN.v), 50)
        records = records_for(sample)
        serial, procs = make_cluster("serial"), make_cluster("processes")
        try:
            serial.bulk_load(records.items())
            procs.bulk_load(records.items())
            for s_shard, p_shard in zip(serial.shards, procs.shards):
                assert s_shard.disk.export_state() == p_shard.disk.export_state()
                assert (
                    s_shard.records.disk.export_state()
                    == p_shard.records.disk.export_state()
                )
            # the shipped-back state is fully operational in the parent
            assert len(procs) == len(sample)
            procs.check_invariants()
        finally:
            serial.close()
            procs.close()

    def test_cipher_counts_identical_across_backends(self):
        sample = random.Random(0xE3).sample(range(DESIGN.v), 48)
        records = records_for(sample)
        totals = {}
        for name in BACKENDS:
            cluster = make_cluster(name)
            try:
                cluster.bulk_load(records.items())
                cluster.range_search(0, DESIGN.v)
                cluster.get_many(sample[:10])
                agg = cluster.stats().aggregate
                totals[name] = (agg["pointer_cipher"], agg["record_cipher"], agg["size"])
            finally:
                cluster.close()
        assert totals["serial"] == totals["processes"]
        # the DES-block tally rolls up from the workers like the
        # paper's counters (the tuple comparison above covers it)
        assert totals["processes"][1]["decryptions"] > 0
        assert totals["processes"][1]["des_blocks"] > 0

    def test_stats_counts_work_done_in_workers(self):
        sample = random.Random(0xE4).sample(range(DESIGN.v), 40)
        cluster = make_cluster("processes")
        try:
            cluster.bulk_load(records_for(sample).items())
            loaded = cluster.stats().aggregate["pointer_cipher"]["encryptions"]
            assert loaded > 0  # the workers' bulk-load encryptions rolled up
            before = cluster.stats().aggregate["pointer_cipher"]["decryptions"]
            cluster.range_search(0, DESIGN.v)
            after = cluster.stats().aggregate["pointer_cipher"]["decryptions"]
            assert after > before  # worker-side decryptions visible too
        finally:
            cluster.close()


class TestSerialFanOut:
    def test_put_many_lands_every_shard_past_a_dead_one(self, tmp_path):
        """A permanently failing shard must not stop its siblings: the
        first error is raised, and every other shard's slice lands, is
        sealed, and is served by a later process fan-out and by a
        manifest reopen."""
        backend = FileBackend(tmp_path / "cluster", fsync=False)
        sample = random.Random(0xF1).sample(range(DESIGN.v), 40)
        absent = [k for k in range(DESIGN.v) if k not in set(sample)]
        batch = [(k, b"new") for k in absent[:40]]
        dead = 0
        cluster = ShardedEncipheredDatabase.create(
            sub_factory, cipher_factory, num_shards=NUM_SHARDS,
            block_size=512, min_degree=2, executor="processes", backend=backend,
        )
        try:
            cluster.bulk_load(records_for(sample).items())
            cluster.range_search(0, DESIGN.v)  # every worker holds a replica
            assert {cluster.router.shard_for(k) for k, _ in batch} == set(
                range(NUM_SHARDS)
            )
            plan = FaultPlan.parse(
                "read.permanent@1 write.permanent@1 sync.permanent@1"
            )
            no_retry = RetryPolicy(max_attempts=1, base_delay_s=0.0, max_delay_s=0.0)
            shard = cluster.shards[dead]
            for device in (shard.disk, shard.records.disk):
                device.attach_faults(FaultInjector(plan), no_retry)
            epochs = list(cluster._shard_epochs)
            # the in-process fan-out (a process-backend put_many would
            # offload the slices to the workers instead)
            cluster.executor = "serial"
            with pytest.raises(ShardUnavailableError):
                cluster.put_many(batch)
            cluster.executor = "processes"
            live = [(k, v) for k, v in batch if cluster.router.shard_for(k) != dead]
            lost = [k for k, _ in batch if cluster.router.shard_for(k) == dead]
            for i in range(NUM_SHARDS):
                if i != dead:
                    assert cluster._shard_epochs[i] > epochs[i]
                    assert not cluster.shards[i].has_unsealed_changes
            delta_ships = cluster.sync_stats()["delta_ships"]
            assert cluster.get_many([k for k, _ in live]) == [v for _, v in live]
            assert cluster.sync_stats()["delta_ships"] > delta_ships
        finally:
            cluster.close()
        reopened = ShardedEncipheredDatabase.reopen_from_manifest(
            sub_factory, cipher_factory, backend
        )
        try:
            data = dict(reopened.range_search(0, DESIGN.v))
            assert all(data[k] == v for k, v in live)
            assert all(k not in data for k in lost)
            assert all(k in data for k in sample)
        finally:
            reopened.close()


class TestReplicaConsistency:
    def test_writes_after_process_reads_are_visible(self):
        sample = random.Random(0xE5).sample(range(DESIGN.v), 40)
        absent = [k for k in range(DESIGN.v) if k not in set(sample)]
        cluster = make_cluster("processes")
        try:
            cluster.bulk_load(records_for(sample).items())
            baseline = cluster.range_search(0, DESIGN.v)
            assert len(baseline) == len(sample)
            # parent-side mutations: replicas must be re-shipped
            cluster.insert(absent[0], b"fresh")
            cluster.delete(sample[0])
            result = dict(cluster.range_search(0, DESIGN.v))
            assert result[absent[0]] == b"fresh"
            assert sample[0] not in result
        finally:
            cluster.close()

    def test_transaction_fanout_stays_serial_then_resyncs(self):
        sample = random.Random(0xE6).sample(range(DESIGN.v), 30)
        absent = [k for k in range(DESIGN.v) if k not in set(sample)]
        cluster = make_cluster("processes")
        try:
            cluster.bulk_load(records_for(sample).items())
            cluster.range_search(0, DESIGN.v)  # workers now hold replicas
            with cluster.transaction():
                cluster.insert(absent[0], b"txn")
                # fan-out inside the scope runs on this thread (locks held)
                inside = dict(cluster.range_search(0, DESIGN.v))
                assert inside[absent[0]] == b"txn"
            after = dict(cluster.range_search(0, DESIGN.v))
            assert after[absent[0]] == b"txn"
        finally:
            cluster.close()

    def test_rolled_back_transaction_not_served_by_workers(self):
        sample = random.Random(0xE7).sample(range(DESIGN.v), 30)
        absent = [k for k in range(DESIGN.v) if k not in set(sample)]
        cluster = make_cluster("processes")
        try:
            cluster.bulk_load(records_for(sample).items())
            cluster.range_search(0, DESIGN.v)
            with pytest.raises(RuntimeError):
                with cluster.transaction():
                    cluster.insert(absent[0], b"doomed")
                    raise RuntimeError("abort")
            assert absent[0] not in dict(cluster.range_search(0, DESIGN.v))
        finally:
            cluster.close()

    def test_close_is_idempotent_and_stats_survive(self):
        sample = random.Random(0xE8).sample(range(DESIGN.v), 24)
        cluster = make_cluster("processes")
        cluster.bulk_load(records_for(sample).items())
        cluster.range_search(0, DESIGN.v)
        before = cluster.stats().aggregate["pointer_cipher"]
        cluster.close()
        cluster.close()
        # harvested worker counters still feed stats after shutdown
        assert cluster.stats().aggregate["pointer_cipher"] == before

    def test_fanout_after_close_restarts_workers(self):
        sample = random.Random(0xE9).sample(range(DESIGN.v), 24)
        cluster = make_cluster("processes")
        try:
            cluster.bulk_load(records_for(sample).items())
            expected = cluster.range_search(0, DESIGN.v)
            cluster.close()
            assert cluster.range_search(0, DESIGN.v) == expected
        finally:
            cluster.close()


class TestValidationAndErrors:
    def test_unknown_executor_rejected(self):
        with pytest.raises(StorageError, match="executor"):
            make_cluster("fibers")

    def test_removed_thread_pool_name_rejected(self):
        # the thread-pool backend is gone; its name must not fall back
        # to another executor silently
        with pytest.raises(StorageError, match="executor"):
            make_cluster("threads")

    def test_processes_require_factories(self):
        serial = make_cluster("serial")
        with pytest.raises(StorageError, match="factories"):
            ShardedEncipheredDatabase(serial.shards, serial.router, executor="processes")

    def test_unpicklable_factories_fail_fast(self):
        design = DESIGN
        units = UNITS
        cluster = ShardedEncipheredDatabase.create(
            lambda i: OvalSubstitution(design, t=units[i * 5 % len(units)]),
            cipher_factory,
            num_shards=2,
            block_size=512,
            min_degree=2,
            executor="processes",
        )
        try:
            cluster.insert(3, b"x")
            cluster.insert(100, b"y")
            with pytest.raises(StorageError, match="picklable"):
                cluster.range_search(0, DESIGN.v)
        finally:
            # the in-process paths still work for the same cluster
            assert cluster.get(3) == b"x"
            cluster.close()

    def test_worker_error_does_not_desync_the_pipes(self):
        """One shard erroring mid-fan-out must drain every reply: an
        unread reply would be served as the answer to the next request."""
        sample = random.Random(0xEB).sample(range(DESIGN.v), 30)
        cluster = make_cluster("processes")
        try:
            cluster.bulk_load(records_for(sample).items())
            expected = cluster.range_search(0, DESIGN.v)
            # white box: a malformed payload errors on one worker while
            # the others answer normally
            with pytest.raises(TypeError):
                cluster._process_map(
                    "range_search", [0, 1, 2, 3],
                    [(0,), (0, DESIGN.v), (0, DESIGN.v), (0, DESIGN.v)],
                )
            # the pipes are still in lockstep: fresh fan-outs are correct
            assert cluster.range_search(0, DESIGN.v) == expected
            assert cluster.get_many(sample[:8]) == [
                f"rec{k}".encode() for k in sample[:8]
            ]
        finally:
            cluster.close()

    def test_uncommitted_state_stays_in_process_and_unflushed(self):
        """Reads must never silently commit a write-back shard's dirty
        pages just to ship a spec; they fall back to in-process fan-out."""
        sample = random.Random(0xEC).sample(range(DESIGN.v), 20)
        cluster = ShardedEncipheredDatabase.create(
            sub_factory, cipher_factory, num_shards=NUM_SHARDS,
            block_size=512, min_degree=2, executor="processes",
            write_back=True, autocommit=False,
        )
        try:
            for k in sample:
                cluster.insert(k, f"rec{k}".encode())
            dirty_before = sum(s.tree.pager.dirty_blocks for s in cluster.shards)
            assert dirty_before > 0
            result = cluster.range_search(0, DESIGN.v)
            assert len(result) == len(sample)  # uncommitted data served
            dirty_after = sum(s.tree.pager.dirty_blocks for s in cluster.shards)
            assert dirty_after == dirty_before, "a read committed dirty pages"
        finally:
            cluster.close()

    def test_write_through_uncommitted_reads_stay_in_process(self):
        """autocommit=False with the write-through pager leaves node
        blocks on the platter but the superblock stale: a process-backend
        read must not ship that (the worker's reopen would fail or serve
        stale data) -- it is served in-process instead."""
        sample = random.Random(0xF0).sample(range(DESIGN.v), 24)
        cluster = ShardedEncipheredDatabase.create(
            sub_factory, cipher_factory, num_shards=NUM_SHARDS,
            block_size=512, min_degree=2, executor="processes",
            autocommit=False,
        )
        try:
            for k in sample:
                cluster.insert(k, f"rec{k}".encode())
            assert any(s.has_uncommitted_changes for s in cluster.shards)
            result = cluster.range_search(0, DESIGN.v)
            assert len(result) == len(sample)
            # committing makes the shards shippable again
            cluster.commit()
            assert not any(s.has_uncommitted_changes for s in cluster.shards)
            assert cluster.range_search(0, DESIGN.v) == result
        finally:
            cluster.close()

    def test_uncommitted_bulk_load_stays_uncommitted(self):
        """An autocommit=False bulk_load must not become durable just
        because the process backend shipped it through a worker."""
        sample = random.Random(0xEE).sample(range(DESIGN.v), 40)
        records = records_for(sample)
        states = {}
        for name in BACKENDS:
            cluster = ShardedEncipheredDatabase.create(
                sub_factory, cipher_factory, num_shards=NUM_SHARDS,
                block_size=512, min_degree=2, executor=name,
                write_back=True, autocommit=False,
            )
            try:
                cluster.bulk_load(records.items())
                states[name] = (
                    [s.tree.pager.dirty_blocks for s in cluster.shards],
                    [s.disk.export_state() for s in cluster.shards],
                )
                assert len(cluster.range_search(0, DESIGN.v)) == len(sample)
            finally:
                cluster.close()  # commits, like any orderly shutdown
        assert states["serial"] == states["processes"], (
            "the process backend changed what an uncommitted load leaves "
            "on the platters"
        )

    def test_aborted_fanout_does_not_double_count(self, monkeypatch):
        """A fan-out that aborts mid-dispatch re-runs in-process; work a
        worker already did must not be counted on top of the re-run."""
        sample = random.Random(0xEF).sample(range(DESIGN.v), 40)
        records = records_for(sample)

        control = make_cluster("serial")
        cluster = make_cluster("processes")
        try:
            control.bulk_load(records.items())
            cluster.bulk_load(records.items())
            cluster.range_search(0, DESIGN.v)  # workers live and synced
            control.range_search(0, DESIGN.v)

            from repro.cluster.executor import (
                ProcessShardExecutor,
                UncommittedShardState,
            )
            real_sync = ProcessShardExecutor.sync
            fail_once = {"armed": True}

            def flaky_sync(self, index, shard, epoch):
                if index == NUM_SHARDS - 1 and fail_once["armed"]:
                    fail_once["armed"] = False
                    raise UncommittedShardState("simulated racing writer")
                return real_sync(self, index, shard, epoch)

            monkeypatch.setattr(ProcessShardExecutor, "sync", flaky_sync)
            # epochs must mismatch so sync() actually runs per worker
            cluster._note_writes(range(NUM_SHARDS))
            result = cluster.range_search(0, DESIGN.v)
            assert result == control.range_search(0, DESIGN.v)

            agg = cluster.stats().aggregate["pointer_cipher"]
            expected = control.stats().aggregate["pointer_cipher"]
            assert agg == expected, (
                "aborted process fan-out double-counted cipher operations"
            )
        finally:
            control.close()
            cluster.close()

    def test_worker_errors_propagate_and_worker_survives(self):
        sample = random.Random(0xEA).sample(range(DESIGN.v), 20)
        cluster = make_cluster("processes")
        try:
            cluster.bulk_load(records_for(sample).items())
            # a second bulk_load is illegal; the parent raises before any
            # worker is involved, and the workers stay serviceable
            with pytest.raises(Exception):
                cluster.bulk_load(records_for(sample).items())
            assert len(cluster.range_search(0, DESIGN.v)) == len(sample)
        finally:
            cluster.close()


class TestStateTransfer:
    """The disk/record-store state primitives the executor builds on."""

    def test_disk_export_import_round_trip(self):
        disk = SimulatedDisk(block_size=64)
        for payload in (b"alpha", b"beta"):
            disk.write_block(disk.allocate(), payload)
        disk.allocate()  # never written
        clone = SimulatedDisk(block_size=64)
        clone.import_state(disk.export_state())
        assert clone.export_state() == disk.export_state()
        assert clone.num_blocks == 3
        assert clone.read_block(0) == b"alpha"
        # stats describe I/O, not state transfers
        assert clone.stats.writes == 0

    def test_disk_import_rejects_oversized_blocks(self):
        small = SimulatedDisk(block_size=16)
        with pytest.raises(Exception):
            small.import_state([b"x" * 64])

    def test_record_store_round_trip(self):
        store = RecordStore(b"\x01" * 8, record_size=16, block_size=128)
        rids = [store.put(f"r{i}".encode()) for i in range(7)]
        store.delete(rids[2])
        clone = RecordStore.from_state(store.export_state())
        assert clone.count == store.count
        for rid in rids:
            if rid == rids[2]:
                continue
            assert clone.get(rid) == store.get(rid)
        # allocation metadata travelled: the freed slot is reused
        assert clone.put(b"reuse") == rids[2]

    def test_record_store_import_guards_geometry(self):
        store = RecordStore(b"\x01" * 8, record_size=16, block_size=128)
        other = RecordStore(b"\x02" * 8, record_size=16, block_size=128)
        with pytest.raises(StorageError, match="geometry"):
            other.import_state(store.export_state())
