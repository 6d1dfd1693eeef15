"""The durable file platter: format, WAL protocol, crash recovery.

The crash matrix exercises every point the durability protocol can be
interrupted at -- torn WAL tail, sealed-but-not-applied frames, torn
block apply, stale header -- plus on-disk corruption (block CRC
failures, mangled headers) and the property-based open-after-kill
round-trips: whatever the interleaving of writes, syncs and the kill,
a reopen must land on exactly the last durable generation (or, when
the kill hit after the WAL append, the generation the WAL carries).
"""

from __future__ import annotations

import os
import struct
import tempfile
import threading
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import BlockBoundsError, PlatterFormatError, StorageError
from repro.storage.platter import FORMAT_VERSION, MAGIC, WAL_MAGIC, FilePlatter


class XorTransform:
    """A stand-in encipherment module: visible at rest, invertible."""

    def on_write(self, block_id: int, data: bytes) -> bytes:
        return bytes(b ^ 0x5A for b in data)

    def on_read(self, block_id: int, data: bytes) -> bytes:
        return bytes(b ^ 0x5A for b in data)


def make(tmp_path, name="disk", **kwargs):
    kwargs.setdefault("block_size", 64)
    kwargs.setdefault("fsync", False)
    return FilePlatter(tmp_path / f"{name}.platter", **kwargs)


def fill(platter, payloads):
    ids = []
    for payload in payloads:
        b = platter.allocate()
        platter.write_block(b, payload)
        ids.append(b)
    return ids


class Kill(Exception):
    """The simulated process death."""


def kill_at(platter, point):
    def hook(p):
        if p == point:
            raise Kill

    platter.fault_hook = hook


class TestFormat:
    def test_roundtrip_through_close_and_reopen(self, tmp_path):
        p = make(tmp_path)
        fill(p, [b"alpha", b"beta", b""])
        p.close()
        q = make(tmp_path, create=False)
        assert q.num_blocks == 3
        assert [q.read_block(i) for i in range(3)] == [b"alpha", b"beta", b""]

    def test_block_size_adopted_from_header(self, tmp_path):
        make(tmp_path, block_size=256).close()
        q = FilePlatter(tmp_path / "disk.platter", fsync=False)  # default 4096
        assert q.block_size == 256
        with pytest.raises(StorageError, match="256-byte blocks"):
            FilePlatter(tmp_path / "disk.platter", block_size=128, fsync=False)

    def test_create_flags(self, tmp_path):
        make(tmp_path, create=True).close()
        with pytest.raises(StorageError, match="already exists"):
            make(tmp_path, create=True)
        with pytest.raises(StorageError, match="not found"):
            make(tmp_path, name="other", create=False)

    def test_transform_runs_at_the_boundary(self, tmp_path):
        p = make(tmp_path, transform=XorTransform())
        (b,) = fill(p, [b"secret"])
        assert p.raw_block(b) != b"secret"
        assert p.read_block(b) == b"secret"
        p.close()
        q = make(tmp_path, create=False, transform=XorTransform())
        assert q.read_block(b) == b"secret"
        bare = make(tmp_path, name="disk", create=False)
        assert bare.read_block(b) == bytes(c ^ 0x5A for c in b"secret")

    def test_unwritten_and_out_of_bounds(self, tmp_path):
        p = make(tmp_path)
        b = p.allocate()
        with pytest.raises(BlockBoundsError):
            p.read_block(b)
        with pytest.raises(BlockBoundsError):
            p.read_block(b + 1)

    def test_header_slots_alternate(self, tmp_path):
        p = make(tmp_path)
        (b,) = fill(p, [b"one"])
        p.sync()  # counter 1 -> slot 1
        p.write_block(b, b"two")
        p.sync()  # counter 2 -> slot 0
        raw = open(p.path, "rb").read(128)
        for slot in (0, 1):
            chunk = raw[slot * 64 : slot * 64 + 64]
            assert chunk[:8] == MAGIC
            assert zlib.crc32(chunk[:-4]) == struct.unpack("<I", chunk[-4:])[0]
        counters = [struct.unpack_from("<Q", raw, s * 64 + 16)[0] for s in (0, 1)]
        assert sorted(counters) == [1, 2]

    def test_version_from_the_future_is_rejected(self, tmp_path):
        p = make(tmp_path)
        fill(p, [b"x"])
        p.close()
        with open(p.path, "r+b") as fh:
            for slot in (0, 64):
                fh.seek(slot)
                raw = bytearray(fh.read(64))
                struct.pack_into("<H", raw, 8, FORMAT_VERSION + 1)
                struct.pack_into("<I", raw, 60, zlib.crc32(bytes(raw[:60])))
                fh.seek(slot)
                fh.write(raw)
        with pytest.raises(PlatterFormatError, match="version"):
            make(tmp_path, create=False)

    def test_garbage_file_is_rejected(self, tmp_path):
        path = tmp_path / "junk.platter"
        path.write_bytes(b"\x00" * 4096)
        with pytest.raises(PlatterFormatError, match="no valid platter header"):
            FilePlatter(path, fsync=False)

    def test_wal_magic_checked(self, tmp_path):
        p = make(tmp_path)
        fill(p, [b"x"])
        p.close()
        with open(p.wal_path, "r+b") as fh:
            fh.write(b"NOTAWAL!")
        with pytest.raises(PlatterFormatError, match="not a platter WAL"):
            make(tmp_path, create=False)


class TestSync:
    def test_sync_counts_and_idempotent_when_clean(self, tmp_path):
        p = make(tmp_path)
        fill(p, [b"a", b"b"])
        assert p.sync() == 2
        assert p.sync() == 0  # nothing pending: no frame, no flip
        snap = p.durability_snapshot()
        assert snap["syncs"] == 1
        assert snap["wal_frames"] == 1
        assert snap["header_flips"] == 1

    def test_noop_overwrite_stays_out_of_the_wal(self, tmp_path):
        p = make(tmp_path)
        (b,) = fill(p, [b"same"])
        p.sync()
        p.write_block(b, b"same")  # dedup: at-rest bytes unchanged
        assert p.sync() == 0

    def test_allocation_alone_is_durable(self, tmp_path):
        p = make(tmp_path)
        fill(p, [b"a"])
        p.sync()
        p.allocate()  # no write yet, but the count must survive
        p.sync()
        p.close()
        q = make(tmp_path, create=False)
        assert q.num_blocks == 2

    def test_close_syncs(self, tmp_path):
        p = make(tmp_path)
        fill(p, [b"kept"])
        p.close()
        assert make(tmp_path, create=False).read_block(0) == b"kept"

    def test_abandon_discards_unsynced(self, tmp_path):
        p = make(tmp_path)
        fill(p, [b"first"])
        p.sync()
        p.write_block(0, b"second")
        p.abandon()
        assert make(tmp_path, create=False).read_block(0) == b"first"

    def test_checkpoint_truncates_wal(self, tmp_path):
        p = make(tmp_path)
        fill(p, [b"a" * 40, b"b" * 40])
        p.sync()
        assert os.path.getsize(p.wal_path) > 16
        p.checkpoint()
        assert os.path.getsize(p.wal_path) == 16
        assert p.durability_snapshot()["checkpoints"] == 1
        p.close()
        assert make(tmp_path, create=False).read_block(0) == b"a" * 40

    def test_wal_limit_auto_checkpoints(self, tmp_path):
        p = make(tmp_path, wal_limit_bytes=64)
        for i in range(4):
            fill(p, [bytes([i]) * 48])
            p.sync()
        assert p.durability_snapshot()["checkpoints"] >= 1
        assert os.path.getsize(p.wal_path) <= 64 + 16 + 8 + 48 + 64

    def test_sealed_epoch_implies_durable(self, tmp_path):
        p = make(tmp_path)
        fill(p, [b"batched"])
        p.journal.seal(7)  # the cluster's epoch close forces the sync
        assert p.durability_snapshot()["syncs"] == 1
        p.abandon()
        assert make(tmp_path, create=False).read_block(0) == b"batched"


    def test_failed_sync_retries_cleanly(self, tmp_path):
        p = make(tmp_path)
        fill(p, [b"first"])
        kill_at(p, "sync:start")
        with pytest.raises(Kill):
            p.sync()
        p.fault_hook = None
        assert p.sync() == 1
        p.close()
        assert make(tmp_path, create=False).read_block(0) == b"first"

    def test_each_sync_costs_three_fsyncs(self, tmp_path):
        # WAL frame, data apply, header flip
        p = make(tmp_path, fsync=True)
        p.stats.reset()
        for i in range(8):
            fill(p, [b"commit-%d" % i])
            p.sync()
        assert p.stats.fsyncs == 24
        p.close()

    def test_concurrent_syncs_all_durable(self, tmp_path):
        p = make(tmp_path, fsync=True)
        blocks = [p.allocate() for _ in range(8)]
        barrier = threading.Barrier(8)
        errors = []

        def committer(i):
            try:
                barrier.wait()
                p.write_block(blocks[i], b"racer-%d" % i)
                p.sync()
            except BaseException as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [threading.Thread(target=committer, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        p.close()
        q = make(tmp_path, create=False)
        for i, b in enumerate(blocks):
            assert q.read_block(b) == b"racer-%d" % i

    def test_negative_fsync_latency_rejected(self, tmp_path):
        with pytest.raises(StorageError):
            make(tmp_path, fsync_latency_s=-0.1)


class TestCrashMatrix:
    """One scenario per interruptible point of the durability protocol."""

    def survivors(self, tmp_path, point):
        """Kill a two-generation workload at ``point`` of generation 2."""
        p = make(tmp_path)
        fill(p, [b"gen1-a", b"gen1-b"])
        p.sync()
        p.write_block(0, b"gen2-a")
        b2 = p.allocate()
        p.write_block(b2, b"gen2-c")
        kill_at(p, point)
        with pytest.raises(Kill):
            p.sync()
        p.abandon()
        return make(tmp_path, create=False)

    def test_kill_before_wal_append(self, tmp_path):
        q = self.survivors(tmp_path, "sync:start")
        assert q.durability_snapshot()["frames_replayed"] == 0
        assert q.num_blocks == 2
        assert q.read_block(0) == b"gen1-a"

    def test_kill_after_wal_append_replays(self, tmp_path):
        # the acceptance point: sealed-but-not-applied
        q = self.survivors(tmp_path, "wal:appended")
        assert q.durability_snapshot()["frames_replayed"] == 1
        assert q.num_blocks == 3
        assert q.read_block(0) == b"gen2-a"
        assert q.read_block(2) == b"gen2-c"

    def test_kill_mid_block_apply_replays(self, tmp_path):
        # torn write: some records of generation 2 landed, some did not
        q = self.survivors(tmp_path, "apply:block")
        assert q.durability_snapshot()["frames_replayed"] == 1
        assert q.read_block(0) == b"gen2-a"
        assert q.read_block(2) == b"gen2-c"

    def test_kill_with_stale_header_replays(self, tmp_path):
        # blocks fully applied, header never flipped
        q = self.survivors(tmp_path, "apply:done")
        assert q.durability_snapshot()["frames_replayed"] == 1
        assert q.read_block(0) == b"gen2-a"

    def test_kill_after_header_flip_is_clean(self, tmp_path):
        q = self.survivors(tmp_path, "header:flipped")
        assert q.durability_snapshot()["frames_replayed"] == 0
        assert q.read_block(0) == b"gen2-a"
        assert q.read_block(2) == b"gen2-c"

    def test_torn_wal_tail_truncated(self, tmp_path):
        p = make(tmp_path)
        fill(p, [b"committed"])
        p.sync()
        size = os.path.getsize(p.wal_path)
        p.write_block(0, b"never-committed")
        kill_at(p, "wal:appended")
        with pytest.raises(Kill):
            p.sync()
        p.abandon()
        # shear the frame the kill left behind: a half-written append
        with open(p.wal_path, "r+b") as fh:
            fh.truncate(os.path.getsize(p.wal_path) - 5)
        q = make(tmp_path, create=False)
        assert q.read_block(0) == b"committed"  # generation never committed
        assert os.path.getsize(q.wal_path) == size  # tail sheared off

    def test_corrupted_block_record_repaired_from_wal(self, tmp_path):
        p = make(tmp_path)
        (b, _other) = fill(p, [b"precious", b"bystander"])
        p.sync()
        p.abandon()
        with open(p.path, "r+b") as fh:
            fh.seek(128 + 8 + 2)  # inside block 0's payload
            fh.write(b"\xff\xff\xff")
        q = make(tmp_path, create=False)
        assert q.read_block(b) == b"precious"
        assert q.durability_snapshot()["blocks_repaired"] == 1
        # and the repair rewrote the main file, so it sticks
        q.abandon()
        r = make(tmp_path, create=False)
        assert r.read_block(b) == b"precious"
        assert r.durability_snapshot()["blocks_repaired"] == 0

    def test_corruption_after_checkpoint_is_unrepairable(self, tmp_path):
        p = make(tmp_path)
        fill(p, [b"precious"])
        p.checkpoint()
        p.abandon()
        with open(p.path, "r+b") as fh:
            fh.seek(128 + 8 + 2)
            fh.write(b"\xff\xff")
        q = make(tmp_path, create=False)
        with pytest.raises(PlatterFormatError, match="no WAL copy"):
            q.read_block(0)

    def test_one_torn_header_slot_survives(self, tmp_path):
        p = make(tmp_path)
        fill(p, [b"data"])
        p.sync()  # counter 1 lives in slot 1
        p.abandon()
        with open(p.path, "r+b") as fh:
            fh.seek(0)
            fh.write(os.urandom(64))  # slot 0 (counter 0) torn to garbage
        q = make(tmp_path, create=False)
        assert q.read_block(0) == b"data"

    def test_missing_generation_in_wal_refuses(self, tmp_path):
        p = make(tmp_path)
        fill(p, [b"a"])
        p.sync()  # generation 1 -> header slot 1
        p.write_block(0, b"b")
        p.sync()  # generation 2 -> header slot 0
        p.checkpoint()  # WAL emptied: generation 2's frame is gone
        p.write_block(0, b"c")
        kill_at(p, "wal:appended")
        with pytest.raises(Kill):
            p.sync()  # generation 3's frame is the only one in the WAL
        p.abandon()
        # tear the newer header slot: the survivor says generation 1,
        # but the log now starts at 3 -- the chain has a hole
        with open(p.path, "r+b") as fh:
            fh.seek(0)
            fh.write(b"\x00" * 64)
        with pytest.raises(PlatterFormatError, match="missing"):
            make(tmp_path, create=False)


class TestPoll:
    def test_poll_sees_other_handles_commits(self, tmp_path):
        writer = make(tmp_path)
        fill(writer, [b"v1", b"w1"])
        writer.sync()
        reader = make(tmp_path, create=False)
        assert reader.poll() == set()
        writer.write_block(1, b"w2")
        writer.sync()
        assert reader.poll() == {1}
        assert reader.read_block(1) == b"w2"
        assert reader.poll() == set()

    def test_poll_after_checkpoint_degrades_to_wholesale(self, tmp_path):
        writer = make(tmp_path)
        fill(writer, [b"v1"])
        writer.sync()
        reader = make(tmp_path, create=False)
        writer.write_block(0, b"v2")
        writer.checkpoint()  # truncates the frames the reader needs
        assert reader.poll() is None
        assert reader.read_block(0) == b"v2"

    def test_poll_on_dirty_handle_refuses(self, tmp_path):
        p = make(tmp_path)
        fill(p, [b"x"])
        with pytest.raises(StorageError, match="pending writes"):
            p.poll()

    def test_poll_sees_new_blocks(self, tmp_path):
        writer = make(tmp_path)
        fill(writer, [b"a"])
        writer.sync()
        reader = make(tmp_path, create=False)
        b = writer.allocate()
        writer.write_block(b, b"new")
        writer.sync()
        assert reader.poll() == {b}
        assert reader.num_blocks == 2
        assert reader.read_block(b) == b"new"


class TestStateTransfer:
    """The process-executor surface works over the durable device too."""

    def test_export_import_roundtrip(self, tmp_path):
        p = make(tmp_path)
        fill(p, [b"a", b"b"])
        p.allocate()
        state = p.export_state()
        assert state == [b"a", b"b", None]
        q = make(tmp_path, name="copy")
        q.import_state(state)
        assert q.num_blocks == 3
        assert q.read_block(0) == b"a"
        q.close()
        assert make(tmp_path, name="copy", create=False).read_block(1) == b"b"

    def test_patch_and_snapshot(self, tmp_path):
        p = make(tmp_path)
        fill(p, [b"a", b"b"])
        p.patch_state(3, {1: b"B", 2: b"C"})
        assert p.snapshot_blocks([0, 1, 2]) == {0: b"a", 1: b"B", 2: b"C"}
        assert p.raw_blocks() == [(0, b"a"), (1, b"B"), (2, b"C")]


# -- property-based open-after-kill round-trips --------------------------

_POINTS = ["sync:start", "wal:appended", "apply:block", "apply:done",
           "header:flipped", None]


@settings(max_examples=60, deadline=None)
@given(
    script=st.lists(
        st.one_of(
            st.tuples(st.just("write"), st.integers(0, 7), st.binary(max_size=24)),
            st.just(("sync",)),
        ),
        min_size=1,
        max_size=30,
    ),
    kill_point=st.sampled_from(_POINTS),
)
def test_open_after_kill_lands_on_a_committed_generation(script, kill_point):
    """Whatever the op interleaving and wherever the kill lands, the
    reopen recovers the last generation whose WAL frame was appended
    (kill before the append: the one before it) -- never a torn mix."""
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "prop.platter")
        p = FilePlatter(path, block_size=32, fsync=False)
        shadow: dict[int, bytes] = {}
        durable = {"blocks": {}, "count": 0}

        def snapshot():
            durable["blocks"] = dict(shadow)
            durable["count"] = p.num_blocks

        for step in script:
            if step[0] == "write":
                _op, slot, payload = step
                while p.num_blocks <= slot:
                    p.allocate()
                p.write_block(slot, payload)
                shadow[slot] = payload
            else:
                p.sync()
                snapshot()
        # the final sync is where the kill strikes
        if p.num_blocks == 0:
            p.allocate()
        p.write_block(0, b"final")
        shadow[0] = b"final"
        if kill_point is None:
            p.sync()
            snapshot()
        else:
            kill_at(p, kill_point)
            try:
                p.sync()
                snapshot()  # hook point never reached (nothing pending)
            except Kill:
                if kill_point in ("wal:appended", "apply:block", "apply:done",
                                  "header:flipped"):
                    snapshot()  # frame appended: recovery completes it
        p.abandon()

        q = FilePlatter(path, create=False, fsync=False)
        assert q.num_blocks >= durable["count"]
        for slot, expected in durable["blocks"].items():
            assert q.read_block(slot) == expected
        q.close()
