"""Slot-granular record reads: decipher only the cipher blocks a get returns.

The oracle throughout is the whole-block read the store made before
(``disk.read_block`` -- the full CBC decipher and PKCS#7 check -- then
the slot parse): a cache-off :meth:`RecordStore.get` must return exactly
its bytes or raise the same exception type, on every kernel, whatever
the geometry and whatever has happened to the at-rest bytes.
"""

from __future__ import annotations

from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.records import RecordStore
from repro.crypto.des import set_default_kernel, vector_available
from repro.exceptions import PermanentIOError, StorageError
from repro.faults import FaultInjector, FaultPlan, RetryPolicy
from repro.storage.backend import FileBackend

KEY = b"\x13\x34\x57\x79\x9b\xbc\xdf\xf1"
KERNELS = ("reference", "fast", "vector")
GEOMETRIES = [(rs, bs) for rs in (20, 50, 120) for bs in (256, 512)]


@contextmanager
def default_kernel(name):
    """Build DES objects on ``name`` for the ``with`` body."""
    if name == "vector" and not vector_available():
        pytest.skip("the vector kernel needs numpy")
    previous = set_default_kernel(name)
    try:
        yield
    finally:
        set_default_kernel(previous)


def whole_block_get(store: RecordStore, record_id: int) -> bytes:
    """The record as a whole-block decipher reads it."""
    block_index, slot = store._locate(record_id)
    data = store.disk.read_block(block_index)
    slots = [
        data[i : i + store.slot_size] for i in range(0, len(data), store.slot_size)
    ]
    if slot >= len(slots):
        raise StorageError(f"record id {record_id} names an empty slot")
    length = int.from_bytes(slots[slot][:2], "big")
    if length > store.record_size:
        raise StorageError(f"record id {record_id} slot is free or corrupt")
    return slots[slot][2 : 2 + length]


def outcome(read, store, record_id):
    try:
        return "ok", read(store, record_id)
    except Exception as exc:  # the exception *type* is the contract
        return "raised", type(exc)


def filled_store(record_size=120, block_size=512, payloads=(), **kwargs):
    store = RecordStore(KEY, record_size=record_size, block_size=block_size, **kwargs)
    ids = [store.put(payload) for payload in payloads]
    return store, ids


@st.composite
def damaged_stores(draw):
    record_size, block_size = draw(st.sampled_from(GEOMETRIES))
    sizes = draw(st.lists(st.integers(0, record_size), min_size=1, max_size=14))
    store, ids = filled_store(
        record_size, block_size, [bytes([n % 251]) * n for n in sizes]
    )
    for record_id in draw(st.lists(st.sampled_from(ids), max_size=4, unique=True)):
        store.delete(record_id)
    if draw(st.booleans()):
        store.disk.allocate()  # a never-written trailing block
    written = [b for b, data in enumerate(store.disk.export_state()) if data]
    flips = {}
    for _ in range(draw(st.integers(0, 4))):
        block_id = draw(st.sampled_from(written))
        data = bytearray(flips.get(block_id) or store.disk.raw_block(block_id))
        # half the flips land in the padding block, where they decide
        # the plaintext length every slot read depends on
        if draw(st.booleans()):
            offset = len(data) - 1 - draw(st.integers(0, 7))
        else:
            offset = draw(st.integers(0, len(data) - 1))
        data[offset] ^= 1 << draw(st.integers(0, 7))
        flips[block_id] = bytes(data)
    store.disk.patch_state(store.disk.num_blocks, flips)
    return store


@pytest.mark.parametrize("kernel", KERNELS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_slot_read_matches_whole_block_read(kernel, data):
    with default_kernel(kernel):
        store = data.draw(damaged_stores())
        # every id the store could name, a block's worth past its end,
        # and a negative one
        spb = store.slots_per_block
        for record_id in range(-1, (store.disk.num_blocks + 1) * spb):
            assert outcome(RecordStore.get, store, record_id) == outcome(
                whole_block_get, store, record_id
            )


@pytest.mark.parametrize("kernel", KERNELS)
def test_slot_read_never_touches_the_platter_bytes(kernel):
    with default_kernel(kernel):
        store, ids = filled_store(payloads=[b"p" * 48] * 9)
    before = store.disk.export_state()
    writes = store.disk.stats.writes
    assert [store.get(rid) for rid in ids] == [b"p" * 48] * 9
    assert store.disk.export_state() == before
    assert store.disk.stats.writes == writes


class TestBudget:
    """A cache-off get of a 48-byte payload: one decryption, few DES blocks."""

    @staticmethod
    def metered(store):
        """Wrap the store's DES object, tallying blocks and IV derivations."""
        des = store._transform._des
        tally = {"blocks": 0, "ivs": 0}
        encrypt_block, decrypt_blocks = des.encrypt_block, des.decrypt_blocks

        def counted_encrypt_block(block):
            tally["ivs"] += 1
            tally["blocks"] += 1
            return encrypt_block(block)

        def counted_decrypt_blocks(blocks):
            tally["blocks"] += len(blocks) // 8
            return decrypt_blocks(blocks)

        des.encrypt_block = counted_encrypt_block
        des.decrypt_blocks = counted_decrypt_blocks
        return tally

    def test_each_slot_within_budget(self):
        store, ids = filled_store(payloads=[b"r" * 48] * 4)
        assert store.slots_per_block == 4 and len(ids) == 4
        tally = self.metered(store)
        for slot, record_id in enumerate(ids):
            counts_before = store.cipher_counts.snapshot()
            tally.update(blocks=0, ivs=0)
            assert store.get(record_id) == b"r" * 48
            counts = store.cipher_counts.snapshot()
            assert counts["decryptions"] - counts_before["decryptions"] == 1
            des_blocks = counts["des_blocks"] - counts_before["des_blocks"]
            assert des_blocks == tally["blocks"] <= 10
            # the IV is derived only where the slot starts at cipher block 0
            assert tally["ivs"] == (1 if slot == 0 else 0)

    def test_free_slot_read_stops_at_its_prefix(self):
        store, ids = filled_store(payloads=[b"r" * 48] * 4)
        store.delete(ids[2])
        before = store.cipher_counts.des_blocks
        with pytest.raises(StorageError):
            store.get(ids[2])
        # the padding block plus the one or two blocks of the 0xFFFF prefix
        assert store.cipher_counts.des_blocks - before <= 3

    def test_whole_block_read_pays_the_full_block(self):
        store, ids = filled_store(payloads=[b"r" * 48] * 4)
        before = store.cipher_counts.des_blocks
        store.disk.read_block(0)
        # 4 slots of 122 bytes pad to 62 cipher blocks, plus the IV
        assert store.cipher_counts.des_blocks - before == 63

    def test_cache_miss_still_deciphers_the_whole_block(self):
        store, ids = filled_store(payloads=[b"r" * 48] * 4, cache_blocks=4)
        store.clear_cache()
        before = store.cipher_counts.snapshot()
        assert [store.get(rid) for rid in ids] == [b"r" * 48] * 4
        after = store.cipher_counts.snapshot()
        assert after["decryptions"] - before["decryptions"] == 1
        assert after["des_blocks"] - before["des_blocks"] == 63


class TestDeviceErrorsUnchanged:
    def test_permanent_read_fault_surfaces(self):
        store, ids = filled_store(payloads=[b"x"] * 3)
        plan = FaultPlan.parse("read.permanent@1")
        store.disk.attach_faults(FaultInjector(plan, seed=plan.seed))
        with pytest.raises(PermanentIOError):
            store.get(ids[0])

    def test_transient_read_fault_heals_with_identical_stats(self):
        control, ids = filled_store(payloads=[b"x"] * 3)
        chaos, _ = filled_store(payloads=[b"x"] * 3)
        plan = FaultPlan.parse("read.transient@1")
        retry = RetryPolicy(base_delay_s=0.0, max_delay_s=0.0)
        chaos.disk.attach_faults(FaultInjector(plan, seed=plan.seed), retry)
        assert [chaos.get(r) for r in ids] == [control.get(r) for r in ids]
        assert chaos.disk.stats == control.disk.stats
        assert chaos.cipher_counts.snapshot() == control.cipher_counts.snapshot()
        assert chaos.disk.fault_snapshot()["retries"] == 1

    def test_file_platter_slot_reads(self, tmp_path):
        backend = FileBackend(tmp_path, fsync=False)
        store = RecordStore(KEY, record_size=50, block_size=256, backend=backend)
        ids = [store.put(bytes([i]) * i) for i in range(20)]
        store.delete(ids[7])
        store.disk.sync()
        for record_id in range(-1, store.disk.num_blocks * store.slots_per_block):
            assert outcome(RecordStore.get, store, record_id) == outcome(
                whole_block_get, store, record_id
            )
        store.disk.close()
