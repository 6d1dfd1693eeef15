"""The plaintext read-cache hierarchy: hits, invalidation, envelope.

Three families of claims:

* **correctness** -- cached and uncached engines return identical
  results, and every mutation path (put, delete, rollback, reopen)
  invalidates or refreshes the plaintext it touches;
* **effectiveness** -- warm reads stop deciphering record blocks and
  decoding node blocks;
* **security envelope** -- the caches change only plaintext-side work:
  with caching disabled the cipher-operation counts are bit-for-bit the
  historical ones, and with it enabled the ciphertext on the platters is
  unchanged.
"""

from __future__ import annotations

import random

import pytest

from repro.core.database import EncipheredDatabase
from repro.core.records import RecordStore
from repro.crypto.rsa import RSA, generate_rsa_keypair
from repro.designs.difference_sets import planar_difference_set
from repro.exceptions import StorageError
from repro.substitution.oval import OvalSubstitution

DESIGN = planar_difference_set(13)  # v = 183
KEY = b"\x13\x34\x57\x79\x9b\xbc\xdf\xf1"


@pytest.fixture(scope="module")
def cipher():
    return RSA(generate_rsa_keypair(bits=128, rng=random.Random(0xCACE)))


def make_db(cipher, **kwargs) -> EncipheredDatabase:
    return EncipheredDatabase.create(OvalSubstitution(DESIGN, t=5), cipher, **kwargs)


class TestRecordStoreCache:
    def make_store(self, cache_blocks: int) -> RecordStore:
        return RecordStore(
            KEY, record_size=32, block_size=256, cache_blocks=cache_blocks
        )

    def test_warm_get_skips_decryption(self):
        store = self.make_store(cache_blocks=8)
        rid = store.put(b"hot record")
        store.cipher_counts.reset()
        for _ in range(5):
            assert store.get(rid) == b"hot record"
        assert store.cipher_counts.decryptions <= 1
        assert store.cache.stats.hits >= 4

    def test_disabled_cache_decrypts_every_get(self):
        store = self.make_store(cache_blocks=0)
        rid = store.put(b"cold record")
        store.cipher_counts.reset()
        for _ in range(5):
            store.get(rid)
        assert store.cipher_counts.decryptions == 5
        assert store.cache.stats.hits == 0

    def test_same_block_neighbours_share_one_decryption(self):
        store = self.make_store(cache_blocks=8)
        rids = [store.put(f"r{i}".encode()) for i in range(store.slots_per_block)]
        store.clear_cache()
        store.cipher_counts.reset()
        for rid in rids:
            store.get(rid)
        assert store.cipher_counts.decryptions == 1  # one block, one decipher

    def test_put_refreshes_cached_block(self):
        store = self.make_store(cache_blocks=8)
        rid = store.put(b"first")
        store.get(rid)  # warm
        store.delete(rid)
        rid2 = store.put(b"second")  # reuses the freed slot
        assert rid2 == rid
        assert store.get(rid2) == b"second"

    def test_delete_then_get_misses(self):
        store = self.make_store(cache_blocks=8)
        rid = store.put(b"doomed")
        store.get(rid)  # plaintext now cached
        store.delete(rid)
        with pytest.raises(StorageError, match="free or corrupt"):
            store.get(rid)

    def test_cached_and_uncached_stores_write_identical_ciphertext(self):
        cached, control = self.make_store(8), self.make_store(0)
        ops = random.Random(7)
        live: list[int] = []
        for _ in range(120):
            if live and ops.random() < 0.3:
                rid = live.pop(ops.randrange(len(live)))
                cached.delete(rid)
                control.delete(rid)
            else:
                payload = bytes([ops.randrange(256)]) * ops.randrange(1, 30)
                r1, r2 = cached.put(payload), control.put(payload)
                assert r1 == r2
                live.append(r1)
            if live:
                probe = live[ops.randrange(len(live))]
                assert cached.get(probe) == control.get(probe)
        assert cached.disk.raw_blocks() == control.disk.raw_blocks()

    def test_clear_cache_forces_cold_read(self):
        store = self.make_store(cache_blocks=8)
        rid = store.put(b"x")
        store.get(rid)
        assert store.clear_cache() >= 1
        store.cipher_counts.reset()
        store.get(rid)
        assert store.cipher_counts.decryptions == 1


class TestDatabaseCaching:
    def test_cached_database_serves_identical_results(self, cipher):
        cached = make_db(cipher, record_cache_blocks=64,
                         decoded_node_cache_blocks=64)
        control = make_db(cipher)
        keys = random.Random(1).sample(range(DESIGN.v), 80)
        for k in keys:
            cached.insert(k, f"r{k}".encode())
            control.insert(k, f"r{k}".encode())
        for k in keys:
            assert cached.search(k) == control.search(k)
        assert cached.range_search(0, DESIGN.v) == control.range_search(0, DESIGN.v)

    def test_warm_range_search_decrypts_fewer_blocks(self, cipher):
        db = make_db(cipher, record_cache_blocks=64, decoded_node_cache_blocks=64)
        for k in range(0, 120, 2):
            db.insert(k, b"payload")
        db.records.cipher_counts.reset()
        db.range_search(0, 120)  # warms both cache levels
        warm_start = db.records.cipher_counts.decryptions
        db.range_search(0, 120)
        assert db.records.cipher_counts.decryptions == warm_start  # all hits
        assert db.stats()["record_cache"]["hits"] > 0

    def test_decoded_node_cache_skips_pointer_decryptions(self, cipher):
        db = make_db(cipher, decoded_node_cache_blocks=64)
        for k in range(0, 100, 2):
            db.insert(k, b"x")
        db.search(50)  # warm the path
        before = db.pointer_cipher.counts.decryptions
        db.search(50)
        assert db.pointer_cipher.counts.decryptions == before
        assert db.stats()["node_decoded_cache"]["hits"] > 0

    def test_disabled_caches_keep_historic_cipher_counts(self, cipher):
        db = make_db(cipher)  # both cache levels off (the default)
        for k in range(0, 60, 3):
            db.insert(k, b"x")
        db.pointer_cipher.reset_counts()
        db.records.cipher_counts.reset()
        first = db.search(30)
        probe_decrypts = db.pointer_cipher.counts.decryptions
        record_decrypts = db.records.cipher_counts.decryptions
        assert record_decrypts == 1
        second = db.search(30)
        assert second == first
        # every repeat visit pays the full bill again: nothing is cached
        assert db.pointer_cipher.counts.decryptions == 2 * probe_decrypts
        assert db.records.cipher_counts.decryptions == 2

    def test_update_via_delete_insert_is_visible_through_caches(self, cipher):
        db = make_db(cipher, record_cache_blocks=64, decoded_node_cache_blocks=64)
        db.insert(10, b"old")
        assert db.search(10) == b"old"  # warm
        db.delete(10)
        db.insert(10, b"new")
        assert db.search(10) == b"new"

    def test_config_reports_capacities(self, cipher):
        db = make_db(cipher, record_cache_blocks=5, decoded_node_cache_blocks=7)
        assert db.config.record_cache_blocks == 5
        assert db.config.decoded_node_cache_blocks == 7
        assert db.config.cache_blocks == 16

    def test_clear_caches_is_safe_and_cold(self, cipher):
        db = make_db(cipher, record_cache_blocks=64, decoded_node_cache_blocks=64)
        for k in range(0, 40, 2):
            db.insert(k, b"x")
        db.range_search(0, 40)
        db.clear_caches()
        db.records.cipher_counts.reset()
        assert db.search(20) == b"x"
        assert db.records.cipher_counts.decryptions == 1


class TestInvalidation:
    def test_rollback_evicts_plaintext_cached_during_transaction(self, cipher):
        db = make_db(cipher, record_cache_blocks=64, decoded_node_cache_blocks=64)
        db.insert(1, b"committed")
        with pytest.raises(RuntimeError):
            with db.transaction():
                db.insert(2, b"uncommitted")
                # warm every cache level with the uncommitted state
                assert db.search(2) == b"uncommitted"
                db.range_search(0, 10)
                raise RuntimeError("abort")
        # the rolled-back record is gone -- from the index and the caches
        assert db.get(2) is None
        assert db.search(1) == b"committed"
        # the slot is free again: its cached block shows the free marker
        assert db.records.count == 1

    def test_rollback_then_reinsert_reads_fresh_plaintext(self, cipher):
        db = make_db(cipher, record_cache_blocks=64, decoded_node_cache_blocks=64)
        with pytest.raises(RuntimeError):
            with db.transaction():
                db.insert(5, b"phantom")
                db.search(5)
                raise RuntimeError("abort")
        db.insert(5, b"real")
        assert db.search(5) == b"real"
        assert db.range_search(0, 10) == [(5, b"real")]

    def test_clear_caches_inside_transaction_keeps_rollback_sound(self, cipher):
        """clear_caches() mid-transaction must not flush uncommitted pages
        past the rollback point (it drops only clean/derived state)."""
        db = make_db(cipher, record_cache_blocks=64, decoded_node_cache_blocks=64)
        db.insert(1, b"committed")
        with pytest.raises(RuntimeError):
            with db.transaction():
                db.insert(2, b"uncommitted")
                db.clear_caches()
                assert db.search(2) == b"uncommitted"  # dirt survived the clear
                raise RuntimeError("abort")
        assert db.get(2) is None
        assert db.search(1) == b"committed"
        assert len(db) == 1
        db.tree.check_invariants()
        # the platter is coherent: a fresh handle agrees
        reopened = EncipheredDatabase.reopen(
            OvalSubstitution(DESIGN, t=5), cipher, db.disk, db.records
        )
        assert len(reopened) == 1

    def test_committed_transaction_keeps_caches_coherent(self, cipher):
        db = make_db(cipher, record_cache_blocks=64, decoded_node_cache_blocks=64)
        with db.transaction():
            for k in range(0, 30, 3):
                db.insert(k, f"v{k}".encode())
        assert db.range_search(0, 30) == [
            (k, f"v{k}".encode()) for k in range(0, 30, 3)
        ]

    def test_delete_then_get_misses_through_database(self, cipher):
        db = make_db(cipher, record_cache_blocks=64, decoded_node_cache_blocks=64)
        db.insert(9, b"here")
        assert db.search(9) == b"here"  # plaintext cached
        db.delete(9)
        assert db.get(9) is None
        assert 9 not in db

    def test_reopen_starts_cold(self, cipher):
        sub = OvalSubstitution(DESIGN, t=5)
        db = EncipheredDatabase.create(
            sub, cipher, record_cache_blocks=64, decoded_node_cache_blocks=64
        )
        for k in range(0, 50, 5):
            db.insert(k, b"x")
        db.range_search(0, 50)  # warm
        assert len(db.records.cache) > 0
        reopened = EncipheredDatabase.reopen(
            OvalSubstitution(DESIGN, t=5), cipher, db.disk, db.records,
            record_cache_blocks=64, decoded_node_cache_blocks=64,
        )
        # the shared record store's cache was cleared on the way up, and
        # the node caches forgot what attach's verification walk touched
        stats = reopened.stats()
        assert stats["record_cache"]["hits"] == 0
        assert stats["node_decoded_cache"] == dict.fromkeys(
            ("hits", "misses", "insertions", "evictions", "invalidations"), 0
        )
        assert len(reopened.tree.pager.decoded) == 0
        assert stats["pager"]["hits"] == 0
        reopened.records.cipher_counts.reset()
        assert reopened.search(20) == b"x"
        assert reopened.records.cipher_counts.decryptions == 1  # cold read

    def test_reopen_without_sizes_preserves_store_capacity(self, cipher):
        db = make_db(cipher, record_cache_blocks=12)
        db.insert(3, b"x")
        reopened = EncipheredDatabase.reopen(
            OvalSubstitution(DESIGN, t=5), cipher, db.disk, db.records
        )
        assert reopened.config.record_cache_blocks == 12
        assert reopened.records.cache.capacity == 12
        assert reopened.config.decoded_node_cache_blocks == 0

    def test_stats_contains_cache_counters(self, cipher):
        db = make_db(cipher, record_cache_blocks=8)
        db.insert(1, b"x")
        db.search(1)
        db.search(1)
        stats = db.stats()
        for section in ("record_cache", "node_decoded_cache", "record_cipher"):
            assert section in stats
        assert stats["record_cache"]["hits"] >= 1
        # put() enciphered the block; the warm searches never deciphered
        assert stats["record_cipher"]["encryptions"] >= 1
        assert stats["record_cipher"]["decryptions"] == 0
