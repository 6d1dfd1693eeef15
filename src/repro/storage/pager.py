"""Block allocation and a two-level block cache with two write policies.

The pager sits between the B-Tree and the block device (the in-memory
:class:`~repro.storage.disk.SimulatedDisk` or the durable
:class:`~repro.storage.platter.FilePlatter` -- any
:class:`~repro.storage.device.BlockDevice`).  Both of its
cache levels are :class:`~repro.storage.cache.LRUCache` instances -- the
one caching subsystem every layer of the read path shares:

* The **raw cache** holds blocks in their *post-transform* (i.e. still
  plain, the disk transform is below us) byte form as returned by the
  disk read path; decoding a node -- which is where the per-triplet
  cryptography lives -- always happens above the pager, so raw hits save
  disk I/O but never hide cryptographic cost.  That separation keeps the
  decryption counts of experiments C1/C3 faithful to the paper's model,
  where every node *visit* pays its decryptions.
* The **decoded cache** (``decoded_cache_blocks``, *disabled by
  default*) additionally memoises the caller-supplied decode of a block
  via :meth:`Pager.read_decoded`.  A decoded hit skips the codec
  entirely -- including its cryptography -- so this level must stay off
  for every paper-faithful experiment; it exists for the serving path,
  where redundant re-decryption of hot nodes is pure waste (benchmark
  C9).  Every write or invalidation of a block drops its decoded entry,
  so the decoded cache can never serve bytes the raw path has replaced.

Two write policies are offered:

* **write-through** (the default): every :meth:`Pager.write` goes straight
  to the disk.  This is the mode the paper's experiments (C1/C3 and the
  E-series) must run in -- each node rewrite is a disk write, so the
  reported I/O counts match the paper's per-operation cost model exactly.
* **write-back** (``write_back=True``): writes only mark the cached copy
  dirty; bytes reach the disk when the block is evicted (evict-writes-
  dirty, via the raw cache's eviction callback), on :meth:`Pager.flush`,
  or never if :meth:`Pager.discard_dirty` drops them first.  Repeated
  rewrites of a hot block -- the superblock, a leaf absorbing a batch of
  inserts -- coalesce into one disk write, which is the amortisation a
  transactional commit layer builds on.  Deferral happens *below* the
  node codec, so cryptographic counts are identical in both modes; only
  disk-write counts change.

:class:`PagerStats` tracks both the read-side cache effectiveness and the
write-side amplification (logical write requests vs. blocks that actually
hit the platter), which benchmark C7 reports.
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass, fields
from typing import Callable

from repro.obs.tracing import NULL_TRACER
from repro.storage.cache import LRUCache
from repro.storage.device import BlockDevice
from repro.storage.journal import DiskDelta


@dataclass
class PagerStats:
    """Cache-effectiveness and write-traffic counters.

    ``write_requests`` counts logical writes asked of the pager;
    ``disk_writes`` counts blocks the pager actually pushed to disk.  In
    write-through mode the two are equal; in write-back mode coalescing
    makes ``disk_writes`` the smaller number.
    """

    hits: int = 0
    misses: int = 0
    write_requests: int = 0
    disk_writes: int = 0
    dirty_evictions: int = 0
    flushes: int = 0
    #: Readahead accounting: blocks handed to the background fetchers,
    #: fetches that filled the raw cache, and fetches discarded on
    #: arrival (already cached by a racing read, or poisoned by a write
    #: or invalidation that landed while the fetch was in flight).
    readaheads: int = 0
    readahead_loads: int = 0
    readahead_drops: int = 0

    def reset(self) -> None:
        for f in fields(self):
            setattr(self, f.name, f.default)

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    @property
    def writes_deferred(self) -> int:
        """Logical writes that never became their own disk write."""
        return self.write_requests - self.disk_writes

    @property
    def write_amplification(self) -> float:
        """Disk writes per logical write (1.0 in write-through mode)."""
        return self.disk_writes / self.write_requests if self.write_requests else 0.0


class Pager:
    """Two-level LRU block cache with write-through or write-back semantics.

    Parameters
    ----------
    disk:
        The underlying block device.
    cache_blocks:
        Raw-cache capacity in blocks; ``0`` disables raw caching, which
        the benchmarks use to measure cold-traversal costs.  (With
        ``write_back=True`` and no cache, every dirty page is evicted --
        and therefore written -- immediately, degenerating to
        write-through.)
    write_back:
        ``False`` (default) writes through to disk on every
        :meth:`write`; ``True`` defers writes to eviction or
        :meth:`flush`.
    decoded_cache_blocks:
        Capacity of the decoded-page cache consulted by
        :meth:`read_decoded`; ``0`` (default) disables it, keeping every
        decode -- and its cryptography -- on the paper's cost model.

    Attributes
    ----------
    retain_dirty:
        When ``True``, eviction never selects a dirty page -- including
        pages that were already dirty when the flag was raised -- so the
        raw cache may temporarily exceed ``cache_blocks``.  A transaction
        sets this so that uncommitted pages stay discardable for
        rollback; the bound is restored by the :meth:`flush` or
        :meth:`discard_dirty` that ends the transaction.
    """

    def __init__(
        self,
        disk: BlockDevice,
        cache_blocks: int = 64,
        write_back: bool = False,
        decoded_cache_blocks: int = 0,
        readahead_workers: int = 0,
    ) -> None:
        self.disk = disk
        self.write_back = write_back
        self.retain_dirty = False
        self.stats = PagerStats()
        #: Background-fetch pool size; ``0`` (default) disables
        #: :meth:`readahead` entirely, keeping disk-read counts exactly
        #: on the blocking cost model.
        self.readahead_workers = readahead_workers
        self._ra_queue: "queue.Queue[list[int] | None]" = queue.Queue()
        self._ra_threads: list[threading.Thread] = []
        self._ra_inflight: set[int] = set()
        self._ra_poisoned: set[int] = set()
        #: Span tracer for read/write/flush timing; defaults to the
        #: shared disabled tracer, replaced by the owning database.
        self.tracer = NULL_TRACER
        self._raw = LRUCache(
            cache_blocks,
            on_evict=self._write_if_dirty,
            # consulted at eviction time, so it protects pages that were
            # dirty before retain_dirty was raised, not just later writes
            may_evict=lambda b: not (self.retain_dirty and b in self._dirty),
            name="pager-raw",
        )
        self.decoded = LRUCache(decoded_cache_blocks, name="pager-decoded")
        self._dirty: set[int] = set()
        # Concurrent readers admitted by the database's reader--writer
        # lock still *mutate* the pager (LRU reorder, fill-on-miss,
        # counters); this mutex keeps that mutation atomic.  Reentrant
        # because flush()/clear_cache() nest.
        self._lock = threading.RLock()

    def allocate(self) -> int:
        """Reserve a fresh block id."""
        return self.disk.allocate()

    @property
    def capacity(self) -> int:
        """Raw-cache capacity in blocks."""
        return self._raw.capacity

    @capacity.setter
    def capacity(self, cache_blocks: int) -> None:
        with self._lock:
            self._raw.resize(cache_blocks)

    @property
    def dirty_blocks(self) -> int:
        """Number of cached pages holding unwritten data."""
        with self._lock:
            return len(self._dirty)

    def read(self, block_id: int) -> bytes:
        """Read block bytes, consulting the raw cache first.

        In write-back mode the cache is authoritative: a dirty page is
        newer than the platter, so the cached copy is always returned.

        The mutex is *not* held across the disk read: the disk-level
        transform is where the cryptography happens, and concurrent
        readers missing on different blocks must be able to decipher in
        parallel.  Racing misses on the same block both read the platter;
        only the first fills the cache.
        """
        with self.tracer.trace("pager.read"):
            with self._lock:
                cached = self._raw.get(block_id)
                if cached is not None:
                    self.stats.hits += 1
                    return cached
                self.stats.misses += 1
            data = self.disk.read_block(block_id)
            with self._lock:
                current = self._raw.peek(block_id)
                if current is not None:
                    # a racing write (possibly dirty, newer than the
                    # platter) or fill beat us; theirs is authoritative
                    return current
                if self._raw.enabled:
                    self._raw.put(block_id, data)
            return data

    def readahead(self, block_ids) -> int:
        """Hint that the listed blocks will be read soon (advisory).

        With a worker pool configured (``readahead_workers > 0``) and
        the raw cache enabled, the not-yet-cached, not-dirty, not
        already-in-flight blocks are handed to a background fetcher that
        pulls them through :meth:`BlockDevice.read_many` -- one batched
        device round trip, deciphering off the caller's thread -- and
        fills the raw cache on arrival.  Returns the number of blocks
        scheduled (0 when the feature is off: the hint is free to emit
        unconditionally).

        Correctness under concurrent mutation: a write, invalidation or
        cache clear that lands while a fetch is in flight *poisons* the
        fetched block, and the arrival is dropped instead of filling the
        cache with bytes older than the platter's.  Fills also never
        overwrite an existing cache entry (a racing foreground read or
        write is authoritative), mirroring :meth:`read`.
        """
        if self.readahead_workers <= 0 or not self._raw.enabled:
            return 0
        with self._lock:
            batch = [
                block_id
                for block_id in block_ids
                if block_id not in self._ra_inflight
                and block_id not in self._dirty
                and self._raw.peek(block_id) is None
            ]
            if not batch:
                return 0
            self._ra_inflight.update(batch)
            self.stats.readaheads += len(batch)
            if not self._ra_threads:
                for i in range(self.readahead_workers):
                    thread = threading.Thread(
                        target=self._readahead_worker,
                        name=f"pager-readahead-{i}",
                        daemon=True,
                    )
                    thread.start()
                    self._ra_threads.append(thread)
        self._ra_queue.put(batch)
        return len(batch)

    def _readahead_worker(self) -> None:
        while True:
            batch = self._ra_queue.get()
            if batch is None:
                return
            with self.tracer.trace("pager.readahead"):
                try:
                    fetched = list(zip(batch, self.disk.read_many(batch)))
                except Exception:
                    # the batch is advisory: fall back per block and
                    # skip whatever cannot be read (never-written ids,
                    # bounds races, a device closing under us)
                    fetched = []
                    for block_id in batch:
                        try:
                            fetched.append((block_id, self.disk.read_block(block_id)))
                        except Exception:
                            fetched.append((block_id, None))
                with self._lock:
                    for block_id, data in fetched:
                        self._ra_inflight.discard(block_id)
                        if block_id in self._ra_poisoned:
                            self._ra_poisoned.discard(block_id)
                            self.stats.readahead_drops += 1
                        elif (
                            data is None
                            or not self._raw.enabled
                            or self._raw.peek(block_id) is not None
                        ):
                            self.stats.readahead_drops += 1
                        else:
                            self._raw.put(block_id, data)
                            self.stats.readahead_loads += 1

    def _poison_inflight(self, block_id: int) -> None:
        """Caller holds ``_lock``: mark an in-flight readahead stale."""
        if block_id in self._ra_inflight:
            self._ra_poisoned.add(block_id)

    def _poison_all_inflight(self) -> None:
        """Caller holds ``_lock``: no in-flight fetch may fill (cache
        reset paths -- the fill would defeat an intentional cold start,
        or resurrect bytes another handle has since replaced)."""
        self._ra_poisoned.update(self._ra_inflight)

    def close(self) -> None:
        """Stop the readahead workers (idempotent; drains in-flight work)."""
        with self._lock:
            threads, self._ra_threads = self._ra_threads, []
            self._poison_all_inflight()
        for _ in threads:
            self._ra_queue.put(None)
        for thread in threads:
            thread.join(timeout=10.0)

    def read_decoded(self, block_id: int, decode: Callable[[int, bytes], object]):
        """Read a block through the decoded-page cache.

        ``decode`` is called as ``decode(block_id, raw_bytes)`` on a
        decoded miss (or whenever the cache is disabled) and its result
        -- typically a lazy node view holding plaintext -- is memoised
        until the block is rewritten or invalidated.  The decode runs
        outside every pager lock, exactly like the raw read path: racing
        readers may decode the same block twice, and either result (they
        are equivalent) wins the fill.
        """
        if not self.decoded.enabled:
            return decode(block_id, self.read(block_id))
        cached = self.decoded.get(block_id)
        if cached is not None:
            return cached
        value = decode(block_id, self.read(block_id))
        self.decoded.put(block_id, value)
        return value

    def write(self, block_id: int, data: bytes) -> None:
        """Write a block: through to disk, or into the dirty set.

        Either way the block's decoded entry is dropped -- the plaintext
        cache must never outlive the bytes it was decoded from.
        """
        with self.tracer.trace("pager.write"):
            with self._lock:
                self.stats.write_requests += 1
                self._poison_inflight(block_id)
                self.decoded.invalidate(block_id)
                if self.write_back:
                    self._dirty.add(block_id)
                    # put() evicts over capacity, and eviction of a dirty
                    # page writes it (evict-writes-dirty) -- so with no
                    # cache at all this degenerates to write-through.
                    self._raw.put(block_id, data)
                else:
                    self.stats.disk_writes += 1
                    self.disk.write_block(block_id, data)
                    if self._raw.enabled:
                        self._raw.put(block_id, data)

    def flush(self) -> int:
        """Write every dirty page to disk; returns the number written.

        A no-op (and uncounted) when nothing is dirty, so write-through
        callers can flush unconditionally at commit points.
        """
        with self._lock:
            if not self._dirty:
                return 0
            with self.tracer.trace("pager.flush"):
                for block_id in sorted(self._dirty):
                    self.stats.disk_writes += 1
                    self.disk.write_block(block_id, self._raw.peek(block_id))
                flushed = len(self._dirty)
                self._dirty.clear()
                self.stats.flushes += 1
                # clean pages are evictable again
                self._raw.enforce_capacity()
                return flushed

    def discard_dirty(self) -> int:
        """Drop every dirty page *without* writing it (rollback support).

        The platter keeps whatever it last held for those blocks; both
        the raw bytes and any decoded plaintext cached for them are
        dropped, so a rolled-back page can never be served.  Returns the
        number of pages discarded.
        """
        with self._lock:
            dropped = len(self._dirty)
            for block_id in self._dirty:
                self._poison_inflight(block_id)
                self._raw.invalidate(block_id)
                self.decoded.invalidate(block_id)
            self._dirty.clear()
            self._raw.enforce_capacity()
            return dropped

    def collect_delta(self, since_epoch: int) -> DiskDelta | None:
        """The committed block changes sealed after ``since_epoch``.

        Returns a :class:`~repro.storage.journal.DiskDelta` carrying the
        current at-rest bytes of every block the disk's journal sealed
        after that epoch, or ``None`` when no delta can be served: the
        journal was truncated/tainted past the epoch, or dirty pages
        make the platter a non-authoritative snapshot (a delta must
        describe *committed* state only).
        """
        with self._lock:
            if self._dirty:
                return None
            changed = self.disk.journal.collect_since(since_epoch)
            if changed is None:
                return None
            return DiskDelta(
                num_blocks=self.disk.num_blocks,
                block_writes=self.disk.snapshot_blocks(sorted(changed)),
            )

    def invalidate(self, block_id: int) -> None:
        """Drop a block from both cache levels (e.g. after deallocation).

        A dirty page is dropped unwritten: the block is dead, its bytes
        must not resurface at the next flush.
        """
        with self._lock:
            self._poison_inflight(block_id)
            self._raw.invalidate(block_id)
            self.decoded.invalidate(block_id)
            self._dirty.discard(block_id)

    def reset_stats(self) -> None:
        """Zero every statistics surface the pager owns.

        :class:`PagerStats` and the two cache levels' own
        :class:`~repro.storage.cache.CacheStats` count overlapping
        events (a raw read bumps both tallies); resetting them together
        keeps the surfaces agreeing.
        """
        with self._lock:
            self.stats.reset()
            self._raw.stats.reset()
            self.decoded.stats.reset()

    def clear_cache(self) -> None:
        """Empty both cache levels; used to force cold benchmark runs.

        Dirty pages are flushed first -- clearing the cache must never
        lose written data.  Never call this inside a transaction scope:
        flushing would push uncommitted pages past the rollback point
        (use :meth:`drop_clean_cache` there instead).
        """
        with self._lock:
            self.flush()
            self._poison_all_inflight()
            self._raw.clear()
            self.decoded.clear()

    def drop_clean_cache(self) -> None:
        """Drop every *clean* cached page and all decoded views.

        The transaction-safe cold-cache path: dirty pages are neither
        flushed nor dropped, so uncommitted work stays exactly as
        discardable as it was.  Decoded views are always safe to drop --
        they are derived data, re-decodable from whatever the raw path
        serves next.
        """
        with self._lock:
            self._poison_all_inflight()
            for block_id in self._raw.keys():
                if block_id not in self._dirty:
                    self._raw.invalidate(block_id)
            self.decoded.clear()

    def _write_if_dirty(self, block_id: int, data: bytes) -> None:
        """Raw-cache eviction callback: a dirty page's last chance to
        reach disk (runs under both the pager and cache locks)."""
        if block_id in self._dirty:
            self.stats.disk_writes += 1
            self.stats.dirty_evictions += 1
            self.disk.write_block(block_id, data)
            self._dirty.discard(block_id)
