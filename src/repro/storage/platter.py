"""A durable single-file block device with WAL crash recovery.

:class:`FilePlatter` gives the enciphered-database-at-rest story an
actual at-rest form: one self-describing file per device, in the spirit
of the ubik ``.DB0`` layout (magic, ``{epoch, counter}`` version pair,
length-prefixed values), holding exactly the bytes
:class:`~repro.storage.disk.SimulatedDisk` would hold in memory --
the :class:`~repro.storage.device.BlockTransform` still runs at the
read/write boundary, so what rests in the file is ciphertext.

On-disk layout (all integers little-endian)::

    main file (``<name>.platter``)
    +-----------------------------+ 0
    | header slot A (64 bytes)    |   magic "HSPL1990", version u16,
    +-----------------------------+ 64  flags u16, block_size u32,
    | header slot B (64 bytes)    |   counter u64, epoch u64,
    +-----------------------------+ 128 block_count u64, pad, crc32
    | block record 0              |
    |   len  u32  (= payload+1;   |   record i lives at the fixed
    |             0 = unwritten)  |   offset 128 + i*(8+block_size),
    |   crc  u32  (id64 || bytes) |   so a record never moves and a
    |   payload (<= block_size)   |   torn rewrite clobbers only its
    +-----------------------------+   own slot
    | block record 1 ...          |

    sidecar WAL (``<name>.platter.wal``)
    +-----------------------------+ 0
    | magic "HSWL1990", ver, pad  |   16-byte header
    +-----------------------------+ 16
    | frame: body_len u32, crc u32|   body = counter u64, epoch u64,
    |        body                 |   block_count u64, nentries u32,
    +-----------------------------+   then per entry: id u64,
    | frame ...                   |   len u32 (payload+1), payload

Durability protocol (one :meth:`sync` = one *flush generation*, the
``counter``):

1. every pending at-rest write is packed into **one WAL frame**,
   appended and fsynced -- the frame *is* the commit record;
2. the writes land in the main file at their fixed record offsets,
   then the main file is fsynced;
3. the 64-byte header -- the only sub-sector-sized write in the
   protocol -- is rewritten **in the alternate slot** (``counter & 1``)
   and fsynced; readers pick the valid slot with the higher counter,
   so a torn header write simply loses the flip, not the file.

A crash between 1 and 3 is healed on :meth:`open <FilePlatter>`: WAL
frames with ``counter`` above the header's are replayed (idempotent --
records live at fixed offsets), then the header is flipped.  A torn
*tail* frame (the crash hit the WAL append itself) fails its CRC and is
truncated away -- that generation never committed.  A block record
whose CRC fails on read is repaired from the newest WAL frame that
wrote it; with the WAL checkpointed, corruption is unrepairable and
surfaces as :class:`~repro.exceptions.PlatterFormatError`.

Concurrent :meth:`sync` calls serialise on the platter lock.
Coalescing concurrent committers is the database's group commit, one
layer up: the engine syncs a platter under the database write lock or
as that group's single leader, so a second leader/follower protocol
here never had a follower to serve.

The platter subscribes to its own change journal's ``on_seal`` hook:
when the cluster seals an epoch that still has unsynced writes (a
write-batch under ``autocommit=False``), the seal itself forces the
sync, so *sealed implies durable* -- the WAL is the journal's
persistent form, which is why epochs ride inside every frame.

``fault_hook`` is the crash-injection seam for the recovery tests: when
set, it is called with a named crash point (``"sync:start"``,
``"wal:appended"``, ``"apply:block"``, ``"apply:done"``,
``"header:flipped"``) and may raise to simulate the process dying right
there; :meth:`abandon` then drops the file handles without any
tidy-up, exactly like a kill.
"""

from __future__ import annotations

import os
import struct
import threading
import time
import zlib
from time import perf_counter

from repro.exceptions import BlockBoundsError, PlatterFormatError, StorageError
from repro.storage.device import DURABILITY_FIELDS, BlockDevice, BlockTransform

__all__ = ["FilePlatter", "MAGIC", "WAL_MAGIC", "FORMAT_VERSION"]

MAGIC = b"HSPL1990"
WAL_MAGIC = b"HSWL1990"
FORMAT_VERSION = 1

#: Header slot: magic, version, flags, block_size, counter, epoch,
#: block_count, reserved, crc32 over the first 60 bytes.
_HEADER = struct.Struct("<8sHHIQQQ20sI")
_HEADER_SIZE = 64
_DATA_OFFSET = 2 * _HEADER_SIZE
assert _HEADER.size == _HEADER_SIZE

_WAL_HEADER = struct.Struct("<8sH6s")
_WAL_DATA_OFFSET = 16
assert _WAL_HEADER.size == _WAL_DATA_OFFSET

#: WAL frame prefix (body length, body crc32) and body header
#: (counter, epoch, block_count, nentries); entries are id u64 +
#: len-field u32 + payload.
_FRAME_PREFIX = struct.Struct("<II")
_FRAME_BODY = struct.Struct("<QQQI")
_FRAME_ENTRY = struct.Struct("<QI")

#: Main-file block record prefix: len-field u32 (payload length + 1,
#: so 0 unambiguously means "never written"), crc32 u32.
_RECORD_PREFIX = struct.Struct("<II")
_RECORD_HEADER = _RECORD_PREFIX.size

#: Sentinel for "the at-rest bytes are unreadable" in the write-path
#: dedup compare -- unequal to any bytes and to None, so a write over a
#: corrupt record always journals and always lands.
_TORN = object()


def _block_crc(block_id: int, payload: bytes) -> int:
    return zlib.crc32(block_id.to_bytes(8, "little") + payload)


class _Frame:
    """One parsed WAL frame (transient: scan/replay/poll bookkeeping)."""

    __slots__ = ("counter", "epoch", "block_count", "entries")

    def __init__(self, counter, epoch, block_count, entries):
        self.counter = counter
        self.epoch = epoch
        self.block_count = block_count
        #: list of (block_id, payload | None, abs_payload_offset)
        self.entries = entries


class FilePlatter(BlockDevice):
    """A self-describing single-file block device with a sidecar WAL.

    Parameters
    ----------
    path:
        The main platter file.  The WAL lives beside it at
        ``<path>.wal``.
    block_size:
        Block capacity in bytes.  On open of an existing platter this
        must match the header (or be left at the default to adopt it).
    transform:
        Optional on-the-fly encipherment module; what reaches the file
        is its output.
    create:
        ``True`` -- create a fresh platter, failing if ``path`` exists;
        ``False`` -- open an existing one, failing if it does not;
        ``None`` (default) -- open if present, else create.
    fsync:
        When ``False``, skip the ``fsync`` calls (OS buffering only).
        Crash *recovery* still works against the bytes that made it to
        the file; the tests run mostly with ``fsync=False`` for speed
        and the benchmarks measure both.
    wal_limit_bytes:
        Auto-checkpoint threshold: after a sync that leaves the WAL
        larger than this, the WAL is truncated (the main file is
        already fully applied and header-flipped, so nothing is lost --
        only cross-handle :meth:`poll` continuity, which degrades to
        "resync wholesale").

    Write path: at-rest bytes stage in ``_pending`` (read-modify-write
    against the file for the journal's no-op dedup) and reach the file
    only at :meth:`sync` -- the device-level analogue of a write-back
    cache, and what makes "one commit = one WAL frame = one header
    flip" possible.  Reads prefer ``_pending`` (a handle must see its
    own writes) and otherwise hit the file; there is deliberately *no*
    device-level read cache -- the caches above (pager, record store)
    already serve hot reads, so a cold open here is honestly cold.
    """

    def __init__(
        self,
        path,
        block_size: int = 4096,
        transform: BlockTransform | None = None,
        *,
        create: bool | None = None,
        fsync: bool = True,
        wal_limit_bytes: int = 16 * 1024 * 1024,
        fsync_latency_s: float = 0.0,
    ) -> None:
        self.path = os.fspath(path)
        self.wal_path = self.path + ".wal"
        self.fsync = fsync
        self.wal_limit_bytes = wal_limit_bytes
        #: Modeled seconds charged per fsync (sleeps alongside the real
        #: call), the durable-device analogue of ``SimulatedDisk
        #: (latency_s=...)``: benchmarks arm it so commit batching shows
        #: up in wall time even on a RAM-backed CI filesystem.
        if fsync_latency_s < 0.0:
            raise StorageError(f"negative fsync latency: {fsync_latency_s}")
        self.fsync_latency_s = fsync_latency_s
        #: Crash-injection seam; see the module docstring.
        self.fault_hook = None

        exists = os.path.exists(self.path)
        if create is True and exists:
            raise StorageError(f"platter already exists: {self.path}")
        if create is False and not exists:
            raise StorageError(f"platter not found: {self.path}")

        self._lock = threading.RLock()
        self._closed = False
        self._pending: dict[int, bytes | None] = {}
        #: block id -> (absolute WAL payload offset, payload length):
        #: the newest WAL copy of the block, for CRC-failure repair.
        self._repair: dict[int, tuple[int, int]] = {}
        self._durability = {field: 0 for field in DURABILITY_FIELDS}
        self._last_sealed_epoch = 0

        if exists:
            self._fh = open(self.path, "r+b", buffering=0)
            counter, epoch, count, disk_block_size = self._read_header()
            if block_size not in (4096, disk_block_size):
                raise StorageError(
                    f"platter {self.path} holds {disk_block_size}-byte blocks, "
                    f"not {block_size}"
                )
            super().__init__(disk_block_size, transform)
            self._durable_counter = counter
            self._durable_epoch = epoch
            self._durable_count = count
            self._count = count
            self._open_wal(create=not os.path.exists(self.wal_path))
            self._recover()
        else:
            super().__init__(block_size, transform)
            self._fh = open(self.path, "x+b", buffering=0)
            self._durable_counter = 0
            self._durable_epoch = 0
            self._durable_count = 0
            self._count = 0
            self._write_header_slot(0, 0, 0)
            self._fsync_main()
            self._open_wal(create=True)
        self._last_sealed_epoch = self._durable_epoch

    # -- header ----------------------------------------------------------

    def _pack_header(self, counter: int, epoch: int, block_count: int) -> bytes:
        body = _HEADER.pack(
            MAGIC, FORMAT_VERSION, 0, self.block_size, counter, epoch,
            block_count, b"\x00" * 20, 0,
        )
        return body[:-4] + struct.pack("<I", zlib.crc32(body[:-4]))

    def _write_header_slot(self, counter: int, epoch: int, block_count: int) -> None:
        slot = counter & 1
        self._fh.seek(slot * _HEADER_SIZE)
        self._fh.write(self._pack_header(counter, epoch, block_count))

    @staticmethod
    def _parse_header_slot(raw: bytes):
        """Return (counter, epoch, block_count, block_size) or None."""
        if len(raw) != _HEADER_SIZE:
            return None
        magic, version, _flags, block_size, counter, epoch, count, _pad, crc = (
            _HEADER.unpack(raw)
        )
        if magic != MAGIC or crc != zlib.crc32(raw[:-4]):
            return None
        if version != FORMAT_VERSION:
            raise PlatterFormatError(
                f"platter format version {version} not supported "
                f"(this build reads version {FORMAT_VERSION})"
            )
        return counter, epoch, count, block_size

    def _read_header(self):
        """Pick the valid header slot with the higher counter."""
        self._fh.seek(0)
        raw = self._fh.read(_DATA_OFFSET)
        best = None
        for slot in (0, 1):
            parsed = self._parse_header_slot(raw[slot * 64 : slot * 64 + 64])
            if parsed is not None and (best is None or parsed[0] > best[0]):
                best = parsed
        if best is None:
            raise PlatterFormatError(
                f"{self.path}: no valid platter header (bad magic or checksum "
                "in both slots)"
            )
        return best

    # -- WAL -------------------------------------------------------------

    def _open_wal(self, create: bool) -> None:
        if create:
            self._wal = open(self.wal_path, "w+b", buffering=0)
            self._wal.write(_WAL_HEADER.pack(WAL_MAGIC, FORMAT_VERSION, b"\x00" * 6))
            self._fsync_wal()
        else:
            self._wal = open(self.wal_path, "r+b", buffering=0)
            self._wal.seek(0)
            raw = self._wal.read(_WAL_DATA_OFFSET)
            if len(raw) != _WAL_DATA_OFFSET or raw[:8] != WAL_MAGIC:
                raise PlatterFormatError(f"{self.wal_path}: not a platter WAL")

    def _scan_wal(self) -> tuple[list[_Frame], int]:
        """Parse every intact frame; return (frames, end-of-good-bytes).

        Stops at the first torn frame -- a short or checksum-failed
        tail is the signature of a crash mid-append, and nothing after
        it can be trusted (appends are strictly ordered).
        """
        self._wal.seek(0, os.SEEK_END)
        size = self._wal.tell()
        self._wal.seek(_WAL_DATA_OFFSET)
        frames: list[_Frame] = []
        good_end = _WAL_DATA_OFFSET
        offset = _WAL_DATA_OFFSET
        while offset + _FRAME_PREFIX.size <= size:
            self._wal.seek(offset)
            body_len, crc = _FRAME_PREFIX.unpack(self._wal.read(_FRAME_PREFIX.size))
            body_start = offset + _FRAME_PREFIX.size
            if body_start + body_len > size:
                break  # torn tail: the append never finished
            body = self._wal.read(body_len)
            if len(body) != body_len or zlib.crc32(body) != crc:
                break
            counter, epoch, block_count, nentries = _FRAME_BODY.unpack_from(body, 0)
            pos = _FRAME_BODY.size
            entries = []
            try:
                for _ in range(nentries):
                    block_id, len_field = _FRAME_ENTRY.unpack_from(body, pos)
                    pos += _FRAME_ENTRY.size
                    if len_field == 0:
                        entries.append((block_id, None, 0))
                    else:
                        payload = body[pos : pos + len_field - 1]
                        if len(payload) != len_field - 1:
                            raise PlatterFormatError("frame body underrun")
                        entries.append((block_id, payload, body_start + pos))
                        pos += len_field - 1
            except (struct.error, PlatterFormatError):
                break  # CRC collided with garbage; treat as torn
            if frames and counter <= frames[-1].counter:
                raise PlatterFormatError(
                    f"{self.wal_path}: frame counters not increasing "
                    f"({frames[-1].counter} then {counter})"
                )
            frames.append(_Frame(counter, epoch, block_count, entries))
            good_end = body_start + body_len
            offset = good_end
        return frames, good_end

    def _index_frames(self, frames: list[_Frame]) -> None:
        for frame in frames:
            for block_id, payload, payload_off in frame.entries:
                if payload is not None:
                    self._repair[block_id] = (payload_off, len(payload))
                else:
                    self._repair.pop(block_id, None)

    # -- recovery --------------------------------------------------------

    def _recover(self) -> None:
        """Replay sealed-but-not-applied WAL frames; truncate torn tail."""
        frames, good_end = self._scan_wal()
        self._wal.seek(0, os.SEEK_END)
        if self._wal.tell() > good_end:
            self._wal.truncate(good_end)
            self._fsync_wal()
        replay = [f for f in frames if f.counter > self._durable_counter]
        expected = self._durable_counter + 1
        for frame in replay:
            if frame.counter != expected:
                raise PlatterFormatError(
                    f"{self.wal_path}: generation {expected} missing "
                    f"(found {frame.counter}); the log cannot complete the "
                    "interrupted flush"
                )
            for block_id, payload, _off in frame.entries:
                self._write_record(block_id, payload)
            expected += 1
            self._durability["frames_replayed"] += 1
        if replay:
            self._fsync_main()
            last = replay[-1]
            self._write_header_slot(last.counter, last.epoch, last.block_count)
            self._fsync_main()
            self._durability["header_flips"] += 1
            self.stats.header_flips += 1
            self._durable_counter = last.counter
            self._durable_epoch = last.epoch
            self._durable_count = last.block_count
            self._count = last.block_count
        self._index_frames(frames)

    # -- main-file records -----------------------------------------------

    def _record_offset(self, block_id: int) -> int:
        return _DATA_OFFSET + block_id * (_RECORD_HEADER + self.block_size)

    def _write_record(self, block_id: int, payload: bytes | None) -> None:
        self._fh.seek(self._record_offset(block_id))
        if payload is None:
            self._fh.write(_RECORD_PREFIX.pack(0, 0))
        else:
            self._fh.write(
                _RECORD_PREFIX.pack(len(payload) + 1, _block_crc(block_id, payload))
                + payload
            )

    def _read_record(self, block_id: int) -> bytes | None:
        """At-rest bytes straight from the file; ``None`` if never written.

        Raises :class:`PlatterFormatError` on a CRC mismatch or a
        short read -- the caller routes that through WAL repair.
        """
        self._fh.seek(self._record_offset(block_id))
        prefix = self._fh.read(_RECORD_HEADER)
        if len(prefix) < _RECORD_HEADER:
            return None  # beyond EOF: allocated, never synced
        len_field, crc = _RECORD_PREFIX.unpack(prefix)
        if len_field == 0:
            return None
        if len_field - 1 > self.block_size:
            raise PlatterFormatError(
                f"block {block_id}: length field {len_field - 1} overflows "
                f"{self.block_size}-byte records"
            )
        payload = self._fh.read(len_field - 1)
        if len(payload) != len_field - 1 or _block_crc(block_id, payload) != crc:
            raise PlatterFormatError(f"block {block_id}: record checksum mismatch")
        return payload

    def _repair_record(self, block_id: int) -> bytes:
        """Rewrite a checksum-failed record from its newest WAL copy."""
        entry = self._repair.get(block_id)
        if entry is None:
            raise PlatterFormatError(
                f"block {block_id}: record checksum mismatch and no WAL copy "
                "to repair from (log was checkpointed)"
            )
        payload_off, payload_len = entry
        self._wal.seek(payload_off)
        payload = self._wal.read(payload_len)
        if len(payload) != payload_len:
            raise PlatterFormatError(
                f"block {block_id}: WAL repair copy truncated"
            )
        self._write_record(block_id, payload)
        if self.fsync:
            self._fsync_main()
        self._durability["blocks_repaired"] += 1
        return payload

    def _at_rest(self, block_id: int) -> bytes | None:
        """Current at-rest bytes: pending overlay first, then the file."""
        if block_id in self._pending:
            return self._pending[block_id]
        try:
            return self._read_record(block_id)
        except PlatterFormatError:
            return self._repair_record(block_id)

    def _fsync_main(self) -> None:
        if self.fsync:
            with self.tracer.trace("platter.fsync"):
                os.fsync(self._fh.fileno())
                if self.fsync_latency_s > 0.0:
                    time.sleep(self.fsync_latency_s)
            self.stats.fsyncs += 1

    def _fsync_wal(self) -> None:
        if self.fsync:
            with self.tracer.trace("platter.fsync"):
                os.fsync(self._wal.fileno())
                if self.fsync_latency_s > 0.0:
                    time.sleep(self.fsync_latency_s)
            self.stats.fsyncs += 1

    def _fault(self, point: str) -> None:
        # the shared injector seam first (REPRO_FAULTS / attach_faults),
        # then the legacy per-instance hook the recovery tests predate it with
        if self.faults is not None:
            self.faults.crash_point(point)
        hook = self.fault_hook
        if hook is not None:
            hook(point)

    # -- allocation ------------------------------------------------------

    def allocate(self) -> int:
        with self._lock:
            block_id = self._count
            self._count += 1
            return block_id

    @property
    def num_blocks(self) -> int:
        return self._count

    def _check_id(self, block_id: int) -> None:
        if not 0 <= block_id < self._count:
            raise BlockBoundsError(
                f"block {block_id} outside device of {self._count} blocks",
                block_id=block_id,
            )

    # -- I/O -------------------------------------------------------------

    def _store(self, block_id: int, stored: bytes) -> None:
        with self._lock:
            try:
                current = self._at_rest(block_id)
            except PlatterFormatError:
                current = _TORN  # unrepairable; this write heals it
            if current is not None:
                self.stats.overwrites += 1
            if current != stored:
                self.journal.note(block_id)
                self._pending[block_id] = stored
            self.stats.writes += 1
            self.stats.bytes_written += len(stored)

    def _fetch(self, block_id: int) -> bytes:
        start = perf_counter()
        with self._lock:
            stored = self._at_rest(block_id)
            if stored is None:
                raise BlockBoundsError(
                    f"block {block_id} was never written", block_id=block_id
                )
            self.stats.reads += 1
            self.stats.bytes_read += len(stored)
            self.stats.read_time_s += perf_counter() - start
        return stored

    def _fetch_many(self, block_ids: list[int]) -> list[bytes]:
        """Batch fetch in one seek-ordered pass under one lock hold.

        Reading the batch in ascending record offset turns the scatter
        of a readahead hint into a single forward sweep over the file;
        duplicates are read once and served to every requester.
        """
        if not block_ids:
            return []
        start = perf_counter()
        with self._lock:
            fetched: dict[int, bytes] = {}
            for block_id in sorted(set(block_ids)):
                stored = self._at_rest(block_id)
                if stored is None:
                    raise BlockBoundsError(
                        f"block {block_id} was never written", block_id=block_id
                    )
                fetched[block_id] = stored
            elapsed = perf_counter() - start
            share = elapsed / len(block_ids)
            for block_id in block_ids:
                self.stats.reads += 1
                self.stats.bytes_read += len(fetched[block_id])
                self.stats.read_time_s += share
        return [fetched[block_id] for block_id in block_ids]

    # -- durability ------------------------------------------------------

    def sync(self) -> int:
        """Flush every pending write: WAL frame, apply, header flip.

        Returns the number of block records made durable.  A sync with
        nothing pending and no allocation/epoch movement is free -- no
        frame, no flip.

        Injected "sync" faults fire here, at the entry point, *before*
        any WAL work starts -- the one place a failed sync is trivially
        retryable (a mid-protocol failure is what the crash points
        model, and those recover via ``abandon()`` + reopen, not retry).
        """
        if self.faults is not None or self.retry_policy is not None:
            return self._guarded("sync", self._sync_entry)
        return self._sync_entry()

    def _sync_entry(self) -> int:
        with self._lock:
            return self._sync_locked()

    def _sync_locked(self) -> int:
        """The serial flush protocol; caller holds ``_lock``."""
        if (
            not self._pending
            and self._count == self._durable_count
            and self._last_sealed_epoch == self._durable_epoch
        ):
            return 0
        counter = self._durable_counter + 1
        epoch = self._last_sealed_epoch
        entries = sorted(self._pending.items())
        sync_start = perf_counter()
        self._fault("sync:start")

        with self.tracer.trace("platter.wal_append"):
            parts = [
                _FRAME_BODY.pack(counter, epoch, self._count, len(entries))
            ]
            for block_id, payload in entries:
                if payload is None:
                    parts.append(_FRAME_ENTRY.pack(block_id, 0))
                else:
                    parts.append(_FRAME_ENTRY.pack(block_id, len(payload) + 1))
                    parts.append(payload)
            body = b"".join(parts)
            self._wal.seek(0, os.SEEK_END)
            frame_start = self._wal.tell()
            self._wal.write(
                _FRAME_PREFIX.pack(len(body), zlib.crc32(body)) + body
            )
            self._fsync_wal()
        self._durability["wal_frames"] += 1
        self._durability["wal_bytes"] += _FRAME_PREFIX.size + len(body)
        self._fault("wal:appended")

        # index the frame for CRC repair while we know the offsets
        pos = frame_start + _FRAME_PREFIX.size + _FRAME_BODY.size
        for block_id, payload in entries:
            pos += _FRAME_ENTRY.size
            if payload is None:
                self._repair.pop(block_id, None)
            else:
                self._repair[block_id] = (pos, len(payload))
                pos += len(payload)

        for block_id, payload in entries:
            self._write_record(block_id, payload)
            self._fault("apply:block")
        self._fsync_main()
        self._fault("apply:done")

        with self.tracer.trace("platter.header_flip"):
            self._write_header_slot(counter, epoch, self._count)
            self._fsync_main()
        self._durability["header_flips"] += 1
        self.stats.header_flips += 1
        self._fault("header:flipped")

        self._durable_counter = counter
        self._durable_epoch = epoch
        self._durable_count = self._count
        self._pending.clear()
        self._durability["syncs"] += 1

        self._wal.seek(0, os.SEEK_END)
        if self._wal.tell() > self.wal_limit_bytes:
            self._checkpoint_locked()
        self.stats.write_time_s += perf_counter() - sync_start
        return len(entries)

    def _on_journal_seal(self, epoch: int, sealed_ids: frozenset[int]) -> None:
        """Sealed implies durable: an epoch closing over unsynced writes
        forces the sync, so the WAL frame carrying ``epoch`` exists
        before any consumer can be told the epoch is complete.
        """
        with self._lock:
            if epoch > self._last_sealed_epoch:
                self._last_sealed_epoch = epoch
            pending = bool(self._pending)
        if pending:
            self.sync()

    def checkpoint(self) -> None:
        """Sync, then truncate the WAL (the main file subsumes it).

        Repair history is dropped with it, and other handles'
        :meth:`poll` continuity breaks (they fall back to a wholesale
        resync) -- the trade the ``wal_limit_bytes`` auto-checkpoint
        makes to bound the sidecar.
        """
        self.sync()
        with self._lock:
            self._checkpoint_locked()

    def _checkpoint_locked(self) -> None:
        self._wal.truncate(_WAL_DATA_OFFSET)
        self._fsync_wal()
        self._repair.clear()
        self._durability["checkpoints"] += 1

    def poll(self) -> set[int] | None:
        """Catch up with commits another handle made to the same file.

        Re-reads the header; if its counter moved past ours, scans the
        WAL for the intervening frames and returns the union of their
        block ids -- exactly what a cache above must invalidate.
        Returns ``None`` when the intervening generations are no longer
        in the WAL (the writer checkpointed past us): completeness is
        unprovable, invalidate wholesale.  Only meaningful on a handle
        with no writes of its own (single-writer discipline).
        """
        with self._lock:
            if self._pending:
                raise StorageError(
                    "poll() on a handle with pending writes: polling is for "
                    "reader handles; the writer already knows what changed"
                )
            counter, epoch, count, _bs = self._read_header()
            if counter == self._durable_counter:
                return set()
            if counter < self._durable_counter:
                raise PlatterFormatError(
                    f"{self.path}: header counter moved backwards "
                    f"({self._durable_counter} to {counter})"
                )
            frames, _good_end = self._scan_wal()
            wanted = {
                c: None for c in range(self._durable_counter + 1, counter + 1)
            }
            changed: set[int] = set()
            for frame in frames:
                if frame.counter in wanted:
                    wanted[frame.counter] = frame
                    changed.update(e[0] for e in frame.entries)
            self._index_frames(frames)
            self._durable_counter = counter
            self._durable_epoch = epoch
            self._durable_count = count
            self._count = max(self._count, count)
            self._last_sealed_epoch = max(self._last_sealed_epoch, epoch)
            if any(f is None for f in wanted.values()):
                return None  # checkpointed past us; cannot prove completeness
            return changed

    def close(self) -> None:
        """Sync pending writes, then release the file handles.

        The handles are released even when the final sync fails (an
        injected permanent fault, a full disk): the sync error still
        propagates, but a second ``close()`` is a no-op either way and
        no descriptor leaks into the crash-recovery path.
        """
        with self._lock:
            if self._closed:
                return
        try:
            self.sync()
        finally:
            with self._lock:
                if not self._closed:
                    self._closed = True
                    self._fh.close()
                    self._wal.close()

    def abandon(self) -> None:
        """Drop the handles with *no* sync -- the crash-test kill switch."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._fh.close()
            self._wal.close()

    def durability_snapshot(self) -> dict[str, int]:
        with self._lock:
            return dict(self._durability)

    # -- whole-platter state (process-executor support) ------------------

    def export_state(self) -> list[bytes | None]:
        """Every block slot in platter order (see :class:`BlockDevice`)."""
        with self._lock:
            return [self._at_rest(block_id) for block_id in range(self._count)]

    def import_state(self, blocks: list[bytes | None]) -> None:
        for block_id, data in enumerate(blocks):
            if data is not None and len(data) > self.block_size:
                raise BlockBoundsError(
                    f"imported payload of {len(data)} bytes overflows "
                    f"{self.block_size}-byte block",
                    block_id=block_id,
                )
        with self._lock:
            self._pending = dict(enumerate(blocks))
            self._count = len(blocks)
        self.journal.taint()

    def snapshot_blocks(self, block_ids) -> dict[int, bytes | None]:
        with self._lock:
            out: dict[int, bytes | None] = {}
            for block_id in block_ids:
                if not 0 <= block_id < self._count:
                    raise BlockBoundsError(
                        f"block {block_id} outside device of "
                        f"{self._count} blocks",
                        block_id=block_id,
                    )
                out[block_id] = self._at_rest(block_id)
            return out

    def patch_state(self, num_blocks: int, block_writes: dict[int, bytes | None]) -> None:
        for block_id, data in block_writes.items():
            if data is not None and len(data) > self.block_size:
                raise BlockBoundsError(
                    f"patched payload of {len(data)} bytes overflows "
                    f"{self.block_size}-byte block",
                    block_id=block_id,
                )
            if block_id >= num_blocks:
                raise BlockBoundsError(
                    f"patch writes block {block_id} beyond device of "
                    f"{num_blocks} blocks",
                    block_id=block_id,
                )
        with self._lock:
            if num_blocks > self._count:
                self._count = num_blocks
            self._pending.update(block_writes)
        self.journal.note_many(block_writes)

    # -- the attacker's view ---------------------------------------------

    def raw_block(self, block_id: int) -> bytes:
        self._check_id(block_id)
        with self._lock:
            stored = self._at_rest(block_id)
        if stored is None:
            raise BlockBoundsError(
                f"block {block_id} was never written", block_id=block_id
            )
        return stored

    def raw_blocks(self) -> list[tuple[int, bytes]]:
        with self._lock:
            return [
                (block_id, data)
                for block_id in range(self._count)
                for data in (self._at_rest(block_id),)
                if data is not None
            ]
