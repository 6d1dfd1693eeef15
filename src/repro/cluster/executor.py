"""Process-pool shard execution: fan-out that sidesteps the GIL.

Pure-Python DES serialises on the GIL, so threads cannot shorten a
fan-out's wall clock (benchmark C8 measured a thread pool at ~1x despite
a ~2.9x shorter critical path).  Shards are already share-nothing --
each owns its platters, substitution secret and derived keys -- which
is exactly the shape that *processes* parallelise.

This module supplies the cluster's ``executor="processes"`` backend:

* :class:`ShardSpec` -- a picklable description of one shard (platter
  bytes at rest, derived keys, deterministic factories, its
  :class:`~repro.core.config.DatabaseConfig`)
  from which a worker process rebuilds the shard via
  :meth:`~repro.core.database.EncipheredDatabase.reopen`.
* :func:`_shard_worker` -- the worker loop: one process per shard,
  request/reply over a pipe, serving ``range_search`` / ``get_many`` /
  ``bulk_load`` / ``put_many`` / ``delete_many`` / ``stats`` against its
  private copy.  The mutating ops (write offload) execute the batch on
  the replica and ship the resulting
  :class:`~repro.storage.journal.ShardDelta` back for parent apply --
  the same promote-once channel ``bulk_load`` uses.
* :class:`ProcessShardExecutor` -- the parent-side coordinator.  It
  ships each shard's spec lazily and re-syncs only when the parent's
  copy has changed (an *epoch* counter bumped by every cluster-level
  mutation), merges worker-side operation counters back into the
  cluster's statistics (the security cost model must count every
  decryption, wherever it ran), and installs the state a worker's
  ``bulk_load`` produced back into the parent's shard objects.

A re-sync is *incremental* by default: the shard's change journals
(:mod:`repro.storage.journal`) record which node/record blocks mutated
per epoch, and a stale worker receives a
:class:`~repro.storage.journal.ShardDelta` -- just those blocks'
at-rest bytes plus the small metadata -- instead of the whole platter.
The full ship survives as the fallback (first contact, respawned
worker after a crash, journal truncated past the worker's epoch);
:attr:`ShardSpec.payload_bytes` is benchmark C11's full-ship baseline.

Two sources of truth are avoided by construction: the parent's shards
remain authoritative; a worker holds a *replica* that is re-synced by
epoch before any use and is promoted back exactly once (bulk_load's
ship-back, under the cluster's write path).

Requirements: the substitution/pointer-cipher factories must be
picklable (module-level functions, as
:meth:`~repro.cluster.sharded.ShardedEncipheredDatabase.reopen` already
requires them to be deterministic).  The ``fork`` start method is used
where available; under ``spawn`` the factories' module must be
importable by the child.

Durable backends compose transparently: a parent shard on a
:class:`~repro.storage.platter.FilePlatter` exports the same at-rest
byte sequence as an in-memory one (``export_state`` / ``raw_blocks``
abstract over the device), so its spec ships unchanged.  Worker
replicas deliberately stay on :class:`~repro.storage.disk.
SimulatedDisk` regardless of the parent's backend -- sharing a platter
*file* across processes would mean uncoordinated handles racing the
WAL, and a replica's writes must never land on the parent's platter
anyway (the parent is authoritative; bulk_load state is promoted
through it).
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import threading
import time
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.cluster.stats import subtract_counter_dicts
from repro.core.config import DatabaseConfig
from repro.core.database import EncipheredDatabase
from repro.core.records import RecordStore
from repro.crypto.base import IntegerCipher
from repro.exceptions import (
    ShardUnavailableError,
    StorageError,
    WorkerCrashError,
    WorkerTimeoutError,
)
from repro.storage.disk import SimulatedDisk
from repro.substitution.base import KeySubstitution


class UncommittedShardState(StorageError):
    """A shard with uncommitted pages cannot be shipped to a worker.

    The cluster treats this as a routing signal, not a failure: the
    fan-out that hit it re-runs on an in-process backend, which serves
    uncommitted state with the right semantics.
    """


@dataclass
class ShardSpec:
    """Everything a worker needs to rebuild one shard, picklable.

    ``node_blocks`` and the record state carry the platters *at rest*
    (still enciphered); the secrets travel alongside because the worker
    sits inside the same trusted boundary as the parent -- this is an
    in-memory hand-off between cooperating processes, not storage.
    """

    index: int
    substitution_factory: Callable[[int], KeySubstitution]
    pointer_cipher_factory: Callable[[int], IntegerCipher]
    super_key: bytes
    node_block_size: int
    node_blocks: list[bytes | None]
    record_state: dict[str, object]
    #: The parent shard's resolved knobs, so the replica caches,
    #: commits and instruments exactly like its parent -- its
    #: histogram/heat deltas then merge into one coherent picture.
    config: DatabaseConfig

    @property
    def payload_bytes(self) -> int:
        """Platter bytes this full ship moves (the C11 baseline metric)."""
        node = sum(len(b) for b in self.node_blocks if b is not None)
        records = sum(
            len(b) for b in self.record_state["blocks"] if b is not None
        )
        return node + records

    def open(self) -> EncipheredDatabase:
        """Rebuild the shard from this spec (cold caches, fresh counters)."""
        disk = SimulatedDisk(block_size=self.node_block_size)
        disk.import_state(self.node_blocks)
        records = RecordStore.from_state(self.record_state)
        return EncipheredDatabase.reopen(
            self.substitution_factory(self.index),
            self.pointer_cipher_factory(self.index),
            disk,
            records,
            super_key=self.super_key,
            config=self.config,
        )


def spec_from_shard(
    shard: EncipheredDatabase,
    index: int,
    substitution_factory: Callable[[int], KeySubstitution],
    pointer_cipher_factory: Callable[[int], IntegerCipher],
    checkpoint_epoch: int | None = None,
) -> ShardSpec:
    """Capture a parent shard's current durable state as a spec.

    The platter must describe the shard's logical state, so a shard
    with uncommitted work (a write-back pager's dirty pages) cannot be
    shipped: committing here would silently make a *read* durable and
    break rollback semantics.  The cluster routes fan-outs over
    uncommitted shards to the in-process backends instead, so this
    guard only trips on direct misuse.

    ``checkpoint_epoch`` marks this snapshot in the shard's change
    journals (under the same read lock, so the snapshot and the
    truncation see the same state): history at or before it is subsumed
    by the full ship and dropped, and later syncs can resume shipping
    deltas from this point.
    """
    with shard.lock.read_locked():
        # checked under the lock: an autocommit writer dirties pages
        # transiently inside its write-locked scope, and a reader must
        # not observe that in-flight state as "uncommitted".  Both forms
        # of uncommitted work are refused -- deferred write-back pages
        # AND write-through mutations whose superblock rewrite is still
        # pending (autocommit=False), where the platter alone would
        # reopen stale or not at all.
        if shard.tree.pager.dirty_blocks or shard.has_uncommitted_changes:
            raise UncommittedShardState(
                f"shard {index} has uncommitted state; commit before "
                "shipping it to a process worker"
            )
        if checkpoint_epoch is not None:
            shard.truncate_journals(checkpoint_epoch)
        return ShardSpec(
            index=index,
            substitution_factory=substitution_factory,
            pointer_cipher_factory=pointer_cipher_factory,
            super_key=shard._super_key,
            node_block_size=shard.disk.block_size,
            node_blocks=shard.disk.export_state(),
            record_state=shard.records.export_state(),
            config=shard.config,
        )


def _send_error(conn, exc: Exception) -> None:
    """Reply with the exception itself when it pickles, else a summary."""
    try:
        pickle.dumps(exc)
    except Exception:
        exc = StorageError(f"shard worker error: {type(exc).__name__}: {exc}")
    conn.send(("error", exc))


def _shard_worker(conn) -> None:
    """One shard's server loop: ``(op, payload)`` in, ``(tag, value)`` out.

    The database handle lives for the life of the process and is
    replaced wholesale by each ``open`` (the parent's staleness
    protocol); every other op is a plain method call against it.
    """
    db: EncipheredDatabase | None = None
    # Local epoch counter scoping write-offload batches: the replica's
    # journals are private (the parent's epochs never reach them), so
    # each offloaded batch checkpoints at the counter, mutates, seals
    # counter+1 and collects exactly that batch's changed blocks.
    offload_epoch = 0
    # Chaos cues (armed by the parent's "chaos" op): crash or hang the
    # worker after N serving ops -- the deterministic stand-in for a
    # SIGKILL'd or wedged worker that the supervision tests drive.
    chaos = {"crash": None, "hang": None, "hang_s": 0.0}

    def _chaos_tick() -> None:
        if chaos["crash"] is not None:
            chaos["crash"] -= 1
            if chaos["crash"] <= 0:
                os._exit(17)  # die without replying: the parent sees EOF
        if chaos["hang"] is not None:
            chaos["hang"] -= 1
            if chaos["hang"] <= 0:
                chaos["hang"] = None
                time.sleep(chaos["hang_s"])  # the parent's deadline reaps us

    while True:
        try:
            op, payload = conn.recv()
        except (EOFError, OSError):
            break  # parent went away; nothing to clean up but ourselves
        try:
            if op == "stop":
                conn.send(("ok", None))
                break
            if op == "open":
                db = payload.open()
                offload_epoch = 0  # fresh replica, fresh journals
                # the baseline the parent subtracts: whatever reopen's
                # superblock check and verification walk just counted
                conn.send(("ok", db.stats()))
            elif op == "delta":
                # a targeted catch-up of the live replica; applying is a
                # pure state transfer (no cipher, no I/O counters), and
                # the parent re-baselines on the returned stats anyway
                db.apply_delta(payload)
                conn.send(("ok", db.stats()))
            elif op == "warm":
                _chaos_tick()
                conn.send(("ok", db.warm(payload)))
            elif op == "range_search":
                _chaos_tick()
                conn.send(("ok", db.range_search(*payload)))
            elif op == "get_many":
                _chaos_tick()
                keys, default = payload
                conn.send(("ok", [db.get(key, default) for key in keys]))
            elif op == "bulk_load":
                _chaos_tick()
                db.bulk_load(payload)
                if not db.autocommit:
                    db.commit()  # the shipped platter must be committed state
                conn.send(("ok", (db.stats(), db.export_state())))
            elif op in ("put_many", "delete_many"):
                # Write offload: run the single-shard batch on the
                # replica (where this process's cipher plane does the
                # work) and ship the resulting delta back for parent
                # apply -- the mutation mirror of bulk_load's channel.
                _chaos_tick()
                base = offload_epoch
                db.truncate_journals(base)  # replica == parent snapshot
                if op == "put_many":
                    count = db.put_many(payload)
                else:
                    count = db.delete_many(payload)
                offload_epoch = base + 1
                db.seal_changes(offload_epoch)
                delta = db.collect_delta(base, offload_epoch)
                if delta is not None:
                    conn.send(("ok", (db.stats(), count, "delta", delta)))
                else:
                    # journals could not prove completeness (shouldn't
                    # happen right after a seal, but the full ship is
                    # always a correct answer)
                    conn.send(("ok", (db.stats(), count, "full", db.export_state())))
            elif op == "stats":
                conn.send(("ok", db.stats()))
            elif op == "heat":
                # the variable-shape block-heat map travels on its own
                # channel; the parent delta-folds it like the counters
                conn.send(("ok", db.obs.heat.block_counts()))
            elif op == "clear_caches":
                db.clear_caches()
                conn.send(("ok", None))
            elif op == "ping":
                # heartbeat: answered even before any "open", so the
                # supervisor can probe liveness without shipping state
                conn.send(("ok", "pong"))
            elif op == "chaos":
                chaos["crash"] = payload.get("crash_after")
                chaos["hang"] = payload.get("hang_after")
                chaos["hang_s"] = payload.get("hang_s", 0.0)
                conn.send(("ok", None))
            else:
                conn.send(("error", StorageError(f"unknown worker op {op!r}")))
        except Exception as exc:  # reply-and-continue: the db is still valid
            _send_error(conn, exc)
    conn.close()


def _zero_nonadditive(delta: dict[str, object]) -> dict[str, object]:
    """Zero ``size``: a worker's mirrors the parent's (summing would double it)."""
    return {**delta, "size": 0}


class ProcessShardExecutor:
    """Parent-side coordinator for one worker process per shard.

    Created lazily by the cluster's ``executor="processes"`` backend.
    Dispatch is serialised per executor (one request/reply in flight per
    pipe); the parallelism is across the workers, where the actual
    cryptography runs.
    """

    def __init__(
        self,
        substitution_factory: Callable[[int], KeySubstitution],
        pointer_cipher_factory: Callable[[int], IntegerCipher],
        num_shards: int,
        op_deadline_s: float | None = None,
        respawn_limit: int = 3,
    ) -> None:
        self._substitution_factory = substitution_factory
        self._pointer_cipher_factory = pointer_cipher_factory
        #: Per-op deadline on the result pipes: a worker that takes
        #: longer than this to answer is presumed hung, killed, and the
        #: op fails with :class:`WorkerTimeoutError` (retryable -- a
        #: fresh worker gets one more shot).  ``None`` waits forever,
        #: the pre-supervision behaviour.
        self.op_deadline_s = op_deadline_s
        #: Consecutive respawns tolerated per shard before the executor
        #: declares the worker unsupervisable and raises
        #: :class:`ShardUnavailableError`.  Any successful reply resets
        #: the count -- the budget bounds *consecutive* failures, not
        #: lifetime ones.
        self.respawn_limit = respawn_limit
        #: Ship accounting for benchmark C11 and ``cluster.sync_stats()``:
        #: how many syncs went full vs delta, and the platter bytes moved
        #: by each kind.
        self.sync_stats = {
            "full_ships": 0,
            "delta_ships": 0,
            "full_bytes": 0,
            "delta_bytes": 0,
            "delta_blocks": 0,
            # id-index bytes the (start, count) run encoding saved across
            # every delta shipped in either direction (satellite of
            # ROADMAP item 4b)
            "delta_run_bytes_saved": 0,
            # write offload: batches executed worker-side, and the bytes/
            # blocks their result deltas shipped back to the parent
            "offloaded_batches": 0,
            "offload_bytes": 0,
            "offload_blocks": 0,
            # supervision (PR 10): deaths observed mid-conversation,
            # deadline kills, bounded respawns, ops salvaged by a
            # respawn-and-retry, and heartbeat probes answered
            "worker_deaths": 0,
            "op_timeouts": 0,
            "respawns": 0,
            "op_retries": 0,
            "heartbeats": 0,
        }
        try:
            self._mp = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX fallback
            self._mp = multiprocessing.get_context()
        self._procs: list[multiprocessing.process.BaseProcess | None] = [None] * num_shards
        self._conns: list[object | None] = [None] * num_shards
        # supervision bookkeeping: whether shard i ever had a worker
        # (distinguishes first spawn from respawn) and how many respawns
        # in a row have gone unrewarded by a successful reply
        self._spawned = [False] * num_shards
        self._consec_respawns = [0] * num_shards
        #: Epoch of the spec each worker currently holds (-1 = none yet).
        self.epochs_sent = [-1] * num_shards
        # Counter accounting: ``_base[i]`` is worker i's stats right
        # after its latest open; ``_harvested[i]`` accumulates deltas
        # from replicas that were since replaced or shut down.
        self._base: list[dict[str, object] | None] = [None] * num_shards
        self._harvested: list[list[dict[str, object]]] = [[] for _ in range(num_shards)]
        # Block-heat accounting, mirroring the counter baseline: what of
        # worker i's block-touch map has already been folded into the
        # parent shard's HeatMap.
        self._heat_base: list[dict[int, int]] = [{} for _ in range(num_shards)]
        # One request/reply may be in flight per pipe; concurrent cluster
        # calls from several client threads must not interleave frames,
        # so parent-side dispatch is serialised.  Reentrant: map() nests
        # sync() nests harvest().
        self._dispatch_lock = threading.RLock()

    # -- plumbing --------------------------------------------------------

    _DEADLINE_DEFAULT = object()  # sentinel: "use self.op_deadline_s"

    def _reap(self, index: int, timed_out: bool = False) -> None:
        """Put down worker ``index`` and forget its pipe state.

        Called when the worker died mid-conversation (EOF on the pipe)
        or missed its op deadline.  The process is killed if still
        alive (a hung worker must not linger), the connection dropped,
        and the replica bookkeeping reset so the next :meth:`sync` does
        a full respawn-and-resync.
        """
        proc = self._procs[index]
        if proc is not None:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
                if proc.is_alive():  # pragma: no cover - stubborn worker
                    proc.kill()
                    proc.join(timeout=1.0)
            self._procs[index] = None
        conn = self._conns[index]
        if conn is not None:
            try:
                conn.close()
            except OSError:  # pragma: no cover - already broken
                pass
            self._conns[index] = None
        self._base[index] = None
        self._heat_base[index] = {}
        self.epochs_sent[index] = -1
        self.sync_stats["worker_deaths"] += 1
        if timed_out:
            self.sync_stats["op_timeouts"] += 1

    def _recv(self, index: int, deadline=_DEADLINE_DEFAULT):
        conn = self._conns[index]
        if conn is None:
            raise WorkerCrashError(index, "worker died: no live connection")
        if deadline is self._DEADLINE_DEFAULT:
            deadline = self.op_deadline_s
        if deadline is not None and not conn.poll(deadline):
            self._reap(index, timed_out=True)
            raise WorkerTimeoutError(
                index, f"worker missed its {deadline}s op deadline"
            )
        try:
            tag, value = conn.recv()
        except (EOFError, OSError) as exc:
            self._reap(index)
            raise WorkerCrashError(index, f"worker died: {exc}") from exc
        self._consec_respawns[index] = 0  # a reply is proof of life
        if tag == "error":
            raise value
        return value

    def _request(self, index: int, op: str, payload, deadline=_DEADLINE_DEFAULT):
        conn = self._conns[index]
        if conn is None:
            raise WorkerCrashError(index, "worker died: no live connection")
        try:
            conn.send((op, payload))
        except (OSError, ValueError) as exc:  # dead worker: same surface as a
            # recv failure, so harvest/extra_counters/close degrade
            # instead of crashing
            self._reap(index)
            raise WorkerCrashError(index, f"worker died: {exc}") from exc
        return self._recv(index, deadline=deadline)

    def _ensure_worker(self, index: int) -> bool:
        """Spawn shard ``index``'s worker if absent; True when it respawned."""
        if self._procs[index] is not None and self._procs[index].is_alive():
            return False
        respawn = False
        if self._spawned[index]:
            # bounded automatic respawn: a worker that keeps dying
            # without ever answering stops being worth resurrecting
            if self._consec_respawns[index] >= self.respawn_limit:
                raise ShardUnavailableError(
                    index,
                    f"worker respawn budget exhausted "
                    f"({self.respawn_limit} consecutive respawns)",
                )
            self._consec_respawns[index] += 1
            self.sync_stats["respawns"] += 1
            respawn = True
        parent_conn, child_conn = self._mp.Pipe()
        proc = self._mp.Process(
            target=_shard_worker,
            args=(child_conn,),
            name=f"repro-shard-{index}",
            daemon=True,
        )
        proc.start()
        child_conn.close()
        self._procs[index] = proc
        self._conns[index] = parent_conn
        self._spawned[index] = True
        self.epochs_sent[index] = -1
        self._base[index] = None
        self._heat_base[index] = {}
        return respawn

    # -- supervision -----------------------------------------------------

    def heartbeat(self, timeout_s: float = 1.0) -> list[bool | None]:
        """Probe every spawned worker's pipe with a ``ping``.

        Returns one entry per shard: ``True`` for a live worker that
        answered in time, ``False`` for one that was just found dead (or
        hung) and reaped, ``None`` for a shard with no worker spawned.
        A reaped worker respawns on its next :meth:`sync`, so a periodic
        heartbeat turns silent deaths into bounded-latency detections.
        """
        with self._dispatch_lock:
            alive: list[bool | None] = []
            for index, conn in enumerate(self._conns):
                if conn is None:
                    alive.append(None)
                    continue
                try:
                    ok = self._request(
                        index, "ping", None, deadline=timeout_s
                    ) == "pong"
                except StorageError:
                    ok = False
                self.sync_stats["heartbeats"] += 1
                alive.append(ok)
            return alive

    def inject_worker_fault(
        self,
        index: int,
        *,
        crash_after: int | None = None,
        hang_after: int | None = None,
        hang_s: float = 3600.0,
    ) -> None:
        """Arm a chaos cue in worker ``index`` (spawning it if needed).

        ``crash_after=N`` makes the worker die (``os._exit``) at the
        start of its Nth subsequent serving op -- before replying, so the
        parent observes a mid-conversation EOF, exactly like a SIGKILL.
        ``hang_after=N`` makes it sleep ``hang_s`` at that op instead,
        the scenario the per-op deadline exists for.
        """
        with self._dispatch_lock:
            self._ensure_worker(index)
            self._request(index, "chaos", {
                "crash_after": crash_after,
                "hang_after": hang_after,
                "hang_s": hang_s,
            })

    def sync(self, index: int, shard: EncipheredDatabase, epoch: int) -> None:
        """Make worker ``index`` hold the parent's current shard state.

        A worker that already holds *some* epoch is caught up with a
        :class:`~repro.storage.journal.ShardDelta` -- only the blocks
        the shard's journals sealed since that epoch, O(changes) instead
        of O(database) -- when the journals can prove completeness.
        Everything else (first contact, respawned worker, truncated
        journal, uncommitted parent state) takes the full-spec path,
        whose own guards still apply.
        """
        with self._dispatch_lock:
            if self._ensure_worker(index):
                # mark the resurrection in the shard's span stream: the
                # full ship that follows is recovery traffic, not load
                with shard.obs.trace("executor.respawn"):
                    pass
            if self.epochs_sent[index] == epoch:
                return
            # the stale replica's work must keep counting (heat included)
            self.harvest(index, shard)
            delta = None
            if self.epochs_sent[index] >= 0:
                delta = shard.collect_delta(self.epochs_sent[index], epoch)
            if delta is not None:
                delta.index = index
                with shard.obs.trace("executor.delta_ship"):
                    self._base[index] = self._request(index, "delta", delta)
                self.sync_stats["delta_ships"] += 1
                self.sync_stats["delta_bytes"] += delta.payload_bytes
                self.sync_stats["delta_blocks"] += delta.blocks_shipped
                self.sync_stats["delta_run_bytes_saved"] += delta.run_bytes_saved
            else:
                with shard.obs.trace("executor.full_ship"):
                    spec = spec_from_shard(
                        shard,
                        index,
                        self._substitution_factory,
                        self._pointer_cipher_factory,
                        checkpoint_epoch=epoch,
                    )
                    try:
                        self._base[index] = self._request(index, "open", spec)
                    except (pickle.PicklingError, AttributeError, TypeError) as exc:
                        raise StorageError(
                            "executor='processes' requires picklable substitution and "
                            f"pointer-cipher factories (module-level functions): {exc}"
                        ) from exc
                # "open" replaced the replica wholesale: its block-touch
                # map restarted from zero alongside its counters
                self._heat_base[index] = {}
                self.sync_stats["full_ships"] += 1
                self.sync_stats["full_bytes"] += spec.payload_bytes
            self.epochs_sent[index] = epoch

    # -- fan-out ---------------------------------------------------------

    def _send_all(
        self,
        op: str,
        shard_ids: Sequence[int],
        payloads: Sequence[object],
        shards: Sequence[EncipheredDatabase],
        epochs: Sequence[int],
        mutating: bool,
    ) -> None:
        """Sync every listed worker and pipeline ``op`` to it.

        If a later shard's sync/send fails, the requests already in
        flight are still answered and drained -- an unread reply would be
        served as the answer to the *next* request.  The drained work is
        about to be re-run elsewhere (the cluster falls back
        in-process), so it is absorbed into the counter baseline rather
        than harvested, keeping every cipher operation counted once; a
        drained *mutation* also left its replica ahead of the parent, so
        that replica is marked stale.
        """
        sent: list[int] = []
        try:
            for index, payload in zip(shard_ids, payloads):
                self.sync(index, shards[index], epochs[index])
                self._conns[index].send((op, payload))
                sent.append(index)
        except BaseException:
            for index in sent:
                try:
                    self._recv(index)
                    self._base[index] = self._request(index, "stats", None)
                except Exception:
                    pass
                if mutating:
                    self.epochs_sent[index] = -1
            raise

    def map(
        self,
        op: str,
        shard_ids: Sequence[int],
        payloads: Sequence[object],
        shards: Sequence[EncipheredDatabase],
        epochs: Sequence[int],
    ) -> list:
        """Run ``op`` on every listed worker, overlapping their work.

        Requests are pipelined -- all sent before any reply is awaited --
        so N workers compute concurrently while the parent blocks on the
        first reply.  Every reply is drained even when one shard errors:
        an unread reply would desynchronise that pipe's request/reply
        protocol and get served as the answer to the *next* request.
        """
        with self._dispatch_lock:
            self._send_all(op, shard_ids, payloads, shards, epochs, mutating=False)
            results = []
            failures: dict[int, Exception] = {}
            for pos, index in enumerate(shard_ids):
                try:
                    results.append(self._recv(index))
                except Exception as exc:
                    failures[pos] = exc
                    results.append(None)
            # one respawn-and-retry round: every op dispatched through
            # map() is idempotent against a fresh replica (reads, warm,
            # bulk_load onto a re-shipped copy), so a worker that died
            # or hung mid-answer gets respawned, re-synced and asked
            # exactly once more.  Anything else -- a real error reply,
            # an exhausted respawn budget -- stays failed.
            for pos, exc in list(failures.items()):
                if not isinstance(exc, WorkerCrashError):
                    continue
                index = shard_ids[pos]
                try:
                    self.sync(index, shards[index], epochs[index])
                    results[pos] = self._request(index, op, payloads[pos])
                except Exception as retry_exc:
                    failures[pos] = retry_exc
                else:
                    del failures[pos]
                    self.sync_stats["op_retries"] += 1
            if failures:
                raise next(iter(failures.values()))
            return results

    def map_settled(
        self,
        op: str,
        shard_ids: Sequence[int],
        payloads: Sequence[object],
        shards: Sequence[EncipheredDatabase],
        epochs: Sequence[int],
    ) -> list[tuple[bool, object]]:
        """Like :meth:`map`, but per-shard ``(ok, value_or_exc)`` outcomes.

        The write-offload path needs partial results: ``put_many``'s
        contract applies independent shards' slices even when a sibling
        slice fails, so a fail-fast ``map`` (which discards the
        successful replies) cannot serve it.  Used for *mutating* ops.
        """
        with self._dispatch_lock:
            self._send_all(op, shard_ids, payloads, shards, epochs, mutating=True)
            outcomes: list[tuple[bool, object]] = []
            for index in shard_ids:
                try:
                    outcomes.append((True, self._recv(index)))
                except Exception as exc:
                    outcomes.append((False, exc))
            return outcomes

    # -- counter rollup --------------------------------------------------

    def harvest(self, index: int, shard: EncipheredDatabase | None = None) -> None:
        """Fold worker ``index``'s counter delta into the kept totals.

        Given the parent ``shard``, the worker's record-block heat delta
        is folded into the shard's :class:`~repro.obs.heat.HeatMap` in
        the same pass (the variable-shape map cannot ride in the counter
        dicts).
        """
        with self._dispatch_lock:
            if self._base[index] is None or self._conns[index] is None:
                return
            try:
                current = self._request(index, "stats", None)
            except StorageError:
                return  # worker already gone; its delta is lost with it
            delta = subtract_counter_dicts(current, self._base[index])
            self._harvested[index].append(_zero_nonadditive(delta))
            self._base[index] = current
            if shard is not None and shard.obs.enabled:
                try:
                    shard.obs.heat.add_blocks(self._heat_delta(index))
                except StorageError:
                    pass  # worker died between requests; heat lost with it

    def _heat_delta(self, index: int) -> dict[int, int]:
        """Worker ``index``'s block touches not yet folded into the parent."""
        current: dict[int, int] = self._request(index, "heat", None)
        base = self._heat_base[index]
        delta = {
            block_id: n - base.get(block_id, 0)
            for block_id, n in current.items()
            if n - base.get(block_id, 0)
        }
        self._heat_base[index] = current
        return delta

    def rebase(self, index: int, stats_after: dict[str, object]) -> None:
        """Absorb a state-shipping op's counters after installing its state.

        The worker did the work (its delta up to ``stats_after`` is
        harvested so the cost model keeps every operation) and the
        parent now owns the resulting state, so the baseline moves to
        ``stats_after`` -- those operations must not be counted again.
        """
        with self._dispatch_lock:
            if self._base[index] is None:
                return
            delta = subtract_counter_dicts(stats_after, self._base[index])
            self._harvested[index].append(_zero_nonadditive(delta))
            self._base[index] = stats_after

    def extra_counters(
        self, index: int, shard: EncipheredDatabase | None = None
    ) -> list[dict[str, object]]:
        """Counter dicts to merge into shard ``index``'s parent stats.

        ``shard`` additionally folds the worker's live block-heat delta
        into the parent's heat map (see :meth:`harvest`), so a
        ``stats()`` call observes up-to-date heat as well.
        """
        with self._dispatch_lock:
            extras = list(self._harvested[index])
            if self._base[index] is not None and self._conns[index] is not None:
                try:
                    current = self._request(index, "stats", None)
                    if shard is not None and shard.obs.enabled:
                        shard.obs.heat.add_blocks(self._heat_delta(index))
                except StorageError:
                    return extras
                extras.append(
                    _zero_nonadditive(subtract_counter_dicts(current, self._base[index]))
                )
            return extras

    def invalidate(self, shard_ids: Sequence[int]) -> None:
        """Mark the listed workers' replicas stale (re-ship before reuse).

        Used when a worker's state may have diverged from the parent --
        e.g. a fan-out ``bulk_load`` that failed on a sibling shard
        after this worker already loaded its slice.  Counters are not
        lost: the next :meth:`sync` harvests before re-opening.
        """
        with self._dispatch_lock:
            for index in shard_ids:
                self.epochs_sent[index] = -1

    def clear_caches(self) -> None:
        """Drop every live worker's plaintext caches (cold-start support).

        A dead worker is skipped, like everywhere else on this surface:
        its replica (caches included) is gone with it, and it will be
        respawned cold on next use.
        """
        with self._dispatch_lock:
            for index, conn in enumerate(self._conns):
                if conn is not None and self._base[index] is not None:
                    try:
                        self._request(index, "clear_caches", None)
                    except StorageError:
                        continue

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        """Harvest final counters and stop every worker."""
        with self._dispatch_lock:
            for index, conn in enumerate(self._conns):
                if conn is None:
                    continue
                self.harvest(index)
                try:
                    # bounded even without a configured op deadline: a
                    # hung worker must not be able to block shutdown
                    self._request(
                        index, "stop", None,
                        deadline=self.op_deadline_s or 5.0,
                    )
                except StorageError:
                    pass  # already dead; join below reaps it
                if self._conns[index] is not None:
                    self._conns[index].close()
                self._conns[index] = None
                self._base[index] = None
                self.epochs_sent[index] = -1
            for index, proc in enumerate(self._procs):
                if proc is not None:
                    proc.join(timeout=5)
                    if proc.is_alive():  # pragma: no cover - stuck worker
                        proc.terminate()
                        proc.join(timeout=5)
                    self._procs[index] = None
