"""The sharded enciphered database: N private databases behind one API.

Each shard is a complete :class:`~repro.core.database.EncipheredDatabase`
-- its own node disk, record store, substitution instance and
independently derived superblock/data keys -- so compromise of one
shard's secrets opens exactly one shard, and block-frequency analysis
(the A3/C5 attacker) cannot correlate blocks *across* shards: the same
plaintext key would be disguised differently and enciphered under
different keys on every shard.

Routing happens on plaintext keys inside the trusted boundary (see
:mod:`repro.cluster.router`).  Cross-shard operations -- ``range_search``
fan-out, ``bulk_load`` partitioning, ``get_many`` batch reads -- run on
one of two executor backends (``executor=``):

* ``"serial"`` (default) -- a plain loop on the calling thread.  Every
  shard runs even when one raises; the first error is re-raised after
  the loop, so sibling shards' work lands and is sealed.
* ``"processes"`` -- one worker process per shard (see
  :mod:`repro.cluster.executor`): each worker rebuilds its shard from a
  picklable spec and runs the fan-out's cryptography on its own
  interpreter, which is what turns the shorter critical path into
  wall-clock speedup on multi-core hardware (benchmark C10).  Requires
  module-level (picklable) factories.  Single-key operations and
  transactions stay on the calling process; worker replicas are
  re-synced automatically after any cluster-level mutation.

There is no thread pool: pure-Python cryptography serialises on the
GIL, and a pool measured no faster than the plain loop on any workload
of the repo benchmark.  Per-shard reader--writer locks still let
concurrent *client* threads share the cluster.

Every shard runs with the same :class:`~repro.core.config.
DatabaseConfig`: the constructors take it whole (``config=``) or as
keyword arguments naming its fields.

Key derivation
--------------

Per-shard secrets are derived from one base secret with the DES block
cipher as a one-way-ish KDF: shard ``i``'s superblock key is
``DES(base)(label || i)`` and its record-store key likewise under a
second label.  Distinct labels and indices give pairwise-distinct shard
keys (benchmark C8 verifies no block collisions across shards); the
operator still stores only the base secrets plus each shard's
substitution parameters.
"""

from __future__ import annotations

import heapq
import threading
from contextlib import ExitStack, contextmanager
from typing import Callable, Iterable, Iterator, Sequence

from repro.cluster.executor import ProcessShardExecutor, UncommittedShardState
from repro.cluster.health import (
    DEGRADED,
    HEALTHY,
    QUARANTINED,
    ClusterHealth,
    PartialResult,
)
from repro.cluster.manifest import ClusterManifest
from repro.cluster.router import HashRouter, RangeRouter, ShardRouter
from repro.cluster.stats import ClusterStats, merge_counter_dicts
from repro.core.config import DatabaseConfig
from repro.core.database import EncipheredDatabase
from repro.core.records import RecordStore
from repro.crypto.base import IntegerCipher
from repro.crypto.des import DES
from repro.exceptions import (
    BTreeError,
    DuplicateKeyError,
    PermanentIOError,
    ShardUnavailableError,
    StorageError,
    TransientIOError,
    WorkerCrashError,
)
from repro.storage.backend import StorageBackend
from repro.storage.device import BlockDevice
from repro.substitution.base import KeySubstitution

# the single-database defaults, reused as the cluster's base secrets
_DEFAULT_SUPER_KEY = b"\x5b\xad\xc0\xde\x5b\xad\xc0\xde"
_DEFAULT_DATA_KEY = b"\x13\x34\x57\x79\x9b\xbc\xdf\xf1"

_SUPER_LABEL = b"SUPR"
_DATA_LABEL = b"DATA"

#: numeric encoding for the per-shard ``health.state`` gauge
_HEALTH_GAUGE = {HEALTHY: 0, DEGRADED: 1, QUARANTINED: 2}


def derive_shard_key(base_key: bytes, label: bytes, shard_index: int) -> bytes:
    """Derive shard ``shard_index``'s 8-byte key from a base secret."""
    block = label[:4].ljust(4, b"\x00") + shard_index.to_bytes(4, "big")
    return DES(base_key).encrypt_block(block)


def _resolve_router(
    router: ShardRouter | str,
    num_shards: int,
    substitution: KeySubstitution,
) -> ShardRouter:
    """Accept a router instance or the strategy names ``hash``/``range``."""
    if isinstance(router, ShardRouter):
        if router.num_shards != num_shards:
            raise StorageError(
                f"router covers {router.num_shards} shards, cluster has {num_shards}"
            )
        return router
    if router == "hash":
        return HashRouter(num_shards)
    if router == "range":
        return RangeRouter.uniform(num_shards, substitution.key_universe())
    raise StorageError(f"unknown routing strategy {router!r}")


class ShardedEncipheredDatabase:
    """Horizontal partitioning of :class:`EncipheredDatabase` over N shards.

    Build with :meth:`create` (fresh disks) or :meth:`reopen` (from the
    per-shard disks and secrets alone).  The factories receive the shard
    index and must return *independent* instances -- in particular each
    shard should get its own substitution secret (e.g. a different oval
    multiplier), which is what makes cross-shard frequency analysis
    strictly harder than against one database.
    """

    _EXECUTORS = ("serial", "processes")

    def __init__(
        self,
        shards: Sequence[EncipheredDatabase],
        router: ShardRouter,
        executor: str = "serial",
        shard_factories: tuple | None = None,
        degraded_reads: bool = False,
        op_deadline_s: float | None = None,
    ) -> None:
        if not shards:
            raise StorageError("a cluster needs at least one shard")
        if router.num_shards != len(shards):
            raise StorageError(
                f"router covers {router.num_shards} shards, got {len(shards)}"
            )
        if executor not in self._EXECUTORS:
            raise StorageError(
                f"executor must be one of {self._EXECUTORS}, got {executor!r}"
            )
        if executor == "processes" and shard_factories is None:
            raise StorageError(
                "executor='processes' needs the shard factories to rebuild "
                "shards in workers; construct the cluster via create()/reopen()"
            )
        self.shards = list(shards)
        self.router = router
        self.executor = executor
        self._shard_factories = shard_factories
        self._procs_lock = threading.Lock()
        self._txn_thread: int | None = None
        # Process-backend replica consistency: each cluster-level
        # mutation bumps the touched shards' epochs (sealing the shard's
        # change journals under the new number), and a worker whose
        # replica predates the epoch is caught up -- incrementally when
        # the journals can serve a delta, by full re-ship otherwise.
        self._shard_epochs = [0] * len(self.shards)
        # one mutex per shard making "seal journals, then publish the
        # new epoch" atomic against sibling writers (see _note_writes)
        self._epoch_locks = [threading.Lock() for _ in self.shards]
        self._procs: ProcessShardExecutor | None = None
        #: Fault-tolerance plane (PR 10): one health state machine per
        #: shard, fed by operation outcomes.  Quarantined shards make
        #: cluster operations fail fast with ShardUnavailableError --
        #: unless ``degraded_reads`` opts read fan-outs into skipping
        #: them and returning a :class:`PartialResult` that names the
        #: missing shards.
        self.health = ClusterHealth(len(self.shards))
        self.degraded_reads = degraded_reads
        #: Per-op deadline handed to the process executor's result
        #: pipes; ``None`` waits forever (the pre-supervision default).
        self.op_deadline_s = op_deadline_s
        self._closed = False

    # -- lifecycle -------------------------------------------------------

    @classmethod
    def create(
        cls,
        substitution_factory: Callable[[int], KeySubstitution],
        pointer_cipher_factory: Callable[[int], IntegerCipher],
        *,
        num_shards: int = 4,
        router: ShardRouter | str = "hash",
        block_size: int = 512,
        min_degree: int = 4,
        super_key: bytes = _DEFAULT_SUPER_KEY,
        data_key: bytes = _DEFAULT_DATA_KEY,
        record_size: int = 120,
        executor: str = "serial",
        degraded_reads: bool = False,
        op_deadline_s: float | None = None,
        backend: StorageBackend | None = None,
        config: DatabaseConfig | None = None,
        **knobs,
    ) -> "ShardedEncipheredDatabase":
        """Initialise ``num_shards`` fresh shards with derived secrets.

        ``config`` and/or ``knobs`` (its field names as keywords) set
        every shard's runtime knobs -- see
        :class:`~repro.core.config.DatabaseConfig`.  Caches are
        *private* per shard: each shard warms and hits only its own,
        with no cross-shard invalidation traffic and no shared-cache
        lock.

        ``executor`` selects the fan-out backend (``"serial"`` or
        ``"processes"``); the process backend requires both factories
        to be picklable module-level functions.

        ``backend`` places every shard's devices on a
        :class:`~repro.storage.backend.StorageBackend`: shard ``i``
        lives in the scoped child backend ``shard-{i:03d}``, and an
        enciphered :class:`~repro.cluster.manifest.ClusterManifest`
        (shard count, router kind/boundaries, key-derivation labels,
        geometry, scope names) is saved to the backend, so a later
        :meth:`reopen_from_manifest` needs only the backend and the base
        secrets.  ``None`` keeps the historical in-memory devices (and
        writes no manifest).
        """
        config = DatabaseConfig.of(config, **knobs)
        substitutions = [substitution_factory(i) for i in range(num_shards)]
        scopes = [f"shard-{i:03d}" for i in range(num_shards)]
        shards = [
            EncipheredDatabase.create(
                substitutions[i],
                pointer_cipher_factory(i),
                block_size=block_size,
                min_degree=min_degree,
                super_key=derive_shard_key(super_key, _SUPER_LABEL, i),
                data_key=derive_shard_key(data_key, _DATA_LABEL, i),
                record_size=record_size,
                backend=backend.scoped(scopes[i]) if backend is not None else None,
                config=config,
            )
            for i in range(num_shards)
        ]
        resolved = _resolve_router(router, num_shards, substitutions[0])
        if backend is not None:
            kind, boundaries = ClusterManifest.describe_router(resolved)
            manifest = ClusterManifest(
                num_shards=num_shards,
                router_kind=kind,
                router_boundaries=boundaries,
                block_size=block_size,
                record_size=record_size,
                shard_scopes=scopes,
                super_label=_SUPER_LABEL,
                data_label=_DATA_LABEL,
            )
            backend.save_manifest(manifest.encipher(super_key))
        return cls(
            shards,
            resolved,
            executor=executor,
            shard_factories=(substitution_factory, pointer_cipher_factory),
            degraded_reads=degraded_reads,
            op_deadline_s=op_deadline_s,
        )

    @classmethod
    def reopen(
        cls,
        substitution_factory: Callable[[int], KeySubstitution],
        pointer_cipher_factory: Callable[[int], IntegerCipher],
        parts: Sequence[tuple[BlockDevice, RecordStore]],
        *,
        router: ShardRouter | str = "hash",
        super_key: bytes = _DEFAULT_SUPER_KEY,
        executor: str = "serial",
        degraded_reads: bool = False,
        op_deadline_s: float | None = None,
        config: DatabaseConfig | None = None,
        **knobs,
    ) -> "ShardedEncipheredDatabase":
        """Rebuild a cluster from each shard's platters and the secrets.

        ``parts`` is what :meth:`shard_parts` returned for the original
        cluster (one ``(node disk, record store)`` pair per shard, in
        shard order); every shard's superblock is authenticated under its
        re-derived key on the way up, and every cache starts cold.  As
        with :meth:`EncipheredDatabase.reopen`, each record store keeps
        its configured cache capacity unless ``record_cache_blocks``
        overrides it (``None`` keeps, ``0`` forces off).

        The supplied ``router`` is then checked against the actual key
        placement: every key on every shard must route back to that
        shard.  A cluster reopened with the wrong strategy, the wrong
        boundaries, or parts out of order would otherwise *silently
        mis-route* -- point reads missing keys that are on the
        platters, range routers skipping populated shards -- so a
        mismatch fails fast with :class:`~repro.exceptions.StorageError`
        instead.
        """
        config = DatabaseConfig.of(config, **knobs)
        substitutions = [substitution_factory(i) for i in range(len(parts))]
        shards = [
            EncipheredDatabase.reopen(
                substitutions[i],
                pointer_cipher_factory(i),
                disk,
                records,
                super_key=derive_shard_key(super_key, _SUPER_LABEL, i),
                config=config,
            )
            for i, (disk, records) in enumerate(parts)
        ]
        resolved = _resolve_router(router, len(parts), substitutions[0])
        return cls._validated(
            shards, resolved, (substitution_factory, pointer_cipher_factory),
            executor=executor, degraded_reads=degraded_reads,
            op_deadline_s=op_deadline_s,
        )

    @classmethod
    def reopen_from_manifest(
        cls,
        substitution_factory: Callable[[int], KeySubstitution],
        pointer_cipher_factory: Callable[[int], IntegerCipher],
        backend: StorageBackend,
        *,
        super_key: bytes = _DEFAULT_SUPER_KEY,
        data_key: bytes = _DEFAULT_DATA_KEY,
        executor: str = "serial",
        degraded_reads: bool = False,
        op_deadline_s: float | None = None,
        config: DatabaseConfig | None = None,
        **knobs,
    ) -> "ShardedEncipheredDatabase":
        """Rebuild a cluster from its backend and the base secrets alone.

        The self-describing reopen: the shard count, router
        kind/boundaries, key-derivation labels, geometry and per-shard
        scope names all come from the backend's enciphered manifest --
        nothing about the cluster's shape is trusted from the caller, so
        a stale deployment script cannot silently mis-route.  Each
        shard reopens from its scoped backend via
        :meth:`EncipheredDatabase.reopen_from_backend` (replaying any
        crash-interrupted WAL epochs and rescanning record metadata on
        the way), and the reconstructed router is still checked against
        the actual key placement -- the manifest authenticates the
        *configuration*, the validation cross-checks it against the
        *data*.
        """
        config = DatabaseConfig.of(config, **knobs)
        manifest = ClusterManifest.decipher(backend.load_manifest(), super_key)
        substitutions = [
            substitution_factory(i) for i in range(manifest.num_shards)
        ]
        shards = [
            EncipheredDatabase.reopen_from_backend(
                substitutions[i],
                pointer_cipher_factory(i),
                backend.scoped(manifest.shard_scopes[i]),
                super_key=derive_shard_key(super_key, manifest.super_label, i),
                data_key=derive_shard_key(data_key, manifest.data_label, i),
                block_size=manifest.block_size,
                record_size=manifest.record_size,
                config=config,
            )
            for i in range(manifest.num_shards)
        ]
        return cls._validated(
            shards, manifest.build_router(),
            (substitution_factory, pointer_cipher_factory),
            executor=executor, degraded_reads=degraded_reads,
            op_deadline_s=op_deadline_s,
        )

    @classmethod
    def _validated(
        cls,
        shards: Sequence[EncipheredDatabase],
        router: ShardRouter,
        shard_factories: tuple,
        **options,
    ) -> "ShardedEncipheredDatabase":
        """A reopened cluster, once the router reproduces the placement."""
        cls._check_placement(shards, router)
        for shard in shards:
            shard._make_cold()  # recovery/validation walks must not pre-warm
        return cls(shards, router, shard_factories=shard_factories, **options)

    @staticmethod
    def _check_placement(
        shards: Sequence[EncipheredDatabase], router: ShardRouter
    ) -> None:
        """Fail fast if ``router`` does not reproduce the key placement.

        A monotonic router (contiguous per-shard key intervals) is
        validated from each shard's min and max key alone -- two
        O(height) edge walks; if both endpoints route home, so does
        everything between them.  Non-monotonic routers (hash) need the
        full key walk, which -- like the tree walk ``reopen`` already
        performs to recover the key count -- bumps the read-side
        operation counters; benchmarks reset counters after reopen.
        """
        for index, shard in enumerate(shards):
            with shard.lock.read_locked():
                if router.monotonic:
                    endpoints = (shard.tree.min_key(), shard.tree.max_key())
                    keys = (k for k in endpoints if k is not None)
                else:
                    keys = (key for key, _ in shard.tree.items())
                for key in keys:
                    routed = router.shard_for(key)
                    if routed != index:
                        raise StorageError(
                            f"router mismatch: key {key} lives on shard "
                            f"{index} but the supplied {router.name!r} router "
                            f"sends it to shard {routed}; check the router "
                            f"kind/boundaries and the order of shard parts"
                        )

    def shard_parts(self) -> list[tuple[BlockDevice, RecordStore]]:
        """The durable state a later :meth:`reopen` needs, in shard order."""
        return [(shard.disk, shard.records) for shard in self.shards]

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    # -- the process pool ------------------------------------------------

    def _process_pool(self) -> ProcessShardExecutor:
        with self._procs_lock:
            if self._procs is None:
                substitution_factory, pointer_cipher_factory = self._shard_factories
                self._procs = ProcessShardExecutor(
                    substitution_factory,
                    pointer_cipher_factory,
                    len(self.shards),
                    op_deadline_s=self.op_deadline_s,
                )
            return self._procs

    def _process_map(self, op: str, shard_ids: Sequence[int], payloads: Sequence) -> list:
        return self._process_pool().map(
            op, shard_ids, payloads, self.shards, self._shard_epochs
        )

    def _try_process_map(
        self, op: str, shard_ids: Sequence[int], payloads: Sequence
    ) -> list | None:
        """:meth:`_process_map`, or ``None`` when the op must run in-process.

        A racing writer's dirt (:class:`UncommittedShardState`) and lost
        workers both fall back to the parent's own, intact shards.
        """
        try:
            return self._process_map(op, shard_ids, payloads)
        except UncommittedShardState:
            return None
        except (WorkerCrashError, ShardUnavailableError) as exc:
            self._note_worker_trouble(exc, shard_ids)
            return None

    def _use_processes(self, shard_ids: Sequence[int]) -> bool:
        """Worker processes pay off only for a true multi-shard fan-out.

        Single-shard work stays on this thread (benchmark C15 measured
        shipping it to a worker at 0.78x); in-transaction work always
        stays, and so does any fan-out while a shard holds *uncommitted*
        state (dirty write-back pages or an open shard transaction):
        shipping a spec must never force a commit, and the in-process
        backends already serve uncommitted reads with the right
        semantics.
        """
        return (
            self.executor == "processes"
            and len(shard_ids) > 1
            and threading.get_ident() != self._txn_thread
            and not any(
                shard.has_uncommitted_changes
                or shard.tree.pager.dirty_blocks
                or shard._in_txn
                for shard in self.shards
            )
        )

    def _note_writes(self, shard_ids: Iterable[int]) -> None:
        """Record that the listed shards' durable state changed.

        Bumping a shard's epoch and *sealing* its change journals under
        the new number are one operation: the sealed sets are what a
        later delta sync ships to a worker replica holding an older
        epoch.

        Inside this cluster's :meth:`transaction` the call is a no-op:
        nothing is committed yet, sealing would split the transaction's
        bytes across an epoch boundary, and the transaction's own exit
        seals exactly the shards whose committed bytes changed -- so a
        rolled-back scope full of batched writes still re-ships nothing.
        """
        if threading.get_ident() == self._txn_thread:
            return
        for shard_id in shard_ids:
            with self._epoch_locks[shard_id]:
                # seal BEFORE publishing the bump: a concurrent reader's
                # sync that observes the new epoch number must find the
                # epoch's changes already sealed, or it would ship an
                # empty delta stamped with a tree state the worker's
                # blocks cannot support.  The per-shard mutex also keeps
                # two racing writers from publishing the same epoch
                # number (each seal gets a distinct, ordered epoch).
                epoch = self._shard_epochs[shard_id] + 1
                self.shards[shard_id].seal_changes(epoch)
                self._shard_epochs[shard_id] = epoch

    def _note_changed_writes(self, shard_ids: Iterable[int]) -> None:
        """Like :meth:`_note_writes`, but only where bytes truly changed.

        The journals make "did committed platter bytes change?" cheap to
        answer, so rolled-back and no-op transactions skip the epoch
        bump entirely -- worker replicas stay valid and nothing
        re-ships.  (A rollback that freed record slots *did* change
        bytes and still bumps -- but only on the shards it touched.)
        """
        self._note_writes(
            [i for i in shard_ids if self.shards[i].has_unsealed_changes]
        )

    # -- fault tolerance (PR 10) -----------------------------------------

    def _unavailable(self, shard_id: int) -> ShardUnavailableError:
        reason = self.health.reason(shard_id) or "quarantined"
        return ShardUnavailableError(shard_id, reason)

    def _require_available(self, shard_ids: Iterable[int]) -> None:
        """Fail fast -- before any bytes move -- if a needed shard is out.

        Mutations call this over *every* shard their batch touches, so a
        batch never half-applies against a cluster with a known-dead
        member: the caller gets the typed error while all shards are
        still untouched (per-shard atomicity for the remaining failure
        modes is unchanged).
        """
        for shard_id in shard_ids:
            if self.health.is_quarantined(shard_id):
                raise self._unavailable(shard_id)

    def _serviceable(self, shard_ids: Sequence[int]) -> tuple[list[int], list[int]]:
        """Split a read fan-out's shards into (serving, skipped).

        Without ``degraded_reads`` a quarantined member makes the whole
        read fail fast; with it, the quarantined shards are returned as
        the ``skipped`` list and the caller serves a
        :class:`PartialResult` from the rest.
        """
        available, quarantined = self.health.partition(shard_ids)
        if quarantined and not self.degraded_reads:
            raise self._unavailable(quarantined[0])
        return available, quarantined

    def _on_shard(self, shard_id: int, fn: Callable[[], object]) -> object:
        """Run one shard-touching operation under health accounting.

        Success feeds the shard's recovery streak; an escaped
        :class:`TransientIOError` (the device retries are already
        exhausted by this point) feeds its failure streak; a
        :class:`PermanentIOError` quarantines it on the spot and
        resurfaces as the typed :class:`ShardUnavailableError`.
        Logical errors (duplicate key, key not found) pass through
        untouched -- they say nothing about the shard's hardware.
        """
        if self.health.is_quarantined(shard_id):
            raise self._unavailable(shard_id)
        try:
            result = fn()
        except PermanentIOError as exc:
            self.health.record_permanent(shard_id, str(exc))
            raise ShardUnavailableError(shard_id, str(exc)) from exc
        except TransientIOError as exc:
            self.health.record_failure(shard_id, str(exc))
            raise
        self.health.record_success(shard_id)
        return result

    def _note_worker_trouble(self, exc: BaseException, shard_ids: Sequence[int]) -> None:
        """A process-backend fan-out lost its worker(s); record and move on.

        Worker trouble is *not* shard trouble: the parent's copy of the
        shard is intact and the caller is about to serve the operation
        in-process, so the loss feeds the failure streak (degrading a
        shard whose worker keeps dying) without quarantining anything.
        """
        shard_id = getattr(exc, "shard_id", None)
        if shard_id is None or shard_id not in shard_ids:
            shard_id = shard_ids[0] if shard_ids else 0
        self.health.record_worker_loss(shard_id, str(exc))

    def close(self) -> None:
        """Commit every shard, release devices and worker processes.

        On durable backends this closes every shard's platter files
        (after their final sync); on in-memory devices the close is a
        no-op and the cluster object remains usable, which existing
        callers rely on.  Worker replicas' record-block heat is
        harvested into the parent shards first, so the heat each shard
        persists on close covers every process that touched it.

        Idempotent, and hardened against a degraded cluster: a second
        call is a no-op, quarantined shards are skipped (their device
        already failed permanently -- syncing it again can only raise
        the error the quarantine recorded), and every shard's resources
        are released even when an earlier shard's final commit raises.
        The first non-quarantined shard's error still propagates after
        the cleanup finishes.
        """
        if self._closed:
            return
        self._closed = True
        first_error: BaseException | None = None
        try:
            self.commit()
        except BaseException as exc:
            first_error = exc
        if self._procs is not None:
            for i, shard in enumerate(self.shards):
                self._procs.harvest(i, shard)
        for i, shard in enumerate(self.shards):
            try:
                shard.close()
            except BaseException as exc:
                if first_error is None and not self.health.is_quarantined(i):
                    first_error = exc
        if self._procs is not None:
            # keep the object: its harvested counters still feed stats()
            self._procs.close()
        if first_error is not None:
            raise first_error

    def __enter__(self) -> "ShardedEncipheredDatabase":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _fan_out(self, fn: Callable[[int], object], shard_ids: Sequence[int]) -> list:
        """Run ``fn(shard_id)`` for every id on the calling thread.

        Every shard runs even when an earlier one raises; the first
        error is re-raised after the loop.  Callers rely on this: a
        mutating fan-out (``put_many``, ``bulk_load``) seals the touched
        shards' change journals in a ``finally``, and each healthy
        sibling's slice must have landed by then -- per-shard atomicity,
        not stop-at-first-failure.
        """
        results: list[object] = []
        first_error: Exception | None = None
        for shard_id in shard_ids:
            try:
                results.append(fn(shard_id))
            except Exception as exc:
                if first_error is None:
                    first_error = exc
                results.append(None)
        if first_error is not None:
            raise first_error
        return results

    # -- single-key operations (routed, no fan-out) ----------------------

    def _shard(self, key: int) -> EncipheredDatabase:
        return self.shards[self.router.shard_for(key)]

    def insert(self, key: int, record: bytes) -> None:
        shard_id = self.router.shard_for(key)
        self._on_shard(shard_id, lambda: self.shards[shard_id].insert(key, record))
        self._note_writes((shard_id,))

    def search(self, key: int) -> bytes:
        shard_id = self.router.shard_for(key)
        return self._on_shard(shard_id, lambda: self.shards[shard_id].search(key))

    def get(self, key: int, default: bytes | None = None) -> bytes | None:
        shard_id = self.router.shard_for(key)
        return self._on_shard(
            shard_id, lambda: self.shards[shard_id].get(key, default)
        )

    def __contains__(self, key: int) -> bool:
        shard_id = self.router.shard_for(key)
        return self._on_shard(shard_id, lambda: key in self.shards[shard_id])

    def delete(self, key: int) -> None:
        shard_id = self.router.shard_for(key)
        self._on_shard(shard_id, lambda: self.shards[shard_id].delete(key))
        self._note_writes((shard_id,))

    # -- fanned-out operations -------------------------------------------

    def range_search(self, lo: int, hi: int) -> list[tuple[int, bytes]]:
        """All ``(key, record)`` pairs with ``lo <= key <= hi``, ascending.

        The router prunes the shard set (a :class:`RangeRouter` touches
        only overlapping sub-ranges); the surviving shards are queried
        and their sorted partial results merged.

        Quarantined shards make the read fail fast with
        :class:`~repro.exceptions.ShardUnavailableError` -- unless the
        cluster was built with ``degraded_reads=True``, in which case
        they are skipped and the merge comes back as a
        :class:`~repro.cluster.health.PartialResult` naming them.  A
        worker crash mid fan-out is absorbed: the executor already
        retried once against a fresh replica, and if that failed too the
        read is served by the parent's own (intact) shards in-process.
        """
        shard_ids = self.router.shards_for_range(lo, hi)
        serving, skipped = self._serviceable(shard_ids)
        partials = None
        if serving and self._use_processes(serving):
            partials = self._try_process_map(
                "range_search", serving, [(lo, hi)] * len(serving)
            )
        if partials is None:
            partials = self._fan_out(
                lambda i: self._on_shard(
                    i, lambda: self.shards[i].range_search(lo, hi)
                ),
                serving,
            )
        if len(partials) <= 1:
            merged = partials[0] if partials else []
        else:
            merged = sorted(
                (pair for partial in partials for pair in partial),
                key=lambda pair: pair[0],
            )
        if skipped:
            self.health.record_degraded_read()
            return PartialResult(merged, missing_shards=skipped)
        return merged

    def get_many(
        self, keys: Sequence[int], default: bytes | None = None
    ) -> list[bytes | None]:
        """Batch point lookups, fanned out by shard; aligned with ``keys``.

        Degradation mirrors :meth:`range_search`: quarantined shards
        fail the batch fast unless ``degraded_reads=True``, where their
        keys' positions keep ``default`` and the (still aligned) result
        comes back as a :class:`~repro.cluster.health.PartialResult`.
        """
        by_shard = self.router.partition(
            list(enumerate(keys)), key=lambda pk: pk[1]
        )
        out: list[bytes | None] = [default] * len(keys)
        touched = [i for i, group in enumerate(by_shard) if group]
        serving, skipped = self._serviceable(touched)

        def finish(values: list) -> list[bytes | None]:
            if skipped:
                self.health.record_degraded_read()
                return PartialResult(values, missing_shards=skipped)
            return values

        if serving and self._use_processes(serving):
            payloads = [
                ([key for _, key in by_shard[i]], default) for i in serving
            ]
            chunks = self._try_process_map("get_many", serving, payloads)
            if chunks is not None:
                for shard_id, values in zip(serving, chunks):
                    for (position, _), record in zip(by_shard[shard_id], values):
                        out[position] = record
                return finish(out)

        def fetch(shard_id: int) -> list[tuple[int, bytes | None]]:
            shard = self.shards[shard_id]
            return self._on_shard(
                shard_id,
                lambda: [
                    (position, shard.get(key, default))
                    for position, key in by_shard[shard_id]
                ],
            )

        for chunk in self._fan_out(fetch, serving):
            for position, record in chunk:
                out[position] = record
        return finish(out)

    def bulk_load(self, items: Iterable[tuple[int, bytes]]) -> None:
        """Partition ``(key, record)`` pairs by shard and load each slice.

        Requires an empty cluster; duplicate keys are rejected before any
        shard is touched (each shard's own loader re-validates its
        slice).  A shard-level failure after that point leaves the other
        shards loaded -- cross-shard atomicity is an open item, not a
        promise.
        """
        if len(self):
            raise BTreeError("bulk_load requires an empty cluster")
        pairs = list(items)
        seen = sorted(key for key, _ in pairs)
        for left, right in zip(seen, seen[1:]):
            if left == right:
                raise DuplicateKeyError(right)
        partitions = self.router.partition(pairs, key=lambda kv: kv[0])
        loaded = [i for i, part in enumerate(partitions) if part]
        self._require_available(loaded)
        # The worker commits its replica to ship the state back, so the
        # process path is only equivalent when the parent would commit
        # too: an autocommit=False load must stay uncommitted (rollback-
        # able), which only the in-process backends preserve.
        if self._use_processes(loaded) and all(
            self.shards[i].autocommit for i in loaded
        ):
            try:
                self._process_bulk_load(loaded, partitions)
                return
            except UncommittedShardState:
                pass  # racing writer left dirt: load in-process instead
        try:
            self._fan_out(
                lambda i: self._on_shard(
                    i, lambda: self.shards[i].bulk_load(partitions[i])
                ),
                loaded,
            )
        finally:
            # in the finally: a *partial* failure already changed some
            # shards' durable state (cross-shard atomicity is documented
            # as open), and a worker replica shipped before the load
            # must not keep serving the pre-load state
            self._note_writes(loaded)

    def _process_bulk_load(self, loaded: Sequence[int], partitions: Sequence) -> None:
        """Build the per-shard trees in the workers, then adopt their state.

        Each worker loads its slice into its private replica and ships
        the resulting durable state back; the parent installs it into
        its shard objects (platters, slot metadata, tree metadata --
        a state transfer, no re-encryption) and re-baselines the
        worker's counters so the load's cipher operations are counted
        exactly once.
        """
        procs = self._process_pool()
        try:
            replies = self._process_map(
                "bulk_load", loaded, [partitions[i] for i in loaded]
            )
            for shard_id, (stats_after, state) in zip(loaded, replies):
                shard = self.shards[shard_id]
                with shard.lock.write_locked():
                    # the worker built from a snapshot of an *empty* shard
                    # (bulk_load's precondition); a write that raced in
                    # since would be silently clobbered by the install,
                    # so refuse it instead (checked under the shard lock,
                    # where every mutation updates tree.size)
                    if shard.tree.size != 0:
                        raise StorageError(
                            f"shard {shard_id} was mutated during a "
                            "process-backend bulk_load; nothing installed "
                            "for it, reload required"
                        )
                    shard.import_state(state)
                    # the worker already holds exactly this state: bump
                    # the epoch and mark it shipped, so the next read
                    # skips the re-sync.  The install tainted the
                    # journals (wholesale import); sealing here
                    # re-checkpoints them at the new epoch, so later
                    # mutations ship as deltas.  Still under the shard
                    # write lock: the taint-then-checkpoint pair must
                    # not interleave with a racing writer's notes, or
                    # that writer's block ids would be discarded by the
                    # checkpoint while its epoch claims them shipped.
                    self._note_writes((shard_id,))
                    procs.epochs_sent[shard_id] = self._shard_epochs[shard_id]
                procs.rebase(shard_id, stats_after)
        except BaseException:
            # a sibling shard failed (or an install threw): workers that
            # already loaded their slice now diverge from the parent, so
            # force a re-ship before any of them serves again
            procs.invalidate(loaded)
            raise

    # -- batched mutations ------------------------------------------------

    def put_many(self, items: Iterable[tuple[int, bytes]]) -> int:
        """Insert a batch of ``(key, record)`` pairs, grouped per shard.

        Each shard receives its whole slice under **one** write-lock
        acquisition, one commit and one epoch bump
        (:meth:`EncipheredDatabase.put_many`), so a burst of k writes
        triggers one replica delta ship per touched shard instead of k
        re-syncs.  With the process executor, each shard's slice is
        *offloaded* to its owning worker -- the mutation executes in the
        worker (where its cipher plane runs on a separate interpreter)
        and the resulting :class:`~repro.storage.journal.ShardDelta`
        ships back for parent apply, so write-heavy workloads
        parallelise across shards like reads do.

        Atomicity is *per shard*: a failing slice (duplicate key,
        oversized record) rolls its own shard back, but sibling shards
        that already committed stay committed -- the same contract as
        :meth:`bulk_load`.  Returns the number of pairs inserted.
        """
        pairs = list(items)
        if not pairs:
            return 0
        partitions = self.router.partition(pairs, key=lambda kv: kv[0])
        touched = [i for i, part in enumerate(partitions) if part]
        self._require_available(touched)
        if self._offload_batch("put_many", touched, partitions):
            return len(pairs)
        try:
            self._fan_out(
                lambda i: self._on_shard(
                    i, lambda: self.shards[i].put_many(partitions[i])
                ),
                touched,
            )
        finally:
            # even on a partial failure: committed shards changed bytes
            # (bump + seal), the rolled-back shard bumps only if its
            # rollback left byte changes (freed record slots)
            self._note_changed_writes(touched)
        return len(pairs)

    def delete_many(self, keys: Iterable[int]) -> int:
        """Delete a batch of keys, grouped per shard (see :meth:`put_many`).

        A missing key raises :class:`~repro.exceptions.KeyNotFoundError`
        and rolls back that shard's whole slice; sibling shards are
        unaffected.  With the process executor the per-shard slices are
        offloaded to the owning workers like :meth:`put_many`'s.
        Returns the number of keys deleted.
        """
        key_list = list(keys)
        if not key_list:
            return 0
        partitions = self.router.partition(key_list, key=lambda k: k)
        touched = [i for i, part in enumerate(partitions) if part]
        self._require_available(touched)
        if self._offload_batch("delete_many", touched, partitions):
            return len(key_list)
        try:
            self._fan_out(
                lambda i: self._on_shard(
                    i, lambda: self.shards[i].delete_many(partitions[i])
                ),
                touched,
            )
        finally:
            self._note_changed_writes(touched)
        return len(key_list)

    def _offload_batch(
        self, op: str, touched: Sequence[int], partitions: Sequence
    ) -> bool:
        """Execute a batched mutation worker-side; True when handled.

        Each touched shard's slice runs in its owning process worker
        (synced to the parent's epoch first), and the worker ships back
        the delta its commit produced; the parent applies it under the
        shard's write lock -- a pure state transfer, so the batch's
        cipher work happened exactly once, in the worker.  Falls back to
        the parent-side fan-out (returns ``False``) when the process
        path is unavailable or unsafe: wrong executor, single-shard
        batch, inside a transaction, uncommitted state anywhere, a
        non-autocommit shard (the worker commits its replica, so
        offloading would break rollback-ability), or a racing writer
        surfacing :class:`UncommittedShardState` mid-sync.

        Per-shard atomicity matches the parent-side path: a failing
        slice raises after every successful sibling's delta is applied,
        and the failed shard's replica is re-shipped before reuse.
        """
        if not self._use_processes(touched) or not all(
            self.shards[i].autocommit for i in touched
        ):
            return False
        procs = self._process_pool()
        try:
            outcomes = procs.map_settled(
                op,
                touched,
                [partitions[i] for i in touched],
                self.shards,
                self._shard_epochs,
            )
        except UncommittedShardState:
            return False  # racing writer left dirt: mutate in-process
        except (WorkerCrashError, ShardUnavailableError) as exc:
            # a worker died (or exhausted its respawn budget) during the
            # sync/dispatch phase: no slice has been applied parent-side
            # yet, so the whole batch can still run in-process against
            # the parent's intact shards
            self._note_worker_trouble(exc, touched)
            return False
        errors: list[Exception] = []
        for shard_id, (ok, value) in zip(touched, outcomes):
            if ok:
                stats_after, _count, kind, state = value
                try:
                    installed = self._install_offload(shard_id, kind, state)
                except Exception as exc:
                    procs.invalidate((shard_id,))
                    errors.append(exc)
                    continue
                if installed:
                    procs.rebase(shard_id, stats_after)
                    procs.sync_stats["offloaded_batches"] += 1
                    if kind == "delta":
                        procs.sync_stats["offload_bytes"] += state.payload_bytes
                        procs.sync_stats["offload_blocks"] += state.blocks_shipped
                        procs.sync_stats["delta_run_bytes_saved"] += (
                            state.run_bytes_saved
                        )
                    continue
                # a writer raced in between the sync and the install:
                # the worker's result describes a stale base state, so
                # the slice runs parent-side below; in this rare race
                # its cipher work honestly happens twice, counted twice
            elif isinstance(value, WorkerCrashError):
                # the worker died mid-slice.  Its replica died with it
                # (nothing half-applied survives), and the parent shard
                # never saw the slice -- so the mutation is safe to run
                # parent-side, exactly as if the offload never happened
                self._note_worker_trouble(value, (shard_id,))
            else:
                # the slice failed worker-side (duplicate key, missing
                # key, oversized record): the replica rolled back, but
                # its rollback may have moved bytes -- re-ship it
                procs.invalidate((shard_id,))
                errors.append(value)
                continue
            procs.invalidate((shard_id,))
            shard = self.shards[shard_id]
            try:
                if op == "put_many":
                    shard.put_many(partitions[shard_id])
                else:
                    shard.delete_many(partitions[shard_id])
            except Exception as exc:
                errors.append(exc)
            finally:
                self._note_changed_writes((shard_id,))
        if errors:
            raise errors[0]
        return True

    def _install_offload(self, shard_id: int, kind: str, state) -> bool:
        """Adopt one offloaded slice's shipped state into the parent shard.

        Returns ``False`` (install refused, nothing changed) when the
        parent shard moved since the worker was synced -- the worker's
        delta describes a different base state and applying it would
        clobber the racing writer's bytes.  Checked under the shard's
        write lock, where every mutation publishes its epoch.
        """
        shard = self.shards[shard_id]
        procs = self._procs
        with shard.lock.write_locked():
            with self._epoch_locks[shard_id]:
                current = self._shard_epochs[shard_id]
            if (
                procs.epochs_sent[shard_id] != current
                or shard.has_unsealed_changes
                or shard.has_uncommitted_changes
                or bool(shard.tree.pager.dirty_blocks)
            ):
                return False
            # reentrant write lock: both installs take it again
            if kind == "delta":
                shard.apply_delta(state)
            else:
                shard.import_state(state)
            # same pairing as _process_bulk_load: bump + seal under the
            # shard lock, then mark the worker current -- it already
            # holds exactly the state it just shipped us
            self._note_writes((shard_id,))
            procs.epochs_sent[shard_id] = self._shard_epochs[shard_id]
        return True

    # -- cache warming ----------------------------------------------------

    def warm(self, levels: int = 2, hot_record_blocks: int = 0) -> int:
        """Pre-decode every shard's top tree levels into its node caches.

        Fans out per shard like any read.  ``hot_record_blocks`` asks
        each shard to additionally pre-decode up to that many of its
        hottest record blocks (live heat plus any persisted heat adopted
        at reopen -- see :meth:`load_heat`).  With the process backend,
        live worker replicas are warmed too (after the usual epoch
        sync), because that is where process-backend queries actually
        run; their warming work rolls up into ``stats()`` like every
        other worker-side counter.  Returns the total nodes touched.
        """
        shard_ids, _ = self.health.partition(range(len(self.shards)))
        warmed = sum(
            self._fan_out(
                lambda i: self.shards[i].warm(levels, hot_record_blocks),
                shard_ids,
            )
        )
        if self._use_processes(shard_ids):
            # on fallback the parent-side warm stands alone
            warmed += sum(
                self._try_process_map("warm", shard_ids, [levels] * len(shard_ids))
                or ()
            )
        return warmed

    def save_heat(self) -> int:
        """Persist every shard's record-block heat map to its backend.

        Worker replicas' heat is harvested into the parent shards first,
        so the persisted maps cover every process that served traffic.
        Returns the number of shards that saved a map (shards without a
        backend are skipped).
        """
        if self._procs is not None:
            for i, shard in enumerate(self.shards):
                self._procs.harvest(i, shard)
        return sum(1 for shard in self.shards if shard.save_heat())

    def load_heat(self) -> int:
        """Adopt each shard's persisted heat map as its warming seed.

        Returns the number of shards that found a map.  (The manifest
        reopen path does this automatically; this is for clusters built
        via :meth:`reopen` whose caller holds a backend per shard.)
        """
        return sum(1 for shard in self.shards if shard.load_heat() is not None)

    # -- transactions and durability -------------------------------------

    @contextmanager
    def transaction(self) -> Iterator["ShardedEncipheredDatabase"]:
        """One transaction spanning every shard.

        Shard transactions are entered in shard order (a fixed order, so
        two concurrent cluster transactions cannot deadlock on each
        other's write locks) and unwound together: a clean exit commits
        every shard, an exception rolls every shard back.  Fan-out
        operations called inside the scope stay on this thread (see
        :meth:`_use_processes`).
        """
        committing = False
        try:
            with ExitStack() as stack:
                for shard in self.shards:
                    stack.enter_context(shard.transaction())
                self._txn_thread = threading.get_ident()
                try:
                    yield self
                    committing = True  # clean exit: shards commit on unwind
                finally:
                    self._txn_thread = None
        finally:
            # runs after every shard committed (or rolled back), so the
            # journals have seen the commit's flush: bump exactly the
            # shards whose committed bytes changed.  A rolled-back scope
            # bumps nothing at all -- replicas keep serving the pre-
            # transaction state, which *is* the logical outcome; the
            # rollback's only byte changes (freed record slots, which no
            # tree references) stay in the journals' open sets and ride
            # along with the next committed epoch.  No-op transactions
            # are journal-invisible and bump nothing either.
            if committing:
                self._note_changed_writes(range(len(self.shards)))

    def commit(self) -> None:
        """Make every shard's pending changes durable.

        Only shards with pending work get their replica epoch bumped: a
        no-op commit rewrites the superblock with identical bytes, so
        the worker replicas stay valid and a read-heavy process-backend
        workload does not re-ship every platter after each periodic
        commit.  Quarantined shards are skipped: their device already
        failed permanently, and re-raising that error from every
        periodic commit would stop the healthy shards from ever
        committing.
        """
        for i, shard in enumerate(self.shards):
            if self.health.is_quarantined(i):
                continue
            pending = (
                shard.has_uncommitted_changes or shard.tree.pager.dirty_blocks
            )
            shard.commit()
            if pending:
                self._note_writes((i,))

    def clear_caches(self) -> None:
        """Drop every shard's cached plaintext (cold-start support).

        Process-backend worker replicas hold their own plaintext caches;
        live workers are told to go cold too, so a cold benchmark run
        means cold everywhere.
        """
        for shard in self.shards:
            shard.clear_caches()
        if self._procs is not None:
            self._procs.clear_caches()

    # -- whole-cluster queries -------------------------------------------

    def __len__(self) -> int:
        return sum(len(shard) for shard in self.shards)

    def items(self) -> Iterator[tuple[int, bytes]]:
        """Every ``(key, record)`` pair in ascending key order.

        A lazy k-way merge of the shards' sorted iterators; each shard's
        read lock is held while its iterator is live.
        """
        yield from heapq.merge(
            *(shard.items() for shard in self.shards), key=lambda pair: pair[0]
        )

    def stats(self) -> ClusterStats:
        """Aggregated per-shard counter rollups (see :class:`ClusterStats`).

        With the process backend, operations executed inside worker
        replicas are merged into their shard's rollup (leaf-wise, like
        every other counter), so the cost model reports every cipher
        operation the cluster performed regardless of which process ran
        it -- serial and process runs of the same workload report
        identical cipher totals.
        """
        per_shard = []
        for i, shard in enumerate(self.shards):
            extras = (
                self._procs.extra_counters(i, shard)
                if self._procs is not None
                else []
            )
            # extras first: extra_counters folds worker block heat into
            # the shard, which the shard's own snapshot then reflects
            base = shard.stats()
            per_shard.append(merge_counter_dicts([base, *extras]) if extras else base)
            # gauges are export-only readings (outside the mergeable
            # snapshot): publish each shard's health state where the
            # obs dump can show it next to the latency instruments
            shard.obs.registry.gauge("health.state").set(
                _HEALTH_GAUGE[self.health.state(i)]
            )
        return ClusterStats(
            router=self.router.name,
            per_shard=per_shard,
            replica_sync=self.sync_stats(),
            health=self.health.snapshot(
                worker=self._procs.sync_stats if self._procs is not None else None
            ),
        )

    def sync_stats(self) -> dict[str, int] | None:
        """Replica ship accounting (``None`` until a process sync ran).

        ``full_ships``/``full_bytes`` count whole-platter spec ships,
        ``delta_ships``/``delta_bytes``/``delta_blocks`` the incremental
        catch-ups; benchmark C11 derives bytes-shipped-per-write from
        these.  ``delta_run_bytes_saved`` totals the id-index bytes the
        contiguous-run encoding shaved off every delta shipped in either
        direction.  ``offloaded_batches``/``offload_bytes``/
        ``offload_blocks`` count worker-side ``put_many``/``delete_many``
        executions and the delta traffic their results shipped *back*
        (benchmark C14).
        """
        if self._procs is None:
            return None
        return dict(self._procs.sync_stats)

    def check_invariants(self) -> None:
        """Verify every shard's B-Tree invariants and router placement."""
        for shard in self.shards:
            with shard.lock.read_locked():  # tree walks must not race writers
                shard.tree.check_invariants()
        self._check_placement(self.shards, self.router)
