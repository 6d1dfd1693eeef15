"""Cluster set-up, closed-loop clients, the answer oracle and the count probe.

Everything here drives the public :class:`ShardedEncipheredDatabase` API
at ``create()``'s defaults; the only settings the benchmark chooses are
the ones every workload shares (four hash-routed shards, an oval
substitution and a 128-bit RSA pointer key per shard) and, for
``durable_mixed``, the on-disk backend.
"""

from __future__ import annotations

import bisect
import math
import os
import random
import statistics
import threading
from collections import Counter
from dataclasses import dataclass, field
from itertools import islice
from time import perf_counter, perf_counter_ns

from repro.cluster.sharded import ShardedEncipheredDatabase
from repro.crypto.rsa import RSA, generate_rsa_keypair
from repro.designs.difference_sets import planar_difference_set
from repro.designs.multipliers import non_multiplier_units
from repro.storage.backend import FileBackend
from repro.substitution.oval import OvalSubstitution

from perfbench.calibrate import REFERENCE_EVERY_NS, reference_clock, reference_ns
from perfbench.instrument import instrumented
from perfbench.tracer import Tracer
from perfbench.workloads import apply_to_model

DESIGN_ORDER = 79  # planar difference set: v = 79^2 + 79 + 1 = 6321 keys
NUM_SHARDS = 4
RSA_BITS = 128


@dataclass
class Setup:
    """A freshly built and bulk-loaded cluster, with what reopens it."""

    cluster: ShardedEncipheredDatabase
    substitution_factory: object
    cipher_factory: object
    seconds: float
    root: str | None


def file_backend(root: str) -> FileBackend:
    """The durable workload's backend: platters and WALs in ``root``.

    Every write goes through the WAL and the platter files as usual, but
    is not flushed to the disk (``fsync=False``).  The benchmark's crash
    abandons every in-memory copy and keeps the files, which needs no
    flush; and a flush on the shared VMs the benchmark runs on takes from
    a fraction of a millisecond to tens, with other guests' disk traffic,
    which would swamp any change in the program.  The platters' WAL
    bytes and sync time still show the durability layer's work.
    """
    return FileBackend(root, fsync=False)


def build_cluster(seed: int, data: dict[int, bytes], root: str | None = None) -> Setup:
    """Design, keys, ``create`` and ``bulk_load``, timed together as set-up.

    ``root`` puts the shards on a :class:`FileBackend` in that (fresh)
    directory; ``None`` keeps ``create()``'s in-memory devices.
    """
    start = perf_counter()
    design = planar_difference_set(DESIGN_ORDER)
    units = non_multiplier_units(design)
    rng = random.Random(f"secrets:{seed}")
    multipliers = rng.sample(units, NUM_SHARDS)
    keypairs = [generate_rsa_keypair(bits=RSA_BITS, rng=rng) for _ in range(NUM_SHARDS)]

    def substitution_factory(shard: int) -> OvalSubstitution:
        return OvalSubstitution(design, t=multipliers[shard])

    def cipher_factory(shard: int) -> RSA:
        return RSA(keypairs[shard])

    cluster = ShardedEncipheredDatabase.create(
        substitution_factory,
        cipher_factory,
        num_shards=NUM_SHARDS,
        backend=file_backend(root) if root is not None else None,
    )
    cluster.bulk_load(sorted(data.items()))
    return Setup(cluster, substitution_factory, cipher_factory,
                 perf_counter() - start, root)


def execute(cluster: ShardedEncipheredDatabase, op: tuple):
    """Send one generated operation to the cluster; return its answer."""
    kind = op[0]
    if kind == "get":
        return cluster.get(op[1])
    if kind == "get_many":
        return cluster.get_many(op[1])
    if kind == "range":
        return cluster.range_search(op[1], op[2])
    if kind == "insert":
        return cluster.insert(op[1], op[2])
    if kind == "delete":
        return cluster.delete(op[1])
    if kind == "txn":
        with cluster.transaction():
            for key, payload in op[1]:
                cluster.insert(key, payload)
        return None
    raise ValueError(f"unknown operation {kind!r}")


class Model:
    """The dict oracle: what every read must return."""

    def __init__(self, data: dict[int, bytes]) -> None:
        self.data = dict(data)
        self._sorted: list[int] | None = None

    def expected(self, op: tuple):
        kind = op[0]
        if kind == "get":
            return self.data.get(op[1])
        if kind == "get_many":
            return [self.data.get(key) for key in op[1]]
        if kind == "range":
            if self._sorted is None:
                self._sorted = sorted(self.data)
            keys = self._sorted
            lo = bisect.bisect_left(keys, op[1])
            hi = bisect.bisect_right(keys, op[2])
            return [(key, self.data[key]) for key in keys[lo:hi]]
        return None

    def apply(self, op: tuple) -> None:
        if op[0] in ("insert", "delete", "txn"):
            apply_to_model(op, self.data)
            self._sorted = None


#: latency family of each operation kind
FAMILY = {"get": "get", "get_many": "get_many", "range": "range",
          "insert": "put", "delete": "put", "txn": "txn"}


@dataclass
class ClientResult:
    """What one closed-loop client did during a phase."""

    latencies_ns: dict[str, list[int]] = field(default_factory=dict)
    #: the latency of every completed operation, in order
    completions: list[int] = field(default_factory=list)
    #: reference kernel times taken every ``REFERENCE_EVERY_NS`` (see ``calibrate``)
    references: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    wrong: list[str] = field(default_factory=list)
    errors: Counter = field(default_factory=Counter)
    writes: int = 0
    payload_bytes_read: int = 0
    payload_bytes_written: int = 0
    touched: set[int] = field(default_factory=set)

    def merge(self, other: "ClientResult") -> None:
        for family, samples in other.latencies_ns.items():
            self.latencies_ns.setdefault(family, []).extend(samples)
        self.attempted += other.attempted
        self.failed += other.failed
        self.wrong.extend(other.wrong)
        self.errors.update(other.errors)
        self.writes += other.writes
        self.payload_bytes_read += other.payload_bytes_read
        self.payload_bytes_written += other.payload_bytes_written
        self.touched |= other.touched


def _payload_bytes(answer) -> int:
    if answer is None:
        return 0
    if isinstance(answer, bytes):
        return len(answer)
    return sum(len(item[1] if isinstance(item, tuple) else item or b"") for item in answer)


def run_client(cluster, ops, model: Model, deadline: float | None, result: ClientResult,
               limit: int | None = None, run=execute, clients: int = 1) -> None:
    """Closed loop: send the next operation only once the last one returned.

    Stops at ``deadline`` (a ``perf_counter`` time) or after ``limit``
    operations.  A wrong answer is recorded in ``result.wrong``; a raised
    error counts as a failed operation and leaves the model unchanged.

    Every ``REFERENCE_EVERY_NS`` of wall time, and once before the first
    operation, the loop times the host reference kernel between two
    operations, by the clock :func:`reference_clock` picks for
    ``clients`` concurrent clients.
    """
    clock = reference_clock(clients)
    result.references.append(reference_ns(clock))
    last_reference = perf_counter_ns()
    for op in ops if limit is None else islice(ops, limit):
        if deadline is not None and perf_counter() >= deadline:
            break
        kind = op[0]
        result.attempted += 1
        start = perf_counter_ns()
        try:
            answer = run(cluster, op)
        except Exception as exc:  # counted toward error_rate, then carry on
            result.failed += 1
            result.errors[f"{kind}:{type(exc).__name__}"] += 1
            continue
        end = perf_counter_ns()
        result.latencies_ns.setdefault(FAMILY[kind], []).append(end - start)
        result.completions.append(end - start)
        if kind in ("insert", "delete", "txn"):
            result.writes += 1
            model.apply(op)
            if kind == "txn":
                result.touched.update(key for key, _ in op[1])
                result.payload_bytes_written += sum(len(p) for _, p in op[1])
            else:
                result.touched.add(op[1])
                result.payload_bytes_written += len(op[2]) if kind == "insert" else 0
        else:
            want = model.expected(op)
            if answer != want:
                result.wrong.append(f"{op[:2]!r}: got {answer!r:.80}, want {want!r:.80}")
            result.payload_bytes_read += _payload_bytes(answer)
        if end - last_reference >= REFERENCE_EVERY_NS:
            result.references.append(reference_ns(clock))
            last_reference = perf_counter_ns()


@dataclass
class Phase:
    """One timed phase over every client."""

    result: ClientResult
    wall_s: float
    per_client: list[ClientResult]

    @property
    def clients(self) -> int:
        return len(self.per_client)

    @property
    def ops_per_s(self) -> float:
        """Completed operations over the whole phase's wall time."""
        return (self.result.attempted - self.result.failed) / self.wall_s

    def throughput(self, block_ops: int) -> float:
        """Operations per second of client time, over whole mix blocks.

        Each client counts its operations up to the last whole block of
        ``block_ops`` -- a whole number of the stream's mix blocks (see
        :func:`perfbench.workloads.shuffled_blocks`), so what is counted
        holds exactly the workload's mix.  A closed-loop client is always
        waiting on one operation, so its throughput is its operations
        over their summed latencies; the phase's is the clients' sum.
        """
        total = 0.0
        for result in self.per_client:
            latencies = result.completions
            done = len(latencies) // block_ops * block_ops or len(latencies)
            if done:
                total += done * 1e9 / sum(latencies[:done])
        return total

    def p50_ms(self) -> float:
        """The median latency of every completed operation."""
        return statistics.median(latency for result in self.per_client
                                 for latency in result.completions) / 1e6

    def references(self) -> list[float]:
        """Every reference kernel time the clients took."""
        return [t for result in self.per_client for t in result.references]


def timed_phase(cluster, streams, models, seconds: float, run=execute) -> Phase:
    """Run one closed-loop client per stream for ``seconds``."""
    results = [ClientResult() for _ in streams]
    if len(streams) == 1:
        start = perf_counter()
        run_client(cluster, streams[0], models[0], start + seconds, results[0], run=run)
    else:
        barrier = threading.Barrier(len(streams) + 1)
        deadline = [0.0]

        def client(i: int) -> None:
            barrier.wait()
            run_client(cluster, streams[i], models[i], deadline[0], results[i], run=run,
                       clients=len(streams))

        threads = [threading.Thread(target=client, args=(i,), name=f"client-{i}")
                   for i in range(len(streams))]
        for thread in threads:
            thread.start()
        start = perf_counter()
        deadline[0] = start + seconds
        barrier.wait()
        for thread in threads:
            thread.join()
    wall = perf_counter() - start
    total = ClientResult()
    for result in results:
        total.merge(result)
    return Phase(total, wall, results)


# -- counts ---------------------------------------------------------------

def _leaf(tree: dict, path: str) -> float:
    node = tree
    for part in path.split("."):
        node = node[part]
    return node


#: program counters read from ``cluster.stats().aggregate``
STAT_COUNTS = {
    "pointer_decryptions": ("pointer_cipher.decryptions",),
    "pointer_encryptions": ("pointer_cipher.encryptions",),
    "inversions": ("substitution.inversions",),
    "nodes_visited": ("tree.nodes_visited",),
    "splits_merges": ("tree.splits", "tree.merges"),
    "record_block_decryptions": ("record_cipher.decryptions",),
    "record_bytes_read": ("record_disk.bytes_read",),
    "pager_hits": ("pager.hits",),
    "pager_misses": ("pager.misses",),
    "device_reads": ("node_disk.reads", "record_disk.reads"),
    "device_writes": ("node_disk.writes", "record_disk.writes"),
    "device_bytes_written": ("node_disk.bytes_written", "record_disk.bytes_written"),
    "wal_bytes": ("durability.node.wal_bytes", "durability.records.wal_bytes"),
}


def stat_counts(cluster) -> dict[str, float]:
    """The :data:`STAT_COUNTS` as they stand now."""
    aggregate = cluster.stats().aggregate
    return {name: sum(_leaf(aggregate, path) for path in paths)
            for name, paths in STAT_COUNTS.items()}


def delta(after: dict, before: dict) -> dict:
    return {name: after[name] - before[name] for name in after}


#: the counts whose exact repetition the probe checks
PROBE_COUNTS = ("pointer_decryptions", "des_blocks", "des_calls", "nodes_visited",
                "device_reads", "device_writes", "record_block_decryptions")


def probe(cluster, stream, model: Model, ops: int, trace: bool) -> tuple[dict, ClientResult]:
    """Run the first ``ops`` operations of ``stream`` and count their work.

    DES calls are counted by wrapping only the DES entry points
    (``trace=False``) or, in the traced run, every layer's; the rest are
    program counters.
    """
    tracer = Tracer()
    layers = None if trace else ("crypto.des",)
    before = stat_counts(cluster)
    result = ClientResult()
    with instrumented(tracer, layers):
        tracer.active = True
        run_client(cluster, stream, model, None, result, limit=ops)
        tracer.active = False
    counts = delta(stat_counts(cluster), before)
    summary = tracer.summarize()
    des = [k for k, (layer, _) in enumerate(tracer.kinds) if layer == "crypto.des"]
    counts["des_blocks"] = sum(summary.tag_sum[k] for k in des)
    counts["des_calls"] = sum(summary.calls[k] for k in des)
    return {name: counts[name] for name in PROBE_COUNTS}, result


# -- latency statistics -----------------------------------------------------

def percentile(sorted_values: list, q: float):
    """Nearest-rank ``q``-th percentile of already sorted values."""
    rank = max(1, math.ceil(q / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def beyond(n: int, q: float) -> int:
    """Samples strictly above the nearest-rank ``q``-th percentile of ``n``."""
    return n - max(1, math.ceil(q / 100 * n))


def tail_percentile(n: int, candidates=(99.9, 99, 95, 90, 75, 50)) -> float | None:
    """The highest candidate percentile with at least 10 samples beyond it."""
    for q in candidates:
        if beyond(n, q) >= 10:
            return q
    return None


def tree_keys(cluster) -> set[int]:
    """Every key in every shard's index, read without deciphering records."""
    keys: set[int] = set()
    for shard in cluster.shards:
        with shard.lock.read_locked():
            keys.update(key for key, _ in shard.tree.items())
    return keys


def directory_bytes(root: str) -> int:
    return sum(os.path.getsize(os.path.join(folder, name))
               for folder, _, names in os.walk(root) for name in names)
