"""One benchmark run: set up, probe, time, check, and report.

An untraced run (``trace=False``) gives the end-to-end metrics.  It sets
the cluster up ``SETUPS`` times and reports the median set-up time; on
the single-client workloads each fresh cluster first serves the same
``probe_ops`` operations, whose work counts must repeat exactly.  The
last cluster then serves the timed phase.

A traced run (``trace=True``) gives the per-layer metrics.  It spends
half of its time on an untraced phase and half on a traced phase, each on
its own fresh cluster, so ``trace.overhead`` compares like with like; the
probe counts of the two clusters must match, which shows the wrappers
change no behaviour.
"""

from __future__ import annotations

import shutil
import statistics
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from repro.cluster.sharded import ShardedEncipheredDatabase
from repro.exceptions import ReproError

from perfbench.calibrate import reference_clock, reference_ns, slowdown
from perfbench.harness import (
    DESIGN_ORDER,
    NUM_SHARDS,
    Model,
    beyond,
    build_cluster,
    delta,
    directory_bytes,
    execute,
    file_backend,
    percentile,
    probe,
    stat_counts,
    tail_percentile,
    timed_phase,
    tree_keys,
)
from perfbench.instrument import CLUSTER, DATABASE, LAYERS, instrumented
from perfbench.provenance import provenance
from perfbench.tracer import Tracer
from perfbench.workloads import (
    DURABLE_CLIENTS,
    LOADED_KEYS,
    PAYLOAD_BYTES,
    client_keys,
    dataset,
    durable_client,
    point_zipf,
    range_uniform,
)

UNIVERSE = DESIGN_ORDER * DESIGN_ORDER + DESIGN_ORDER + 1
SETUPS = 2
#: reference kernel times taken before and after each set-up
SETUP_REFERENCES = 5
#: ``trace.unattributed_share`` above this fails a traced run
MAX_UNATTRIBUTED = 0.05


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    clients: int
    durable: bool
    probe_ops: int
    #: ``ops_per_s`` counts whole blocks of this many operations per client:
    #: a whole number of the stream's mix blocks
    block_ops: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("point_zipf",
                 "Zipf point reads: B-tree descent (substitution, RSA pointers, "
                 "node decode) on a hot set that fits small caches",
                 clients=1, durable=False, probe_ops=200, block_ops=100),
        Workload("range_uniform",
                 "uniform 64-key ranges on all shards: record-block DES and fan-out "
                 "over a working set far larger than any cache",
                 clients=1, durable=False, probe_ops=12, block_ops=1),
        Workload("durable_mixed",
                 "two clients writing through WAL platters on files with cross-shard "
                 "transactions, then crash, reopen and durability check",
                 clients=DURABLE_CLIENTS, durable=True, probe_ops=0, block_ops=10),
    )
}

#: end-to-end metrics the workload reports, as (name, family, percentile)
LATENCIES = {
    "point_zipf": (("get_p50_ms", "get", 50), ("get_p99_ms", "get", 99),
                   ("get_many_p50_ms", "get_many", 50)),
    "range_uniform": (("range_p50_ms", "range", 50), ("range_p95_ms", "range", 95)),
    "durable_mixed": (("get_p50_ms", "get", 50), ("get_p99_ms", "get", 99),
                      ("put_p50_ms", "put", 50), ("put_p99_ms", "put", 99),
                      ("txn_p50_ms", "txn", 50), ("txn_p95_ms", "txn", 95)),
}

#: the end-to-end metrics every workload reports in its result line
CONTRACT_METRICS = ("ops_per_s", "op_p50_ms", "setup_s")


def make_streams(workload: Workload, seed: int, data: dict, cluster):
    """One operation stream and one oracle model per client."""
    if workload.name == "point_zipf":
        return [point_zipf(seed, data, UNIVERSE)], [Model(data)]
    if workload.name == "range_uniform":
        return [range_uniform(seed, UNIVERSE)], [Model(data)]
    streams, models = [], []
    for client in range(workload.clients):
        streams.append(durable_client(seed, client, data, UNIVERSE,
                                      cluster.router.shard_for, NUM_SHARDS))
        owned = client_keys(client, UNIVERSE)
        models.append(Model({k: v for k, v in data.items() if k in owned}))
    return streams, models


def _dispose(setup) -> None:
    setup.cluster.close()
    if setup.root is not None:
        shutil.rmtree(setup.root)


def _latency(samples_ns: list[int], q: float) -> dict:
    values = sorted(samples_ns)
    return {"value": percentile(values, q) / 1e6, "unit": "ms",
            "percentile": q, "samples": len(values), "beyond": beyond(len(values), q)}


def _wrong_answers(result, label: str) -> list[str]:
    problems = [f"{label}: wrong answer {wrong}" for wrong in result.wrong[:5]]
    if len(result.wrong) > 5:
        problems.append(f"{label}: {len(result.wrong) - 5} more wrong answers")
    return problems


def end_to_end(workload: Workload, phase, setup_seconds: list[float],
               references: list[float]) -> dict:
    """The workload's end-to-end metrics from one untraced phase.

    ``ops_per_s`` counts whole mix blocks of ``block_ops`` operations and
    ``op_p50_ms`` is the median latency, both scaled to the reference host
    speed by the mean of the reference times taken during the phase;
    ``setup_s`` is the median over the set-ups, scaled by the mean of
    every reference time the run took (see :mod:`perfbench.calibrate`).
    Means, because the host flips between speeds during a run: the
    operations and the reference times both average over those flips.
    The ``wall_`` figures beside them and every per-operation-type latency
    are plain wall-clock readings over the whole phase.
    """
    result = phase.result
    everything = [s for samples in result.latencies_ns.values() for s in samples]
    during = slowdown(phase.references())
    overall = slowdown(references + phase.references())
    table = {
        "ops_per_s": {"value": phase.throughput(workload.block_ops) * during,
                      "unit": "ops/s", "slowdown": during},
        "op_p50_ms": {"value": phase.p50_ms() / during, "unit": "ms"},
        "setup_s": {"value": statistics.median(setup_seconds) / overall, "unit": "s",
                    "setups": len(setup_seconds), "slowdown": overall},
        "wall_ops_per_s": {"value": phase.ops_per_s, "unit": "ops/s"},
        "wall_op_p50_ms": _latency(everything, 50),
        "wall_setup_s": {"value": statistics.median(setup_seconds), "unit": "s"},
        "error_rate": {"value": result.failed / max(result.attempted, 1), "unit": "ratio"},
    }
    for name, family, q in LATENCIES[workload.name]:
        samples = result.latencies_ns.get(family)
        if samples:
            table[name] = _latency(samples, q)
            tail = tail_percentile(len(samples))
            if table[name]["beyond"] < 10 and tail is not None:
                # the named percentile has too few samples beyond it: also
                # give the highest one that has ten
                table[f"{family}_tail_ms"] = _latency(samples, tail)
    return table


def crash_and_verify(setup, models, phase) -> tuple[dict, list[str]]:
    """Crash every platter, reopen from the manifest, check durability.

    Every acknowledged write must be present with its payload and every
    acknowledged delete absent: the reopened index must hold exactly the
    model's keys, and every key the phase wrote must read back its last
    acknowledged payload.
    """
    for disk, records in setup.cluster.shard_parts():
        disk.abandon()
        records.disk.abandon()
    start = perf_counter()
    try:
        reopened = ShardedEncipheredDatabase.reopen_from_manifest(
            setup.substitution_factory, setup.cipher_factory, file_backend(setup.root))
    except ReproError as exc:
        return {}, [f"durability: reopen after the crash failed: {exc!r}"]
    reopen_s = perf_counter() - start
    expected = {}
    for model in models:
        expected.update(model.data)
    problems = []
    start = perf_counter()
    keys = tree_keys(reopened)
    if keys != expected.keys():
        problems.append(
            f"durability: {len(expected.keys() - keys)} acknowledged keys missing, "
            f"{len(keys - expected.keys())} deleted keys present after reopen")
    written = sorted(key for key in phase.result.touched if key in expected)
    payloads = reopened.get_many(written)
    lost = sum(1 for key, payload in zip(written, payloads) if payload != expected[key])
    if lost:
        problems.append(f"durability: {lost} acknowledged payloads differ after reopen")
    verify_s = perf_counter() - start
    reopened.close()
    return {
        "reopen_s": {"value": reopen_s, "unit": "s"},
        "verify_s": {"value": verify_s, "unit": "s", "keys_checked": len(keys),
                     "payloads_checked": len(written)},
    }, problems


def _storage_amplification(setup, models, phase, counts: dict) -> dict:
    live = sum(len(payload) for model in models for payload in model.data.values())
    written = phase.result.payload_bytes_written
    device = counts["device_bytes_written"] + counts["wal_bytes"]
    return {
        "write_amp": {"value": device / written if written else 0.0, "unit": "ratio",
                      "device_and_wal_bytes": device, "payload_bytes": written},
        "space_amp": {"value": directory_bytes(setup.root) / live, "unit": "ratio",
                      "live_payload_bytes": live},
    }


def untraced_run(workload: Workload, seed: int, seconds: float, scratch: Path):
    data = dataset(seed, UNIVERSE)
    problems: list[str] = []
    setup_seconds, references, probe_counts = [], [], []
    clock = reference_clock(workload.clients)
    for attempt in range(SETUPS):
        root = tempfile.mkdtemp(dir=scratch) if workload.durable else None
        references += [reference_ns(clock) for _ in range(SETUP_REFERENCES)]
        setup = build_cluster(seed, data, root)
        references += [reference_ns(clock) for _ in range(SETUP_REFERENCES)]
        setup_seconds.append(setup.seconds)
        streams, models = make_streams(workload, seed, data, setup.cluster)
        if workload.probe_ops:
            counts, result = probe(setup.cluster, streams[0], models[0],
                                   workload.probe_ops, trace=False)
            probe_counts.append(counts)
            problems += _wrong_answers(result, "probe")
        if attempt < SETUPS - 1:
            _dispose(setup)
    if any(counts != probe_counts[0] for counts in probe_counts):
        problems.append(f"count determinism: probe counts differ across set-ups: {probe_counts}")
    before = stat_counts(setup.cluster)
    phase = timed_phase(setup.cluster, streams, models, seconds)
    counts = delta(stat_counts(setup.cluster), before)
    problems += _wrong_answers(phase.result, "timed phase")
    table = end_to_end(workload, phase, setup_seconds, references)
    if workload.durable:
        table.update(_storage_amplification(setup, models, phase, counts))
        recovered, lost = crash_and_verify(setup, models, phase)
        table.update(recovered)
        problems += lost
        shutil.rmtree(setup.root)
    else:
        _dispose(setup)
    checks = {"probe_counts": probe_counts[0] if probe_counts else None,
              "probe_repeats": len(probe_counts)}
    return phase, table, checks, problems


#: The end-to-end metric and workload each layer's metrics should move.
LAYER_TARGETS = {
    "cluster": "range_p50_ms (op_p50_ms) on range_uniform; flat on point_zipf",
    "core.database": "put_p50_ms and txn_p50_ms (op_p50_ms) on durable_mixed",
    "storage.rwlock": "put_p99_ms on durable_mixed",
    "btree": "get_p50_ms (op_p50_ms) on point_zipf, and setup_s",
    "core.codecs": "get_p50_ms (op_p50_ms) on point_zipf",
    "substitution": "get_p50_ms (op_p50_ms) on point_zipf",
    "crypto.rsa": "get_p50_ms on point_zipf and put_p50_ms on durable_mixed",
    "crypto.des": "range_p50_ms on range_uniform and get_many_p50_ms on point_zipf",
    "core.records": "range_p50_ms (op_p50_ms) on range_uniform",
    "storage.pager": "get_p50_ms (op_p50_ms) on point_zipf; flat on range_uniform",
    "storage.device": "write_amp and reopen_s on durable_mixed",
    "storage.platter": "put_p50_ms, txn_p50_ms and write_amp on durable_mixed; "
                       "zero on the in-memory workloads",
    "trace": "none: the quality of the trace itself",
}


def _per(value: float, base: int) -> float:
    return value / base if base else 0.0


def layer_metrics(tracer: Tracer, summary, phase, counts: dict, overhead: float) -> dict:
    """The per-layer table of one traced phase."""
    ops, writes = phase.result.attempted, phase.result.writes
    by_layer = {layer: [k for k, (name, _) in enumerate(tracer.kinds) if name == layer]
                for layer in LAYERS}

    def kinds(layer: str, *methods: str) -> list[int]:
        return [k for k in by_layer[layer] if not methods or tracer.kinds[k][1] in methods]

    def ms(totals, layer: str, *methods: str) -> float:
        return sum(totals[k] for k in kinds(layer, *methods)) / 1e6

    def calls(layer: str, *methods: str) -> int:
        return sum(summary.calls[k] for k in kinds(layer, *methods))

    # the clients' time inside requests: the loop around them also times
    # the reference kernel, which no span covers and should not
    request_ns = sum(sum(result.completions) for result in phase.per_client)
    attributed = sum(summary.self_ns.values())
    hits, misses = counts["pager_hits"], counts["pager_misses"]
    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_ms_per_op"] = (_per(ms(summary.self_ns, layer), ops), "ms/op", "lower")
    m.update({
        "cluster.shards_per_op": (
            _per(sum(summary.distinct_tags[k] for k in kinds(DATABASE)), ops),
            "shards/op", "lower"),
        "core.database.commit_ms_per_write": (
            _per(ms(summary.inclusive_ns, DATABASE, "commit"), writes), "ms/write", "lower"),
        "storage.rwlock.wait_ms_per_op": (
            _per(ms(summary.inclusive_ns, "storage.rwlock"), ops), "ms/op", "lower"),
        "btree.nodes_visited_per_op": (_per(counts["nodes_visited"], ops), "count/op", "lower"),
        "btree.splits_merges_per_write": (
            _per(counts["splits_merges"], writes), "count/write", "lower"),
        "core.codecs.decode_ms_per_op": (
            _per(ms(summary.self_ns, "core.codecs", "decode"), ops), "ms/op", "lower"),
        "core.codecs.decodes_per_op": (
            _per(calls("core.codecs", "decode"), ops), "count/op", "lower"),
        "core.codecs.encode_ms_per_write": (
            _per(ms(summary.self_ns, "core.codecs", "encode"), writes), "ms/write", "lower"),
        "substitution.inversions_per_op": (_per(counts["inversions"], ops), "count/op", "lower"),
        "crypto.rsa.decryptions_per_op": (
            _per(counts["pointer_decryptions"], ops), "count/op", "lower"),
        "crypto.rsa.encryptions_per_write": (
            _per(counts["pointer_encryptions"], writes), "count/write", "lower"),
        "crypto.des.blocks_per_op": (
            _per(sum(summary.tag_sum[k] for k in kinds("crypto.des")), ops), "count/op", "lower"),
        "crypto.des.calls_per_op": (_per(calls("crypto.des"), ops), "count/op", "lower"),
        "core.records.block_decryptions_per_op": (
            _per(counts["record_block_decryptions"], ops), "count/op", "lower"),
        "core.records.useful_byte_ratio": (
            _per(phase.result.payload_bytes_read, counts["record_bytes_read"]), "ratio", "higher"),
        "storage.pager.hit_rate": (_per(hits, hits + misses), "ratio", "higher"),
        "storage.pager.misses_per_op": (_per(misses, ops), "count/op", "lower"),
        "storage.device.reads_per_op": (_per(counts["device_reads"], ops), "count/op", "lower"),
        "storage.device.writes_per_write": (
            _per(counts["device_writes"], writes), "count/write", "lower"),
        "storage.platter.sync_ms_per_write": (
            _per(ms(summary.inclusive_ns, "storage.platter", "sync"), writes),
            "ms/write", "lower"),
        "storage.platter.wal_bytes_per_write": (
            _per(counts["wal_bytes"], writes), "B/write", "lower"),
        "trace.unattributed_share": (1 - attributed / request_ns, "ratio", "lower"),
        "trace.overhead": (overhead, "ratio", "higher"),
    })
    return {name: {"value": value, "unit": unit, "better": better,
                   "moves": LAYER_TARGETS[name.rsplit(".", 1)[0]]}
            for name, (value, unit, better) in m.items()}


def traced_run(workload: Workload, seed: int, seconds: float, scratch: Path):
    data = dataset(seed, UNIVERSE)
    problems: list[str] = []
    half = seconds / 2
    phases, phase_counts, probe_counts = [], [], []
    tracer = Tracer()
    for traced in (False, True):
        root = tempfile.mkdtemp(dir=scratch) if workload.durable else None
        setup = build_cluster(seed, data, root)
        streams, models = make_streams(workload, seed, data, setup.cluster)
        if workload.probe_ops:
            counts, result = probe(setup.cluster, streams[0], models[0],
                                   workload.probe_ops, trace=traced)
            probe_counts.append(counts)
            problems += _wrong_answers(result, "probe")
        before = stat_counts(setup.cluster)
        if traced:
            with instrumented(tracer):
                transaction = tracer.wrap(tracer.kind(CLUSTER, "transaction"), execute)

                def run(cluster, op):
                    return (transaction if op[0] == "txn" else execute)(cluster, op)

                tracer.active = True
                phase = timed_phase(setup.cluster, streams, models, half, run=run)
                tracer.active = False
        else:
            phase = timed_phase(setup.cluster, streams, models, half)
        phase_counts.append(delta(stat_counts(setup.cluster), before))
        problems += _wrong_answers(phase.result, "traced phase" if traced else "untraced phase")
        phases.append(phase)
        _dispose(setup)
    if probe_counts and probe_counts[0] != probe_counts[1]:
        problems.append(f"traced probe counts {probe_counts[1]} differ from "
                        f"untraced {probe_counts[0]}")
    # the two phases ran at different times: compare them at reference speed
    untraced, traced_phase = (phase.ops_per_s * slowdown(phase.references())
                              for phase in phases)
    layers = layer_metrics(tracer, tracer.summarize(), phases[1], phase_counts[1],
                           traced_phase / untraced)
    unattributed = layers["trace.unattributed_share"]["value"]
    if unattributed > MAX_UNATTRIBUTED:
        problems.append(f"trace.unattributed_share {unattributed:.4f} > {MAX_UNATTRIBUTED}")
    checks = {"probe_counts": probe_counts or None}
    return phases[1], layers, checks, problems


def run(name: str, seed: int, seconds: float, trace: bool, root: Path, scratch: Path) -> dict:
    """One run of one workload; the full result record."""
    workload = WORKLOADS[name]
    if trace:
        phase, metrics, checks, problems = traced_run(workload, seed, seconds, scratch)
    else:
        phase, metrics, checks, problems = untraced_run(workload, seed, seconds, scratch)
    result = phase.result
    if result.errors:
        checks["errors"] = dict(result.errors)
    params = {"universe": UNIVERSE, "loaded_keys": LOADED_KEYS,
              "payload_bytes": PAYLOAD_BYTES, "shards": NUM_SHARDS,
              "clients": workload.clients, "durable": workload.durable,
              "probe_ops": workload.probe_ops, "setups": 2 if trace else SETUPS}
    return {
        "workload": name,
        "correct": not problems,
        "problems": problems,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
        "checks": checks,
        "provenance": provenance(root, name, seed, seconds, trace, params),
    }
