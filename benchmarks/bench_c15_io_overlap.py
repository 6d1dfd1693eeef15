"""C15 -- overlapped I/O: readahead range scans and group-commit WAL rounds.

PR 9's two latency plays, measured against their blocking controls:

1. **Readahead overlap.**  A range scan over a latency-armed in-memory
   device (every physical block read sleeps ``C15_LATENCY_S``) with the
   pager's background fetch pool on: the tree's descent hints and the
   record-block prewarm pull upcoming blocks through
   ``BlockDevice.read_many`` -- one service charge per *batch* -- while
   the scan decodes what already arrived.  Acceptance: >=
   ``C15_OVERLAP_FLOOR``x scan throughput over the blocking pager, with
   identical results and identical cipher-operation totals (readahead
   moves fetches earlier; it must not change the paper's cost model).
2. **Group commit.**  8 concurrent committers on a ``FileBackend`` with
   a modeled per-fsync cost (``C15_FSYNC_LATENCY_S``): under the
   database's group commit, committers stage under the write lock and
   one leader syncs both devices for every commit staged so far --
   one sync round instead of one per commit.  Acceptance: >=
   ``C15_COMMIT_FLOOR``x commits/s over the per-commit-fsync control,
   every committed key durable after reopen, and a single-threaded
   grouped run byte-identical to serial.

``C15_N``, ``C15_SCANS``, ``C15_COMMITTERS``, ``C15_COMMITS`` shrink
the workload for CI smoke runs.
"""

from __future__ import annotations

import os
import random
import threading
import time

from repro.core.database import EncipheredDatabase
from repro.crypto.rsa import RSA, generate_rsa_keypair
from repro.designs.difference_sets import planar_difference_set
from repro.storage.backend import FileBackend, MemoryBackend
from repro.substitution.oval import OvalSubstitution

DESIGN = planar_difference_set(37)  # v = 1407

NUM_KEYS = int(os.environ.get("C15_N", "400"))
SCANS = int(os.environ.get("C15_SCANS", "3"))
LATENCY_S = float(os.environ.get("C15_LATENCY_S", "0.002"))
OVERLAP_FLOOR = float(os.environ.get("C15_OVERLAP_FLOOR", "2.0"))
COMMITTERS = int(os.environ.get("C15_COMMITTERS", "8"))
COMMITS_EACH = int(os.environ.get("C15_COMMITS", "3"))
FSYNC_LATENCY_S = float(os.environ.get("C15_FSYNC_LATENCY_S", "0.002"))
COMMIT_FLOOR = float(os.environ.get("C15_COMMIT_FLOOR", "3.0"))

KEYPAIR = generate_rsa_keypair(bits=128, rng=random.Random(0xC15))


def _keys():
    return random.Random(0xC151).sample(range(DESIGN.v), NUM_KEYS)


# -- 1. readahead overlap -------------------------------------------------


def _scan_arm(readahead_workers: int):
    """Build on an instant device, then arm the latency and scan cold."""
    db = EncipheredDatabase.create(
        OvalSubstitution(DESIGN, t=5),
        RSA(KEYPAIR),
        backend=MemoryBackend(),
        block_size=512,
        cache_blocks=512,
        record_cache_blocks=512,
        readahead_workers=readahead_workers,
    )
    try:
        for k in _keys():
            db.insert(k, f"rec-{k}".encode())
        db.commit()
        db.disk.latency_s = LATENCY_S  # loads were free; scans pay
        db.records.disk.latency_s = LATENCY_S
        results, elapsed = [], 0.0
        for _ in range(SCANS):
            db.tree.pager.clear_cache()
            db.records.clear_cache()
            start = time.perf_counter()
            results.append(db.range_search(0, DESIGN.v - 1))
            elapsed += time.perf_counter() - start
        s = db.stats()
        ciphers = {
            "substitution": s["substitution"],
            "pointer_cipher": s["pointer_cipher"],
            "record_cipher": s["record_cipher"],
        }
        return elapsed, results, ciphers, dict(s["pager"])
    finally:
        db.disk.latency_s = 0.0
        db.records.disk.latency_s = 0.0
        db.close()


# -- 2. group commit ------------------------------------------------------


def _commit_backend(tmp_path, name):
    return FileBackend(tmp_path / name, fsync=True, fsync_latency_s=FSYNC_LATENCY_S)


def _new_commit_db(backend, group_commit):
    return EncipheredDatabase.create(
        OvalSubstitution(DESIGN, t=5),
        RSA(KEYPAIR),
        backend=backend,
        block_size=512,
        autocommit=False,
        group_commit=group_commit,
    )


def _commit_arm(tmp_path, name, group_commit):
    """COMMITTERS threads, COMMITS_EACH insert+commit pairs each."""
    db = _new_commit_db(_commit_backend(tmp_path, name), group_commit)
    keys = _keys()
    barrier = threading.Barrier(COMMITTERS)
    errors = []

    def committer(tid):
        try:
            barrier.wait()
            for i in range(COMMITS_EACH):
                k = keys[tid * COMMITS_EACH + i]
                db.insert(k, f"c{tid}-{i}".encode())
                db.commit()
        except BaseException as exc:  # pragma: no cover - diagnostic
            errors.append(exc)

    threads = [
        threading.Thread(target=committer, args=(t,)) for t in range(COMMITTERS)
    ]
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - start
    assert not errors, errors
    fsyncs = db.disk.stats.fsyncs + db.records.disk.stats.fsyncs
    rounds = db.stats()["commit_group"]["rounds"]
    db.close()

    survivor = EncipheredDatabase.reopen_from_backend(
        OvalSubstitution(DESIGN, t=5),
        RSA(KEYPAIR),
        _commit_backend(tmp_path, name),
    )
    committed = COMMITTERS * COMMITS_EACH
    assert survivor.tree.size == committed, (
        f"{name}: {survivor.tree.size} of {committed} commits survived reopen"
    )
    survivor.close()
    return wall, fsyncs, rounds


def _serial_parity(tmp_path):
    """Single-threaded grouped vs serial: byte-identical platters."""
    bytes_at_rest = {}
    for name, group in (("parity-serial", False), ("parity-grouped", True)):
        db = _new_commit_db(_commit_backend(tmp_path, name), group)
        for k in sorted(_keys())[:60]:
            db.insert(k, f"p-{k}".encode())
            if k % 5 == 0:
                db.commit()
        db.commit()
        bytes_at_rest[name] = (
            db.disk.raw_blocks(),
            db.records.disk.raw_blocks(),
        )
        db.close()
    assert bytes_at_rest["parity-grouped"] == bytes_at_rest["parity-serial"], (
        "group commit changed the recovered platter bytes"
    )


def test_c15_io_overlap(benchmark, reporter, tmp_path):
    run = benchmark.pedantic(
        lambda: {
            "blocking": _scan_arm(0),
            "overlapped": _scan_arm(4),
            "per-commit fsync": _commit_arm(tmp_path, "serial", False),
            "group commit": _commit_arm(tmp_path, "grouped", True),
        },
        rounds=1, iterations=1,
    )

    # -- readahead overlap ------------------------------------------------
    blocking_s, blocking_results, blocking_ciphers, _ = run["blocking"]
    overlap_s, overlap_results, overlap_ciphers, overlap_pager = run["overlapped"]
    assert overlap_results == blocking_results, "readahead changed scan results"
    assert overlap_ciphers == blocking_ciphers, (
        "readahead changed the cipher-operation totals"
    )
    assert overlap_pager["readaheads"] > 0, "the overlap arm never hinted"
    overlap_speedup = blocking_s / overlap_s
    assert overlap_speedup >= OVERLAP_FLOOR, (
        f"readahead gained only {overlap_speedup:.2f}x on an I/O-bound scan "
        f"(floor {OVERLAP_FLOOR}x at {LATENCY_S * 1e3:.1f} ms/read)"
    )

    # -- group commit -----------------------------------------------------
    serial_wall, serial_fsyncs, _ = run["per-commit fsync"]
    group_wall, group_fsyncs, group_rounds = run["group commit"]
    commits = COMMITTERS * COMMITS_EACH
    commit_speedup = (commits / group_wall) / (commits / serial_wall)
    assert commit_speedup >= COMMIT_FLOOR, (
        f"group commit reached only {commit_speedup:.2f}x commits/s with "
        f"{COMMITTERS} committers (floor {COMMIT_FLOOR}x)"
    )
    assert group_fsyncs < serial_fsyncs, "coalescing saved no fsyncs"
    _serial_parity(tmp_path)

    reporter.table(
        f"range scans over {NUM_KEYS} keys, {LATENCY_S * 1e3:.1f} ms/device "
        f"read, {SCANS} cold scans per arm; results and cipher totals "
        "identical across arms",
        ["arm", "scan wall-clock", "throughput vs blocking"],
        [
            ["blocking pager", f"{blocking_s * 1e3:,.1f} ms", "1.00x"],
            ["readahead (4 workers)", f"{overlap_s * 1e3:,.1f} ms",
             f"{overlap_speedup:,.2f}x"],
        ],
    )
    reporter.table(
        f"{COMMITTERS} committers x {COMMITS_EACH} commits, "
        f"{FSYNC_LATENCY_S * 1e3:.1f} ms/fsync modeled; all commits durable "
        "after reopen in both arms; single-threaded grouped run "
        "byte-identical to serial",
        ["arm", "wall-clock", "fsyncs", "commits/s vs per-commit"],
        [
            ["per-commit fsync", f"{serial_wall * 1e3:,.1f} ms",
             serial_fsyncs, "1.00x"],
            ["group commit", f"{group_wall * 1e3:,.1f} ms",
             group_fsyncs, f"{commit_speedup:,.2f}x"],
        ],
    )
    reporter.metrics({
        "keys": NUM_KEYS,
        "scans": SCANS,
        "device_latency_s": LATENCY_S,
        "scan_wall_s": {"blocking": blocking_s, "overlapped": overlap_s},
        "overlap_speedup": overlap_speedup,
        "overlap_pager": overlap_pager,
        "committers": COMMITTERS,
        "commits_each": COMMITS_EACH,
        "fsync_latency_s": FSYNC_LATENCY_S,
        "commit_wall_s": {"serial": serial_wall, "grouped": group_wall},
        "commit_fsyncs": {"serial": serial_fsyncs, "grouped": group_fsyncs},
        "group_rounds": group_rounds,
        "commit_speedup": commit_speedup,
        "parity": {
            "scan_results_identical": True,
            "scan_ciphers_identical": True,
            "grouped_platters_byte_identical": True,
        },
    })
