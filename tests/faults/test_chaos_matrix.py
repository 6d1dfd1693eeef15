"""The chaos matrix: 105 seeded fault schedules, replayable one by one.

Three arms, each parametrised by seed so a red schedule reruns exactly
(``pytest -k 'seed47'`` style):

* **Arm A** (70 schedules; 60 memory + 10 file-backed) -- seed-derived
  transient/torn/latency schedules armed on a single database's devices.
  Every schedule must finish with results *and* at-rest platter bytes
  identical to the fault-free control, and the device retry counters
  must equal the injected schedule exactly.
* **Arm B** (15 schedules) -- a shard's devices fail permanently
  mid-run.  The cluster must degrade with the typed error and then
  serve explicit :class:`PartialResult` reads equal to the control
  minus the dead shard's keys.  Never a wedge, never a wrong answer.
* **Arm C** (20 schedules) -- process-executor worker crashes and
  hangs at seed-chosen points.  Results and platter bytes must match
  one shared fault-free serial control, and the supervision counters
  must record every injected death.
"""

from __future__ import annotations

import random

import pytest

from repro.cluster.health import PartialResult
from repro.cluster.sharded import ShardedEncipheredDatabase
from repro.core.database import EncipheredDatabase
from repro.crypto.rsa import RSA, generate_rsa_keypair
from repro.designs.difference_sets import planar_difference_set
from repro.designs.multipliers import non_multiplier_units
from repro.exceptions import ShardUnavailableError
from repro.faults import FaultPlan
from repro.storage.backend import FileBackend, MemoryBackend
from repro.substitution.oval import OvalSubstitution

DESIGN = planar_difference_set(13)  # v = 183
UNITS = non_multiplier_units(DESIGN)
KEYPAIR = generate_rsa_keypair(bits=128, rng=random.Random(0xC4))
NUM_SHARDS = 3

# ---------------------------------------------------------------------------
# Arm A: device-level schedules against a fault-free control
# ---------------------------------------------------------------------------

MEMORY_SEEDS = 60
FILE_SEEDS = 10


def make_db(backend) -> EncipheredDatabase:
    sub = OvalSubstitution(DESIGN, t=5)
    return EncipheredDatabase.create(
        sub, RSA(KEYPAIR), backend=backend, block_size=512, min_degree=2,
        cache_blocks=4,
    )


def run_workload(db: EncipheredDatabase) -> list:
    """~170 deterministic ops: inserts, cold searches, ranges, deletes."""
    out = []
    rng = random.Random(313)  # data rng is FIXED: every run, every seed
    keys = rng.sample(range(DESIGN.v), 48)
    for k in keys:
        db.insert(k, f"payload-{k:03d}".encode())
    db.commit()
    for i, k in enumerate(keys):
        if i % 7 == 0:
            db.clear_caches()  # force real device reads
        out.append(db.search(k))
    out.append(db.range_search(0, DESIGN.v // 2))
    out.append(db.range_search(DESIGN.v // 2, DESIGN.v))
    for k in keys[::5]:
        db.delete(k)
    db.commit()
    db.clear_caches()
    out.append(db.range_search(0, DESIGN.v))
    return out


def finish(db: EncipheredDatabase):
    state = (db.disk.export_state(), db.records.disk.export_state())
    faults = (db.disk.fault_snapshot(), db.records.disk.fault_snapshot())
    db.close()
    return state, faults


def schedule_for(seed: int) -> FaultPlan:
    """1-3 healable one-shot rules, drawn deterministically from the seed."""
    rng = random.Random(0xA0000 + seed)
    tokens = [f"seed={seed}", "attempts=4", "delay=0.0"]
    for _ in range(rng.randint(1, 3)):
        op = rng.choice(("read", "write"))
        kinds = ("transient", "latency") if op == "read" else (
            "transient", "torn", "latency")
        kind = rng.choice(kinds)
        token = f"{op}.{kind}@{rng.randint(1, 40)}"
        if kind == "latency":
            token += "=0.0005"
        tokens.append(token)
    return FaultPlan.parse(" ".join(tokens))


@pytest.fixture(scope="module")
def memory_control():
    db = make_db(MemoryBackend())
    results = run_workload(db)
    state, _ = finish(db)
    return results, state


@pytest.fixture(scope="module")
def file_control(tmp_path_factory):
    db = make_db(FileBackend(tmp_path_factory.mktemp("ctl") / "db", fsync=False))
    results = run_workload(db)
    state, _ = finish(db)
    return results, state


def run_schedule(seed, backend, control):
    plan = schedule_for(seed)
    db = make_db(backend)
    db.disk.attach_faults(plan.injector("node"), plan.retry)
    db.records.disk.attach_faults(plan.injector("records"), plan.retry)
    results = run_workload(db)
    state, faults = finish(db)
    expect_results, expect_state = control
    # identical answers and identical bytes at rest, or it is not healing
    assert results == expect_results
    assert state == expect_state
    # retry counters match the injected schedule exactly: every healable
    # injection (transient or torn) costs exactly one retry, nothing else
    injected = sum(f["injected_transient"] + f["injected_torn"] for f in faults)
    retried = sum(f["retries"] for f in faults)
    assert retried == injected
    return faults


@pytest.mark.parametrize("seed", range(MEMORY_SEEDS))
def test_memory_schedule(seed, memory_control):
    run_schedule(seed, MemoryBackend(), memory_control)


@pytest.mark.parametrize("seed", range(FILE_SEEDS))
def test_file_schedule(seed, tmp_path, file_control):
    run_schedule(seed, FileBackend(tmp_path / "db", fsync=False), file_control)


def test_the_matrix_actually_injects(memory_control):
    """Guard against a vacuously green arm: most schedules must fire."""
    fired = 0
    for seed in range(MEMORY_SEEDS):
        faults = run_schedule(seed, MemoryBackend(), memory_control)
        fired += any(
            v for f in faults for k, v in f.items() if k.startswith("injected")
        )
    assert fired >= MEMORY_SEEDS // 2


# ---------------------------------------------------------------------------
# Arm B: permanent shard loss -> typed error, then explicit partial reads
# ---------------------------------------------------------------------------

CLUSTER_SEEDS = 15


def sub_factory(i: int) -> OvalSubstitution:
    return OvalSubstitution(DESIGN, t=UNITS[i * 5 % len(UNITS)])


def cipher_factory(i: int) -> RSA:
    return RSA(generate_rsa_keypair(bits=128, rng=random.Random(0xE0 + i)))


def make_cluster(**kwargs) -> ShardedEncipheredDatabase:
    return ShardedEncipheredDatabase.create(
        sub_factory, cipher_factory, num_shards=NUM_SHARDS, router="hash",
        block_size=512, min_degree=2, **kwargs,
    )


@pytest.mark.parametrize("seed", range(CLUSTER_SEEDS))
def test_shard_loss_schedule(seed):
    rng = random.Random(0xB0000 + seed)
    victim = rng.randrange(NUM_SHARDS)
    items = {k: f"rec-{k}".encode()
             for k in rng.sample(range(DESIGN.v), rng.randint(30, 50))}
    with make_cluster(executor="serial", degraded_reads=True) as cluster:
        cluster.put_many(sorted(items.items()))
        assert [k for k, _ in cluster.range_search(0, DESIGN.v)] == sorted(items)
        # phase 2: the victim's devices die permanently
        plan = FaultPlan.parse("read.permanent@1 write.permanent@1")
        for device in (cluster.shards[victim].disk,
                       cluster.shards[victim].records.disk):
            device.attach_faults(plan.injector(), plan.retry)
        cluster.clear_caches()
        dead_keys = {k for k in items if cluster.router.shard_for(k) == victim}
        probe = sorted(dead_keys)[0] if dead_keys else None
        if probe is not None:
            with pytest.raises(ShardUnavailableError) as info:
                cluster.search(probe)
            assert info.value.shard_id == victim
        else:  # no data landed on the victim: quarantine it directly
            cluster.health.quarantine(victim, "empty victim")
        # degraded reads: everything except the dead shard, marked as such
        result = cluster.range_search(0, DESIGN.v)
        assert isinstance(result, PartialResult)
        assert result.missing_shards == (victim,)
        assert [k for k, _ in result] == sorted(set(items) - dead_keys)
        for k, value in result:
            assert value == items[k]
        got = cluster.get_many(sorted(items), default=None)
        assert isinstance(got, PartialResult)
        for k, value in zip(sorted(items), got):
            assert value == (None if k in dead_keys else items[k])
        # mutations fail fast and mutate nothing
        sizes = [shard.tree.size for shard in cluster.shards]
        with pytest.raises(ShardUnavailableError):
            cluster.put_many([(k, b"x") for k in sorted(dead_keys or {0})])
        assert [shard.tree.size for shard in cluster.shards] == sizes
        health = cluster.stats().health
        assert health["states"]["quarantined"] == 1
        if probe is not None:
            assert health["per_shard"][victim]["permanent_failures"] >= 1


# ---------------------------------------------------------------------------
# Arm C: worker crashes and hangs against one shared serial control
# ---------------------------------------------------------------------------

WORKER_SEEDS = 20
BASE = [(k, f"rec-{k}".encode()) for k in range(0, 120, 2)]
EXTRA = [(k, f"rec-{k}".encode()) for k in range(1, 121, 2)]


def platter_fingerprint(cluster):
    return [
        (shard.disk.export_state(), shard.records.disk.export_state())
        for shard in cluster.shards
    ]


@pytest.fixture(scope="module")
def serial_control():
    with make_cluster(executor="serial") as control:
        control.put_many(BASE)
        control.put_many(EXTRA)
        results = control.range_search(0, DESIGN.v)
        control.commit()
        return results, platter_fingerprint(control)


@pytest.mark.parametrize("seed", range(WORKER_SEEDS))
def test_worker_chaos_schedule(seed, serial_control):
    rng = random.Random(0xC0000 + seed)
    victim = rng.randrange(NUM_SHARDS)
    stage = rng.randrange(3)
    with make_cluster(executor="processes", op_deadline_s=0.5) as chaos:
        chaos.put_many(BASE)
        chaos.range_search(0, DESIGN.v)  # spawn + ship every worker
        procs = chaos._process_pool()
        if stage == 0:  # crash mid put_many offload
            procs.inject_worker_fault(victim, crash_after=1)
            chaos.put_many(EXTRA)
        elif stage == 1:  # crash mid read fan-out
            chaos.put_many(EXTRA)
            procs.inject_worker_fault(victim, crash_after=1)
        else:  # hang mid read fan-out, reaped by the op deadline
            chaos.put_many(EXTRA)
            procs.inject_worker_fault(victim, hang_after=1, hang_s=30.0)
        results = chaos.range_search(0, DESIGN.v)
        expect_results, expect_fingerprint = serial_control
        assert results == expect_results
        chaos.commit()
        assert platter_fingerprint(chaos) == expect_fingerprint
        stats = procs.sync_stats
        assert stats["worker_deaths"] >= 1
        assert stats["respawns"] >= 1 or stats["op_retries"] == 0
        if stage == 2:
            assert stats["op_timeouts"] >= 1
