"""Cross-executor observability parity.

The acceptance bar: the same workload run under the ``serial`` and
``processes`` executors must report identical merged instrument
*counts*, key-range heat and record-block heat through
``stats()["observability"]`` -- every operation counted exactly once, no
matter which process ran it.  Timing totals (``total_ns``,
``busy_ns``) are real wall-clock and legitimately differ across
backends, so parity is asserted on counts only.
"""

from __future__ import annotations

import random

import pytest

from repro.cluster.sharded import ShardedEncipheredDatabase
from repro.crypto.rsa import RSA, generate_rsa_keypair
from repro.designs.difference_sets import planar_difference_set
from repro.designs.multipliers import non_multiplier_units
from repro.obs import INSTRUMENTS, RANGE_FIELDS, ObsConfig

DESIGN = planar_difference_set(13)  # v = 183
UNITS = non_multiplier_units(DESIGN)


def sub_factory(i: int):
    from repro.substitution.oval import OvalSubstitution

    return OvalSubstitution(DESIGN, t=UNITS[i * 5 % len(UNITS)])


def cipher_factory(i: int) -> RSA:
    return RSA(generate_rsa_keypair(bits=128, rng=random.Random(0x0B5 + i)))


def make_cluster(executor: str, enabled: bool = True) -> ShardedEncipheredDatabase:
    return ShardedEncipheredDatabase.create(
        sub_factory,
        cipher_factory,
        num_shards=4,
        router="hash",
        block_size=512,
        min_degree=2,
        executor=executor,
        observability=ObsConfig(enabled=enabled),
    )


def run_workload(cluster: ShardedEncipheredDatabase) -> None:
    rng = random.Random(0x0B5E)
    sample = rng.sample(range(DESIGN.v), 60)
    cluster.bulk_load([(k, f"rec{k}".encode()) for k in sample])
    cluster.range_search(0, DESIGN.v)
    cluster.get_many(sample[:20])
    absent = [k for k in range(DESIGN.v) if k not in sample]
    cluster.put_many([(k, b"n") for k in rng.sample(absent, 8)])
    cluster.delete_many(sample[:3])
    cluster.range_search(0, DESIGN.v // 2)
    for key in sample[10:15]:
        cluster.search(key)


def observed_counts(cluster: ShardedEncipheredDatabase):
    """(instrument->count, key-range heat counts, per-shard block heat).

    ``close()`` first: it harvests every worker replica's final counter
    and heat deltas into the parent shards.  Executor-side ship spans
    (``executor.*``) and timing totals are backend-specific by nature
    and excluded from the parity surface, as is ``device.fault_retry``:
    under an environment-armed fault plan (the REPRO_FAULTS CI job) its
    count follows the per-device injection schedule, not the workload.
    """
    cluster.close()
    stats = cluster.stats()
    counts = {
        name: snap["count"]
        for name, snap in stats.latency.items()
        if not name.startswith("executor.") and name != "device.fault_retry"
    }
    heat = {f: stats.heat[f] for f in ("ops", "keys") + RANGE_FIELDS}
    blocks = [dict(shard.obs.heat.combined_blocks()) for shard in cluster.shards]
    return counts, heat, blocks


class TestExecutorParity:
    @pytest.fixture(scope="class")
    def control(self):
        cluster = make_cluster("serial")
        run_workload(cluster)
        return observed_counts(cluster)

    def test_counts_heat_and_blocks_match_serial_control(self, control):
        cluster = make_cluster("processes")
        run_workload(cluster)
        counts, heat, blocks = observed_counts(cluster)
        base_counts, base_heat, base_blocks = control
        assert counts == base_counts
        assert heat == base_heat
        assert blocks == base_blocks

    def test_serial_control_actually_observed_something(self, control):
        counts, heat, blocks = control
        # 2 cluster-level range searches, fanned out to all 4 shards
        assert counts["db.range_search"] == 8
        assert counts["db.bulk_load"] > 0
        assert counts["pager.read"] > 0
        assert heat["ops"] > 0 and heat["keys"] > 0
        assert any(blocks)


class TestDisabledCluster:
    def test_disabled_reports_all_zero(self):
        cluster = make_cluster("processes", enabled=False)
        run_workload(cluster)
        cluster.close()
        stats = cluster.stats()
        for name in INSTRUMENTS:
            assert stats.latency[name]["count"] == 0, name
        assert stats.heat["ops"] == 0
        assert all(
            shard.obs.heat.combined_blocks() == {} for shard in cluster.shards
        )

    def test_cipher_counts_identical_enabled_vs_disabled(self):
        # observability must never change what the engine does -- only
        # record it: the paper's cipher cost model is the invariant
        totals = {}
        for enabled in (False, True):
            cluster = make_cluster("serial", enabled=enabled)
            run_workload(cluster)
            agg = cluster.stats().aggregate
            totals[enabled] = (
                agg["pointer_cipher"],
                agg["substitution"],
                agg["record_cipher"],
                agg["tree"],
            )
            cluster.close()
        assert totals[False] == totals[True]


class TestClusterHeatRollups:
    def test_stats_surface_heat_and_hottest_shards(self):
        cluster = make_cluster("serial")
        run_workload(cluster)
        stats = cluster.stats()
        ranked = stats.hottest_shards()
        assert len(ranked) == 4
        assert ranked[0][1] >= ranked[-1][1]
        assert sum(ops for _, ops in ranked) == stats.heat["ops"]
        assert "heat:" in stats.summary()
        assert len(stats.shard_heat) == 4

    def test_cluster_save_and_load_heat(self, tmp_path):
        from repro.storage.backend import FileBackend

        backend = FileBackend(tmp_path / "cluster", fsync=False)
        cluster = ShardedEncipheredDatabase.create(
            sub_factory,
            cipher_factory,
            num_shards=3,
            block_size=512,
            min_degree=2,
            executor="serial",
            backend=backend,
            observability=ObsConfig(enabled=True),
        )
        run_workload(cluster)
        assert cluster.save_heat() == 3
        before = [dict(s.obs.heat.combined_blocks()) for s in cluster.shards]
        cluster.close()
        reopened = ShardedEncipheredDatabase.reopen_from_manifest(
            sub_factory,
            cipher_factory,
            backend,
            observability=ObsConfig(enabled=True),
        )
        after = [dict(s.obs.heat.combined_blocks()) for s in reopened.shards]
        assert after == before
        assert reopened.warm(levels=1, hot_record_blocks=2) > 0
