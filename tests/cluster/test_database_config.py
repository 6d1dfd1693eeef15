"""One ``DatabaseConfig`` per shard: every knob reaches every copy.

A knob is named, defaulted and validated only in
:class:`~repro.core.config.DatabaseConfig`.  The cluster accepts exactly
its fields and hands the config whole to every shard -- after
``create``, ``reopen`` and ``reopen_from_manifest`` alike -- and the
process executor's :class:`~repro.cluster.executor.ShardSpec` carries
it to the worker replica.
"""

from __future__ import annotations

import pickle
import random
from dataclasses import FrozenInstanceError, fields

import pytest

from repro.cluster.executor import spec_from_shard
from repro.cluster.sharded import ShardedEncipheredDatabase
from repro.core.config import DatabaseConfig
from repro.core.database import EncipheredDatabase
from repro.crypto.rsa import RSA, generate_rsa_keypair
from repro.designs.difference_sets import planar_difference_set
from repro.designs.multipliers import non_multiplier_units
from repro.obs import ObsConfig
from repro.storage.backend import MemoryBackend
from repro.substitution.oval import OvalSubstitution

DESIGN = planar_difference_set(13)  # v = 183
UNITS = non_multiplier_units(DESIGN)
NUM_SHARDS = 2


def sub_factory(i: int) -> OvalSubstitution:
    return OvalSubstitution(DESIGN, t=UNITS[i * 5 % len(UNITS)])


def cipher_factory(i: int) -> RSA:
    return RSA(generate_rsa_keypair(bits=128, rng=random.Random(0xC0 + i)))


#: A value for each field that differs from what a default config
#: resolves to, whatever the environment switches say.
NONDEFAULT = {
    "cache_blocks": 3,
    "write_back": True,
    "autocommit": False,
    "record_cache_blocks": 5,
    "decoded_node_cache_blocks": 7,
    "readahead_workers": 2,
    "group_commit": not DatabaseConfig().resolved(0).group_commit,
    "observability": ObsConfig(enabled=True, ring_size=64),
}

#: How each knob shows on a live database handle.
EFFECTIVE = {
    "cache_blocks": lambda db: db.tree.pager.capacity,
    "write_back": lambda db: db.tree.pager.write_back,
    "autocommit": lambda db: db.autocommit,
    "record_cache_blocks": lambda db: db.records.cache.capacity,
    "decoded_node_cache_blocks": lambda db: db.tree.pager.decoded.capacity,
    "readahead_workers": lambda db: db.tree.pager.readahead_workers,
    "group_commit": lambda db: db.config.group_commit,
    "observability": lambda db: db.obs.config,
}


def test_tables_cover_every_field():
    names = {f.name for f in fields(DatabaseConfig)}
    assert set(NONDEFAULT) == names
    assert set(EFFECTIVE) == names


@pytest.mark.parametrize("field", fields(DatabaseConfig), ids=lambda f: f.name)
def test_knob_reaches_every_shard_and_the_worker_replica(field):
    name, value = field.name, NONDEFAULT[field.name]
    get = EFFECTIVE[name]
    backend = MemoryBackend()
    default = ShardedEncipheredDatabase.create(
        sub_factory, cipher_factory, num_shards=NUM_SHARDS
    )
    assert all(get(shard) != value for shard in default.shards)

    cluster = ShardedEncipheredDatabase.create(
        sub_factory, cipher_factory, num_shards=NUM_SHARDS, backend=backend,
        **{name: value},
    )
    cluster.put_many([(k, b"v") for k in range(0, DESIGN.v, 9)])
    cluster.commit()
    assert [get(shard) for shard in cluster.shards] == [value] * NUM_SHARDS

    reopened = ShardedEncipheredDatabase.reopen(
        sub_factory, cipher_factory, cluster.shard_parts(), **{name: value}
    )
    assert [get(shard) for shard in reopened.shards] == [value] * NUM_SHARDS

    from_manifest = ShardedEncipheredDatabase.reopen_from_manifest(
        sub_factory, cipher_factory, backend, **{name: value}
    )
    assert [get(shard) for shard in from_manifest.shards] == [value] * NUM_SHARDS

    spec = spec_from_shard(from_manifest.shards[0], 0, sub_factory, cipher_factory)
    replica = pickle.loads(pickle.dumps(spec)).open()
    try:
        assert get(replica) == value
    finally:
        replica.close()
    for handle in (default, cluster, reopened, from_manifest):
        handle.close()


class TestDatabaseConfig:
    def test_frozen_and_picklable(self):
        config = DatabaseConfig(cache_blocks=4, observability=ObsConfig(enabled=True))
        with pytest.raises(FrozenInstanceError):
            config.cache_blocks = 5
        assert pickle.loads(pickle.dumps(config)) == config

    @pytest.mark.parametrize(
        "knobs",
        [
            {"cache_blocks": -1},
            {"record_cache_blocks": -2},
            {"decoded_node_cache_blocks": 1.5},
            {"readahead_workers": True},
        ],
    )
    def test_counts_are_validated(self, knobs):
        with pytest.raises(ValueError):
            DatabaseConfig(**knobs)

    @pytest.mark.parametrize(
        "knobs",
        [{"write_back": 1}, {"group_commit": "yes"}, {"observability": True}],
    )
    def test_types_are_validated(self, knobs):
        with pytest.raises(TypeError):
            DatabaseConfig(**knobs)

    def test_unknown_knob_is_a_type_error(self):
        with pytest.raises(TypeError):
            EncipheredDatabase.create(
                sub_factory(0), cipher_factory(0), decoded_node_cache_bytes=64
            )
        with pytest.raises(TypeError):
            ShardedEncipheredDatabase.create(
                sub_factory, cipher_factory, num_shards=NUM_SHARDS, max_workers=2
            )

    def test_keywords_override_a_whole_config(self):
        base = DatabaseConfig(cache_blocks=4, write_back=True)
        db = EncipheredDatabase.create(
            sub_factory(0), cipher_factory(0), config=base, cache_blocks=6
        )
        assert db.tree.pager.capacity == 6
        assert db.tree.pager.write_back is True

    def test_autocommit_setter_updates_the_config(self):
        db = EncipheredDatabase.create(sub_factory(0), cipher_factory(0))
        db.autocommit = False
        assert db.config.autocommit is False

    def test_resolved_leaves_no_default_open(self, monkeypatch):
        monkeypatch.delenv("REPRO_GROUP_COMMIT", raising=False)
        monkeypatch.delenv("REPRO_OBS_TRACE", raising=False)
        resolved = DatabaseConfig().resolved(record_cache_blocks=5)
        assert all(getattr(resolved, f.name) is not None for f in fields(resolved))
        assert resolved.record_cache_blocks == 5
        assert resolved.group_commit is False
        assert resolved.observability == ObsConfig(enabled=False)
        # explicit values are never replaced by the environment
        monkeypatch.setenv("REPRO_GROUP_COMMIT", "1")
        monkeypatch.setenv("REPRO_OBS_TRACE", "1")
        pinned = DatabaseConfig(group_commit=False, observability=ObsConfig())
        assert pinned.resolved(0).group_commit is False
        assert pinned.resolved(0).observability.enabled is False

    def test_observability_switch_is_read_when_a_database_is_built(self, monkeypatch):
        config = DatabaseConfig()  # made before the switch flips
        monkeypatch.setenv("REPRO_OBS_TRACE", "1")
        db = EncipheredDatabase.create(sub_factory(0), cipher_factory(0), config=config)
        assert db.obs.enabled
        assert db.config.observability.enabled is True
        monkeypatch.setenv("REPRO_OBS_TRACE", "0")
        db = EncipheredDatabase.create(sub_factory(0), cipher_factory(0), config=config)
        assert not db.obs.enabled

    def test_reopen_keeps_a_handed_record_store_capacity(self):
        db = EncipheredDatabase.create(
            sub_factory(0), cipher_factory(0), record_cache_blocks=6
        )
        db.insert(1, b"one")
        kept = EncipheredDatabase.reopen(
            sub_factory(0), cipher_factory(0), db.disk, db.records
        )
        assert kept.records.cache.capacity == 6
        assert kept.config.record_cache_blocks == 6
        forced = EncipheredDatabase.reopen(
            sub_factory(0), cipher_factory(0), db.disk, db.records,
            record_cache_blocks=0,
        )
        assert forced.records.cache.capacity == 0
        assert forced.config.record_cache_blocks == 0
        assert forced.search(1) == b"one"
