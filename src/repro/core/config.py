"""One frozen, picklable description of a database's runtime knobs.

Every per-database (and so per-shard) knob is named, defaulted and
validated here and nowhere else.  :class:`~repro.core.database.
EncipheredDatabase` and :class:`~repro.cluster.sharded.
ShardedEncipheredDatabase` accept either a whole ``config=`` or the
fields as keyword arguments; the cluster hands one config to every
shard, and :class:`~repro.cluster.executor.ShardSpec` carries it whole
to process workers, so a replica runs with exactly its parent's knobs.

Geometry (``block_size``, ``min_degree``, ``record_size``) and secrets
are not knobs: they are fixed at creation and read back from the
platters on every reopen.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

from repro.obs import ObsConfig

__all__ = ["DatabaseConfig"]


@dataclass(frozen=True)
class DatabaseConfig:
    """Runtime knobs of one database.

    ``cache_blocks``
        Raw node-page cache capacity (blocks).
    ``write_back``
        Defer node writes to eviction or commit instead of writing
        through; cipher counts are unchanged, disk writes coalesce.
    ``autocommit``
        Commit after every mutation (the paper's cost model); ``False``
        leaves commit points to the caller.
    ``record_cache_blocks``
        Plaintext record-block cache capacity.  ``None`` means "the
        record store's own capacity": ``0`` for a fresh or rescanned
        store, unchanged for a store handed to ``reopen``.
    ``decoded_node_cache_blocks``
        Decoded node-view cache capacity; a hit skips the node codec's
        cryptography, so it stays off for paper-faithful runs.
    ``readahead_workers``
        Pager prefetch threads; ``0`` keeps the blocking read path.
    ``group_commit``
        Coalesce concurrent explicit commits into shared sync rounds.
        ``None`` follows the ``REPRO_GROUP_COMMIT`` environment switch.
    ``observability``
        Metrics, tracing and heat tracking; ``None`` follows
        ``REPRO_OBS_TRACE`` (see :class:`~repro.obs.ObsConfig`).
    """

    cache_blocks: int = 16
    write_back: bool = False
    autocommit: bool = True
    record_cache_blocks: int | None = None
    decoded_node_cache_blocks: int = 0
    readahead_workers: int = 0
    group_commit: bool | None = None
    observability: ObsConfig | None = None

    def __post_init__(self) -> None:
        for name in ("cache_blocks", "decoded_node_cache_blocks", "readahead_workers"):
            _check_count(name, getattr(self, name))
        if self.record_cache_blocks is not None:
            _check_count("record_cache_blocks", self.record_cache_blocks)
        for name in ("write_back", "autocommit"):
            if not isinstance(getattr(self, name), bool):
                raise TypeError(f"{name} must be a bool, got {getattr(self, name)!r}")
        for name, kind in (("group_commit", bool), ("observability", ObsConfig)):
            value = getattr(self, name)
            if value is not None and not isinstance(value, kind):
                raise TypeError(
                    f"{name} must be a {kind.__name__} or None, got {value!r}"
                )

    @classmethod
    def of(cls, config: "DatabaseConfig | None" = None, **knobs) -> "DatabaseConfig":
        """``config`` (default: all defaults) with ``knobs`` overriding fields.

        An unknown knob name raises :class:`TypeError`, like any bad
        keyword argument.
        """
        base = cls() if config is None else config
        return replace(base, **knobs) if knobs else base

    def resolved(self, record_cache_blocks: int) -> "DatabaseConfig":
        """This config with every ``None`` default made concrete.

        ``record_cache_blocks`` is the capacity the record store ended up
        with; the environment switches are read here, at the moment a
        database is built, so a test that sets them sees them.
        """
        group_commit = self.group_commit
        if group_commit is None:
            group_commit = os.environ.get("REPRO_GROUP_COMMIT", "") not in ("", "0")
        return replace(
            self,
            record_cache_blocks=record_cache_blocks,
            group_commit=group_commit,
            observability=(
                ObsConfig.from_env() if self.observability is None else self.observability
            ),
        )


def _check_count(name: str, value: object) -> None:
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ValueError(f"{name} must be a non-negative int, got {value!r}")
