"""The engine-wide observability plane: metrics, tracing, heat.

One :class:`Observability` object per :class:`~repro.core.database.
EncipheredDatabase` bundles the three instruments built in this package:

* a :class:`~repro.obs.metrics.MetricsRegistry` of mergeable latency
  histograms (pre-registered under the fixed :data:`INSTRUMENTS` names,
  so every shard and worker snapshot has the same shape);
* a :class:`~repro.obs.tracing.Tracer` whose spans feed those
  histograms, a recent-span ring and a slow-op log;
* a :class:`~repro.obs.heat.HeatMap` of per-key-range and per-record-
  block heat.

The whole plane is governed by one switch.  Disabled (the default, and
the paper-faithful cost model) every instrument is a no-op fast path;
enabled, everything records.  The switch comes from an explicit
:class:`ObsConfig` or -- so CI can run the entire tier-1 suite with
tracing live -- from the ``REPRO_OBS_TRACE`` environment variable.

Because :meth:`Observability.snapshot` contains only additive numeric
leaves in a fixed shape, it rides inside ``stats()["observability"]``
through every existing aggregation path: in-process shards merge it
leaf-wise, process workers ship it as snapshot deltas over the pipe
protocol, and :class:`~repro.cluster.stats.ClusterStats` rolls it up --
serial and process executors therefore report one coherent
picture (asserted by benchmark C13 and the cluster observability tests).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.obs.heat import NUM_RANGES, RANGE_FIELDS, HeatMap
from repro.obs.metrics import (
    Gauge,
    Histogram,
    MetricsRegistry,
    percentile,
    summarize,
)
from repro.obs.tracing import NULL_TRACER, Span, Tracer

__all__ = [
    "Gauge",
    "HeatMap",
    "Histogram",
    "INSTRUMENTS",
    "MetricsRegistry",
    "NULL_TRACER",
    "NUM_RANGES",
    "ObsConfig",
    "Observability",
    "RANGE_FIELDS",
    "Span",
    "Tracer",
    "percentile",
    "summarize",
]

#: Every instrument the engine itself records, pre-registered in each
#: database's registry so all observability snapshots share one shape
#: (the worker-harvest subtraction and the cluster merge require it).
INSTRUMENTS = (
    "db.get",
    "db.put",
    "db.delete",
    "db.put_many",
    "db.delete_many",
    "db.range_search",
    "db.bulk_load",
    "db.commit",
    "pager.read",
    "pager.write",
    "pager.flush",
    "pager.readahead",
    "cipher.record_encrypt",
    "cipher.record_decrypt",
    "platter.wal_append",
    "platter.fsync",
    "platter.header_flip",
    "wal.group_commit",
    "executor.full_ship",
    "executor.delta_ship",
    "executor.respawn",
    "device.fault_retry",
)


@dataclass(frozen=True)
class ObsConfig:
    """Picklable observability configuration.

    Travels inside :class:`~repro.cluster.executor.ShardSpec` so worker
    processes instrument their replicas identically to the parent --
    without that, the merged cross-executor picture would be incomplete.
    """

    enabled: bool = False
    ring_size: int = 256
    slow_op_threshold_s: float = 0.100

    @classmethod
    def from_env(cls) -> "ObsConfig":
        """Default config, honouring ``REPRO_OBS_TRACE=1``."""
        flag = os.environ.get("REPRO_OBS_TRACE", "")
        return cls(enabled=flag not in ("", "0"))


class Observability:
    """One database's registry + tracer + heat map behind one switch."""

    def __init__(
        self,
        config: ObsConfig | None = None,
        universe: range | None = None,
    ) -> None:
        self.config = ObsConfig.from_env() if config is None else config
        self.registry = MetricsRegistry(INSTRUMENTS)
        self.tracer = Tracer(
            self.registry,
            enabled=self.config.enabled,
            ring_size=self.config.ring_size,
            slow_op_threshold_s=self.config.slow_op_threshold_s,
        )
        self.heat = HeatMap(universe, enabled=self.config.enabled)
        #: Bound-method shortcut: ``with obs.trace("db.get"): ...``
        self.trace = self.tracer.trace

    @property
    def enabled(self) -> bool:
        return self.tracer.enabled

    def set_enabled(self, enabled: bool) -> None:
        """Flip the whole plane (tracer + heat) at runtime."""
        self.tracer.enabled = enabled
        self.heat.enabled = enabled

    # -- exporters --------------------------------------------------------

    def snapshot(self) -> dict:
        """The mergeable export: fixed shape, every leaf an additive number.

        This is what ``EncipheredDatabase.stats()["observability"]``
        returns; it flows through ``merge_counter_dicts`` /
        ``subtract_counter_dicts`` unchanged.
        """
        return {
            "latency": self.registry.snapshot(),
            "heat": self.heat.snapshot(),
            "tracing": self.tracer.snapshot(),
        }

    def dump(self) -> str:
        """A human-readable table of the current readings."""
        lines = [
            f"observability ({'enabled' if self.enabled else 'disabled'})",
            f"{'instrument':<24}{'count':>8}{'mean':>10}{'p50':>10}"
            f"{'p95':>10}{'p99':>10}{'total':>10}",
        ]
        for name, snap in sorted(self.registry.snapshot().items()):
            summary = summarize(snap)
            if not summary["count"]:
                continue
            lines.append(
                f"{name:<24}{summary['count']:>8}"
                f"{_fmt_s(summary['mean_s']):>10}{_fmt_s(summary['p50_s']):>10}"
                f"{_fmt_s(summary['p95_s']):>10}{_fmt_s(summary['p99_s']):>10}"
                f"{_fmt_s(summary['total_s']):>10}"
            )
        tracing = self.tracer.snapshot()
        lines.append(
            f"spans: {tracing['spans']}  slow ops: {tracing['slow_ops']} "
            f"(threshold {_fmt_s(self.tracer.slow_op_threshold_s)})"
        )
        for name, start_ns, duration_ns, thread in self.tracer.slow_ops():
            lines.append(f"  SLOW {name} {_fmt_s(duration_ns / 1e9)} [{thread}]")
        heat = self.heat.snapshot()
        if heat["ops"]:
            bounds = self.heat.range_bounds()
            hot = sorted(
                ((heat[field], index) for index, field in enumerate(RANGE_FIELDS)),
                reverse=True,
            )[:5]
            bands = ", ".join(
                f"[{bounds[index][0]}..{bounds[index][1]}]x{count}"
                for count, index in hot
                if count
            )
            lines.append(
                f"heat: {heat['ops']} ops over {heat['keys']} keys; "
                f"hottest bands: {bands or '(none)'}"
            )
        # gauges are export-only readings; refresh the built-ins first
        self.registry.gauge("tracer.ring_spans").set(len(self.tracer.recent_spans()))
        self.registry.gauge("heat.blocks_tracked").set(len(self.heat.block_counts()))
        gauges = self.registry.gauge_values()
        lines.append(
            "gauges: "
            + ", ".join(f"{name}={value:g}" for name, value in sorted(gauges.items()))
        )
        return "\n".join(lines)


def _fmt_s(seconds: float) -> str:
    """Render seconds at a readable scale (us/ms/s)."""
    if seconds == 0:
        return "0"
    if seconds < 1e-3:
        return f"{seconds * 1e6:.1f}us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.2f}ms"
    return f"{seconds:.3f}s"
