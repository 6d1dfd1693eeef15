"""Host speed, measured with a fixed reference kernel during each run.

The benchmark runs on shared virtual machines whose speed drifts by tens
of percent over seconds to minutes; the guest sees the slowdown as the
program simply running slower, CPU time included.  Some of it slows
arithmetic, some of it -- other guests contending for the caches and
memory -- slows loads.  The reference kernel does both in pure Python:
table lookups, shifts and XORs on small integers, then a pointer chase
through a shuffled list of a few megabytes, the same mix as the
program's cipher, tree and record code walking its Python objects.  It
is timed around each set-up and every ``REFERENCE_EVERY_NS`` of the
timed phase.

One kernel time is a poor reading of the host: on a busy host single
times jump between speeds, so a median of a few times lands on one speed
or the other by chance.  The mean of many times averages those jumps the
way the program's own operations do.  A mean over ``REFERENCE_NS`` is a
host slowdown, and the benchmark's headline figures are divided by the
slowdown measured while they were: they read as what the run would have
measured on a host where the kernel takes exactly ``REFERENCE_NS``.  The
kernel is part of the benchmark and never changes, so a faster program
shows up in full.
"""

from __future__ import annotations

import random
import statistics
from collections.abc import Callable
from time import perf_counter_ns, thread_time_ns

#: The kernel's time, in ns, that the scaled figures are reported at
#: (about what it takes on the 2-vCPU Xeon VM the benchmark was tuned on).
REFERENCE_NS = 1_000_000

#: how often a closed-loop client times the kernel during a timed phase
REFERENCE_EVERY_NS = 40_000_000

_TABLE = [(i * 2654435761) & 0xFFFFFFFF for i in range(256)]


def _cycle(n: int, rng: random.Random) -> list[int]:
    """A random permutation of ``range(n)`` that is one single cycle (Sattolo)."""
    chain = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.randrange(i)
        chain[i], chain[j] = chain[j], chain[i]
    return chain


_CHAIN = _cycle(1 << 17, random.Random(0))
#: where the chase stands: each run walks on, so it never finds its
#: entries still in cache from the run before
_at = [0]


def _kernel(steps: int = 2000) -> int:
    x, table = 0x12345678, _TABLE
    for _ in range(steps):
        x = ((x << 5) ^ (x >> 3) ^ table[x & 0xFF] ^ table[(x >> 8) & 0xFF]) & 0xFFFFFFFF
    at, chain = _at[0], _CHAIN
    for _ in range(steps):
        at = chain[at]
    _at[0] = at
    return x ^ at


def reference_ns(clock: Callable[[], int]) -> int:
    """The time of one kernel run on the calling thread, by ``clock``."""
    start = clock()
    _kernel()
    return clock() - start


def slowdown(samples: list[int]) -> float:
    """The host slowdown a set of kernel times shows."""
    return statistics.fmean(samples) / REFERENCE_NS


def reference_clock(clients: int) -> Callable[[], int]:
    """The clock to time the kernel by while ``clients`` clients run.

    Wall-clock time sees everything that slows the program's own
    wall-clock latencies, time the hypervisor gave another guest
    included.  Where other client threads compete for the interpreter
    lock it would also count waiting for them, so there the kernel is
    timed by the calling thread's CPU time, which leaves that out.
    """
    return perf_counter_ns if clients == 1 else thread_time_ns
