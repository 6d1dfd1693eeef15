"""Seeded operation streams for the benchmark workloads.

Every stream is a deterministic function of the seed it is given: the
same seed yields the same operations in the same order, on any host and
under any ``PYTHONHASHSEED`` (``random.Random`` hashes string seeds with
SHA-512).  The streams are infinite iterators, because the benchmark runs
for a fixed time rather than a fixed count; tests and the count probe
take a prefix with :func:`itertools.islice`.

Operations are plain tuples, which is all the system under test ever
receives from the generator:

``("get", key)``, ``("get_many", keys)``, ``("range", lo, hi)``,
``("insert", key, payload)``, ``("delete", key)`` and
``("txn", ((key, payload), ...))`` -- one cluster transaction of inserts.
"""

from __future__ import annotations

import bisect
import random
from collections.abc import Callable, Iterator

Op = tuple

LOADED_KEYS = 4000
PAYLOAD_BYTES = 48
ZIPF_S = 1.0
GET_MANY_KEYS = 16
RANGE_WIDTH = 64
TXN_INSERTS = 4
DURABLE_CLIENTS = 2


def dataset(seed: int, universe: int, n_keys: int = LOADED_KEYS) -> dict[int, bytes]:
    """The bulk-loaded ``key -> payload`` map every workload starts from."""
    rng = random.Random(f"dataset:{seed}")
    keys = rng.sample(range(universe), n_keys)
    return {key: rng.randbytes(PAYLOAD_BYTES) for key in keys}


class ZipfSampler:
    """Draws ``items[r]`` with probability proportional to ``1 / (r+1)**s``."""

    def __init__(self, items: list[int], s: float, rng: random.Random) -> None:
        self.items = items
        self.rng = rng
        total = 0.0
        self.cumulative = []
        for rank in range(1, len(items) + 1):
            total += rank ** -s
            self.cumulative.append(total)
        self.total = total

    def sample(self) -> int:
        point = self.rng.random() * self.total
        return self.items[bisect.bisect_right(self.cumulative, point)]


def shuffled_blocks(rng: random.Random, block: list[str]) -> Iterator[str]:
    """Operation kinds in exact proportions: ``block`` reshuffled, repeated.

    Every aligned window of ``len(block)`` operations has exactly the
    block's mix, so the share of each kind does not vary from seed to seed
    or from one part of a run to the next.
    """
    block = list(block)
    while True:
        rng.shuffle(block)
        yield from block


def point_zipf(seed: int, data: dict[int, bytes], universe: int) -> Iterator[Op]:
    """90% ``get`` (a tenth of them misses), 10% ``get_many`` of Zipf keys.

    Popularity ranks follow a seeded shuffle of the loaded keys, so the
    hot set is scattered over the key space and the shards.  Misses are
    drawn uniformly from the universe keys that were not loaded.
    """
    rng = random.Random(f"point_zipf:{seed}")
    ranked = sorted(data)
    rng.shuffle(ranked)
    zipf = ZipfSampler(ranked, ZIPF_S, rng)
    absent = [key for key in range(universe) if key not in data]
    for kind in shuffled_blocks(rng, ["hit"] * 81 + ["miss"] * 9 + ["get_many"] * 10):
        if kind == "hit":
            yield ("get", zipf.sample())
        elif kind == "miss":
            yield ("get", rng.choice(absent))
        else:
            yield ("get_many", tuple(zipf.sample() for _ in range(GET_MANY_KEYS)))


def range_uniform(seed: int, universe: int) -> Iterator[Op]:
    """``range_search`` over ``RANGE_WIDTH`` consecutive keys, uniform start."""
    rng = random.Random(f"range_uniform:{seed}")
    while True:
        lo = rng.randrange(universe - RANGE_WIDTH + 1)
        yield ("range", lo, lo + RANGE_WIDTH - 1)


class KeyPool:
    """A set with O(1) add, remove and seeded uniform choice."""

    def __init__(self, keys=()) -> None:
        self.keys: list[int] = []
        self.index: dict[int, int] = {}
        for key in keys:
            self.add(key)

    def __len__(self) -> int:
        return len(self.keys)

    def add(self, key: int) -> None:
        self.index[key] = len(self.keys)
        self.keys.append(key)

    def remove(self, key: int) -> None:
        slot = self.index.pop(key)
        last = self.keys.pop()
        if last != key:
            self.keys[slot] = last
            self.index[last] = slot

    def choice(self, rng: random.Random) -> int:
        return self.keys[rng.randrange(len(self.keys))]


def client_keys(client: int, universe: int, clients: int = DURABLE_CLIENTS) -> range:
    """The contiguous slice of the universe that ``client`` alone writes."""
    return range(client * universe // clients, (client + 1) * universe // clients)


def durable_client(
    seed: int,
    client: int,
    data: dict[int, bytes],
    universe: int,
    shard_for: Callable[[int], int],
    num_shards: int,
) -> Iterator[Op]:
    """One client of ``durable_mixed``: 50% insert, 20% delete, 20% get, 10% txn.

    The client touches only its own half of the universe, so its view of
    those keys is exact without coordinating with the other client.  A
    transaction inserts one fresh key on each of ``TXN_INSERTS`` distinct
    shards, placed with the cluster router's ``shard_for``.

    The mix grows the key set, and the universe is finite: once the
    client's free keys run out (after roughly 1600 of its operations), an
    insert or a transaction that has no free key left becomes a delete,
    so every generated operation stays valid.
    """
    if num_shards < TXN_INSERTS:
        raise ValueError(f"a transaction needs {TXN_INSERTS} shards, got {num_shards}")
    rng = random.Random(f"durable_mixed:{seed}:{client}")
    owned = client_keys(client, universe)
    live = KeyPool(key for key in owned if key in data)
    free = [KeyPool() for _ in range(num_shards)]
    for key in owned:
        if key not in data:
            free[shard_for(key)].add(key)

    def take_free() -> int:
        pick = rng.randrange(sum(len(pool) for pool in free))
        for pool in free:
            if pick < len(pool):
                key = pool.choice(rng)
                pool.remove(key)
                return key
            pick -= len(pool)
        raise AssertionError("unreachable: pick < total free keys")

    mix = ["insert"] * 5 + ["delete"] * 2 + ["get"] * 2 + ["txn"]
    for kind in shuffled_blocks(rng, mix):
        if kind == "insert" and not any(free):
            kind = "delete"
        if kind == "txn" and not all(free[:TXN_INSERTS]):
            kind = "delete"
        if not live and kind in ("delete", "get"):
            kind = "insert"  # every owned key is free, so one exists
        if kind == "insert":
            key = take_free()
            live.add(key)
            yield ("insert", key, rng.randbytes(PAYLOAD_BYTES))
        elif kind == "delete":
            key = live.choice(rng)
            live.remove(key)
            free[shard_for(key)].add(key)
            yield ("delete", key)
        elif kind == "get":
            yield ("get", live.choice(rng))
        else:
            items = []
            for pool in free[:TXN_INSERTS]:
                key = pool.choice(rng)
                pool.remove(key)
                live.add(key)
                items.append((key, rng.randbytes(PAYLOAD_BYTES)))
            yield ("txn", tuple(items))


def apply_to_model(op: Op, model: dict[int, bytes]) -> None:
    """Replay a valid operation on a dict model; raise ``ValueError`` if invalid.

    Reads are valid for any key; an insert needs an absent key, a delete
    a present one, and a transaction absent, distinct keys.
    """
    kind = op[0]
    if kind == "insert":
        _, key, payload = op
        if key in model:
            raise ValueError(f"insert of present key {key}")
        model[key] = payload
    elif kind == "delete":
        if op[1] not in model:
            raise ValueError(f"delete of absent key {op[1]}")
        del model[op[1]]
    elif kind == "txn":
        keys = [key for key, _ in op[1]]
        if len(set(keys)) != len(keys) or any(key in model for key in keys):
            raise ValueError(f"transaction over present or repeated keys {keys}")
        model.update(op[1])
    elif kind not in ("get", "get_many", "range"):
        raise ValueError(f"unknown operation {kind!r}")
