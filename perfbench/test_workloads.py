"""The seeded generator: reproducible, seed-sensitive, and always valid."""

from __future__ import annotations

from collections import Counter
from itertools import islice

import pytest

from repro.cluster.router import HashRouter

from perfbench.workloads import (
    GET_MANY_KEYS,
    RANGE_WIDTH,
    TXN_INSERTS,
    ZipfSampler,
    apply_to_model,
    client_keys,
    dataset,
    durable_client,
    point_zipf,
    range_uniform,
)

UNIVERSE = 6321
ROUTER = HashRouter(4)


def _streams(seed: int, n: int) -> dict[str, list]:
    data = dataset(seed, UNIVERSE)
    streams = {
        "point_zipf": point_zipf(seed, data, UNIVERSE),
        "range_uniform": range_uniform(seed, UNIVERSE),
    }
    for client in range(2):
        streams[f"durable_mixed/{client}"] = durable_client(
            seed, client, data, UNIVERSE, ROUTER.shard_for, 4)
    return {name: list(islice(stream, n)) for name, stream in streams.items()}


def test_same_seed_gives_identical_op_lists():
    assert dataset(7, UNIVERSE) == dataset(7, UNIVERSE)
    assert _streams(7, 300) == _streams(7, 300)


def test_different_seed_gives_different_op_lists():
    assert dataset(7, UNIVERSE) != dataset(8, UNIVERSE)
    first, second = _streams(7, 300), _streams(8, 300)
    for name in first:
        assert first[name] != second[name], name


def test_read_streams_are_valid_and_shaped():
    data = dataset(3, UNIVERSE)
    ops = list(islice(point_zipf(3, data, UNIVERSE), 5000))
    kinds = Counter(op[0] for op in ops)
    assert 0.08 < kinds["get_many"] / len(ops) < 0.12
    gets = [op[1] for op in ops if op[0] == "get"]
    misses = sum(1 for key in gets if key not in data)
    assert 0.07 < misses / len(gets) < 0.13
    assert all(0 <= key < UNIVERSE for key in gets)
    assert all(len(op[1]) == GET_MANY_KEYS and set(op[1]) <= data.keys()
               for op in ops if op[0] == "get_many")
    for _, lo, hi in islice(range_uniform(3, UNIVERSE), 2000):
        assert 0 <= lo and hi < UNIVERSE and hi - lo + 1 == RANGE_WIDTH


@pytest.mark.parametrize("client", [0, 1])
def test_durable_stream_replays_validly_past_key_exhaustion(client):
    data = dataset(5, UNIVERSE)
    owned = client_keys(client, UNIVERSE)
    model = {key: value for key, value in data.items() if key in owned}
    kinds = Counter()
    # 4000 operations run the client's free keys out (after ~1600), so the
    # insert-to-delete fallback is exercised too
    for op in islice(durable_client(5, client, data, UNIVERSE, ROUTER.shard_for, 4), 4000):
        kinds[op[0]] += 1
        if op[0] == "get":
            assert op[1] in model
        if op[0] == "txn":
            keys = [key for key, _ in op[1]]
            assert len(keys) == TXN_INSERTS
            assert len({ROUTER.shard_for(key) for key in keys}) == TXN_INSERTS
        touched = [key for key, _ in op[1]] if op[0] == "txn" else [op[1]]
        assert all(key in owned for key in touched)
        apply_to_model(op, model)  # raises on an invalid operation
    assert set(kinds) == {"insert", "delete", "get", "txn"}


def test_durable_mix_before_exhaustion():
    data = dataset(9, UNIVERSE)
    ops = list(islice(durable_client(9, 0, data, UNIVERSE, ROUTER.shard_for, 4), 1000))
    share = {kind: n / len(ops) for kind, n in Counter(op[0] for op in ops).items()}
    assert share["insert"] == pytest.approx(0.5, abs=0.05)
    assert share["delete"] == pytest.approx(0.2, abs=0.05)
    assert share["get"] == pytest.approx(0.2, abs=0.05)
    assert share["txn"] == pytest.approx(0.1, abs=0.03)


def test_zipf_sampler_favours_low_ranks():
    import random

    sampler = ZipfSampler(list(range(1000)), 1.0, random.Random(1))
    counts = Counter(sampler.sample() for _ in range(50000))
    assert counts[0] > counts[1] > counts[9] > counts[99]
    # P(rank 1) / P(rank 2) = 2 for s = 1
    assert counts[0] / counts[1] == pytest.approx(2.0, rel=0.15)


def test_apply_to_model_rejects_invalid_operations():
    model = {1: b"a"}
    with pytest.raises(ValueError):
        apply_to_model(("insert", 1, b"b"), model)
    with pytest.raises(ValueError):
        apply_to_model(("delete", 2), model)
    with pytest.raises(ValueError):
        apply_to_model(("txn", ((3, b"c"), (3, b"d"))), model)
    assert model == {1: b"a"}
