"""Self-time arithmetic and span attribution of the benchmark tracer."""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.crypto.des import DES

from perfbench.harness import beyond, percentile, tail_percentile
from perfbench.instrument import instrumented
from perfbench.tracer import Tracer, exclusive_times


def test_nested_spans_subtract_their_children():
    # root [0,10] > child [2,5] > grandchild [3,4]
    spans = [(None, 0, 10), (0, 2, 5), (1, 3, 4)]
    assert exclusive_times(spans) == [7, 2, 1]


def test_parallel_children_split_their_overlap():
    # two shard spans overlapping on [3,7] under one cluster span
    spans = [(None, 0, 10), (0, 1, 7), (0, 3, 9)]
    root, a, b = exclusive_times(spans)
    assert root == 2  # 10 minus the union [1,9] of its children
    assert a == 2 + 4 / 2 and b == 2 + 4 / 2
    assert root + a + b == 10  # no double counting


def test_overlap_inside_parallel_children_is_shared_by_the_leaves():
    # child a has its own child running while sibling b runs in parallel
    spans = [(None, 0, 10), (0, 0, 10), (0, 0, 10), (1, 4, 6)]
    root, a, b, a_child = exclusive_times(spans)
    assert root == 0
    assert a == pytest.approx(8 / 2)
    assert b == pytest.approx(10 / 2)
    assert a_child == pytest.approx(2 / 2)


def test_equal_and_zero_length_intervals():
    spans = [(None, 0, 4), (0, 0, 4), (1, 2, 2)]
    assert exclusive_times(spans) == [0, 4, 0]
    # siblings touching at one instant do not overlap
    spans = [(None, 0, 4), (0, 0, 2), (0, 2, 4)]
    assert exclusive_times(spans) == [0, 2, 2]


def test_self_times_sum_to_the_union_of_intervals():
    spans = [(None, 0, 100), (0, 5, 60), (0, 20, 90), (1, 10, 30), (2, 25, 26), (None, 120, 130)]
    assert sum(exclusive_times(spans)) == pytest.approx(100 + 10)


def test_tracer_attributes_pool_work_to_the_submitting_span():
    tracer = Tracer()
    leaf = tracer.wrap(tracer.kind("leaf", "work"), lambda: time.sleep(0.01))
    pool = ThreadPoolExecutor(max_workers=2)

    def fan_out():
        context = tracer.current()
        futures = [pool.submit(tracer.call_in_context, context, leaf) for _ in range(2)]
        for future in futures:
            future.result()

    root = tracer.wrap(tracer.kind("root", "call"), fan_out)
    tracer.active = True
    start = time.perf_counter_ns()
    root()
    wall = time.perf_counter_ns() - start
    tracer.active = False
    root()  # inactive: recorded nowhere
    pool.shutdown()
    summary = tracer.summarize()
    assert summary.requests == 1
    assert summary.calls == {0: 2, 1: 1}
    total = sum(summary.self_ns.values())
    assert total == pytest.approx(summary.inclusive_ns[1])
    assert total <= wall
    # the two sleeping leaves overlap, so their self times share the overlap
    assert summary.self_ns[0] < summary.inclusive_ns[0]


def test_instrumented_counts_des_blocks_and_restores_the_methods():
    original = DES.__dict__["encrypt_blocks"]
    tracer = Tracer()
    des = DES(b"8bytekey")
    with instrumented(tracer, layers=("crypto.des",)):
        assert DES.__dict__["encrypt_blocks"] is not original
        tracer.active = True
        cipher = des.encrypt_blocks(bytes(64))
        tracer.active = False
    assert DES.__dict__["encrypt_blocks"] is original
    assert des.decrypt_blocks(cipher) == bytes(64)
    summary = tracer.summarize()
    (kind,) = summary.calls
    assert tracer.kinds[kind] == ("crypto.des", "encrypt_blocks")
    assert summary.tag_sum[kind] == 8


def test_percentiles_and_tail_support():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert beyond(100, 90) == 10
    assert tail_percentile(100) == 90
    assert tail_percentile(1000) == 99
    assert tail_percentile(15) is None
