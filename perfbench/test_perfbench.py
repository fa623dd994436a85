"""Tests of the benchmark's own input generator and span recorder.

Run with: python -m pytest -q perfbench
"""

from __future__ import annotations

import sys
import time
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import speed  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def shape(stream):
    large = sum(1 for entries in stream if max(entries) > 16)
    return len(stream), large / len(stream), max(max(entries) for entries in stream)


def test_same_seed_same_stream():
    assert workloads.classify_cold_stream(5, 400) == workloads.classify_cold_stream(5, 400)


@pytest.mark.parametrize("seed", [1, 2, 3, 99])
def test_different_seed_different_stream_same_shape(seed):
    base = workloads.classify_cold_stream(0, 1500)
    other = workloads.classify_cold_stream(seed, 1500)
    assert other != base
    count, share, largest = shape(other)
    assert count == 1500
    assert abs(share - 0.3) < 0.05
    assert largest <= workloads.ENTRY_CAP
    assert all(len(entries) == 4 and min(entries) >= 2 for entries in other)


@pytest.mark.parametrize("seed", range(6))
def test_open_case_always_in_stream(seed):
    assert workloads.OPEN_CASE in workloads.classify_cold_stream(seed, 50)


def test_entry_cap_bounds_large_entries():
    stream = workloads.classify_cold_stream(4, 300, cap=1000)
    assert max(max(entries) for entries in stream) <= 1000


def test_smooth_numbers_have_only_small_prime_factors():
    values = workloads.smooth_numbers(10**4)
    for value in values:
        for p in workloads.SMOOTH_PRIMES:
            while value % p == 0:
                value //= p
        assert value == 1
    assert values == sorted(set(values))


def check_spans(tracer: Tracer) -> None:
    durations = [e - s for s, e in zip(tracer.start, tracer.end)]
    child_sum = [0.0] * len(durations)
    own = tracer.self_times()
    subtree_self = list(own)
    # Children are recorded after their parent, so a reverse sweep folds
    # each subtree's self times into its root.
    for index in range(len(durations) - 1, -1, -1):
        parent = tracer.parent[index]
        if parent >= 0:
            child_sum[parent] += durations[index]
            subtree_self[parent] += subtree_self[index]
    for index, duration in enumerate(durations):
        assert own[index] >= -1e-9
        assert child_sum[index] <= duration + 1e-9
        assert subtree_self[index] <= duration + 1e-9


def test_self_times_fit_inside_parent_spans():
    layer = types.SimpleNamespace()

    def leaf(x):
        time.sleep(0.001)
        return x

    def middle(x):
        return layer.leaf(x) + layer.leaf(x)

    def top(x):
        return layer.middle(x) + layer.leaf(x)

    layer.leaf, layer.middle, layer.top = leaf, middle, top
    tracer = Tracer()
    for name in ("leaf", "middle", "top"):
        tracer.wrap(layer, name, name, serves_first_arg=(name == "top"))
    assert layer.top(2) == 6
    assert layer.top(3) == 9
    tracer.unwrap()
    assert layer.leaf is leaf
    assert tracer.calls == {"leaf": 6, "middle": 2, "top": 2}
    assert tracer.rows == [2, 3]
    assert list(tracer.row) == [0, 0, 0, 0, 0, 1, 1, 1, 1, 1]
    check_spans(tracer)
    self_total = sum(tracer.self_time_by_name().values())
    assert self_total == pytest.approx(tracer.busy["top"])


def test_recursive_span_counts_busy_time_once():
    layer = types.SimpleNamespace()

    def countdown(n):
        return 0 if n == 0 else 1 + layer.countdown(n - 1)

    layer.countdown = countdown
    tracer = Tracer()
    tracer.wrap(layer, "countdown", "countdown")
    assert layer.countdown(5) == 5
    tracer.unwrap()
    outer = tracer.end[0] - tracer.start[0]
    assert tracer.calls["countdown"] == 6
    assert tracer.busy["countdown"] == pytest.approx(outer)
    check_spans(tracer)


def test_traced_classify_spans_nest():
    pytest.importorskip("brieskorn")
    import stage
    from brieskorn import engine

    tracer = Tracer()
    stage.install_tracer(tracer)
    try:
        outcome = engine.classify((2, 3, 3, 4, 5), engine.KnowledgeBase())
    finally:
        tracer.unwrap()
    assert outcome.status.value in {"RIGID", "STABLY_RIGID", "NON_RIGID", "UNKNOWN"}
    assert tracer.calls["engine.classify"] == 1
    assert tracer.calls["engine.store"] >= 1
    assert tracer.rows == [(2, 3, 3, 4, 5)]
    check_spans(tracer)


def test_meter_factor_averages_samples_inside_a_region_else_the_nearest():
    meter = speed.Meter()
    meter.stamps.extend([0.0, 1.0, 2.0, 3.0])
    meter.factors.extend([1.0, 2.0, 4.0, 8.0])
    assert meter.factor(0.5, 2.5) == pytest.approx(3.0)
    assert meter.factor(1.1, 1.2) == 2.0
    assert meter.factor(1.8, 1.9) == 4.0
    assert meter.factor(-1.0, -0.5) == 1.0
    assert meter.factor(4.0, 5.0) == 8.0
    assert meter.scaled(0.5, 2.5) == pytest.approx(6.0)


def test_meter_clock_stops_while_sampling():
    with speed.Meter(period_s=0.01) as meter:
        start = meter.clock()
        deadline = time.perf_counter() + 0.2
        while time.perf_counter() < deadline:
            pass
        end = meter.clock()
    assert len(meter.factors) >= 3
    assert meter.spent > 0
    assert end - start == pytest.approx(0.2 - meter.spent, abs=0.02)
    assert meter.scaled(start, end) > 0
