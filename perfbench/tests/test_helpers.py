"""Tests of the benchmark's own helpers.

Run from the root of the repo::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import math
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from benchstats import MIN_BEYOND, TAIL_CEILING, tail_percentile  # noqa: E402
from loadgen import open_loop_schedule  # noqa: E402
from spans import Tracer, covered, self_time  # noqa: E402


# -- the percentile rule ---------------------------------------------

@pytest.mark.parametrize("count", [20, 21, 99, 100, 999, 1000, 1200, 5000])
def test_tail_leaves_at_least_ten_samples_beyond(count):
    values = list(range(count))
    percentile, value, reported = tail_percentile(values)
    assert reported == count
    assert sum(v > value for v in values) >= MIN_BEYOND
    if percentile < TAIL_CEILING:
        # The next tenth of a percent up (nearest rank) leaves fewer.
        higher_rank = math.ceil(round((percentile + 0.1) * count / 100, 9))
        assert count - higher_rank < MIN_BEYOND


def test_tail_stops_at_the_ceiling():
    values = [float(v) for v in range(1, 5001)]
    assert TAIL_CEILING == 95.0
    assert tail_percentile(values) == (95.0, 4750.0, 5000)


def test_tail_is_p95_at_two_hundred_samples():
    values = [float(v) for v in range(1, 201)]
    assert tail_percentile(values) == (95.0, 190.0, 200)


def test_tail_is_p90_at_one_hundred_samples():
    values = [float(v) for v in range(1, 101)]
    assert tail_percentile(values) == (90.0, 90.0, 100)


def test_tail_is_the_maximum_below_twenty_samples():
    assert tail_percentile([3.0, 1.0, 2.0]) == (100.0, 3.0, 3)
    assert tail_percentile(list(range(19))) == (100.0, 18.0, 19)


def test_tail_ignores_input_order():
    values = [5.0, 1.0, 9.0, 3.0] * 10
    assert tail_percentile(values) == tail_percentile(sorted(values))


def test_tail_of_nothing_is_an_error():
    with pytest.raises(ValueError):
        tail_percentile([])


# -- self time from child spans --------------------------------------

def test_self_time_subtracts_disjoint_children():
    assert self_time(0.0, 10.0, [(1.0, 3.0), (5.0, 6.0)]) == 7.0


def test_self_time_counts_overlapping_children_once():
    # Children 2-6 and 4-8 cover 2-8: six seconds, not eight.
    assert self_time(0.0, 10.0, [(4.0, 8.0), (2.0, 6.0)]) == 4.0


def test_self_time_with_nested_and_identical_children():
    children = [(1.0, 9.0), (2.0, 3.0), (1.0, 9.0)]
    assert self_time(0.0, 10.0, children) == 2.0


def test_self_time_clips_children_to_the_parent():
    assert self_time(2.0, 6.0, [(0.0, 3.0), (5.0, 9.0)]) == 2.0
    assert covered([(7.0, 9.0)], 2.0, 6.0) == 0.0


def _ticking_clock(times):
    ticks = iter(times)
    return lambda: next(ticks)


def test_tracer_self_time_of_nested_spans():
    # outer 0..10, inner 2..5: outer self 7, inner self 3.
    tracer = Tracer(clock=_ticking_clock([0.0, 2.0, 5.0, 10.0]))
    inner = tracer.wrap("inner", lambda: None)

    def body():
        inner()

    tracer.wrap("outer", body)()
    assert tracer.self_s == {"outer": 7.0, "inner": 3.0}
    assert tracer.calls == {"outer": 1, "inner": 1}


def test_tracer_span_context():
    tracer = Tracer(clock=_ticking_clock([0.0, 1.0, 4.0, 6.0]))
    with tracer.span("block"):
        tracer.wrap("call", lambda: None)()
    assert tracer.self_s == {"block": 3.0, "call": 3.0}


def test_tracer_keeps_threads_apart():
    tracer = Tracer()
    barrier = threading.Barrier(2)

    def work():
        barrier.wait(timeout=10)

    traced = tracer.wrap("work", work)
    threads = [threading.Thread(target=traced) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    assert tracer.calls["work"] == 2
    assert tracer.self_s["work"] > 0.0


def test_patch_and_restore_module_function():
    import types

    module = types.ModuleType("repro_perfbench_probe")
    module.double = lambda x: 2 * x
    original = module.double
    sys.modules[module.__name__] = module
    try:
        tracer = Tracer()
        tracer.patch(module, "double", "probe.double")
        assert module.double(4) == 8
        assert tracer.calls["probe.double"] == 1
        tracer.restore()
        assert module.double is original
    finally:
        del sys.modules[module.__name__]


# -- the open-loop schedule ------------------------------------------

def _schedule(seed=1, **overrides):
    kwargs = dict(warm_seeds=[10, 11, 12], fresh_base=100,
                  write_share=0.1)
    kwargs.update(overrides)
    return open_loop_schedule(50.0, 20.0, seed, **kwargs)


def test_schedule_is_fixed_rate():
    arrivals = _schedule()
    assert len(arrivals) == 1000
    gaps = {round(b.at_s - a.at_s, 9)
            for a, b in zip(arrivals, arrivals[1:])}
    assert gaps == {0.02}
    assert arrivals[0].at_s == 0.0


def test_schedule_is_a_function_of_the_seed():
    assert _schedule(seed=3) == _schedule(seed=3)
    assert _schedule(seed=3) != _schedule(seed=4)


def test_schedule_mixes_reads_of_warm_specs_and_fresh_writes():
    arrivals = _schedule()
    writes = [a for a in arrivals if a.kind == "write"]
    reads = [a for a in arrivals if a.kind == "read"]
    assert len(writes) == 100
    # Evenly spaced: every tenth arrival.
    gaps = {round(b.at_s - a.at_s, 9) for a, b in zip(writes, writes[1:])}
    assert gaps == {0.2}
    assert {a.spec_seed for a in reads} <= {10, 11, 12}
    fresh = [a.spec_seed for a in writes]
    assert fresh == list(range(100, 100 + len(writes)))


def test_schedule_rejects_a_non_positive_rate():
    with pytest.raises(ValueError):
        open_loop_schedule(0.0, 1.0, 1, warm_seeds=[1], fresh_base=2,
                           write_share=0.1)
