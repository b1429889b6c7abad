"""Property-based tests (hypothesis) on core data structures.

These verify invariants for arbitrary inputs rather than hand-picked
cases: cache occupancy bounds, LRU correctness against a reference
model, exact timeline integration, MSR field round-trips, ring routing
geometry, entropy bounds, frequency-timeline consistency and the
exactness of the UFS PMU's quiet-core skip.
"""

import math

from hypothesis import given, settings, strategies as st

from repro.analysis import binary_entropy, channel_capacity_bps
from repro.cache import LRUPolicy, SetAssociativeCache, SliceHash
from repro.config import CacheConfig, DemandModelConfig, UfsConfig
from repro.cpu import IDLE, ActivityProfile, Core, ProfileTimeline
from repro.cpu.msr import (
    decode_uncore_ratio_limit,
    encode_uncore_ratio_limit,
)
from repro.engine import Engine
from repro.noc import RingTopology
from repro.power import FrequencyTimeline, UfsPmu
from repro.power.ufs import accumulate_observation

lines = st.integers(min_value=0, max_value=1 << 40)


class TestCacheProperties:
    @given(st.lists(lines, min_size=1, max_size=200))
    def test_occupancy_never_exceeds_capacity(self, accesses):
        cache = SetAssociativeCache(CacheConfig("c", 4 * 2 * 64, 2))
        for line in accesses:
            cache.insert(line)
        assert cache.occupancy() <= 8
        for index in range(4):
            assert len(cache.lines_in_set(index)) <= 2

    @given(st.lists(lines, min_size=1, max_size=200))
    def test_most_recent_insert_always_resident(self, accesses):
        cache = SetAssociativeCache(CacheConfig("c", 4 * 2 * 64, 2))
        for line in accesses:
            cache.insert(line)
            assert cache.contains(line)

    @given(st.lists(st.integers(0, 15), min_size=1, max_size=300))
    def test_lru_matches_reference_model(self, touches):
        """Drive a 4-way LRU set against an ordered-list reference."""
        ways = 4
        policy = LRUPolicy(ways)
        cache_lines: list[int | None] = [None] * ways
        reference: list[int] = []  # most recent first
        for line in touches:
            if line in cache_lines:
                policy.touch(cache_lines.index(line))
            else:
                way = policy.victim(
                    [slot is not None for slot in cache_lines]
                )
                evicted = cache_lines[way]
                if None not in cache_lines and reference:
                    # The reference says the LRU line goes.
                    assert evicted == reference[-1]
                if evicted in reference:
                    reference.remove(evicted)
                cache_lines[way] = line
                policy.fill(way)
            if line in reference:
                reference.remove(line)
            reference.insert(0, line)
            reference = reference[:ways]

    @given(lines)
    def test_slice_hash_stable_and_in_range(self, line):
        hash_fn = SliceHash(16)
        slice_id = hash_fn.slice_of(line)
        assert 0 <= slice_id < 16
        assert hash_fn.slice_of(line) == slice_id

    @given(lines, st.sets(st.integers(0, 15), min_size=1))
    def test_restricted_hash_respects_allowed_set(self, line, allowed):
        hash_fn = SliceHash(16).restricted(tuple(sorted(allowed)))
        assert hash_fn.slice_of(line) in allowed


class TestTimelineProperties:
    profiles = st.builds(
        ActivityProfile,
        active=st.booleans(),
        llc_rate_per_us=st.floats(0, 500),
        mean_hops=st.floats(0, 3),
        stall_ratio=st.floats(0, 1),
    )

    @given(st.lists(st.tuples(st.integers(1, 1000), profiles),
                    min_size=1, max_size=30))
    def test_window_averages_bounded_by_extremes(self, changes):
        timeline = ProfileTimeline()
        time = 0
        rates = [0.0]
        for delta, profile in changes:
            time += delta
            timeline.set_profile(time, profile)
            rates.append(profile.llc_rate_per_us)
        stats = timeline.window_stats(0, time + 10)
        assert min(rates) - 1e-9 <= stats.llc_rate_per_us
        assert stats.llc_rate_per_us <= max(rates) + 1e-9
        assert 0.0 <= stats.active_fraction <= 1.0
        assert 0.0 <= stats.stall_ratio <= 1.0

    @given(st.lists(st.tuples(st.integers(1, 500),
                              st.integers(12, 24)),
                    min_size=1, max_size=30))
    def test_frequency_integral_additive(self, changes):
        """uclk(a->c) == uclk(a->b) + uclk(b->c) for any split."""
        timeline = FrequencyTimeline(1500)
        time = 0
        for delta, ratio in changes:
            time += delta
            timeline.set_frequency(time, ratio * 100)
        end = time + 100
        # uclk is monotone non-decreasing and consistent with the
        # bounded frequency range at every sample point.
        previous = 0
        for t in range(0, end + 1, max(end // 17, 1)):
            ticks = timeline.uclk_ticks(t)
            assert ticks >= previous
            assert ticks <= t * 2.4 + 1
            previous = ticks
        average = timeline.average_mhz(0, end)
        assert 1200 <= average <= 2400

    @given(st.lists(st.tuples(st.integers(1, 500),
                              st.integers(12, 24)),
                    min_size=1, max_size=20))
    def test_segments_partition_window(self, changes):
        timeline = FrequencyTimeline(1500)
        time = 0
        for delta, ratio in changes:
            time += delta
            timeline.set_frequency(time, ratio * 100)
        segments = timeline.segments(0, time + 50)
        assert segments[0][0] == 0
        assert segments[-1][1] == time + 50
        for (_, end_a, _), (start_b, _, _) in zip(segments,
                                                  segments[1:]):
            assert end_a == start_b


class TestQuietCoreSkip:
    """The PMU's fold with quiet cores left out equals the full fold."""

    profiles = st.one_of(
        st.just(IDLE),
        # Quiet despite a hop distance: no traffic to weight.
        st.builds(ActivityProfile, mean_hops=st.floats(0, 3)),
        st.builds(
            ActivityProfile,
            active=st.booleans(),
            llc_rate_per_us=st.floats(0, 500),
            mean_hops=st.floats(0, 3),
            stall_ratio=st.floats(0, 1),
        ),
    )
    # Per core: a sequence of (delay, profile) changes and a turbo flag.
    cores = st.lists(
        st.tuples(
            st.lists(st.tuples(st.integers(0, 4_000_000), profiles),
                     max_size=5),
            st.booleans(),
        ),
        min_size=16, max_size=16,
    )

    @settings(max_examples=150, deadline=None)
    @given(cores, st.integers(0, 25_000_000), st.integers(1, 12_000_000))
    def test_skipping_quiet_cores_is_bit_exact(self, spec, t0, width):
        engine = Engine()
        cores = [Core(i, 0, (0, i % 5), 2600) for i in range(16)]
        pmu = UfsPmu(socket_id=0, engine=engine, cores=cores,
                     ufs_config=UfsConfig(),
                     demand_config=DemandModelConfig())
        for core, (changes, turbo) in zip(cores, spec):
            time = 0
            for delay, profile in changes:
                time += delay
                core.set_profile(time, profile)
            if turbo:
                core.set_p_state(3000)
        t1 = t0 + width
        start = max(t0, t1 - pmu.config.observation_ns)
        full = accumulate_observation(
            ((core.timeline.window_stats(start, t1), core.above_base)
             for core in cores),
            pmu.config.stall_ratio_threshold,
        )
        observed = pmu._observe(t0, t1)
        assert observed == full
        # repr tells 0.0 from -0.0: the floats are equal bit for bit.
        assert repr(observed) == repr(full)


class TestMsrProperties:
    ratios = st.integers(0, 127)

    @given(ratios, ratios)
    def test_ratio_limit_round_trip(self, min_ratio, max_ratio):
        value = encode_uncore_ratio_limit(min_ratio * 100,
                                          max_ratio * 100)
        assert decode_uncore_ratio_limit(value) == (
            min_ratio * 100, max_ratio * 100
        )

    @given(ratios, ratios)
    def test_reserved_bits_stay_clear(self, min_ratio, max_ratio):
        value = encode_uncore_ratio_limit(min_ratio * 100,
                                          max_ratio * 100)
        assert value & ~0x7F7F == 0


class TestRingProperties:
    stops = st.integers(0, 15)

    @given(stops, stops)
    def test_route_length_equals_distance(self, src, dst):
        ring = RingTopology(16)
        assert len(ring.route(src, dst)) == ring.distance(src, dst)

    @given(stops, stops)
    def test_distance_symmetric_and_bounded(self, src, dst):
        ring = RingTopology(16)
        assert ring.distance(src, dst) == ring.distance(dst, src)
        assert 0 <= ring.distance(src, dst) <= 8

    @given(stops, stops, stops)
    def test_triangle_inequality(self, a, b, c):
        ring = RingTopology(16)
        assert ring.distance(a, c) <= (
            ring.distance(a, b) + ring.distance(b, c)
        )


class TestEntropyProperties:
    probabilities = st.floats(0.0, 1.0, allow_nan=False)

    @given(probabilities)
    def test_entropy_bounds(self, p):
        assert 0.0 <= binary_entropy(p) <= 1.0

    @given(probabilities)
    def test_entropy_symmetry(self, p):
        assert math.isclose(binary_entropy(p), binary_entropy(1.0 - p),
                            abs_tol=1e-12)

    @given(st.floats(0.0, 1000.0, allow_nan=False), probabilities)
    def test_capacity_never_exceeds_raw_rate(self, rate, error):
        capacity = channel_capacity_bps(rate, error)
        assert 0.0 <= capacity <= rate + 1e-9

    @given(st.floats(0.0, 0.5))
    @settings(max_examples=40)
    def test_capacity_decreasing_in_error(self, error):
        better = channel_capacity_bps(100.0, max(error - 0.05, 0.0))
        worse = channel_capacity_bps(100.0, error)
        assert better >= worse - 1e-9
