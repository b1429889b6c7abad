"""UFS control-law edge cases: limit interactions, coupling corners."""

import numpy as np
import pytest

from repro.config import DemandModelConfig, UfsConfig
from repro.cpu import ActivityProfile, Core, IDLE
from repro.defenses import RandomizedFrequencyDefense, apply_restricted_range
from repro.engine import Engine
from repro.platform import System, processor
from repro.power import UfsPmu, ufs
from repro.power.ufs import accumulate_observation, ufs_control_step
from repro.units import ms
from repro.workloads import StallingLoop, TrafficLoop
from repro.workloads.loops import stalling_profile, traffic_profile


def make_pmu(engine, cores, **ufs_kwargs):
    from repro.power import UfsPmu

    return UfsPmu(
        socket_id=0,
        engine=engine,
        cores=cores,
        ufs_config=UfsConfig(**ufs_kwargs),
        demand_config=DemandModelConfig(),
    )


class TestLimitInteractions:
    def test_raised_minimum_floors_the_idle_dither(self):
        engine = Engine()
        cores = [Core(0, 0, (0, 1), 2600)]
        pmu = make_pmu(engine, cores, min_freq_mhz=1700)
        engine.run_for(ms(100))
        # The idle dither targets 1.4/1.5 GHz but the MSR floor wins.
        assert pmu.current_mhz == 1700

    def test_lowered_maximum_caps_the_stall_rule(self):
        engine = Engine()
        cores = [Core(0, 0, (0, 1), 2600)]
        pmu = make_pmu(engine, cores)
        pmu.set_limits(1200, 2000)
        cores[0].set_profile(0, stalling_profile())
        engine.run_for(ms(200))
        assert pmu.current_mhz == 2000

    def test_widening_limits_reenables_scaling(self):
        engine = Engine()
        cores = [Core(0, 0, (0, 1), 2600)]
        pmu = make_pmu(engine, cores)
        pmu.set_limits(1800, 1800)
        cores[0].set_profile(0, stalling_profile())
        engine.run_for(ms(100))
        assert pmu.current_mhz == 1800
        pmu.set_limits(1200, 2400)
        engine.run_for(ms(150))
        assert pmu.current_mhz == 2400

    def test_window_entirely_above_idle_band(self):
        # Limits 2000-2400: idle target clamps to the window floor.
        engine = Engine()
        cores = [Core(0, 0, (0, 1), 2600)]
        pmu = make_pmu(engine, cores, min_freq_mhz=2000)
        cores[0].set_profile(0, stalling_profile())
        engine.run_for(ms(200))
        assert pmu.current_mhz == 2400
        cores[0].set_profile(engine.now, IDLE)
        engine.run_for(ms(200))
        assert pmu.current_mhz == 2000


class TestCouplingCorners:
    def test_restricted_follower_clamps_coupled_target(self):
        """The follower honours its own MSR window even when the
        leader runs faster."""
        system = System(seed=0)
        from repro.defenses import apply_restricted_range

        apply_restricted_range(system, 1500, 1900, socket_id=1)
        loop = StallingLoop("s")
        system.launch(loop, 0, 0)
        system.run_ms(300)
        assert system.uncore_frequency_mhz(0) == 2400
        assert system.uncore_frequency_mhz(1) == 1900
        system.stop()

    def test_coupling_decays_when_leader_stops(self):
        system = System(seed=0)
        loop = StallingLoop("s")
        system.launch(loop, 0, 0)
        system.run_ms(250)
        assert system.uncore_frequency_mhz(1) == 2300
        system.terminate(loop)
        system.run_ms(300)
        assert system.uncore_frequency_mhz(1) in (1400, 1500)
        system.stop()

    def test_both_sockets_loaded_no_runaway(self):
        """Mutual coupling must not amplify: with both sockets under
        light demand, neither exceeds its own demand target by more
        than the coupling lag."""
        system = System(seed=0)
        system.launch(TrafficLoop("a", hops=0), 0, 0)
        system.launch(TrafficLoop("b", hops=0), 1, 0)
        system.run_ms(1500)
        # One 0-hop thread targets 2.1 GHz on each socket.
        assert system.uncore_frequency_mhz(0) <= 2100
        assert system.uncore_frequency_mhz(1) <= 2100
        system.stop()


class TestTurboInteraction:
    def test_turbo_beats_fixed_low_demand(self, solo_system):
        from repro.cpu.activity import ActivityProfile

        core = solo_system.socket(0).core(0)
        core.claim("turbo")
        core.set_p_state(3000)
        core.set_profile(solo_system.now,
                         ActivityProfile(active=True))
        solo_system.run_ms(200)
        assert solo_system.uncore_frequency_mhz(0) == 2400
        # Dropping back to base frequency re-enables UFS decay.
        core.set_p_state(2600)
        core.set_profile(solo_system.now, IDLE)
        solo_system.run_ms(200)
        assert solo_system.uncore_frequency_mhz(0) in (1400, 1500)

    def test_turbo_respects_msr_window(self, solo_system):
        from repro.cpu.activity import ActivityProfile
        from repro.defenses import apply_restricted_range

        apply_restricted_range(solo_system, 1500, 1800)
        core = solo_system.socket(0).core(0)
        core.claim("turbo")
        core.set_p_state(3000)
        core.set_profile(solo_system.now,
                         ActivityProfile(active=True))
        solo_system.run_ms(200)
        assert solo_system.uncore_frequency_mhz(0) == 1800


class _ReferencePmu(UfsPmu):
    """The PMU as it was before the memo and the quiet skip.

    Every tick folds all cores and calls ``ufs_control_step`` afresh,
    so any divergence of the optimized :class:`UfsPmu` shows up as a
    different timeline, snapshot or counter.
    """

    def _evaluate(self):
        now = self.engine.now
        t0, t1 = self._last_eval_ns, now
        self._last_eval_ns = now
        if t1 <= t0:
            return
        t0 = max(t0, t1 - self.config.observation_ns)
        (active, stalled, llc_rate, noc_score, max_stall,
         turbo_active) = accumulate_observation(
            ((core.timeline.window_stats(t0, t1), core.above_base)
             for core in self.cores),
            self.config.stall_ratio_threshold,
        )

        def ints(value):
            return np.array([value], dtype=np.int64)

        def floats(value):
            return np.array([value], dtype=np.float64)

        remote = None
        if self.remote_frequency is not None:
            remote = ints(self.remote_frequency())
        result = ufs_control_step(
            freq_mhz=ints(self.current_mhz),
            dither_phase=ints(self._dither_phase),
            slow_countdown=ints(self._slow_step_countdown),
            min_limit_mhz=ints(self.min_limit_mhz),
            max_limit_mhz=ints(self.max_limit_mhz),
            active=ints(active),
            stalled=ints(stalled),
            llc_rate=floats(llc_rate),
            noc_score=floats(noc_score),
            max_stall=floats(max_stall),
            turbo=np.array([turbo_active], dtype=bool),
            remote_mhz=remote,
            ufs=self.config,
            demand=self.demand_model.config,
            coupling_lag_mhz=self.coupling_lag_mhz,
        )
        self._dither_phase = int(result.dither_phase[0])
        self._slow_step_countdown = int(result.slow_countdown[0])
        if result.turbo_pin[0]:
            self.turbo_pins += 1
        if result.veto[0]:
            self.decrease_vetoes += 1
        self.timeline.set_frequency(now, int(result.freq_mhz[0]))
        self._record(now, active, stalled, llc_rate, noc_score,
                     bool(result.stall_rule[0]),
                     int(result.target_mhz[0]), bool(result.heavy[0]))


class _BoundCheckedPmu(UfsPmu):
    """Asserts the memo bound after every tick and counts clears."""

    clears = 0

    def _evaluate(self):
        before = len(self._step_memo)
        super()._evaluate()
        assert len(self._step_memo) <= ufs._STEP_MEMO_BOUND
        if len(self._step_memo) < before:
            self.clears += 1


def _scenario_coupling(system, rng):
    loop = StallingLoop("s", hops=int(rng.integers(0, 3)))
    system.launch(loop, 0, int(rng.integers(0, 4)))
    system.launch(TrafficLoop("t", hops=int(rng.integers(0, 3))), 1, 2)
    system.run_ms(int(rng.integers(200, 300)))
    system.terminate(loop)
    system.run_ms(300)


def _scenario_defense(system, rng):
    system.launch(TrafficLoop("t", hops=2), 0, 1)
    system.launch(StallingLoop("s"), 1, 0)
    system.run_ms(int(rng.integers(100, 200)))
    apply_restricted_range(system, 1500, 1900, socket_id=0)
    # Only the ceiling moves: the stalled socket sits at 2000 under the
    # lowered one and must climb again once it is lifted.
    system.socket(1).pmu.set_limits(1200, 2000)
    system.run_ms(100)
    system.socket(1).pmu.set_limits(1200, 2400)
    system.run_ms(50)
    system.socket(1).pmu.set_limits(1800, 1800)
    system.run_ms(60)
    defense = RandomizedFrequencyDefense(system, period_ms=40.0, rng=rng)
    system.run_ms(200)
    defense.stop()
    apply_restricted_range(system, 1200, 2400)
    system.run_ms(200)


def _scenario_turbo(system, rng):
    core = system.socket(0).core(int(rng.integers(0, 4)))
    core.claim("turbo")
    core.set_p_state(3000)
    core.set_profile(system.now, ActivityProfile(active=True))
    system.run_ms(int(rng.integers(100, 200)))
    core.set_p_state(2600)
    core.set_profile(system.now, IDLE)
    system.run_ms(200)


def _scenario_stall_pins(system, rng):
    # Stall onsets 2.2 ms before four successive socket-0 ticks: the
    # chaser is active for under half the trailing 5 ms window, so no
    # stall rule fires, but its residue exceeds the veto ratio and holds
    # back the idle dither's down-step on the tick whose phase wraps.
    system.run_ms(int(rng.integers(30, 60)))
    period = ms(10)
    for index in range(4):
        onset = StallingLoop(f"onset{index}")
        tick = system.now - system.now % period + period
        system.run_for(tick - ms(2.2) - system.now)
        system.launch(onset, 0, 0)
        system.run_ms(2.3)
        system.terminate(onset)
    loops = [StallingLoop(f"s{i}") for i in range(3)]
    for core_id, loop in enumerate(loops):
        system.launch(loop, 0, core_id)
    system.launch(TrafficLoop("t", hops=1), 0, 4)
    system.run_ms(int(rng.integers(150, 250)))
    # Two of six active cores stalled: exactly 1/3 does not pin.
    system.terminate(loops[0])
    for core_id in (5, 6):
        system.launch(TrafficLoop(f"u{core_id}", hops=0), 0, core_id)
    system.run_ms(200)
    for loop in loops[1:]:
        system.terminate(loop)
    system.run_ms(200)


def _scenario_floor_and_veto(system, rng):
    """Idle dither under a raised floor, then under stall residue.

    Each phase repeats the previous one's inputs with a single field
    changed (the MSR floor, then the stall residue), and each change
    alters the step's answer at the dither's wrap to 1.4 GHz.
    """
    system.run_ms(int(rng.integers(60, 90)))
    pmu = system.socket(0).pmu
    pmu.set_limits(1500, 2400)
    system.run_ms(60)
    pmu.set_limits(1200, 2400)
    core = system.socket(0).core(0)
    core.set_profile(system.now, ActivityProfile(active=True))
    system.run_ms(60)
    core.set_profile(system.now,
                     ActivityProfile(active=True, stall_ratio=0.4))
    system.run_ms(60)


def _scenario_random_walk(system, rng):
    """Profiles and limits from small palettes, changed between ticks.

    Changes land 1 ms after a socket-0 tick, so socket 0's windows see
    whole profiles and the same inputs recur with single fields
    differing: a memo key missing any field would return a stale step.
    """
    palette = (
        IDLE,
        ActivityProfile(active=True),
        ActivityProfile(active=True, stall_ratio=0.4),
        ActivityProfile(active=True, stall_ratio=0.6),
        ActivityProfile(llc_rate_per_us=40.0),
        traffic_profile(0),
        traffic_profile(2),
        stalling_profile(0),
        stalling_profile(1),
    )
    limits = ((1200, 2400), (1500, 2400), (1200, 2000), (1500, 1900))
    cores = [system.socket(s).core(c) for s in (0, 1) for c in range(4)]
    system.run_ms(1)
    for _ in range(150):
        system.run_ms(10 * int(rng.integers(1, 4)))
        core = cores[int(rng.integers(len(cores)))]
        profile = palette[int(rng.integers(len(palette)))]
        core.set_profile(system.now, profile)
        if rng.random() < 0.15:
            pmu = system.socket(int(rng.integers(2))).pmu
            pmu.set_limits(*limits[int(rng.integers(len(limits)))])


SCENARIOS = {
    "coupling": _scenario_coupling,
    "defense": _scenario_defense,
    "turbo": _scenario_turbo,
    "stall_pins": _scenario_stall_pins,
    "floor_and_veto": _scenario_floor_and_veto,
    "random_walk": _scenario_random_walk,
}


def _run(pmu_class, scenario, seed):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(processor, "UfsPmu", pmu_class)
        system = System(seed=seed)
    for socket in system.sockets:
        socket.pmu.keep_snapshots = True
    SCENARIOS[scenario](system, np.random.default_rng(seed))
    system.stop()
    return [socket.pmu for socket in system.sockets]


def _observable(pmu):
    return (pmu.timeline.points(), pmu.snapshots, pmu.evaluations,
            pmu.turbo_pins, pmu.stall_pins, pmu.decrease_vetoes)


class TestStepMemo:
    """The memoized PMU is indistinguishable from stepping every tick."""

    @pytest.mark.parametrize("seed", [3, 11])
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_matches_reference(self, scenario, seed):
        reference = _run(_ReferencePmu, scenario, seed)
        memo = _run(UfsPmu, scenario, seed)
        assert len(memo) == 2
        for ref_pmu, memo_pmu in zip(reference, memo):
            assert _observable(memo_pmu) == _observable(ref_pmu)
            # The memo is doing work: fewer distinct inputs than ticks.
            assert 0 < len(memo_pmu._step_memo) < memo_pmu.evaluations

    def test_scenarios_exercise_every_counter(self):
        totals = dict.fromkeys(
            ("turbo_pins", "stall_pins", "decrease_vetoes"), 0)
        coupled = False
        for scenario in SCENARIOS:
            pmus = _run(UfsPmu, scenario, 3)
            for pmu in pmus:
                for name in totals:
                    totals[name] += getattr(pmu, name)
            coupled |= any(snap.freq_mhz == 2300
                           for snap in pmus[1].snapshots)
        assert all(totals.values()), totals
        assert coupled

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_tiny_bound_clears_and_still_matches(self, monkeypatch,
                                                 scenario):
        reference = _run(_ReferencePmu, scenario, 5)
        monkeypatch.setattr(ufs, "_STEP_MEMO_BOUND", 3)
        memo = _run(_BoundCheckedPmu, scenario, 5)
        assert sum(pmu.clears for pmu in memo) > 0
        for ref_pmu, memo_pmu in zip(reference, memo):
            assert _observable(memo_pmu) == _observable(ref_pmu)
