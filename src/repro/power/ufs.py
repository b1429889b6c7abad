"""The UFS power-management unit: Intel's control law, reconstructed.

Implements the behaviour summarised in Section 3.5 of the paper:

* The uncore has operating points in 100 MHz increments; the PMU checks
  the socket roughly every 10 ms and increases, decreases or maintains
  the frequency (Figures 5/6).
* The frequency follows uncore utilisation — both LLC access density
  and interconnect traffic (Figure 3).  LLC demand alone saturates at
  2.3 GHz; interconnect traffic is needed to reach 2.4 GHz.
* When strictly more than 1/3 of the *active* cores are stalled on
  memory, the uncore pins at the maximum frequency (Figure 4).
* Increases step once per evaluation period only when heading for the
  maximum frequency (heavy demand / stalled cores); light-demand
  targets are approached with slow stepping — "over 50 ms to change
  from 1.5 GHz to 1.6 GHz" (Section 4.3.1).  Decreases always step once
  per period (Figure 6).
* With active cores but no uncore demand, the frequency dithers between
  1.4 and 1.5 GHz (Section 3.1) — the paper's ``freq_min``.
* Sockets couple: a follower trails the fastest other socket by one
  step with roughly one period of lag and stabilises 100 MHz below it
  (Figure 7).

The OS restrains (or disables) UFS through ``UNCORE_RATIO_LIMIT``; the
PMU re-reads its limits whenever that MSR is written (Section 6.1's
countermeasures build on exactly this).

The control law has one implementation, :func:`ufs_control_step`, a
pure function over arrays.  The event-driven :class:`UfsPmu` and the
batch backend both call it on observations folded by
:func:`accumulate_observation`, so they agree bit for bit.  The PMU
only avoids work whose answer is known: it memoizes the step on its
full input tuple, and it leaves out of the fold any core that has been
quiet since before the window, whose contribution is exact zeros.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass

import numpy as np

from ..config import DemandModelConfig, UfsConfig
from ..cpu.core import Core
from ..engine import Engine, PeriodicTask
from ..errors import ConfigError
from .timeline import FrequencyTimeline


@dataclass(frozen=True)
class SocketSnapshot:
    """What the PMU saw in one evaluation period (for tracing/tests)."""

    time_ns: int
    active_cores: int
    stalled_cores: int
    llc_rate_per_us: float
    noc_score: float
    stall_rule_triggered: bool
    target_mhz: int
    heavy: bool
    freq_mhz: int


class DemandModel:
    """Maps integrated socket activity to a target frequency (Fig. 3 fit).

    Demand is normalised to units of one traffic-loop thread
    (``traffic_loop_rate_per_us``).  The LLC component saturates at
    2.3 GHz; the interconnect component — thresholded on the
    hop-squared-weighted score — reaches the maximum.  See
    :class:`repro.config.DemandModelConfig` for the calibration.
    """

    def __init__(self, config: DemandModelConfig) -> None:
        config.validate()
        self.config = config

    def _band_target(self, bands: tuple[tuple[float, int], ...],
                     units: float) -> int | None:
        target: int | None = None
        for threshold, freq in bands:
            if units >= threshold:
                target = freq
        return target

    def llc_target(self, llc_rate_per_us: float) -> int | None:
        """Target from LLC access density alone (None = no demand)."""
        units = llc_rate_per_us / self.config.traffic_loop_rate_per_us
        return self._band_target(self.config.llc_bands, units)

    def noc_target(self, noc_score: float) -> int | None:
        """Target from interconnect traffic alone (None = no demand)."""
        units = noc_score / self.config.traffic_loop_rate_per_us
        return self._band_target(self.config.noc_bands, units)

    def target(self, llc_rate_per_us: float,
               noc_score: float) -> int | None:
        """Combined demand target; None means idle dither."""
        candidates = [
            t
            for t in (
                self.llc_target(llc_rate_per_us),
                self.noc_target(noc_score),
            )
            if t is not None
        ]
        return max(candidates) if candidates else None


def accumulate_observation(
    samples: Iterable[tuple], stall_ratio_threshold: float
) -> tuple[int, int, float, float, float, bool]:
    """Fold per-core window statistics into one socket observation.

    ``samples`` yields ``(stats, above_base)`` pairs — one
    :class:`~repro.cpu.activity.WindowStats` plus the core's turbo flag
    per core, in core order.  The fold is the single definition of what
    the PMU "sees" each period; both the event-driven PMU and the batch
    backend call it, so their observations agree bit for bit (floating
    point accumulation is order-sensitive).
    """
    active = 0
    stalled = 0
    llc_rate = 0.0
    noc_score = 0.0
    max_stall = 0.0
    turbo_active = False
    for stats, above_base in samples:
        llc_rate += stats.llc_rate_per_us
        noc_score += stats.noc_score
        # Stall residue weighted by how much of the window the core was
        # active — a core stalled for 2 of 5 ms contributes 0.4 of its
        # stall ratio.
        residue = stats.stall_ratio * stats.active_fraction
        max_stall = max(max_stall, residue)
        if above_base and stats.active_fraction > 0.05:
            turbo_active = True
        if stats.is_active:
            active += 1
            if residue > stall_ratio_threshold:
                stalled += 1
    return (active, stalled, llc_rate, noc_score, max_stall, turbo_active)


#: Entries one PMU's control-step memo holds before it is cleared
#: wholesale (a Fig. 12 study needs about 2.2k).
_STEP_MEMO_BOUND = 4096

#: Sentinel in target arrays for "no demand" (the scalar path's None).
NO_TARGET = np.int64(-1)


@dataclass(frozen=True)
class UfsStepResult:
    """Next state plus per-trial decision flags of one control step.

    ``freq_mhz`` / ``dither_phase`` / ``slow_countdown`` are the updated
    state arrays; the remaining fields describe what each element
    decided, in exactly the shape :meth:`UfsPmu._record` wants: the
    recorded target, whether the stall rule fired, whether stepping was
    heavy, and whether the turbo pin or the decrease veto applied.
    """

    freq_mhz: np.ndarray
    dither_phase: np.ndarray
    slow_countdown: np.ndarray
    target_mhz: np.ndarray
    stall_rule: np.ndarray
    heavy: np.ndarray
    turbo_pin: np.ndarray
    veto: np.ndarray


def _band_targets(bands: tuple[tuple[float, int], ...],
                  units: np.ndarray) -> np.ndarray:
    """Vectorized :meth:`DemandModel._band_target` (-1 = no demand)."""
    target = np.full(units.shape, NO_TARGET, dtype=np.int64)
    for threshold, freq in bands:
        target = np.where(units >= threshold, np.int64(freq), target)
    return target


def ufs_control_step(
    *,
    freq_mhz: np.ndarray,
    dither_phase: np.ndarray,
    slow_countdown: np.ndarray,
    min_limit_mhz: np.ndarray,
    max_limit_mhz: np.ndarray,
    active: np.ndarray,
    stalled: np.ndarray,
    llc_rate: np.ndarray,
    noc_score: np.ndarray,
    max_stall: np.ndarray,
    turbo: np.ndarray,
    remote_mhz: np.ndarray | None = None,
    ufs: UfsConfig,
    demand: DemandModelConfig,
    coupling_lag_mhz: int = 100,
) -> UfsStepResult:
    """One PMU evaluation for N sockets at once, as pure array math.

    This is the control law of Section 3.5 with every trial-dependent
    quantity lifted to an array: the event-driven :class:`UfsPmu` calls
    it with shape-``(1,)`` arrays, the batch backend with one element
    per trial.  All element-wise operations are IEEE-identical to the
    scalar expressions they replace, so both paths take bit-identical
    decisions.

    ``remote_mhz`` is the fastest *other* socket's frequency (coupling),
    or ``None`` on single-socket platforms.  Limits are per-element so
    trials under different ``UNCORE_RATIO_LIMIT`` countermeasures can
    share one lattice.
    """
    freq = np.asarray(freq_mhz, dtype=np.int64)
    phase = np.asarray(dither_phase, dtype=np.int64)
    countdown = np.asarray(slow_countdown, dtype=np.int64)
    min_limit = np.asarray(min_limit_mhz, dtype=np.int64)
    max_limit = np.asarray(max_limit_mhz, dtype=np.int64)
    active = np.asarray(active, dtype=np.int64)
    stalled = np.asarray(stalled, dtype=np.int64)
    llc_rate = np.asarray(llc_rate, dtype=np.float64)
    noc_score = np.asarray(noc_score, dtype=np.float64)
    max_stall = np.asarray(max_stall, dtype=np.float64)
    turbo = np.asarray(turbo, dtype=bool)

    def clamp(values: np.ndarray) -> np.ndarray:
        return np.maximum(min_limit, np.minimum(max_limit, values))

    enabled = min_limit != max_limit
    normal = enabled & ~turbo

    # -- target selection (stall rule, demand bands, coupling) ----------
    rate = demand.traffic_loop_rate_per_us
    demand_target = np.maximum(
        _band_targets(demand.llc_bands, llc_rate / rate),
        _band_targets(demand.noc_bands, noc_score / rate),
    )
    stall_rule = (active > 0) & (
        stalled > ufs.stalled_fraction_trigger * active
    )
    target = np.where(
        stall_rule,
        max_limit,
        np.where(demand_target >= 0, clamp(demand_target), NO_TARGET),
    )

    coupled_binding = np.zeros(freq.shape, dtype=bool)
    if remote_mhz is not None:
        coupled = clamp(
            np.asarray(remote_mhz, dtype=np.int64) - coupling_lag_mhz
        )
        coupled_binding = ((target < 0) | (coupled > target)) & (
            coupled > ufs.active_idle_high_mhz
        )
        target = np.where(coupled_binding, coupled, target)

    # -- idle dither and the decrease-hysteresis veto -------------------
    no_target = target < 0
    advance = normal & no_target
    new_phase = np.where(advance, (phase + 1) % 4, phase)
    idle_target = clamp(
        np.where(
            new_phase == 0,
            np.int64(ufs.active_idle_low_mhz),
            np.int64(ufs.active_idle_high_mhz),
        )
    )
    veto = (
        advance
        & (idle_target < freq)
        & (max_stall > ufs.decrease_veto_stall_ratio)
    )
    idle_final = np.where(veto, freq, idle_target)
    heavy = ~no_target & (
        stall_rule | (target >= max_limit) | coupled_binding
    )
    effective = np.where(no_target, idle_final, target)

    # -- stepping (fast to the ceiling, slow otherwise) -----------------
    step = np.int64(ufs.step_mhz)
    increase = effective > freq
    decrease = effective < freq
    slow_gate = increase & ~heavy
    blocked = slow_gate & (countdown > 0)
    new_countdown = np.where(
        blocked,
        countdown - 1,
        np.where(
            slow_gate,
            np.int64(ufs.slow_step_periods - 1),
            np.where(increase, countdown, np.int64(0)),
        ),
    )
    stepped = np.where(
        increase & ~blocked,
        np.minimum(freq + step, effective),
        np.where(decrease, np.maximum(freq - step, effective), freq),
    )

    # -- overlay the turbo pin and the UFS-disabled fixed point ---------
    turbo_pin = turbo & enabled
    return UfsStepResult(
        freq_mhz=np.where(
            normal, stepped, np.where(turbo_pin, max_limit, freq)
        ),
        dither_phase=np.where(advance, new_phase, phase),
        slow_countdown=np.where(
            normal, new_countdown, np.where(turbo_pin, 0, countdown)
        ),
        target_mhz=np.where(
            normal, effective, np.where(turbo_pin, max_limit, freq)
        ),
        stall_rule=stall_rule & normal,
        heavy=np.where(normal, heavy, turbo_pin),
        turbo_pin=turbo_pin,
        veto=veto,
    )


class UfsPmu:
    """One socket's uncore frequency controller."""

    def __init__(
        self,
        *,
        socket_id: int,
        engine: Engine,
        cores: list[Core],
        ufs_config: UfsConfig,
        demand_config: DemandModelConfig,
        phase_ns: int = 0,
        remote_frequency: Callable[[], int] | None = None,
        coupling_lag_mhz: int = 100,
    ) -> None:
        ufs_config.validate()
        self.socket_id = socket_id
        self.engine = engine
        self.cores = cores
        self.config = ufs_config
        self.demand_model = DemandModel(demand_config)
        self.remote_frequency = remote_frequency
        self.coupling_lag_mhz = coupling_lag_mhz

        self.min_limit_mhz = ufs_config.min_freq_mhz
        self.max_limit_mhz = ufs_config.max_freq_mhz
        initial = self._clamp(ufs_config.active_idle_high_mhz)
        self.timeline = FrequencyTimeline(initial, engine.now)
        self._dither_phase = 0
        self._slow_step_countdown = 0
        self._last_eval_ns = engine.now
        self.snapshots: list[SocketSnapshot] = []
        self.keep_snapshots = False
        # Lifetime decision counters (telemetry harvest, Section 3.5's
        # observable control-law behaviour): plain ints, always on.
        self.evaluations = 0
        self.turbo_pins = 0
        self.stall_pins = 0
        self.decrease_vetoes = 0
        # Memo of the pure control step: input tuple -> unpacked result.
        self._step_memo: dict[tuple, tuple] = {}
        self._task = PeriodicTask(
            engine,
            ufs_config.period_ns,
            self._evaluate,
            phase_ns=phase_ns if phase_ns else ufs_config.period_ns,
            name=f"ufs-pmu-{socket_id}",
        )

    # -- public surface ------------------------------------------------------

    @property
    def current_mhz(self) -> int:
        """The uncore frequency right now."""
        return self.timeline.current_mhz

    @property
    def ufs_enabled(self) -> bool:
        """UFS is disabled when the MSR window collapses to one point."""
        return self.min_limit_mhz != self.max_limit_mhz

    def set_limits(self, min_mhz: int, max_mhz: int) -> None:
        """Apply an ``UNCORE_RATIO_LIMIT`` update (Section 6.1).

        Setting min == max fixes the frequency (UFS disabled); the
        frequency snaps into the new window immediately.
        """
        if min_mhz > max_mhz:
            raise ConfigError("uncore min limit exceeds max limit")
        self.min_limit_mhz = min_mhz
        self.max_limit_mhz = max_mhz
        clamped = self._clamp(self.current_mhz)
        if clamped != self.current_mhz:
            self.timeline.set_frequency(self.engine.now, clamped)

    def next_evaluation_ns(self) -> int | None:
        """Absolute time of the next PMU evaluation, or None if stopped."""
        if not self._task.running:
            return None
        return self._task.next_fire_time()

    def stop(self) -> None:
        """Halt periodic evaluation (end of experiment)."""
        self._task.stop()

    # -- internals --------------------------------------------------------------

    def _clamp(self, freq_mhz: int) -> int:
        return max(self.min_limit_mhz, min(self.max_limit_mhz, freq_mhz))

    def _observe(self, t0: int,
                 t1: int) -> tuple[int, int, float, float, float, bool]:
        """Integrate the core timelines over the observation window.

        Only the trailing ``observation_ns`` of the evaluation period is
        integrated — the PMU reacts to recent behaviour.  Also returns
        the maximum per-core window stall ratio, used by the
        decrease-hysteresis veto.

        A core that has been quiet (inactive, no LLC traffic) since
        before the window is left out.  Its window stats are exact
        zeros, so in the fold it would only add ``+0.0`` to the rates,
        take ``max(x, 0.0)`` on the stall residue and set no flag: the
        fold without it is bit-identical.
        """
        t0 = max(t0, t1 - self.config.observation_ns)
        samples = []
        for core in self.cores:
            since = core.timeline.quiet_since()
            if since is not None and since <= t0:
                continue
            samples.append((core.timeline.window_stats(t0, t1),
                            core.above_base))
        return accumulate_observation(
            samples, self.config.stall_ratio_threshold
        )

    def _evaluate(self) -> None:
        """One PMU evaluation: observe, choose a target, step.

        The decision itself is :func:`ufs_control_step` with
        shape-``(1,)`` arrays — the same pure function the batch backend
        drives with one element per trial, which is what makes the two
        backends bit-identical by construction.  Because the step is
        pure and the config, demand model and coupling lag are fixed per
        PMU, its unpacked result is memoized on the full scalar input
        tuple (limits included, so :meth:`set_limits` needs no
        invalidation).  A hit returns what the call would have
        returned; every tick still records, counts and steps the
        timeline.
        """
        now = self.engine.now
        t0, t1 = self._last_eval_ns, now
        self._last_eval_ns = now
        if t1 <= t0:
            return

        (active, stalled, llc_rate, noc_score, max_stall,
         turbo_active) = self._observe(t0, t1)
        remote = (None if self.remote_frequency is None
                  else self.remote_frequency())
        key = (self.current_mhz, self._dither_phase,
               self._slow_step_countdown, self.min_limit_mhz,
               self.max_limit_mhz, active, stalled, llc_rate, noc_score,
               max_stall, turbo_active, remote)
        decision = self._step_memo.get(key)
        if decision is None:
            decision = self._control_step(key)
            if len(self._step_memo) >= _STEP_MEMO_BOUND:
                self._step_memo.clear()
            self._step_memo[key] = decision
        (freq, self._dither_phase, self._slow_step_countdown, turbo_pin,
         veto, stall_rule, target, heavy) = decision
        if turbo_pin:
            self.turbo_pins += 1
        if veto:
            self.decrease_vetoes += 1
        self.timeline.set_frequency(now, freq)
        self._record(now, active, stalled, llc_rate, noc_score,
                     stall_rule, target, heavy)

    def _control_step(self, key: tuple) -> tuple:
        """Run :func:`ufs_control_step` on one input tuple, unpacked."""
        (freq, phase, countdown, min_limit, max_limit, active, stalled,
         llc_rate, noc_score, max_stall, turbo, remote) = key

        def ints(value: int) -> np.ndarray:
            return np.array([value], dtype=np.int64)

        def floats(value: float) -> np.ndarray:
            return np.array([value], dtype=np.float64)

        result = ufs_control_step(
            freq_mhz=ints(freq),
            dither_phase=ints(phase),
            slow_countdown=ints(countdown),
            min_limit_mhz=ints(min_limit),
            max_limit_mhz=ints(max_limit),
            active=ints(active),
            stalled=ints(stalled),
            llc_rate=floats(llc_rate),
            noc_score=floats(noc_score),
            max_stall=floats(max_stall),
            turbo=np.array([turbo], dtype=bool),
            remote_mhz=None if remote is None else ints(remote),
            ufs=self.config,
            demand=self.demand_model.config,
            coupling_lag_mhz=self.coupling_lag_mhz,
        )
        return (int(result.freq_mhz[0]), int(result.dither_phase[0]),
                int(result.slow_countdown[0]), bool(result.turbo_pin[0]),
                bool(result.veto[0]), bool(result.stall_rule[0]),
                int(result.target_mhz[0]), bool(result.heavy[0]))

    def _record(self, now: int, active: int, stalled: int, llc: float,
                noc: float, stall_rule: bool, target: int,
                heavy: bool) -> None:
        self.evaluations += 1
        if stall_rule:
            self.stall_pins += 1
        if self.keep_snapshots:
            self.snapshots.append(
                SocketSnapshot(
                    time_ns=now,
                    active_cores=active,
                    stalled_cores=stalled,
                    llc_rate_per_us=llc,
                    noc_score=noc,
                    stall_rule_triggered=stall_rule,
                    target_mhz=target,
                    heavy=heavy,
                    freq_mhz=self.current_mhz,
                )
            )
