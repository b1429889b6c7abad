"""Which public calls of each layer the traced run wraps, and the
per-layer metrics it reports.

Every layer time is a *self time* (see :mod:`spans`) reported as a
share of the traced wall time, so the shares plus ``unattributed_pct``
add up to 100.  Counts come from the wrapped calls themselves or from
the program's own telemetry registry, read after the run.
"""

from __future__ import annotations

import re
import weakref
from collections import Counter

from benchstats import tail_percentile

#: Table 3 rows, in order (the names ``evaluate_channel`` reports).
TABLE3_ROWS = (
    "Flush+Reload", "Flush+Flush", "Reload+Refresh", "Prime+Probe",
    "Prime+Abort", "SPP", "Mesh-contention", "Ring-contention",
    "IccCoresCovert", "Uncore-idle", "UF-variation", "TurboCC",
    "IChannels", "ClockModCovert",
)


def row_slug(row: str) -> str:
    return re.sub(r"[^a-z0-9]+", "_", row.lower()).strip("_")


#: Span name -> (module, owner, attributes).  ``owner`` is a class name
#: in ``module``, or ``None`` for module-level functions.
WRAPPED = {
    "platform.build": ("repro.platform.system", "System", ("__init__",)),
    "cache.eviction.build": ("repro.cache.eviction", "EvictionListBuilder", (
        "build_l2_list", "build_llc_set_list", "build_slice_working_set",
        "build_l2_set_group", "build_measurement_list")),
    "cache.bulk_load": ("repro.platform.actor", "Actor", ("bulk_load",)),
    "cache.probe": ("repro.platform.actor", "Actor",
                    ("measure_window", "probe_frequency_mhz")),
    "power.ufs.step": ("repro.power.ufs", None, ("ufs_control_step",)),
    "power.ufs.observe": ("repro.power.ufs", None,
                          ("accumulate_observation",)),
    "cpu.activity.window_stats": ("repro.cpu.activity", "ProfileTimeline",
                                  ("window_stats",)),
    "engine.run": ("repro.engine.simulator", "Engine",
                   ("run_until", "run", "step")),
    "core.receive": ("repro.core.receiver", "UFReceiver", ("receive_bit",)),
    "sidechannel.collect": ("repro.sidechannel.tracer",
                            "FrequencyTraceCollector", ("collect",)),
    "sidechannel.fit": ("repro.sidechannel.rnn", "RnnClassifier", ("fit",)),
    "sidechannel.knn": ("repro.sidechannel.knn", "KnnClassifier",
                        ("fit", "predict_scores")),
    "trace.encode": ("repro.trace.format", None, ("encode_record",)),
    "trace.decode": ("repro.trace.format", None, ("decode_record",)),
    "trace.store.put": ("repro.trace.store", "TraceStore", ("put",)),
    "trace.store.fetch": ("repro.trace.store", "TraceStore", ("fetch",)),
    "service.cache.get": ("repro.service.store", "ResultCache", ("get",)),
    "service.cache.put": ("repro.service.store", "ResultCache", ("put",)),
    "service.compute": ("repro.service.jobs", None,
                        ("execute_instrumented",)),
    "fastpath.batch": ("repro.fastpath.batch", None,
                       ("batch_capacity_points",)),
}

#: Spans the benchmark opens itself, around each Table 3 cell.
CELL_SPANS = tuple(f"channels.{row_slug(row)}.cell" for row in TABLE3_ROWS)

#: Every per-layer metric: name -> (unit, better).
PER_LAYER = {
    "traced_wall_s": ("s", "lower"),
    "unattributed_pct": ("%", "lower"),
    "trace_overhead_pct": ("%", "lower"),
    **{f"{span}_pct": ("%", "lower") for span in WRAPPED},
    **{f"{span}_pct": ("%", "lower") for span in CELL_SPANS},
    "platform.builds": ("count", "lower"),
    "cache.eviction.builds": ("count", "lower"),
    "cache.eviction.candidates": ("count", "lower"),
    "cache.eviction.yield": ("ratio", "higher"),
    "cache.bulk_lines": ("count", "lower"),
    "cache.accesses": ("count", "lower"),
    "cache.llc_misses": ("count", "lower"),
    "power.ufs.evaluations": ("count", "lower"),
    "power.modulation.ticks": ("count", "lower"),
    "engine.events": ("count", "lower"),
    "core.bits": ("count", "higher"),
    "sidechannel.traces": ("count", "higher"),
    "trace.bytes": ("count", "lower"),
    "service.queue.submitted": ("count", "higher"),
    "service.cache.hit_ratio": ("ratio", "higher"),
    "service.server_share_pct": ("%", "lower"),
    "fastpath.batch.trials": ("count", "higher"),
    "loadgen.late_tail_pct": ("%", "lower"),
    "loadgen.sent": ("count", "higher"),
    "loadgen.max_inflight": ("count", "lower"),
}


class LayerProbe:
    """Installs the wrappers on a :class:`spans.Tracer` and turns what
    they saw into the per-layer metrics."""

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.counts: Counter[str] = Counter()
        # Candidates each builder had already counted, keyed weakly so
        # that a freed builder's entry cannot pass to a new one.
        self._candidates: weakref.WeakKeyDictionary = \
            weakref.WeakKeyDictionary()

    def install(self) -> None:
        import importlib

        hooks = {
            "cache.eviction.build": self._after_eviction,
            "cache.bulk_load": self._after_bulk_load,
            "trace.encode": self._after_encode,
        }
        for span, (module_name, owner_name, attrs) in WRAPPED.items():
            module = importlib.import_module(module_name)
            owner = module if owner_name is None else getattr(
                module, owner_name)
            for attr in attrs:
                # A nested build (the measurement list builds an L2
                # list) counts once, through the inner call.
                after = None if attr == "build_measurement_list" \
                    else hooks.get(span)
                self.tracer.patch(owner, attr, span, after)
        from repro.platform.system import System

        self.tracer.patch(System, "stop", "platform.stop",
                          self._after_stop)

    # -- counters fed by the wrappers -------------------------------

    def _after_eviction(self, args, result) -> None:
        builder = args[0]
        seen = self._candidates.get(builder, 0)
        self._candidates[builder] = builder.candidate_count
        self.counts["cache.eviction.builds"] += 1
        self.counts["cache.eviction.candidates"] += (
            builder.candidate_count - seen)
        self.counts["cache.eviction.lines"] += len(result)

    def _after_bulk_load(self, args, result) -> None:
        self.counts["cache.bulk_lines"] += len(args[1])

    def _after_encode(self, args, result) -> None:
        self.counts["trace.bytes"] += len(result)

    def _after_stop(self, args, result) -> None:
        for socket in args[0].sockets:
            if socket.modulation_active:
                unit = socket.modulation
                self.counts["power.modulation.ticks"] += (
                    unit.turbo.evaluations + unit.current.evaluations
                    + unit.clockmod.windows)

    # -- the report -------------------------------------------------

    def metrics(self, *, wall_s: float, reps: int, registry_counters: dict,
                overhead_s: float, served: dict | None = None) -> dict:
        """Per-layer metrics for a traced window of ``wall_s`` seconds
        that ran ``reps`` repetitions (counts are per repetition)."""
        tracer = self.tracer
        layers = list(WRAPPED) + list(CELL_SPANS)
        out = {"traced_wall_s": wall_s / reps}
        for span in layers:
            out[f"{span}_pct"] = 100.0 * tracer.self_s[span] / wall_s
        # The System.stop hook is not a layer: its self time stays in
        # the remainder.
        out["unattributed_pct"] = 100.0 - sum(
            out[f"{span}_pct"] for span in layers)
        out["trace_overhead_pct"] = 100.0 * overhead_s / max(
            wall_s - overhead_s, 1e-9)

        counts = Counter(self.counts)
        counts["platform.builds"] = tracer.calls["platform.build"]
        counts["power.ufs.evaluations"] = tracer.calls["power.ufs.step"]
        counts["core.bits"] = tracer.calls["core.receive"]
        counts["sidechannel.traces"] = tracer.calls["sidechannel.collect"]
        reg = registry_counters
        counts["cache.accesses"] = reg.get("cache.loads", 0)
        counts["cache.llc_misses"] = (reg.get("cache.remote_hits", 0)
                                      + reg.get("cache.dram_fills", 0))
        counts["engine.events"] = reg.get("engine.events_fired", 0)
        counts["service.queue.submitted"] = reg.get(
            "service.queue.submitted", 0)
        counts["fastpath.batch.trials"] = reg.get("fastpath.batch.trials", 0)
        hits = reg.get("service.cache.hits", 0)
        misses = reg.get("service.cache.misses", 0)
        out["service.cache.hit_ratio"] = hits / (hits + misses) \
            if hits + misses else 0.0
        lines = counts.pop("cache.eviction.lines", 0)
        candidates = counts["cache.eviction.candidates"]
        out["cache.eviction.yield"] = lines / candidates if candidates \
            else 0.0

        served = served or {}
        out["service.server_share_pct"] = served.get("server_share_pct", 0.0)
        late = served.get("late_s")
        out["loadgen.late_tail_pct"] = (
            100.0 * tail_percentile(late)[1] / served["gap_s"]
            if late else 0.0)
        counts["loadgen.sent"] = len(late or ())
        counts["loadgen.max_inflight"] = served.get("max_inflight", 0)

        for name, (unit, _better) in PER_LAYER.items():
            if unit == "count":
                out[name] = counts.get(name, 0) / reps
        return {name: out[name] for name in PER_LAYER}
