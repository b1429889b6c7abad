"""The repo's benchmark: paper artifacts and the served path.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fig10_sweep --seed 1 \\
        --seconds 24 --trace 0

Workloads: ``fig10_sweep``, ``table3_column``, ``fig12_study`` and
``served_sweeps`` (see ``perfbench/README.md``).  ``--trace 0`` measures
the end-to-end metrics with nothing wrapped; ``--trace 1`` wraps each
layer's public calls and reports the per-layer split instead.

Human-readable lines go to stdout first; the last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
A fuller report is written to ``.perfbench/last-<workload>.json``.
"""

from __future__ import annotations

import os

# Pin the environment before the program is imported: these variables
# silently change the simulator backend, the parallelism or the scale.
CLEARED_ENV = sorted(name for name in os.environ
                     if name.startswith("REPRO_"))
for _name in CLEARED_ENV:
    del os.environ[_name]
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

from benchstats import digest, median, tail_percentile  # noqa: E402
from workloads import WORK  # noqa: E402

WORKLOADS = ("fig10_sweep", "table3_column", "fig12_study",
             "served_sweeps")

#: End-to-end metrics: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
}

#: Set-up repetitions per run; ``setup_s`` is their median.
SETUP_REPEATS = 5


def environment() -> dict:
    """What the numbers were measured on."""
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or None
    except OSError:
        commit = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "cleared_env": CLEARED_ENV,
    }


def install_probe():
    """A tracer with every layer's wrappers installed, and its probe."""
    from layers import LayerProbe
    from spans import Tracer

    tracer = Tracer()
    probe = LayerProbe(tracer)
    probe.install()
    return tracer, probe


def overhead_s(tracer) -> float:
    return tracer.call_cost_s() * sum(tracer.calls.values())


def run_sim(workload: str, seed: int, seconds: float, trace: bool,
            env: dict) -> dict:
    import importlib

    import workloads as wl

    from repro.telemetry import using

    setup = [] if trace else [wl.time_setup(workload, SRC, env)
                              for _ in range(SETUP_REPEATS)]
    for module in wl.SETUP_IMPORTS[workload].split(","):
        importlib.import_module(module.strip())
    rep_fn = wl.SIM_WORKLOADS[workload]
    tracer = registry = None
    if trace:
        from repro.telemetry import MetricsRegistry

        tracer, probe = install_probe()
        registry = MetricsRegistry()

    reps, walls = [], []
    for _ in range(max(1, int(seconds // wl.REP_BUDGET_S[workload]))):
        with using(registry) if registry else contextlib.nullcontext():
            rep_start = time.perf_counter()
            reps.append(rep_fn(seed, tracer))
            walls.append(time.perf_counter() - rep_start)
    if tracer is not None:
        tracer.restore()

    attempted = sum(rep.attempted for rep in reps)
    failed = sum(rep.failed for rep in reps)
    notes = {"reps": len(reps), "rep_digests": [r.digest for r in reps]}
    # Same seed, same result: a repetition that differs is wrong.
    failed += sum(rep.attempted for rep in reps[1:]
                  if rep.digest != reps[0].digest)
    if workload == "fig10_sweep":
        notes["batch_matches_des"] = (
            wl.fig10_batch_digest(seed) == reps[0].digest)
        if not notes["batch_matches_des"]:
            failed += reps[0].attempted
    notes.update(reps[0].notes)

    if trace:
        metrics = probe.metrics(
            wall_s=sum(walls), reps=len(reps),
            registry_counters=registry.snapshot()["counters"],
            overhead_s=overhead_s(tracer),
        )
    else:
        op_s = [s for rep in reps for s in rep.op_s]
        tail_pct, tail_s, count = tail_percentile(op_s)
        notes["latency_tail"] = f"p{tail_pct:g} of {count} operations"
        metrics = {
            "setup_s": median(setup),
            "wall_s": median(walls),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "latency_p50_ms": 1e3 * median(op_s),
            "latency_tail_ms": 1e3 * tail_s,
        }
        notes["setup_samples_s"] = setup
        notes["wall_samples_s"] = walls
    return {"attempted": attempted, "failed": failed,
            "result_digest": reps[0].digest, "metrics": metrics,
            "notes": notes}


def _histogram_bucket(hist: dict, fraction: float) -> float | None:
    """Upper edge of the bucket holding the ``fraction`` quantile."""
    total = sum(hist["counts"])
    running = 0
    for index, count in enumerate(hist["counts"]):
        running += count
        if total and running >= fraction * total:
            edges = hist["edges"]
            return edges[index] if index < len(edges) else float("inf")
    return None


def run_served(seed: int, seconds: float, trace: bool, env: dict) -> dict:
    import workloads as wl

    work = WORK / f"served-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    warm, _fresh = wl.served_seeds(seed)
    notes: dict = {}
    try:
        if not trace:
            setup, daemons = [], []
            try:
                for index in range(SETUP_REPEATS):
                    start = time.perf_counter()
                    daemons.append(wl.Daemon(work / f"store-{index}", SRC,
                                             env, work / "daemon.log"))
                    wl.warm_store(daemons[-1].port, warm)
                    setup.append(time.perf_counter() - start)
                daemon = daemons[-1]
                for spare in daemons[:-1]:
                    spare.stop()
                report = wl.run_loadgen(daemon.port, seed, seconds, env, SRC)
                rss_mb = daemon.peak_rss_mb()
            finally:
                for daemon in daemons:
                    daemon.stop()
            notes["setup_samples_s"] = setup
        else:
            from repro.service.daemon import ServiceConfig, ServiceThread
            from repro.telemetry import MetricsRegistry

            registry = MetricsRegistry()
            config = ServiceConfig(store_root=work / "store")
            with ServiceThread(config, registry=registry) as service:
                wl.warm_store(service.port, warm)
                before = registry.snapshot()
                tracer, probe = install_probe()
                start = time.perf_counter()
                try:
                    report = wl.run_loadgen(service.port, seed, seconds,
                                            env, SRC)
                finally:
                    traced_wall = time.perf_counter() - start
                    tracer.restore()
                after = registry.snapshot()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed, errors = wl.check_served(report)
    rows = report["requests"]
    latency = [row[3] for row in rows]
    late = [row[2] for row in rows]
    gap_s = 1.0 / wl.SERVED_RATE_HZ
    # Lateness at the same percentile as the reported latency tail.
    late_tail = tail_percentile(late)[1]
    notes.update({
        "errors": errors[:5],
        "requests": len(rows),
        "writes": sum(row[0] == "write" for row in rows),
        "connections": report["connections"],
        "max_inflight": report["max_inflight"],
        "late_tail_ms": 1e3 * late_tail,
        # The generator fell behind when its own lateness at the tail
        # reaches one inter-arrival gap: the offered rate is no longer
        # the stated one.
        "valid": late_tail < gap_s,
    })
    good = sorted({(row[1], row[4]) for row in rows if row[5] is None})
    if trace:
        counters = {
            name: value - before["counters"].get(name, 0)
            for name, value in after["counters"].items()
        }
        hist_after = after["histograms"]["service.latency_ms"]
        hist_before = before["histograms"]["service.latency_ms"]
        served_count = hist_after["count"] - hist_before["count"]
        served_sum = hist_after["sum"] - hist_before["sum"]
        hist = dict(hist_after, counts=[
            a - b for a, b in zip(hist_after["counts"],
                                  hist_before["counts"])])
        notes["daemon_latency_bucket_ms"] = {
            "p50": _histogram_bucket(hist, 0.50),
            "p99": _histogram_bucket(hist, 0.99),
        }
        client_mean_ms = 1e3 * sum(latency) / len(latency)
        metrics = probe.metrics(
            wall_s=traced_wall, reps=1, registry_counters=counters,
            overhead_s=overhead_s(tracer),
            served={
                "late_s": late, "gap_s": gap_s,
                "max_inflight": report["max_inflight"],
                "server_share_pct": 100.0 * (served_sum / served_count)
                / client_mean_ms if served_count else 0.0,
            },
        )
    else:
        tail_pct, tail_s, count = tail_percentile(latency)
        notes["latency_tail"] = f"p{tail_pct:g} of {count} requests"
        metrics = {
            "setup_s": median(setup),
            "wall_s": report["phase_s"],
            "peak_rss_mb": rss_mb,
            "latency_p50_ms": 1e3 * median(latency),
            "latency_tail_ms": 1e3 * tail_s,
        }
    return {"attempted": len(rows), "failed": failed,
            "result_digest": digest(good), "metrics": metrics,
            "notes": notes}


def _non_negative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be a non-negative integer")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark the paper artifacts and the served path.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=_non_negative, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}/repro; run from the "
              f"root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"error: imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    env = dict(os.environ)
    trace = bool(args.trace)
    if args.workload == "served_sweeps":
        result = run_served(args.seed, args.seconds, trace, env)
    else:
        result = run_sim(args.workload, args.seed, args.seconds, trace, env)

    from layers import PER_LAYER

    units = ({name: unit for name, (unit, _b) in PER_LAYER.items()}
             if trace else END_TO_END)
    correct = result["failed"] == 0 and result["notes"].get("valid", True)
    report = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "environment": environment(), **result, "correct": correct,
    }
    WORK.mkdir(exist_ok=True)
    (WORK / f"last-{args.workload}.json").write_text(
        json.dumps(report, indent=2, default=str) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}  result_digest {result['result_digest']}")
    print(f"environment {json.dumps(report['environment'])}")
    print(f"notes {json.dumps(result['notes'], default=str)}")
    for name, value in result["metrics"].items():
        print(f"  {name:34s} {value:14.6g} {units[name]}")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
