"""The four benchmark workloads.

Each simulation workload is a function ``rep(seed, tracer)`` that runs
one copy of a paper artifact and returns a :class:`Rep`: its checked
operations, its result digest and the host time of each operation.
``served_sweeps`` drives ``repro serve`` instead: :class:`Daemon`,
:func:`warm_store`, :func:`run_loadgen` and :func:`check_served`.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from benchstats import digest

#: The benchmark's scratch directory, inside the checkout.
WORK = Path(__file__).resolve().parent.parent / ".perfbench"

#: Fig. 10: the gate intervals, 40 bits, both deployments, DES.
FIG10_INTERVALS_MS = (38.0, 28.0, 21.0, 15.0, 12.0)
FIG10_BITS = 40
#: Table 3: every row in the randomized-LLC column, 24 bits.
TABLE3_SCENARIO = "random_llc"
TABLE3_BITS = 24
#: Fig. 12: long-lived collection into a trace store, a warm
#: re-collection from it, then RNN + kNN.
FIG12_SITES = 5
FIG12_TRAIN_VISITS = 3
FIG12_TEST_VISITS = 2
FIG12_TRACE_MS = 5_000.0
#: Lowest kNN top-1 accuracy of a correct Fig. 12 study (chance is
#: ``1 / FIG12_SITES``).  The kNN classifier is deterministic and
#: needs no training, so it checks that the traces carry the sites'
#: signal; the RNN's accuracy goes into the digest.
FIG12_MIN_KNN_TOP1 = 0.5


@dataclass
class Rep:
    """One repetition of an artifact."""

    digest: str
    attempted: int
    failed: int
    op_s: list[float]
    notes: dict = field(default_factory=dict)


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def fig10_rep(seed: int, tracer=None) -> Rep:
    """Both Fig. 10 curves on DES; each sweep point is one operation.

    Every point is a pure function of its interval and the seed, so the
    curve is swept one interval at a time and put back together.
    """
    from repro.core.evaluation import SweepResult, capacity_sweep
    from repro.errors import ConfigError

    sweeps, op_s, failed = [], [], 0
    for cross_processor in (False, True):
        points = []
        for interval_ms in FIG10_INTERVALS_MS:
            (point,), seconds = _timed(
                capacity_sweep, intervals_ms=(interval_ms,),
                bits=FIG10_BITS, cross_processor=cross_processor,
                seed=seed, workers=1, backend="des",
            )
            op_s.append(seconds)
            points.append(point)
            try:
                point.validate()
            except ConfigError:
                failed += 1
        sweeps.append(SweepResult(points=tuple(points)))
    return Rep(_sweeps_digest(sweeps), len(op_s), failed, op_s)


def _sweeps_digest(sweeps) -> str:
    """sha256 of the sweeps' ``SweepResult.to_json()``, in order."""
    text = "\n".join(sweep.to_json() for sweep in sweeps)
    return hashlib.sha256(text.encode()).hexdigest()


def fig10_batch_digest(seed: int) -> str:
    """Digest of the batch backend's sweeps, which must equal DES."""
    from repro.core.evaluation import capacity_sweep

    return _sweeps_digest(
        capacity_sweep(intervals_ms=FIG10_INTERVALS_MS, bits=FIG10_BITS,
                       cross_processor=cross_processor, seed=seed,
                       workers=1, backend="batch")
        for cross_processor in (False, True)
    )


def table3_rep(seed: int, tracer=None) -> Rep:
    """Every Table 3 row in one column; each cell is one operation.

    A cell whose functional mark differs from the repo's Table 3
    reference counts as failed.
    """
    from layers import CELL_SPANS, TABLE3_ROWS

    from repro.channels import ALL_CHANNELS, evaluate_channel
    from repro.channels.comparison import EXTENDED_TABLE3, PAPER_TABLE3
    from repro.channels.scenarios import scenario_by_key

    if tuple(c.name for c in ALL_CHANNELS) != TABLE3_ROWS:
        raise RuntimeError("Table 3 rows changed: update layers.TABLE3_ROWS")
    expected = {**PAPER_TABLE3, **EXTENDED_TABLE3}
    scenario = scenario_by_key(TABLE3_SCENARIO)
    cells, op_s, failed, mismatches = [], [], 0, []
    for channel_cls, span in zip(ALL_CHANNELS, CELL_SPANS):
        with (tracer.span(span) if tracer else contextlib.nullcontext()):
            cell, seconds = _timed(evaluate_channel, channel_cls, scenario,
                                   bits=TABLE3_BITS, seed=seed)
        op_s.append(seconds)
        cells.append([cell.channel, cell.scenario, cell.functional,
                      cell.error_rate, cell.note])
        bad_rate = cell.error_rate is not None and not (
            0.0 <= cell.error_rate <= 1.0)
        if expected[cell.channel][TABLE3_SCENARIO] != cell.functional:
            mismatches.append(cell.channel)
        if bad_rate or cell.channel in mismatches:
            failed += 1
    return Rep(digest(cells), len(cells), failed, op_s,
               {"paper_mismatches": mismatches})


def _traces_digest(traces) -> tuple[str, int]:
    """sha256 of the traces in order, and how many are malformed."""
    blob = hashlib.sha256()
    malformed = 0
    for trace in traces:
        times = np.asarray(trace.times_ms, dtype=np.float64)
        freqs = np.asarray(trace.freqs_mhz, dtype=np.float64)
        blob.update(int(trace.label).to_bytes(4, "little", signed=True))
        blob.update(times.tobytes())
        blob.update(freqs.tobytes())
        if (len(times) == 0 or not 0 <= trace.label < FIG12_SITES
                or not np.all(np.isfinite(freqs))):
            malformed += 1
    return blob.hexdigest(), malformed


def fig12_rep(seed: int, tracer=None) -> Rep:
    """Collection into a fresh trace store, a warm re-collection from
    it, then the classifier study, as one operation.

    A visit is 0.2-0.3 s, and host speed on a shared VM switches
    between two levels for seconds at a time, so the median visit jumps
    between them: over ten seeds it spread by 0.27 of its median, the
    whole study by 0.16.

    Every visit is an attempted operation.  A malformed trace fails its
    visit; a warm dataset that differs from the collected one fails
    every visit; a study below :data:`FIG12_MIN_KNN_TOP1` fails every
    test visit.
    """
    from repro.sidechannel import collect_dataset, run_fingerprinting_study

    params = dict(num_sites=FIG12_SITES, train_visits=FIG12_TRAIN_VISITS,
                  test_visits=FIG12_TEST_VISITS, trace_ms=FIG12_TRACE_MS,
                  seed=seed, workers=1)
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as store:
        start = time.perf_counter()
        # A miss: simulates every visit, then encodes and stores them.
        dataset = collect_dataset(**params, cache_dir=store)
        # A hit: fetches and decodes the stored dataset.
        warm = collect_dataset(**params, cache_dir=store)
        result = run_fingerprinting_study(dataset, seed=seed)
        study_s = time.perf_counter() - start
    traces = list(dataset.train) + list(dataset.test)
    visits = FIG12_SITES * (FIG12_TRAIN_VISITS + FIG12_TEST_VISITS)
    traces_digest, failed = _traces_digest(traces)
    failed += abs(visits - len(traces))
    if _traces_digest(list(warm.train) + list(warm.test))[0] != \
            traces_digest or len(warm.train) != len(dataset.train):
        failed = visits
    if not (result.knn_top1 >= FIG12_MIN_KNN_TOP1
            and 0.0 <= result.top1 <= result.top5 <= 1.0):
        failed += len(dataset.test)
    return Rep(digest([traces_digest, result.top1, result.top5]), visits,
               min(failed, visits), [study_s],
               {"top1": result.top1, "top5": result.top5,
                "knn_top1": result.knn_top1})


SIM_WORKLOADS = {
    "fig10_sweep": fig10_rep,
    "table3_column": table3_rep,
    "fig12_study": fig12_rep,
}

#: Seconds of ``--seconds`` given to each repetition.  A run makes
#: ``max(1, seconds // REP_BUDGET_S)`` repetitions: a number fixed by
#: ``--seconds`` alone, so two commits do the same work per run, and
#: peak RSS, which grows with each repetition, is compared like for
#: like.  At ``--seconds 24`` that is 3, 2 and 2 repetitions, which
#: take about 9, 17 and 9 s each on a 2-core VM.  The Fig. 10 and
#: Table 3 runs then time 30 sweep points and 28 cells, enough for a
#: latency tail above the median.
REP_BUDGET_S = {
    "fig10_sweep": 8.0,
    "table3_column": 12.0,
    "fig12_study": 12.0,
}

#: What a fresh interpreter imports before a workload's first timed
#: operation.
SETUP_IMPORTS = {
    "fig10_sweep": "repro.core.evaluation",
    "table3_column": "repro.channels, repro.channels.scenarios",
    "fig12_study": "repro.sidechannel",
}


def time_setup(workload: str, src: Path, env: dict) -> float:
    """Host seconds for a fresh interpreter to import the workload."""
    code = (f"import sys; sys.path.insert(0, {str(src)!r}); "
            f"import {SETUP_IMPORTS[workload]}")
    start = time.perf_counter()
    # No timeout: with one, the wait polls and rounds the time up.
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
    return time.perf_counter() - start


# -- served_sweeps ---------------------------------------------------

#: Offered load: fixed-rate arrivals, 10 % fresh specs (writes).
SERVED_RATE_HZ = 50.0
SERVED_WRITE_SHARE = 0.1
SERVED_WARM_SPECS = 16
SERVED_CONNECTIONS = 2


def served_seeds(seed: int) -> tuple[list[int], int]:
    """Pre-warmed spec seeds and the first fresh one for a run."""
    base = 100_000 * (seed + 1)
    warm = [base + i for i in range(SERVED_WARM_SPECS)]
    return warm, base + SERVED_WARM_SPECS


class Daemon:
    """``repro serve`` as a child process."""

    def __init__(self, store: Path, src: Path, env: dict,
                 log: Path) -> None:
        self._log = open(log, "ab")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--store", str(store)],
            env=dict(env, PYTHONPATH=str(src)), stdout=subprocess.PIPE,
            stderr=self._log, text=True,
        )
        line = self.proc.stdout.readline()
        if "listening on" not in line:
            self.stop()
            raise RuntimeError(f"daemon did not start: {line!r}")
        self.port = int(line.split("http://", 1)[1].split()[0]
                        .rsplit(":", 1)[1])

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """Shut down gracefully, or kill; waits until it has exited."""
        from repro.errors import ReproError
        from repro.service.client import ServiceClient

        if self._log.closed:
            return
        try:
            if self.proc.poll() is None and hasattr(self, "port"):
                with ServiceClient(self.port) as client:
                    client.shutdown()
                self.proc.communicate(timeout=60)
        except (ReproError, OSError, subprocess.TimeoutExpired):
            pass
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
            self.proc.communicate()
            self._log.close()


def warm_store(port: int, warm: list[int]) -> None:
    """Compute every pre-warmed spec once, filling the store."""
    from loadgen import POLL_S, sweep_spec

    from repro.service.client import ServiceClient

    with ServiceClient(port, max_backoffs=0) as client:
        for spec_seed in warm:
            record = client.submit(sweep_spec(spec_seed))
            client.result(record["job_id"], poll_s=POLL_S, timeout=120.0)


def run_loadgen(port: int, seed: int, seconds: float, env: dict,
                src: Path) -> dict:
    """One open-loop phase from a separate generator process."""
    here = Path(__file__).resolve().parent
    proc = subprocess.run(
        [sys.executable, str(here / "loadgen.py"), "--port", str(port),
         "--seconds", str(seconds), "--seed", str(seed)],
        env=dict(env, PYTHONPATH=f"{src}{os.pathsep}{here}"),
        capture_output=True, text=True, timeout=seconds + 120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"load generator failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_served(report: dict) -> tuple[int, list[str]]:
    """Failed requests: errors, and payloads that differ from the
    in-process ``capacity_sweep`` for their spec."""
    from loadgen import SWEEP_BACKEND, SWEEP_PARAMS

    from repro.core.evaluation import capacity_sweep
    from repro.service.jobs import sweep_from_payload

    good_digest = {}
    for seed_text, payload in report["payloads"].items():
        direct = capacity_sweep(
            intervals_ms=tuple(SWEEP_PARAMS["intervals_ms"]),
            bits=SWEEP_PARAMS["bits"],
            cross_processor=SWEEP_PARAMS["cross_processor"],
            seed=int(seed_text), backend=SWEEP_BACKEND,
        )
        if sweep_from_payload(payload) == direct:
            good_digest[int(seed_text)] = digest(payload)
    failed, errors = 0, []
    for _kind, spec_seed, _late, _lat, payload_digest, error in \
            report["requests"]:
        if error is not None or good_digest.get(spec_seed) != payload_digest:
            failed += 1
            errors.append(error or f"seed {spec_seed}: wrong payload")
    return failed, errors
