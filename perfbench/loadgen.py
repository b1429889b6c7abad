"""Open-loop load generator for the ``served_sweeps`` workload.

Requests are sent on a fixed-rate schedule whether or not earlier ones
have been answered, so a slow daemon builds a queue instead of being
offered less load.  Each request's latency is measured from the time
it was *due*, so a stall also counts against the requests it delayed.
How late the generator itself started each request is reported too:
when that grows, the offered rate is no longer the stated one.

Run as its own process, so it never shares an interpreter lock with
the daemon::

    python3 perfbench/loadgen.py --port 8631 --seed 1 --seconds 20

The rate, the write share, the connections and the spec seeds are the
``served_sweeps`` ones in :mod:`workloads`.  The last line of stdout is
a JSON report.  ``src`` must be importable (``PYTHONPATH=src``).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import random
import sys
from dataclasses import dataclass

from benchstats import digest
from workloads import (SERVED_CONNECTIONS, SERVED_RATE_HZ,
                       SERVED_WRITE_SHARE, served_seeds)

#: The ``bench_service.py`` request shape.
SWEEP_PARAMS = {"bits": 12, "intervals_ms": [30.0, 40.0],
                "cross_processor": False}
SWEEP_BACKEND = "batch"
#: How often a request polls for a result that is still being
#: computed.  The client's default (20 ms) would quantize every write's
#: latency to whole polls; this resolves the daemon's own time.
POLL_S = 0.002


@dataclass(frozen=True)
class Arrival:
    """One scheduled request."""

    at_s: float         # offset from the start of the schedule
    kind: str           # "read" (a pre-warmed spec) or "write" (fresh)
    spec_seed: int


def open_loop_schedule(rate_hz: float, seconds: float, seed: int, *,
                       warm_seeds, fresh_base: int,
                       write_share: float) -> list[Arrival]:
    """Fixed-rate arrivals over ``seconds``; the same seed, the same
    schedule.

    Every ``round(1 / write_share)``-th arrival, from a seeded phase,
    is a write (a fresh spec seed, never repeated); the others read a
    seeded choice of ``warm_seeds``.  Writes are evenly spaced so that
    the tail is not set by how many happen to overlap in one run.
    """
    if rate_hz <= 0 or seconds <= 0 or not 0 < write_share <= 1:
        raise ValueError("rate, duration and write share must be positive")
    rng = random.Random(seed)
    warm = list(warm_seeds)
    block = round(1 / write_share)
    phase = rng.randrange(block)
    arrivals = []
    fresh = 0
    for index in range(int(rate_hz * seconds)):
        if index % block == phase:
            arrivals.append(Arrival(index / rate_hz, "write",
                                    fresh_base + fresh))
            fresh += 1
        else:
            arrivals.append(Arrival(index / rate_hz, "read",
                                    rng.choice(warm)))
    return arrivals


def sweep_spec(spec_seed: int):
    from repro.service.protocol import JobSpec

    return JobSpec(experiment="capacity_sweep", params=SWEEP_PARAMS,
                   seed=spec_seed, backend=SWEEP_BACKEND)


async def drive(port: int, arrivals: list[Arrival],
                connections: int) -> dict:
    """Send every arrival on schedule; the per-request report."""
    from repro.errors import ReproError
    from repro.service.client import AsyncServiceClient

    loop = asyncio.get_running_loop()
    clients = [AsyncServiceClient(port, max_backoffs=0)
               for _ in range(connections)]
    rows: list = [None] * len(arrivals)
    payloads: dict[int, dict] = {}
    inflight = 0
    max_inflight = 0
    start = loop.time() + 0.05

    async def one(index: int, arrival: Arrival) -> None:
        nonlocal inflight, max_inflight
        due = start + arrival.at_s
        late = loop.time() - due
        inflight += 1
        max_inflight = max(max_inflight, inflight)
        error = None
        payload_digest = None
        client = clients[index % connections]
        try:
            record = await client.submit(sweep_spec(arrival.spec_seed))
            payload = (await client.result(
                record["job_id"], poll_s=POLL_S, timeout=60.0))["result"]
            payload_digest = digest(payload)
            payloads.setdefault(arrival.spec_seed, payload)
        except (ReproError, OSError, asyncio.IncompleteReadError,
                ValueError) as exc:
            error = f"{type(exc).__name__}: {exc}"
        inflight -= 1
        rows[index] = [arrival.kind, arrival.spec_seed, late,
                       loop.time() - due, payload_digest, error]

    tasks = []
    try:
        for index, arrival in enumerate(arrivals):
            delay = start + arrival.at_s - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            tasks.append(asyncio.create_task(one(index, arrival)))
        await asyncio.gather(*tasks)
    finally:
        for client in clients:
            await client.close()
    return {
        "requests": rows,
        "payloads": {str(seed): p for seed, p in payloads.items()},
        "max_inflight": max_inflight,
        "phase_s": loop.time() - start,
        "connections": connections,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    warm, fresh_base = served_seeds(args.seed)
    arrivals = open_loop_schedule(
        SERVED_RATE_HZ, args.seconds, args.seed, warm_seeds=warm,
        fresh_base=fresh_base, write_share=SERVED_WRITE_SHARE,
    )
    # Never more connections than processors.
    connections = max(1, min(SERVED_CONNECTIONS, os.cpu_count() or 1))
    report = asyncio.run(drive(args.port, arrivals, connections))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
