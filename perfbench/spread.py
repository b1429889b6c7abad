"""Run-to-run spread of the end-to-end metrics.

Runs the benchmark once per seed on one workload and prints, per
metric, the median over the runs and the inter-quartile distance as a
share of the median (``statistics.quantiles(values, n=4)``)::

    python3 perfbench/spread.py --workload fig10_sweep --seeds 1-10

Compare each spread with a third of the metric's ``bound`` in
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from benchstats import median, quartile_spread

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(part) for part in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(part) for part in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    runs = []
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(spec["run_seconds"]), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} " + " ".join(
            f"{name}={m['value']:.6g}"
            for name, m in result["metrics"].items()), flush=True)

    print(f"\n{'metric':34s} {'median':>12s} {'spread':>8s} {'bound/3':>8s}")
    for name in runs[0]["metrics"]:
        values = [run["metrics"][name]["value"] for run in runs]
        spread = quartile_spread(values) if len(values) > 1 else 0.0
        bound = bounds.get(name)
        third = f"{bound / 3:.4f}" if bound else "-"
        print(f"{name:34s} {median(values):12.6g} {spread:8.4f} {third:>8s}")
    return 0 if all(run["correct"] for run in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
