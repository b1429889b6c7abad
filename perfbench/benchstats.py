"""Summary statistics the benchmark reports.

A timing is reported as its median plus one tail percentile, and the
tail is only as high as the sample supports: the highest percentile
that still has at least :data:`MIN_BEYOND` samples beyond it, capped
at :data:`TAIL_CEILING`.  With fewer than ``2 * MIN_BEYOND`` samples no percentile above
the median qualifies, and the tail is the slowest sample.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics

#: Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10
#: The highest tail percentile reported.  Beyond the cap, more samples
#: make the tail steadier instead of pushing it further out.  p95, not
#: p99: on a shared 2-core VM, host stalls that cover about 1 % of a
#: 30 s run set p99, which then spread by 0.46 of its median over ten
#: seeds (see perfbench/RESULTS.md).
TAIL_CEILING = 95.0


def median(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def tail_percentile(values) -> tuple[float, float, int]:
    """``(percentile, value, count)`` for the supported tail of ``values``.

    The percentile is ``100 * (1 - MIN_BEYOND / n)`` rounded down to a
    tenth, so at least ``MIN_BEYOND`` of the ``n`` samples are beyond
    it, and no higher than :data:`TAIL_CEILING`; the value is the
    nearest-rank sample at that percentile.  With ``n < 2 * MIN_BEYOND`` the result
    is ``(100.0, max, n)``.
    """
    ordered = sorted(values)
    count = len(ordered)
    if count == 0:
        raise ValueError("tail of no samples")
    if count < 2 * MIN_BEYOND:
        return 100.0, float(ordered[-1]), count
    # Integer tenths of a percent keep the rank exact.
    tenths = min(1000 * (count - MIN_BEYOND) // count,
                 round(10 * TAIL_CEILING))
    rank = max(1, -(-tenths * count // 1000))
    return tenths / 10.0, float(ordered[rank - 1]), count


def quartile_spread(values) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = statistics.quantiles(list(values), n=4)
    return (q3 - q1) / q2


def digest(obj) -> str:
    """sha256 of a JSON-able object in canonical form."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
