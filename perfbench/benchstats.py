"""Summary statistics and regression verdicts for the benchmark harness.

Standard library only, so the harness self-test and ``--compare`` can
use it without numpy or the ``repro`` package on the path.
"""

from __future__ import annotations

import math
import statistics

__all__ = [
    "percentile",
    "tail_percentile",
    "summarize",
    "verdict",
]

#: Percentiles a tail may be reported at, highest first.
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: A tail percentile is reported only with this many samples beyond it.
MIN_BEYOND = 10


def percentile(values, pct):
    """``pct``-th percentile of ``values``, linear between closest ranks."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = (len(ordered) - 1) * pct / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_percentile(n):
    """The highest percentile with at least ``MIN_BEYOND`` of ``n``
    samples beyond it, or None when even the median has fewer."""
    for pct in TAIL_CANDIDATES:
        if n * (100.0 - pct) / 100.0 >= MIN_BEYOND - 1e-9:
            return pct
    return None


def summarize(samples):
    """Median and quartiles of per-repeat samples.

    Quartiles are ``statistics.quantiles(samples, n=4)``, the same
    estimator the run-to-run spread is judged with; one sample is its
    own median and quartiles.
    """
    samples = [float(value) for value in samples]
    if not samples:
        raise ValueError("no samples to summarize")
    if len(samples) == 1:
        q1 = q3 = samples[0]
    else:
        q1, _, q3 = statistics.quantiles(samples, n=4)
    return {
        "n": len(samples),
        "median": statistics.median(samples),
        "q1": q1,
        "q3": q3,
    }


def verdict(base, new, better, bound):
    """Judge ``new`` samples of one metric against ``base`` samples.

    ``better`` is ``"higher"`` or ``"lower"``; ``bound`` the share of
    the base median by which the metric may worsen.  Returns one of:

    * ``"unresolved"`` — the base's inter-quartile spread is wider than
      ``bound``, so a worsening within it cannot be told from noise,
      unless every new sample beats every base sample (``"better"``);
    * ``"worse"`` — the median worsened by more than ``bound``;
    * ``"better"`` — the median gained more than the base spread, or
      more than ``bound`` when the base has too few samples (under 3)
      to estimate a spread;
    * ``"unchanged"`` — anything else.
    """
    if better not in ("higher", "lower"):
        raise ValueError("better must be 'higher' or 'lower'")
    sign = 1.0 if better == "higher" else -1.0
    base_stats = summarize(base)
    new_stats = summarize(new)
    scale = abs(base_stats["median"]) or 1.0
    spread = (base_stats["q3"] - base_stats["q1"]) / scale
    if spread > bound:
        if min(sign * v for v in new) > max(sign * v for v in base):
            return "better"
        return "unresolved"
    gain = sign * (new_stats["median"] - base_stats["median"]) / scale
    if gain < -bound:
        return "worse"
    if gain > (spread if len(base) >= 3 else bound) and gain > 0:
        return "better"
    return "unchanged"
