"""Order statistics the benchmark reports: medians and quartiles.

Both follow :func:`statistics.quantiles` with its default ``exclusive``
method, which is how the run-to-run spread of the benchmark is judged.
"""

from __future__ import annotations


def quartiles(values) -> tuple[float, float, float]:
    """(Q1, median, Q3) of a non-empty sample, exclusive method.

    A single value is its own quartiles; for n >= 2 the p-quantile sits at
    position p * (n + 1) of the sorted sample, interpolated on the pair of
    neighbours clamped to [1, n - 1] (so it may extrapolate past the ends,
    as the standard library does).
    """
    xs = sorted(float(v) for v in values)
    if not xs:
        raise ValueError("quartiles of an empty sample")
    n = len(xs)
    if n == 1:
        return xs[0], xs[0], xs[0]

    def at(p: float) -> float:
        pos = p * (n + 1)
        j = min(max(int(pos), 1), n - 1)
        return xs[j - 1] + (pos - j) * (xs[j] - xs[j - 1])

    return at(0.25), at(0.5), at(0.75)


def median(values) -> float:
    return quartiles(values)[1]


def relative_spread(values) -> float:
    """(Q3 - Q1) / median: the steadiness figure the bounds are set against."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med
