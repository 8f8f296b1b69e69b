"""A fixed workload that shares no code with coinv, timed to gauge the host's speed.

On the shared 2-core host the benchmark was defined on, the same pass
ran up to 1.7 times slower in one stretch of minutes than in the next,
and set-up time moved with it.  A run therefore times this workload
between its passes, in its own long-lived process, and scales every
reported time by ``NOMINAL_S / (median reference time of the run)``.
The reference does what coinv's hot loops do -- products of sparse
polynomials with ``Fraction`` coefficients, keyed by exponent tuples --
so it slows down with the host the way the passes do, and no change to
``src/`` can change it.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

# median of timed() on the host the benchmark was defined on; it only fixes
# the scale, so reported times stay close to seconds on that host
NOMINAL_S = 0.11


def _products() -> int:
    n = 5
    factor = {}
    for i in range(3):
        for j in range(3):
            for k in range(2):
                exp = (i, j, k, (i + j) % 2, (j + k) % 3)
                factor[exp] = Fraction(i - 2 * j + 1, k + 2)
    acc = {(0,) * n: Fraction(1)}
    for _ in range(3):
        out: dict = {}
        for e1, c1 in acc.items():
            for e2, c2 in factor.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                s = out.get(e)
                v = c1 * c2
                if s is None:
                    out[e] = v
                else:
                    s = s + v
                    if s == 0:
                        del out[e]
                    else:
                        out[e] = s
        acc = dict(sorted(out.items())[:400])
    return len(acc)


def timed() -> float:
    """Seconds taken by a fixed number of rounds of the reference workload."""
    t0 = perf_counter()
    for _ in range(8):
        _products()
    return perf_counter() - t0
