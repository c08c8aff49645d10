"""Exact counting of shift-constrained DNA words.

g(s, n) counts length-n words whose first s shifts carry no complementary
match (mu_1 = ... = mu_s = 0). Three independent routes are provided: an
exhaustive, bit-sliced brute-force oracle, the boundary/step recursion,
and a power series expansion of the closed-form generating function. A bivariate
series, expanded by the same series division, additionally resolves the
mu_1 = 0 count by GC-content. All counts are exact arbitrary-precision
integers.
"""

from __future__ import annotations

import functools
import math
import os
from collections import deque, namedtuple
from fractions import Fraction

DEFAULT_ORACLE_CAP = 12
ORACLE_CAP_ENV = "OLIGOFORGE_ORACLE_CAP"


class OracleCapError(ValueError):
    """Raised when an exhaustive enumeration would exceed the length cap."""


def oracle_cap() -> int:
    """Current brute-force length cap (env override, default 12)."""
    raw = os.environ.get(ORACLE_CAP_ENV)
    if raw is None:
        return DEFAULT_ORACLE_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"{ORACLE_CAP_ENV} must be an integer, got {raw!r}") from None
    if cap < 1:
        raise ValueError(f"{ORACLE_CAP_ENV} must be >= 1, got {cap}")
    return cap


def check_oracle_cap(n: int) -> None:
    """Refuse an exhaustive walk of length n past the cap of oracle_cap()."""
    cap = oracle_cap()
    if n > cap:
        raise OracleCapError(f"brute-force enumeration of 4^{n} words exceeds the cap of {cap}")


def count_brute_force(n: int, predicate) -> int:
    """Count length-n words satisfying predicate by full enumeration.

    Every pair of n-bit ints (even, odd) is the packed image
    (seqcore.packed_image) of exactly one word of length n, so the pairs
    walk all 4^n words. predicate(even, n) is called once per even image
    and returns a mask of its 2^n odd images, bit o set when the word of
    (even, o) passes (bit slicing: Biham, FSE 1997), built from the truth
    tables T_b of the odd bits; the count sums the masks' popcounts.

    Refuses to run past the cap (check_oracle_cap) rather than sampling:
    results from this oracle are exact or absent.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    check_oracle_cap(n)
    return sum(predicate(even, n).bit_count() for even in range(1 << n))


@functools.cache
def _odd_bits(n: int) -> tuple[int, ...]:
    """T_b for b < n, the set of odd images with bit b set: 2^b clear bits,
    then 2^b set, repeated. n * 2^n bits, 6 KiB at n = 12, 50 MiB at 24."""
    full = (1 << (1 << n)) - 1
    return tuple(full // ((1 << (2 << b)) - 1) * (((1 << (1 << b)) - 1) << (1 << b)) for b in range(n))


def _bits(mask: int) -> list[int]:
    return [b for b in range(mask.bit_length()) if mask >> b & 1]


def _agreeing(n: int, pairs) -> int:
    """The odd images whose bits a and b agree for every (a, b) in pairs."""
    t, fail = _odd_bits(n), 0
    for a, b in pairs:
        fail |= t[a] ^ t[b]
    return (1 << (1 << n)) - 1 & ~fail


def _same_class(even: int, n: int, i: int) -> int:
    """Positions l < n-i where q[l] and q[l+i] are both A/T or both C/G.

    There q[l] matches the complement of q[l+i] exactly where the odd bits
    differ: packed_mu's identity with the even factor taken out.
    """
    return ~(even ^ even >> i) & ((1 << n - i) - 1)


def mu_zero_predicate(s: int):
    """Predicate on a packed image: mu_i = 0 for every shift 1..min(s, n-1)."""
    if s < 1:
        raise ValueError("shift depth must be >= 1")

    def predicate(even: int, n: int) -> int:
        shifts = range(1, min(s, n - 1) + 1)
        return _agreeing(n, ((b, b + i) for i in shifts for b in _bits(_same_class(even, n, i))))

    return predicate


def mu1_equals_predicate(m: int):
    """Predicate on a packed image: exactly m complementary matches on shift 1.

    exactly[k] is the set of odd images with k matches among the positions read.
    """
    if m < 0:
        raise ValueError("match count must be >= 0")

    def predicate(even: int, n: int) -> int:
        same = _bits(_same_class(even, n, 1))
        if len(same) < m:
            return 0
        t, exactly = _odd_bits(n), [(1 << (1 << n)) - 1] + [0] * m
        for b in same:
            d = t[b] ^ t[b + 1]
            for k in range(m, 0, -1):
                exactly[k] = exactly[k] & ~d | exactly[k - 1] & d
            exactly[0] &= ~d
        return exactly[m]

    return predicate


def complement_free_predicate():
    """Predicate on a packed image: no two positions hold complementary bases.

    The A/T positions (~even) and the C/G positions (even) each tell their
    two bases apart by the odd bit alone, so each part's odd bits must agree.
    """

    def predicate(even: int, n: int) -> int:
        parts = (_bits(~even & ((1 << n) - 1)), _bits(even))
        return _agreeing(n, (pair for bits in parts for pair in zip(bits, bits[1:])))

    return predicate


def g_boundary(n: int) -> int:
    """Count of length-n words with no complementary pair at all: 4(2^n - 1).

    Such a word stays inside one of the four complement-free two-letter
    alphabets; the four constant words are shared between two alphabets
    each, hence the -1.
    """
    if n <= 1:
        raise ValueError("boundary count requires n > 1")
    return 4 * (2**n - 1)


def g_recursive(s: int, n: int) -> int:
    """g(s, n) by recursion: g = 2*g(n-1) + g(n-s) above the boundary.

    For n <= s all shifts up to n-1 are constrained, so the boundary count
    applies (with g(s, 1) = 4: a single base satisfies every shift
    constraint vacuously).
    """
    if s < 1:
        raise ValueError("shift depth must be >= 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    values = {}
    for k in range(1, n + 1):
        if k == 1:
            values[k] = 4
        elif k <= s:
            values[k] = g_boundary(k)
        else:
            values[k] = 2 * values[k - 1] + values[k - s]
    return values[n]


class CountTable(namedtuple("CountTable", "s values")):
    """Counts g(s, n) for n = 1..N at a fixed shift depth s, values[n] = g(s, n)."""

    __slots__ = ()

    def value(self, n: int) -> int:
        return self.values[n]


def _series_div(num: list[list[int]], den: list[list[int]], order: int):
    """Yield the coefficients of x^0..x^order of num/den as a power series in x.

    Each coefficient is a polynomial in y, listed by ascending power; the
    constant case is a list of one-element lists. den[0] must be [1], so
    c_k = num_k - sum_{d>=1} den_d * c_{k-d} is the linear recurrence whose
    solution is the series (Stanley, Enumerative Combinatorics I, 4.1).
    """
    steps = [(d, p) for d, p in enumerate(den) if d and any(p)]
    last: deque[list[int]] = deque(maxlen=len(den) - 1)  # all the recurrence reads: last[-d] is c_{k-d}
    for k in range(order + 1):
        terms = [(p, last[-d]) for d, p in steps if d <= k]
        acc = list(num[k]) if k < len(num) else []
        acc += [0] * (max((len(p) + len(c) - 1 for p, c in terms), default=0) - len(acc))
        for p, c in terms:
            for j, a in enumerate(p):
                if a:
                    for w, v in enumerate(c, j):
                        acc[w] -= a * v
        last.append(acc)
        yield acc


def g_values(s: int, max_n: int):
    """g(s, n) for n = 1..max_n in turn, read off the closed-form generating function.

    In the substituted variable x that is 4(x + ... + x^s) / (1 - 2x - x^s), so
    g(s, n) is the coefficient of x^(n-1) in 4(1 + ... + x^(s-1)) / (1 - 2x - x^s),
    found by exact series division; the values agree with g_recursive.
    Coefficient k reads only terms of degree at most k, so both sides are
    cut at degree max_n - 1: the cost does not grow with s past max_n.
    """
    if s < 1:
        raise ValueError("shift depth must be >= 1")
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    den = [[1]] + [[-2 * (d == 1) - (d == s)] for d in range(1, min(s, max_n - 1) + 1)]
    return (c for c, in _series_div([[4]] * min(s, max_n), den, max_n - 1))


def g_series(s: int, max_n: int) -> CountTable:
    """g(s, n) for n = 1..max_n, collected from g_values."""
    return CountTable(s, dict(enumerate(g_values(s, max_n), 1)))


def count_mu1(n: int, m: int) -> int:
    """Count of length-n words with exactly m shift-1 complementary matches.

    Closed form 4 * C(n-1, m) * 3^(n-m-1): choose the matched positions,
    then 3 free choices at every unmatched position after the first base.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0 <= m <= n - 1:
        raise ValueError(f"match count {m} out of range for length {n}")
    return 4 * math.comb(n - 1, m) * 3 ** (n - m - 1)


class BivariateSeries(namedtuple("BivariateSeries", "order rows")):
    """Truncated series with integer coefficients indexed by (n, w).

    rows[n] lists the coefficients of x^n by ascending power w of y.
    """

    __slots__ = ()

    def coefficient(self, n: int, w: int) -> int:
        if not 0 <= n <= self.order:
            raise ValueError(f"n={n} outside truncation order {self.order}")
        if w < 0:
            raise ValueError("w must be >= 0")
        row = self.rows[n]
        return row[w] if w < len(row) else 0


def gj_rows(max_n: int):
    """Rows n = 0..max_n in turn, w = 0..n, of the mu_1 = 0 counts by length n and GC-content w.

    The paper's series is 1 / (1 - 2x/(1+x) - 2xy/(1+xy)). Over the common
    denominator (1+x)(1+xy) its denominator reads
    ((1+x)(1+xy) - 2x(1+xy) - 2xy(1+x)) / ((1+x)(1+xy))
    = (1 - x - xy - 3x^2 y) / ((1+x)(1+xy)),
    so the series equals (1+x)(1+xy) / (1 - x - xy - 3x^2 y), and one exact
    series division, holding the last two rows, gives every coefficient.
    """
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    # polynomials in y per power of x: (1+x)(1+xy) = 1 + (1+y)x + yx^2
    return _series_div([[1], [1, 1], [0, 1]], [[1], [-1, -1], [0, -3]], max_n)


def gj_coefficients(max_n: int) -> BivariateSeries:
    """The rows of gj_rows(max_n), collected."""
    return BivariateSeries(max_n, list(gj_rows(max_n)))


def psi(s: int, z: float) -> float:
    """Denominator polynomial z^s - 2*z^(s-1) - 1 of the counting series."""
    try:
        return z**s - 2 * z ** (s - 1) - 1
    except OverflowError:  # psi is z^(s-1) * (z - 2) - 1, and a float z > 2 has z - 2 >= 2^-51
        if z < 2:
            raise
        return math.inf if z > 2 else -1.0


class GrowthAnalysis(namedtuple("GrowthAnalysis", "s rho tolerance")):
    """Dominant growth root rho of the count recursion for shift depth s."""

    __slots__ = ()

    @property
    def residual(self) -> float:
        return psi(self.s, self.rho)


def dominant_root(s: int, tol: float = 1e-12) -> GrowthAnalysis:
    """Locate the real root of psi in (2, 3) by bisection.

    psi(s, 2) = -1 and psi(s, 3) = 3^(s-1) - 1 > 0 for s >= 2, so a sign
    change brackets the root; the bracket [a, b] with psi(a) <= 0 < psi(b)
    is maintained until it is narrower than tol (or floats run out).
    """
    if s < 2:
        raise ValueError("growth analysis requires shift depth >= 2")
    if not tol > 0:  # NaN too
        raise ValueError("tolerance must be positive")
    if tol >= 1:
        raise ValueError(f"tolerance must be below 1, the width of the bracket (2, 3), got {tol}")
    a, b = 2.0, 3.0
    while b - a > tol:
        mid = (a + b) / 2
        if mid <= a or mid >= b:
            break
        if psi(s, mid) <= 0:
            a = mid
        else:
            b = mid
    return GrowthAnalysis(s, (a + b) / 2, tol)


def growth_check(s: int, n: int) -> float:
    """Consecutive-count ratio g(s, n+1) / g(s, n) as a float.

    Converges to the dominant root as n grows, because all other roots of
    psi lie inside the unit circle.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return float(Fraction(g_recursive(s, n + 1), g_recursive(s, n)))
