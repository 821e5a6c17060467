"""Niho-exponent machinery over GF(p^(2m)).

A decimation d = s(p^m - 1) + 1 acts linearly over the subfield GF(p^m),
which reduces each Walsh value W_d(a) to a root count on the unit circle
U = {x : x * x^(p^m) = 1}:

    W_d(a) = (N(a) - 1) * p^m,

N(a) the number of roots in U of x^(2s-1) - a x^s - conj(a) x^(s-1) + 1.
Since |U| = p^m + 1 is tiny, per-point evaluation beats a full transform
when only Niho exponents are studied.

Also hosts fractional-decimation resolution d1/d2 mod p^n - 1 (modular
inverse by extended gcd), used by the cataloged fractional families.
"""

from __future__ import annotations

from math import gcd

import numpy as np

from . import spectra
from .errors import OutOfDomain
from .gf import FieldCtx


def resolve_fraction(d1: int, d2: int, modulus: int) -> int:
    """d = d1 * d2^(-1) mod modulus, representative in [1, modulus-1]."""
    if modulus < 2:
        raise OutOfDomain("modulus must be >= 2")
    if gcd(d2, modulus) != 1:
        raise OutOfDomain(f"gcd({d2}, {modulus}) != 1")
    d = (d1 % modulus) * pow(d2, -1, modulus) % modulus
    if d == 0:
        raise OutOfDomain(f"{d1}/{d2} is 0 mod {modulus}")
    return d


def niho_decimation(p: int, m: int, s: int) -> int:
    """d = s(p^m - 1) + 1 mod p^(2m) - 1; d depends on s only mod p^m + 1."""
    return (s * (p ** m - 1) + 1) % (p ** (2 * m) - 1)


def count_unit_roots(ctx: FieldCtx, s: int, a):
    """Roots in U of x^(2s-1) - a x^s - conj(a) x^(s-1) + 1, exact count.

    a is one element or an array of them (int in, int out; array in, array
    out).  The three powers of x are taken once over all |U| = p^m + 1
    points; the a's are evaluated in chunks of about 2^16 cells.
    """
    if ctx.n % 2:
        raise OutOfDomain("Niho machinery needs n = 2m")
    U = ctx.unit_circle()
    x2s1, xs, xs1 = (ctx.pow(U, e) for e in (2 * s - 1, s, s - 1))
    av = np.atleast_1d(a)
    counts = np.empty(len(av), dtype=np.int64)
    step = max(1, 2 ** 16 // len(U))
    for lo in range(0, len(av), step):
        ac = av[lo:lo + step, None]
        term = ctx.add(x2s1, ctx.mul(ctx.neg(ac), xs))
        term = ctx.add(term, ctx.mul(ctx.neg(ctx.conj_half(ac)), xs1))
        counts[lo:lo + step] = np.count_nonzero(ctx.add(term, 1) == 0, axis=1)
    return counts if isinstance(a, np.ndarray) else int(counts[0])


def _histogram(counts: np.ndarray) -> dict[int, int]:
    vals, occurrences = np.unique(counts, return_counts=True)
    return dict(zip(vals.tolist(), occurrences.tolist()))


def unit_root_histogram(ctx: FieldCtx, s: int) -> dict[int, int]:
    """{N(a): occurrences} over nonzero a."""
    return _histogram(count_unit_roots(ctx, s, ctx.exp_table))


def value_list(ctx: FieldCtx, histogram: dict[int, int]) -> list[int]:
    """The values (N - 1) * p^m of the root counts N of a histogram, sorted."""
    return sorted((na - 1) * ctx.p ** (ctx.n // 2) for na in histogram)


def walsh_identity_report(ctx: FieldCtx, s: int) -> dict:
    """Compare (N(a)-1) p^m with the transform value W_d(a) at every a != 0.

    Works for non-invertible d too (the transform is defined for any
    exponent).  Returns per-a equality plus the histogram.
    """
    if ctx.n % 2:
        raise OutOfDomain("Niho machinery needs n = 2m")
    m = ctx.n // 2
    pm = ctx.p ** m
    d = niho_decimation(ctx.p, m, s)
    wt = spectra.walsh_fast(ctx, d)
    na = count_unit_roots(ctx, s, ctx.exp_table)   # a = alpha^tau, tau in log order
    # W(alpha^tau) in Z[w] coordinates: (N(a) - 1) p^m on 1, zero on w..w^(p-2)
    w = wt.by_log
    mismatches = np.flatnonzero((w[:, 0] != (na - 1) * pm) | w[:, 1:].any(axis=1)).tolist()
    hist = _histogram(na)
    return {
        "p": ctx.p,
        "m": m,
        "s": s,
        "d": d,
        "holds": not mismatches,
        "mismatch_shifts": mismatches[:16],
        "histogram": hist,
        "value_set": value_list(ctx, hist),
    }
