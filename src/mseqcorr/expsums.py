"""Auxiliary exponential sums: Kloosterman, cubic, mixed, and identity checks.

Conventions: the inverse is the exponent q - 2 (so 0 maps to 0); sums the
literature displays over the nonzero elements are summed exactly over the
nonzero elements.  The two conventions differ by the x = 0 term and each
function documents its domain.

For p = 2 every sum here is a plain integer.  The Kloosterman sum is kept
generic over p (values are rational integers for p = 2 and 3, which is what
the divisibility sweeps test).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import numpy as np

from . import spectra
from .cyclo import CycInt
from .errors import OutOfDomain
from .gf import FieldCtx, decimated, field_ctx


def kloosterman(ctx: FieldCtx, a: int):
    """K(a) = sum over all x in GF(p^m) of w^(Tr(x^(q-2) + a x)), q = p^m.

    The x = 0 term contributes w^0 = 1.  Returns int for p = 2, CycInt
    otherwise.
    """
    p = ctx.p
    x = ctx.exp_table
    xinv = decimated(x, ctx.order - 2)
    counts = np.bincount(ctx.trace_table[ctx.add(xinv, ctx.mul(a, x))], minlength=p)
    counts[0] += 1  # x = 0
    v = CycInt.from_counts(p, [int(c) for c in counts])
    return v.as_integer() if p == 2 else v


def kloosterman_all(ctx: FieldCtx) -> dict:
    """{a: K(a)} over every a, via one exact transform of Tr(x^(q-2)).

    The inverse exponent q - 2 is always coprime to q - 1, so the values
    are a Walsh table of that decimation; the transform kernel subtracts
    Tr(ax), so its point at a equals K(-a) (irrelevant for p = 2).
    Values are ints for p = 2, CycInt otherwise, matching `kloosterman`.
    """
    wt = spectra.walsh_fast(ctx, ctx.order - 2)
    if ctx.p == 2:
        zero, values = wt.zero_value().as_integer(), wt.by_log[:, 0].tolist()
    else:
        zero, values = wt.zero_value(), [CycInt(ctx.p, v) for v in wt.by_log.tolist()]
    return {0: zero, **dict(zip(ctx.neg(ctx.exp_table).tolist(), values))}


def _sign_sum(ctx: FieldCtx, v: np.ndarray) -> int:
    """sum of (-1)^Tr(v_i) over an array of elements of GF(2^n)."""
    return len(v) - 2 * int(np.count_nonzero(ctx.trace_table[v]))


def cubic_sum(ctx: FieldCtx, b: int, a: int) -> int:
    """C(b, a) = sum over all x in GF(2^n) of (-1)^(Tr(b x^3 + a x))."""
    if ctx.p != 2:
        raise OutOfDomain("cubic sum is a binary-field sum")
    x = ctx.exp_table
    v = ctx.add(ctx.mul(b, decimated(x, 3)), ctx.mul(a, x))
    return 1 + _sign_sum(ctx, v)   # x = 0 gives 1


def g_sum(ctx: FieldCtx, b: int, a: int) -> int:
    """G(b, a) = sum over nonzero x of (-1)^(Tr(b x^3 + a x^(-1)))."""
    if ctx.p != 2:
        raise OutOfDomain("mixed cubic/inverse sum is a binary-field sum")
    x = ctx.exp_table
    v = ctx.add(ctx.mul(b, decimated(x, 3)), ctx.mul(a, decimated(x, ctx.order - 2)))
    return _sign_sum(ctx, v)


def kloosterman_double_sum(m: int) -> int:
    """sum over y in GF(2^m) \\ GF(2) of (-1)^(Tr(1/y)) K(1/(y^3 + y)).

    The inner argument is well defined on the domain (y^3 + y = y(y+1)^2
    vanishes only on GF(2)).  Exact integer; equals -2^m tau_m + 1.
    """
    if m < 3 or m % 2 == 0:
        raise OutOfDomain("defined for odd m >= 3")
    ctx = field_ctx(2, m)
    y = ctx.exp_table[1:]   # GF(2^m) without 0 and 1
    arg = ctx.inv(ctx.add(ctx.pow(y, 3), y))
    k = spectra.walsh_fast(ctx, ctx.order - 2).by_log[ctx.log_table[arg], 0]   # K(arg)
    sign = 1 - 2 * ctx.trace_table[ctx.inv(y)].astype(np.int64)
    return int(sign @ k)


def kloosterman_weighted_sum(m: int) -> int:
    """The Kloosterman-sum constant of the six-valued Niho distribution
    (n = 2m odd m, d = 3(2^m - 1) + 1): the weighted double sum over
    GF(2^m) \\ GF(2) plus the boundary constant 2^(m+1).

    Satisfies -2^m tau_m + 2^(m+1) + 1 exactly; without the boundary
    constant the double sum alone is -2^m tau_m + 1 and is inconsistent
    with the brute-forced distributions (checked at m = 3, 5, 7).
    """
    return kloosterman_double_sum(m) + 2 ** (m + 1)


def tau_value(m: int) -> Fraction:
    """Exact rational tau_m: tau_1 = 1/2, tau_2 = -7/4,
    tau_{k+2} = tau_{k+1}/2 - tau_k."""
    if m < 1:
        raise OutOfDomain("m >= 1")
    a, b = Fraction(1, 2), Fraction(-7, 4)
    if m == 1:
        return a
    if m == 2:
        return b
    for _ in range(m - 2):
        a, b = b, b / 2 - a
    return b


def conjectured_sum_identities(n: int, k: int) -> dict:
    """Evaluate both conjectured identities tying the exponent 2^k + 1 to
    the cubic case over GF(2^n), n odd, gcd(k, n) = 1.

    First: sum (-1)^Tr(x^(2^k+1) + 1/x) = sum (-1)^Tr(x^3 + 1/x), x != 0.
    Second: sum (-1)^Tr(x + 1/x) = sum over v != 0 of
    (-1)^Tr((v^(2^k)+1) v^(2^k) / (v^(2^k)+v)^(2^k+1)), with the 0 -> 0
    inverse convention (the v = 1 denominator vanishes; its term is +1).
    """
    if n % 2 == 0:
        raise OutOfDomain("identities live over odd-degree binary fields")
    if gcd(k, n) != 1:
        raise OutOfDomain("need gcd(k, n) = 1")
    ctx = field_ctx(2, n)
    # exponents act mod 2^n - 1, so 2^k is taken there, however large k is
    two_k = pow(2, k, ctx.period)
    x = ctx.exp_table   # every nonzero x (and every nonzero v)
    xinv = ctx.inv(x)
    lhs1 = _sign_sum(ctx, ctx.add(ctx.pow(x, two_k + 1), xinv))
    rhs1 = _sign_sum(ctx, ctx.add(ctx.pow(x, 3), xinv))
    lhs2 = _sign_sum(ctx, ctx.add(x, xinv))
    vk = ctx.pow(x, two_k)
    num = ctx.mul(ctx.add(vk, 1), vk)
    den = ctx.pow(ctx.add(vk, x), two_k + 1)
    arg = np.zeros_like(den)   # a zero denominator gives arg 0, a +1 term
    ok = den != 0
    arg[ok] = ctx.mul(num[ok], ctx.inv(den[ok]))
    rhs2 = _sign_sum(ctx, arg)

    return {
        "n": n,
        "k": k,
        "first": {"lhs": lhs1, "rhs": rhs1, "equal": lhs1 == rhs1},
        "second": {"lhs": lhs2, "rhs": rhs2, "equal": lhs2 == rhs2},
        "both_equal": lhs1 == rhs1 and lhs2 == rhs2,
    }
