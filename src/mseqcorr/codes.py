"""Weight distributions of the cyclic codes with two nonzeros alpha, alpha^d.

Codewords are parameterized by (a, b) in GF(p^n)^2 with position-t symbol
Tr(a alpha^t + b alpha^(dt)); length p^n - 1.  When d = 1 mod p-1 every
nonzero-b codeword weight is (p-1)(p^n - W_d(u))/p for a single Walsh value
W_d(u) = C + 1, so the full distribution follows from the crosscorrelation
spectrum.  The pairs with b = 0 (and the zero codeword) are handled directly
since the reduction to one Walsh point divides by b.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np

from .cyclo import CycInt
from .errors import OutOfDomain
from .gf import FieldCtx
from . import lfsr
from .spectra import class_record


@dataclass
class WeightDistribution:
    """weight -> number of codewords, over all p^(2n) pairs (a, b)."""

    p: int
    n: int
    d: int
    counts: dict[int, int]
    method: str

    def total(self) -> int:
        return sum(self.counts.values())

    def sorted_items(self):
        return sorted(self.counts.items())

    def to_json_dict(self) -> dict:
        return {
            "p": self.p, "n": self.n, "d": self.d, "method": self.method,
            "weights": [{"w": w, "count": c} for w, c in self.sorted_items()],
        }


def codeword_weight(ctx: FieldCtx, a: int, b: int, d: int) -> int:
    """Hamming weight of c_{a,b} by direct evaluation over nonzero x."""
    L = ctx.period
    t = np.arange(L, dtype=np.int64)
    v = ctx.add(ctx.mul(a, ctx.exp_table), ctx.mul(b, ctx.exp_table[(d % L) * t % L]))
    return int(np.count_nonzero(ctx.trace_table[v]))


def weight_distribution_brute(ctx: FieldCtx, d: int) -> WeightDistribution:
    """Enumerate all p^(2n) codewords; weights via shifted sequence symbols.

    Tr(a alpha^t) is the m-sequence shifted by log a, and Tr(b alpha^(dt))
    the decimated one shifted by log b, so each weight is one vectorized
    pass over the period.
    """
    L = ctx.period
    p = ctx.p
    if gcd(d, L) != 1:
        raise OutOfDomain(f"gcd({d}, {L}) != 1")
    s = lfsr.generate_trace(ctx).as_array()
    sd = s[(np.arange(L, dtype=np.int64) * (d % L)) % L]
    counts: dict[int, int] = {0: 1}
    # b = 0, a != 0 and a = 0, b != 0: single-sequence weights
    w_simplex = int(np.count_nonzero(s))
    counts[w_simplex] = counts.get(w_simplex, 0) + L
    wd = int(np.count_nonzero(sd))
    counts[wd] = counts.get(wd, 0) + L
    s2 = np.concatenate([s, s[:-1]])
    sd2 = np.concatenate([sd, sd[:-1]])
    for i in range(L):
        left = s2[i:i + L]
        for j in range(L):
            w = int(np.count_nonzero((left + sd2[j:j + L]) % p))
            counts[w] = counts.get(w, 0) + 1
    return WeightDistribution(p=p, n=ctx.n, d=d, counts=counts, method="brute")


def weight_distribution_via_walsh(ctx: FieldCtx, d: int) -> WeightDistribution:
    """Distribution from the spectrum (`class_record`); requires d = 1 mod
    p-1, and raises `cyclo.NotRational` on a value that is not an integer."""
    p = ctx.p
    L = ctx.period
    if (d - 1) % (p - 1):
        raise OutOfDomain(
            f"d = {d} is not 1 mod p-1 = {p - 1}; weights depend on y")
    counts: dict[int, int] = {0: 1}
    w_bal = p ** (ctx.n - 1) * (p - 1)
    counts[w_bal] = counts.get(w_bal, 0) + 2 * L   # (a != 0, b = 0) and (a = 0, b != 0)
    rows, occurs = class_record(ctx, d)
    for row, cnt in zip(rows.tolist(), occurs.tolist()):
        w = (p - 1) * (p ** ctx.n - 1 - CycInt(p, row).as_integer()) // p   # C = W - 1
        counts[w] = counts.get(w, 0) + cnt * L
    return WeightDistribution(p=p, n=ctx.n, d=d, counts=counts, method="walsh")
