"""Catalog of decimation families with few-valued crosscorrelation spectra.

Each `FamilyDescriptor` holds one family's own data: its domain, the tuple
of named conditions on (p, n, params) it needs, its decimation formula, its
source table (the published closed form as (value, count) rows, or the
admissible values of a family whose distribution is not settled), and the
parameter dicts to try at (p, n).  Each domain condition (p = 2, n = 2m with
m odd, n/gcd(n, k) odd, ...) is a (holds, need) pair written once at module
level; a domain checks its conditions in tuple order, so a condition may
read a parameter that an earlier one checked, and names the family and the
first unmet one (e.g. "gold needs p = 2").  The catalog-wide steps are
methods, each written once: `decimation` raises `OutOfDomain` off the domain
or when d is not coprime to p^n - 1; `instances` keeps exactly the
candidates that pass that check; `predicted` normalizes the source rows.
Sources that count the a = 0 transform point (their rows sum to p^n,
`source_counts_total == "p^n"`) are normalized there by decrementing the -1
count once, so every predicted table sums to p^n - 1 and satisfies
sum(value * count) = 1; which convention each source table used was settled
once by brute force and is fixed in the descriptor.

Status values: "proved-distribution" descriptors predict exact multisets,
as the integer record (rows, counts) of `spectra.class_record`, which
`verify_family` compares with the computed one; "at-most-k" descriptors
predict an admissible value set of size <= k.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Callable

import numpy as np

from .cyclo import CycInt, value_key
from .errors import Budget, OutOfDomain
from .expsums import kloosterman_weighted_sum, tau_value
from .gf import FieldCtx, degenerate_set
from .niho import niho_decimation, resolve_fraction
from .spectra import Entries, value_ordered


@dataclass(frozen=True)
class AtMostKValues:
    """Admissible value set for families whose distribution is not settled;
    the spectrum takes at most k = len(values) distinct values."""

    values: frozenset

    @property
    def k(self) -> int:
        return len(self.values)

    def sorted_values(self):
        return sorted(self.values, key=lambda v: value_key(v.coords))


def _as_cyc(p: int, v) -> CycInt:
    return v if isinstance(v, CycInt) else CycInt.from_int(p, v)


def _assemble(p: int, n: int, rows, include_zero_shift: bool) -> tuple:
    """The predicted record of (value, count) source rows, a value an int or
    a CycInt and a count an int or a Fraction: a source that counts the
    a = 0 point has it taken off the value -1, the counts of equal values
    are summed, each sum a nonnegative integer, the values whose sum is 0
    are left out, and the rows are in the order of `cyclo.value_key`."""
    acc: dict[tuple, Fraction] = {}
    for v, c in [*rows, (-1, -1)] if include_zero_shift else rows:
        key = _as_cyc(p, v).coords
        acc[key] = acc.get(key, 0) + c
    for key, c in acc.items():
        if c.denominator != 1 or c < 0:
            raise OutOfDomain(f"count {c} for value {CycInt(p, key)!r} is not "
                              f"a nonnegative integer")
    keys = sorted((key for key, c in acc.items() if c), key=value_key)
    counts = np.array([int(acc[key]) for key in keys], dtype=np.int64)
    if counts.sum() != p ** n - 1:
        raise OutOfDomain(
            f"predicted counts sum to {counts.sum()}, expected {p ** n - 1}")
    return np.array(keys, dtype=np.int32).reshape(-1, p - 1), counts


def _no_params(p: int, n: int) -> list[dict]:
    return [{}]


# Every family parameter (k, t, r, i < n <= 24, sign, form) is far below
# this bound; a larger one would only make the formulas build huge powers.
MAX_PARAM = 2 ** 10

_FRAC_PAIRS = {"2:1": (2, 1), "5:1": (5, 1), "5:3": (5, 3)}

# Domain conditions, each a (holds(p, n, params), need) pair, written once.
# A family's `domain` is a tuple of them, checked in order, so a condition
# may read a parameter that an earlier one checked (K_SET before the gcd(n, k)
# tests): a missing parameter fails as an unmet condition, never a KeyError.
P2 = (lambda p, n, pr: p == 2, "p = 2")
P3 = (lambda p, n, pr: p == 3, "p = 3")
P_ODD = (lambda p, n, pr: p != 2, "odd p")
P_2_MOD_3 = (lambda p, n, pr: p % 3 == 2, "p = 2 mod 3")
PN_1_MOD_4 = (lambda p, n, pr: p ** n % 4 == 1, "p^n = 1 mod 4")
N_ODD = (lambda p, n, pr: n % 2 == 1, "odd n")
N_EVEN = (lambda p, n, pr: n % 2 == 0, "even n")
N_GE_3 = (lambda p, n, pr: n >= 3, "n >= 3")
M_ODD = (lambda p, n, pr: n % 4 == 2, "n = 2m with m odd")
M_EVEN = (lambda p, n, pr: n % 4 == 0, "n = 2m with m even")
M_NOT_2_MOD_4 = (lambda p, n, pr: n % 2 == 0 and n % 8 != 4,
                 "n = 2m with m != 2 mod 4")
N_4R_R_ODD = (lambda p, n, pr: n % 8 == 4, "n = 4r with r odd")
N_3K_K_ODD = (lambda p, n, pr: n % 6 == 3, "n = 3k with k odd")
HALF_POWER_NOT_2_MOD_3 = (lambda p, n, pr: p ** (n // 2) % 3 != 2,
                          "p^(n/2) != 2 mod 3")
QUARTER_POWER_NOT_2_MOD_3 = (lambda p, n, pr: p ** (n // 4) % 3 != 2,
                             "p^(n/4) != 2 mod 3")
K_SET = (lambda p, n, pr: pr.get("k", 0) >= 1, "k >= 1")
K_NOT_0_MOD_N = (lambda p, n, pr: pr["k"] % n != 0, "k != 0 mod n")
N_OVER_GCD_K_ODD = (lambda p, n, pr: n // gcd(n, pr["k"]) % 2 == 1,
                    "n/gcd(n, k) odd")
N_DIVIDES_4K_MINUS_1 = (lambda p, n, pr: (4 * pr.get("k", 0) - 1) % n == 0,
                        "n | 4k - 1")
T_SET = (lambda p, n, pr: pr.get("t", 0) >= 1, "t >= 1")
T_BELOW_M = (lambda p, n, pr: pr["t"] < n // 2, "t < m = n/2")
T_COPRIME_N = (lambda p, n, pr: gcd(pr["t"], n) == 1, "gcd(t, n) = 1")
TWO_T_DIVIDES_M = (lambda p, n, pr: n // 2 % (2 * pr["t"]) == 0, "2t | m = n/2")
R_SET = (lambda p, n, pr: pr.get("r", 0) >= 1, "r >= 1")
SIGN = (lambda p, n, pr: pr.get("sign", -1) in (1, -1), "sign = +1 or -1")
# v2(x) < v2(y) exactly when the lowest set bit of x is below that of y
V2_R_BELOW_V2_M = (lambda p, n, pr: (pr["r"] & -pr["r"]) < (n // 2 & -(n // 2)),
                   "v2(r) < v2(m), m = n/2")
UNIFIED_INVERTIBLE = (
    lambda p, n, pr: gcd(2 ** pr["r"] + pr.get("sign", -1), 2 ** (n // 2) + 1) == 1,
    "2^r + sign invertible mod 2^(n/2) + 1")
I_BELOW_N = (lambda p, n, pr: 0 <= pr.get("i", -1) < n, "0 <= i < n")
THIRD_F_NOT_2 = (lambda p, n, pr: (p ** n - 1) // 3 * p ** pr["i"] % 3 != 2,
                 "f = (p^n - 1)/3 * p^i != 2 mod 3")
FORM = (lambda p, n, pr: pr.get("form") in (1, 2),
        "form = 1 (d = 3^k + 2) or 2 (d = 3^(2k) + 2)")
PAIR = (lambda p, n, pr: pr.get("pair") in _FRAC_PAIRS, "pair = 2:1, 5:1 or 5:3")


@dataclass(frozen=True)
class FamilyDescriptor:
    """One cataloged decimation family.

    domain is the tuple of module-level conditions the family needs,
    checked in order by `check_domain`, so a condition may read a parameter
    an earlier one checked; formula(p, n, params) is its decimation d;
    source(p, n, params) is its source table: (value, count) rows, summing
    to p^n or p^n - 1 as `source_counts_total` says, or the admissible
    values when status is "at-most-k"; candidates(p, n) are the parameter
    dicts `instances` tries.
    """

    id: str
    label: str
    domain: tuple
    formula: Callable[[int, int, dict], int]
    source: Callable[[int, int, dict], list]
    candidates: Callable[[int, int], list[dict]] = _no_params
    status: str = "proved-distribution"
    source_counts_total: str = "p^n-1"
    notes: str = ""

    def check_domain(self, p: int, n: int, params: dict) -> str | None:
        """None on the family's domain, else the family and the first
        condition of `domain` that fails."""
        for holds, need in self.domain:
            if not holds(p, n, params):
                return f"{self.id} needs {need}"
        return None

    def decimation(self, p: int, n: int, params: dict) -> int:
        """d mod p^n - 1; Budget for an integer parameter past `MAX_PARAM`,
        OutOfDomain off the domain or when d is not coprime to p^n - 1."""
        for key, v in params.items():
            if isinstance(v, int) and abs(v) > MAX_PARAM:
                raise Budget(f"{self.id} parameter {key} = {v} exceeds the bound "
                             f"|{key}| <= {MAX_PARAM}")
        viol = self.check_domain(p, n, params)
        if viol:
            raise OutOfDomain(viol)
        L = p ** n - 1
        d = self.formula(p, n, params) % L
        if gcd(d, L) != 1:
            raise OutOfDomain(f"decimation {d} not coprime to {L}")
        return d

    def predicted(self, p: int, n: int, params: dict):
        """The predicted record, a = 0 normalized, or the admissible values."""
        self.decimation(p, n, params)   # on the domain, d coprime
        rows = self.source(p, n, params)
        if self.status == "at-most-k":
            return AtMostKValues(frozenset(_as_cyc(p, v) for v in rows))
        return _assemble(p, n, rows, self.source_counts_total == "p^n")

    def instances(self, p: int, n: int) -> list[dict]:
        """The candidates at (p, n) on which `decimation` does not raise."""
        out = []
        for params in self.candidates(p, n):
            try:
                self.decimation(p, n, params)
            except OutOfDomain:
                continue
            out.append(params)
        return out


# ----------------------------------------------------------------------
# Shared closed-form builders
# ----------------------------------------------------------------------

def _three_valued_table(p: int, n: int, e: int) -> list:
    """values -1 +/- p^((n+e)/2) and -1; the classical three-valued split.
    n - e is even on every family that reads it (n/e odd, or n = 2m and
    e = 2, or odd n and e = 1)."""
    big = p ** ((n + e) // 2)
    hi = Fraction(p ** (n - e) + p ** ((n - e) // 2), 2)
    lo = Fraction(p ** (n - e) - p ** ((n - e) // 2), 2)
    return [(-1 + big, hi), (-1 - big, lo), (-1, p ** n - p ** (n - e) - 1)]


def _niho_four_valued_table(n: int, m: int, r1: int) -> list:
    return [
        (-1 - 2 ** m, Fraction(2 ** (n + r1 - 1) - 2 ** (m + r1 - 1), 2 ** r1 + 1)),
        (-1, 2 ** (n - r1) - 2 ** (m - r1)),
        (-1 + 2 ** m, Fraction(2 ** (n + r1 - 1) - 2 ** n + 2 ** (m + r1 - 1), 2 ** r1 - 1)),
        (-1 + 2 ** (r1 + m), Fraction(2 ** n - 2 ** m, 2 ** (3 * r1) - 2 ** r1)),
    ]


def _gauss_sqrt(p: int) -> CycInt:
    """The quadratic exponential sum over GF(p); equals +sqrt(p) in Z[w]
    when p = 1 mod 4 (used for the odd-n helleseth-half values)."""
    counts = [0] * p
    for x in range(p):
        counts[x * x % p] += 1
    return CycInt.from_counts(p, counts)


def _half_div(v: CycInt) -> CycInt:
    coords = []
    for c in v.coords:
        if c % 2:
            raise OutOfDomain("predicted value not divisible by 2 in Z[w]")
        coords.append(c // 2)
    return CycInt(v.p, coords)


# ----------------------------------------------------------------------
# Catalog
# ----------------------------------------------------------------------

def _build_catalog() -> list[FamilyDescriptor]:
    fams: list[FamilyDescriptor] = []

    def e_table(e):
        """The three-valued source table with a fixed e."""
        return lambda p, n, pr: _three_valued_table(p, n, e)

    def k_table(p, n, pr):
        return _three_valued_table(p, n, gcd(n, pr["k"]))

    def k_range(p, n):
        return [{"k": k} for k in range(1, n)]

    def i_range(p, n):
        return [{"i": i} for i in range(n)]

    def kasami_dec(p, n, pr):
        return p ** (2 * pr["k"]) - p ** pr["k"] + 1

    def niho_dec(s):
        """d = s(p^m - 1) + 1, n = 2m."""
        return lambda p, n, pr: s * (p ** (n // 2) - 1) + 1

    def quarter_dec(p, n, pr):
        """d = p^(2m) - p^m + 1, n = 4m."""
        return p ** (n // 2) - p ** (n // 4) + 1

    # ---- three-valued, binary ----------------------------------------

    fams.append(FamilyDescriptor(
        id="gold", label="binary d = 2^k + 1",
        domain=(P2, K_SET, K_NOT_0_MOD_N, N_OVER_GCD_K_ODD),
        formula=lambda p, n, pr: 2 ** pr["k"] + 1,
        source=k_table, candidates=k_range,
    ))

    fams.append(FamilyDescriptor(
        id="kasami-welch", label="binary d = 2^(2k) - 2^k + 1",
        domain=(P2, K_SET, K_NOT_0_MOD_N, N_OVER_GCD_K_ODD), formula=kasami_dec,
        source=k_table, candidates=k_range,
    ))

    fams.append(FamilyDescriptor(
        id="cusick-dobbertin-a", label="binary d = 2^m + 2^((m+1)/2) + 1, n = 2m",
        domain=(P2, M_ODD),
        formula=lambda p, n, pr: 2 ** (n // 2) + 2 ** ((n // 2 + 1) // 2) + 1,
        source=e_table(2),
    ))

    fams.append(FamilyDescriptor(
        id="cusick-dobbertin-b", label="binary d = 2^(m+1) + 3, n = 2m",
        domain=(P2, M_ODD),
        formula=lambda p, n, pr: 2 ** (n // 2 + 1) + 3,
        source=e_table(2),
    ))

    fams.append(FamilyDescriptor(
        id="welch", label="binary d = 2^m + 3, n = 2m + 1",
        domain=(P2, N_ODD, N_GE_3),
        formula=lambda p, n, pr: 2 ** ((n - 1) // 2) + 3,
        source=e_table(1),
    ))

    def niho_hx_dec(p, n, pr):
        # resolved by brute-force three-valued search at n = 7, 9: the
        # second exponent is (n-1)/4 resp. (3n-1)/4 (the printed forms
        # are degenerate); recorded in the build notes.
        if n % 4 == 1:
            return 2 ** ((n - 1) // 2) + 2 ** ((n - 1) // 4) - 1
        return 2 ** ((n - 1) // 2) + 2 ** ((3 * n - 1) // 4) - 1

    fams.append(FamilyDescriptor(
        id="niho-hx", label="binary two-term Niho exponent, odd n",
        domain=(P2, N_ODD, N_GE_3), formula=niho_hx_dec, source=e_table(1),
        notes="exponent pair fixed by exhaustive three-valued search at small n",
    ))

    # ---- three-valued, ternary and general odd p ----------------------

    fams.append(FamilyDescriptor(
        id="welch-ternary", label="ternary d = 2*3^m + 1, n = 2m + 1",
        domain=(P3, N_ODD, N_GE_3),
        formula=lambda p, n, pr: 2 * 3 ** ((n - 1) // 2) + 1,
        source=e_table(1),
    ))

    fams.append(FamilyDescriptor(
        id="katz-langevin", label="ternary d = 3^k + 2, n | 4k - 1",
        domain=(P3, N_ODD, N_GE_3, K_SET, N_DIVIDES_4K_MINUS_1),
        formula=lambda p, n, pr: 3 ** pr["k"] + 2,
        source=e_table(1), candidates=k_range,
        notes="condition n | 4k-1 is equivalent to the d = 2*3^r + 1, n | 4r+1 "
              "form under k = n - r; verified three-valued at n = 7 (d = 11)",
    ))

    fams.append(FamilyDescriptor(
        id="trachtenberg-half", label="p odd, d = (p^(2k) + 1)/2",
        domain=(P_ODD, K_SET, N_OVER_GCD_K_ODD),
        formula=lambda p, n, pr: (p ** (2 * pr["k"]) + 1) // 2,
        source=k_table, candidates=k_range,
    ))

    fams.append(FamilyDescriptor(
        id="helleseth-kasami-p", label="p odd, d = p^(2k) - p^k + 1",
        domain=(P_ODD, K_SET, N_OVER_GCD_K_ODD), formula=kasami_dec,
        source=k_table, candidates=k_range,
    ))

    # ---- four-valued, binary (unified Niho table) ----------------------

    fams.append(FamilyDescriptor(
        id="niho-4val-1", label="binary d = 2(2^m - 1) + 1, m even",
        domain=(P2, M_EVEN), formula=niho_dec(2),
        source=lambda p, n, pr: _niho_four_valued_table(n, n // 2, 1),
        source_counts_total="p^n",
    ))

    fams.append(FamilyDescriptor(
        id="niho-4val-2", label="binary d = (2^(m/2) + 1)(2^m - 1) + 2, m even",
        domain=(P2, M_EVEN),
        formula=lambda p, n, pr: (2 ** (n // 4) + 1) * (2 ** (n // 2) - 1) + 2,
        source=lambda p, n, pr: _niho_four_valued_table(n, n // 2, n // 4),
        source_counts_total="p^n",
    ))

    fams.append(FamilyDescriptor(
        id="dobbertin-4val", label="binary d = (2^((m+1)t) - 1)/(2^t - 1), m even",
        domain=(P2, M_EVEN, T_SET, T_BELOW_M, T_COPRIME_N),
        formula=lambda p, n, pr: (2 ** ((n // 2 + 1) * pr["t"]) - 1) // (2 ** pr["t"] - 1),
        source=lambda p, n, pr: _niho_four_valued_table(n, n // 2, 1),
        candidates=lambda p, n: [{"t": t} for t in range(1, n // 2)],
        source_counts_total="p^n",
    ))

    fams.append(FamilyDescriptor(
        id="helleseth-4val-2005",
        label="binary d = ((2^m - 1)/(2^t - 1))(2^m - 1) + 2, 2t | m",
        domain=(P2, N_EVEN, T_SET, TWO_T_DIVIDES_M),
        formula=lambda p, n, pr: ((2 ** (n // 2) - 1) // (2 ** pr["t"] - 1))
        * (2 ** (n // 2) - 1) + 2,
        source=lambda p, n, pr: _niho_four_valued_table(n, n // 2, pr["t"]),
        candidates=lambda p, n: [{"t": t} for t in range(1, n // 4 + 1)],
        source_counts_total="p^n",
    ))

    def unified_dec(p, n, pr):
        m = n // 2
        modulus = 2 ** m + 1
        s = 2 ** pr["r"] * pow((2 ** pr["r"] + pr.get("sign", -1)) % modulus, -1, modulus)
        return niho_decimation(2, m, s % modulus)

    fams.append(FamilyDescriptor(
        id="niho-4val-unified",
        label="binary Niho s = 2^r (2^r +/- 1)^(-1) mod 2^m + 1",
        domain=(P2, N_EVEN, R_SET, SIGN, V2_R_BELOW_V2_M, UNIFIED_INVERTIBLE),
        formula=unified_dec,
        source=lambda p, n, pr: _niho_four_valued_table(n, n // 2, gcd(pr["r"], n // 2)),
        candidates=lambda p, n: [
            {"r": r, "sign": sg} for r in range(1, n // 2) for sg in (-1, 1)],
        source_counts_total="p^n",
    ))

    # ---- four-valued, nonbinary ----------------------------------------

    def h4p_table(p, n, pr):
        q = p ** (n // 2)
        return [
            (-1 - q, Fraction(q * q - q, 3)),
            (-1, Fraction(q * q - q - 2, 2)),
            (-1 + q, q),
            (-1 + 2 * q, Fraction(q * q - q, 6)),
        ]

    fams.append(FamilyDescriptor(
        id="helleseth-4val-p", label="p odd, d = 2 p^m - 1, n = 2m",
        domain=(P_ODD, N_EVEN, HALF_POWER_NOT_2_MOD_3),
        formula=lambda p, n, pr: 2 * p ** (n // 2) - 1,
        source=h4p_table,
    ))

    def xia4_table(p, n, pr):
        # distribution written with r = k (confirmed by brute force at k = 1)
        k = n // 3
        return [
            (-1, 2 * 3 ** (3 * k - 1) + 3 ** (2 * k - 1) - 3 ** k - 1),
            (-1 + 3 ** (2 * k), 3 ** k),
            (-1 + 3 ** ((3 * k + 1) // 2), Fraction(3 ** (3 * k - 1) - 3 ** (2 * k - 1), 2)),
            (-1 - 3 ** ((3 * k + 1) // 2), Fraction(3 ** (3 * k - 1) - 3 ** (2 * k - 1), 2)),
        ]

    fams.append(FamilyDescriptor(
        id="xia-ternary-4val", label="ternary d = 3^k + 2 or 3^(2k) + 2, n = 3k odd k",
        domain=(P3, N_3K_K_ODD, FORM),
        formula=lambda p, n, pr: 3 ** (n // 3) + 2 if pr["form"] == 1
        else 3 ** (2 * (n // 3)) + 2,
        source=xia4_table,
        candidates=lambda p, n: [{"form": 1}, {"form": 2}],
    ))

    # ---- five-valued -----------------------------------------------------

    def h5_table(p, n, pr):
        m = n // 2
        b3 = 2 ** m + (-1) ** (m + 1) + 1
        q = 2 ** m
        return [
            (-1 - q, Fraction(2 ** (2 * m - 1)) - Fraction(b3, 8) * q - Fraction(q, 2)),
            (-1, Fraction(q * b3 + q // 2 - 3, 3)),
            (-1 + q, Fraction(2 ** (2 * m - 1)) - Fraction(b3, 4) * q),
            (-1 + 2 * q, q // 2),
            (-1 + 3 * q, Fraction(Fraction(b3, 8) * q - q // 2, 3)),
        ]

    fams.append(FamilyDescriptor(
        id="helleseth-5val", label="binary d = 2^m + 3, n = 2m",
        domain=(P2, N_EVEN, N_GE_3),
        formula=lambda p, n, pr: 2 ** (n // 2) + 3,
        source=h5_table,
    ))

    def dob5_table(p, n, pr):
        r = n // 4
        return [
            (-1, 2 ** (4 * r - 1) - 2 ** (3 * r - 2)),
            (-1 + 2 ** (2 * r), Fraction(2 ** (4 * r - 1) + 2 ** (3 * r - 1), 3)),
            (-1 - 2 ** (2 * r), Fraction(2 ** (4 * r - 1) + 2 ** (3 * r - 1), 3)),
            (-1 + 2 ** (2 * r + 1),
             Fraction(2 ** (4 * r - 2) - 2 ** (3 * r - 3), 3) + 2 ** (2 * r - 2)),
            (-1 - 2 ** (2 * r + 1),
             Fraction(2 ** (4 * r - 2) - 2 ** (3 * r - 3), 3) - 2 ** (2 * r - 2)),
        ]

    fams.append(FamilyDescriptor(
        id="dobbertin-5val", label="binary d = 2^(2r) + 2^r + 1, n = 4r odd r",
        domain=(P2, N_4R_R_ODD),
        formula=lambda p, n, pr: 2 ** (n // 2) + 2 ** (n // 4) + 1,
        source=dob5_table, source_counts_total="p^n",
    ))

    def frac_dec(p, n, pr):
        lm, km = _FRAC_PAIRS[pr["pair"]]
        t = pr["t"]
        return resolve_fraction(2 ** (lm * t) + 1, 2 ** (km * t) + 1, 2 ** n - 1)

    def frac_values(p, n, pr):
        e = gcd(n, pr["t"])
        return [-1,
                -1 + 2 ** ((n + e) // 2), -1 - 2 ** ((n + e) // 2),
                -1 + 2 ** ((n + 3 * e) // 2), -1 - 2 ** ((n + 3 * e) // 2)]

    fams.append(FamilyDescriptor(
        id="kasami-frac", label="binary d = (2^(lt) + 1)/(2^(kt) + 1), odd n",
        domain=(P2, N_ODD, PAIR, T_SET), formula=frac_dec, source=frac_values,
        candidates=lambda p, n: [
            {"pair": pr_, "t": t} for pr_ in _FRAC_PAIRS for t in range(1, n)],
        status="at-most-k", source_counts_total="value set",
    ))

    def dfhr_even_table(p, n, pr):
        m = n // 2
        q = 2 ** m
        a = q * tau_value(m)  # integer
        return [
            (-1 - q, Fraction(11 * q * q - a - 10 * q + 1, 30)),
            (-1, Fraction(3 * q * q + a - 4 * q - 9, 8)),
            (-1 + q, Fraction(q * q - a + 6 * q + 1, 6)),
            (-1 + 2 * q, Fraction(q * q + a - 2 * q - 1, 12)),
            (-1 + 4 * q, Fraction(q * q - a + 1, 120)),
        ]

    fams.append(FamilyDescriptor(
        id="dfhr-s3", label="binary d = 3(2^m - 1) + 1, m even (m != 2 mod 4)",
        domain=(P2, M_EVEN, M_NOT_2_MOD_4), formula=niho_dec(3), source=dfhr_even_table,
    ))

    fams.append(FamilyDescriptor(
        id="hkl-s4", label="binary d = 4(2^m - 1) + 1, m even",
        domain=(P2, M_EVEN), formula=niho_dec(4),
        source=lambda p, n, pr: [-1 + j * 2 ** (n // 2) for j in (-1, 0, 1, 2, 4)],
        status="at-most-k", source_counts_total="value set",
    ))

    def xia5_table(p, n, pr):
        m = n // 2
        q = 3 ** m
        sg = (-1) ** m
        return [
            (-1 - q, Fraction(11 * q * q - 16 * q - sg * q + 6, 30)),
            (-1, Fraction(3 * q * q + 2 * q + sg * q - 14, 8)),
            (-1 + q, Fraction(q * q - sg * q + 6, 6)),
            (-1 + 2 * q, Fraction(q * q + 4 * q + sg * q - 6, 12)),
            (-1 + 4 * q, Fraction(q * q - 6 * q - sg * q + 6, 120)),
        ]

    fams.append(FamilyDescriptor(
        id="xia-ternary-5val", label="ternary d = 3(3^m - 1) + 1, m != 2 mod 4",
        domain=(P3, M_NOT_2_MOD_4), formula=niho_dec(3), source=xia5_table,
    ))

    def half_table(p, n, pr):
        P = p ** n
        if n % 2 == 0:
            root = _as_cyc(p, p ** (n // 2))
        else:
            # p = 1 mod 4 here; sqrt(p^n) = p^((n-1)/2) * (quadratic sum)
            root = _gauss_sqrt(p) * p ** ((n - 1) // 2)
        half_hi = _half_div(root + P)
        half_lo = _half_div(-root + P)
        return [
            (-1, Fraction(P - 5, 2)),
            (root - 1, Fraction(P - 1, 4)),
            (-root - 1, Fraction(P - 1, 4)),
            (half_hi - 1, 1),
            (half_lo - 1, 1),
        ]

    fams.append(FamilyDescriptor(
        id="helleseth-half", label="p odd, d = (p^n - 1)/2 + p^i",
        domain=(P_ODD, PN_1_MOD_4, I_BELOW_N),
        formula=lambda p, n, pr: (p ** n - 1) // 2 + p ** pr["i"],
        source=half_table, candidates=i_range,
        notes="gamma is the non-square normalizer; for odd n the two single "
              "occurrences are irrational real algebraic integers",
    ))

    # ---- six-valued -------------------------------------------------------

    def th78_table(p, n, pr):
        Q = 2 ** (n // 4)
        return [
            # leading value -1 + Q^2 is forced by sum(value*count) = 1 and
            # by the p-ary analogue at p = 2
            (-1 + Q * Q, Fraction(Q ** 4 - Q, 3)),
            (-1, Q ** 4 // 2 - Q ** 3 // 2 + Q ** 2 // 2 - Q // 2 - 2),
            (-1 - Q * Q, Q ** 3 - Q * Q),
            (-1 - 2 * Q * Q, Fraction(Q ** 4 - 3 * Q ** 3 + 3 * Q ** 2 - Q, 6)),
            (-1 + Q ** 3, 1),
            (-1 + Q * Q * (Q - 1), Q),
        ]

    fams.append(FamilyDescriptor(
        id="th-h-1978", label="binary d = 2^(2m) - 2^m + 1, n = 4m even m",
        domain=(P2, M_EVEN, M_NOT_2_MOD_4), formula=quarter_dec, source=th78_table,
        notes="leading value -1 + 2^(2m), pinned by the moment identity and "
              "brute force at m = 2",
    ))

    def dfhr_odd_table(p, n, pr):
        m = n // 2
        q = 2 ** m
        a = q * tau_value(m)
        return [
            (-1 - q, Fraction(11 * q * q - a - 22 * q + 1, 30)),
            (-1, Fraction(9 * q * q + 3 * a + 16 * q - 23, 24)),
            (-1 + q, Fraction(q * q - a - 3, 6)),
            (-1 + 2 * q, Fraction(q * q + a - 2 * q + 11, 12)),
            (-1 + 3 * q, Fraction(q - 2, 3)),
            (-1 + 4 * q, Fraction(q * q - a - 12 * q + 21, 120)),
        ]

    fams.append(FamilyDescriptor(
        id="dfhr-s3-odd", label="binary d = 3(2^m - 1) + 1, m odd",
        domain=(P2, M_ODD, N_GE_3), formula=niho_dec(3), source=dfhr_odd_table,
    ))

    def dfhr_odd_kloosterman_table(p, n, pr):
        m = n // 2
        q = 2 ** m
        R = kloosterman_weighted_sum(m)
        return [
            (-1 - q, Fraction(11 * q * q - 24 * q + R, 30)),
            (-1, Fraction(9 * q * q + 22 * q - 3 * R - 20, 24)),
            (-1 + q, Fraction(q * q - 2 * q + R - 4, 6)),
            (-1 + 2 * q, Fraction(q * q - R + 12, 12)),
            (-1 + 3 * q, Fraction(q - 2, 3)),
            (-1 + 4 * q, Fraction(q * q - 14 * q + R + 20, 120)),
        ]

    fams.append(FamilyDescriptor(
        id="dfhr-s3-odd-kloosterman",
        label="binary d = 3(2^m - 1) + 1, m odd, Kloosterman-sum form",
        domain=(P2, M_ODD, N_GE_3), formula=niho_dec(3),
        source=dfhr_odd_kloosterman_table,
        notes="counts parameterized by the weighted Kloosterman double sum",
    ))

    fams.append(FamilyDescriptor(
        id="hkl-s4-odd", label="binary d = 4(2^m - 1) + 1, m odd",
        domain=(P2, M_ODD), formula=niho_dec(4),
        source=lambda p, n, pr: [-1 + j * 2 ** (n // 2) for j in (-1, 0, 1, 2, 3, 4)],
        status="at-most-k", source_counts_total="value set",
    ))

    def third_table(p, n, pr):
        m = n // 2
        P = p ** n
        A = (-1) ** (m + 1) * p ** m
        f = ((P - 1) // 3) * p ** pr["i"] % 3
        common = [
            (-1, Fraction(4 * P + 2 * A - (29 if f == 0 else 20), 9)),
            (-1 + A, Fraction(2 * P - 2 * A - 4, 9)),
            (-1 - A, Fraction(8 * P - 2 * A - (10 if f == 0 else 28), 27)),
            (-1 + 2 * A, Fraction(P + 2 * A + (1 if f == 0 else -8), 27)),
        ]
        if f == 0:
            extra = [(-1 + (P - 2 * A) // 3, 1), (-1 + (P + A) // 3, 2)]
        else:
            extra = [(-1 + (P - 2 * A) // 3, 2), (-1 + (P + 4 * A) // 3, 1)]
        return common + extra

    fams.append(FamilyDescriptor(
        id="helleseth-third", label="p = 2 mod 3, d = (p^n - 1)/3 + p^i, n = 2m",
        domain=(P_2_MOD_3, N_EVEN, I_BELOW_N, THIRD_F_NOT_2),
        formula=lambda p, n, pr: (p ** n - 1) // 3 + p ** pr["i"],
        source=third_table, candidates=i_range,
    ))

    def h2003_table(p, n, pr):
        Q = p ** (n // 4)
        return [
            (-1 - 2 * Q * Q, Fraction(Q ** 4 - 3 * Q ** 3 + 3 * Q ** 2 - Q, 6)),
            (-1 - Q * Q, Q ** 3 - Q * Q),
            (-1, Fraction(Q ** 4 - Q ** 3 + Q ** 2 - Q - 4, 2)),
            (-1 + Q * Q, Fraction(Q ** 4 - Q, 3)),
            (-1 + Q ** 3 - Q * Q, Q),
            (-1 + Q ** 3, 1),
        ]

    fams.append(FamilyDescriptor(
        id="helleseth-2003", label="d = p^(2m) - p^m + 1, n = 4m, p^m != 2 mod 3",
        domain=(M_EVEN, QUARTER_POWER_NOT_2_MOD_3),
        formula=quarter_dec, source=h2003_table,
    ))

    return fams


_CATALOG: list[FamilyDescriptor] | None = None


def catalog() -> list[FamilyDescriptor]:
    """All cataloged family descriptors; ids are stable across versions."""
    global _CATALOG
    if _CATALOG is None:
        _CATALOG = _build_catalog()
    return list(_CATALOG)


def get_family(family_id: str) -> FamilyDescriptor:
    for f in catalog():
        if f.id == family_id:
            return f
    raise OutOfDomain(f"unknown family {family_id!r}")


def predicted_spectrum(family_id: str, p: int, n: int, params: dict):
    """Exact predicted table (or admissible value set) for one instance."""
    return get_family(family_id).predicted(p, n, params)


THREE_VALUED_FAMILY_IDS = (
    "gold", "kasami-welch", "cusick-dobbertin-a", "cusick-dobbertin-b",
    "welch", "niho-hx", "welch-ternary", "katz-langevin",
    "trachtenberg-half", "helleseth-kasami-p",
)


def three_valued_decimations(p: int, n: int) -> dict[int, list]:
    """Every d predicted three-valued at (p, n) by the catalog, with the
    family instances that produce it.  Coprime and nondegenerate only."""
    degenerate = degenerate_set(p, n)
    out: dict[int, list] = {}
    for fid in THREE_VALUED_FAMILY_IDS:
        fam = get_family(fid)
        for params in fam.instances(p, n):
            d = fam.decimation(p, n, params)
            if d in degenerate:
                continue
            out.setdefault(d, []).append((fid, params))
    return out


# ----------------------------------------------------------------------
# Verification
# ----------------------------------------------------------------------

@dataclass
class Verdict:
    family: str
    p: int
    n: int
    params: dict
    d: int
    status: str
    passed: bool
    detail: str = ""
    computed: tuple | None = field(default=None, repr=False)   # (rows, counts)
    predicted: object = field(default=None, repr=False)

    def to_dict(self) -> dict:
        pred = self.predicted
        if isinstance(pred, AtMostKValues):
            pred_json = {"at_most": pred.k,
                         "values": [v.to_json() for v in pred.sorted_values()]}
        else:
            pred_json = None if pred is None else Entries(self.p, *pred)
        return {
            "family": self.family,
            "p": self.p,
            "n": self.n,
            "params": self.params,
            "d": self.d,
            "status": self.status,
            "verdict": "pass" if self.passed else "fail",
            "detail": self.detail,
            "computed": None if self.computed is None
            else Entries(self.p, *self.computed),
            "predicted": pred_json,
        }


def _diff(p: int, a: tuple, b: tuple) -> str:
    """The values whose counts differ between two records, in value order."""
    a, b = ({tuple(r): c for r, c in zip(rows.tolist(), counts.tolist())}
            for rows, counts in (a, b))
    return "; ".join(f"value {CycInt(p, k)!r}: {a.get(k, 0)} vs {b.get(k, 0)}"
                     for k in sorted(a.keys() | b.keys(), key=value_key)
                     if a.get(k, 0) != b.get(k, 0))


def verify_family(family_id: str, p: int, n: int, params: dict,
                  computed: tuple) -> Verdict:
    """Check a computed record (`spectra.class_record`) against the family:
    proved-distribution, the same record (a = 0 normalized); at-most-k,
    every computed value admissible, which bounds the count by k."""
    fam = get_family(family_id)
    d = fam.decimation(p, n, params)
    pred = fam.predicted(p, n, params)
    if isinstance(pred, AtMostKValues):
        admissible = {v.coords for v in pred.values}
        extra = [repr(CycInt(p, r)) for r in computed[0].tolist()
                 if tuple(r) not in admissible]
        ok = not extra
        detail = "" if ok else f"values outside the admissible set: {extra}"
    else:
        ok = all(map(np.array_equal, pred, computed))
        detail = "" if ok else _diff(p, pred, computed)
    return Verdict(family=family_id, p=p, n=n, params=dict(params), d=d,
                   status=fam.status, passed=ok, detail=detail,
                   computed=computed, predicted=pred)


# ----------------------------------------------------------------------
# Coset decomposition method
# ----------------------------------------------------------------------

def coset_spectrum_method(ctx: FieldCtx, d: int, N: int) -> tuple:
    """The record of the spectrum via the N-coset decomposition.

    Applicable when (d * p^j - 1) * N = 0 mod p^n - 1 for some twist j:
    then with d1 = d p^j, each W(alpha^tau) is (1/N) sum over j < N of
    S(alpha^(j d1) - alpha^(tau + j)), where S(c) = sum_x w^(Tr(c x^N))
    depends only on the coset of c among the N-th power classes.

    S(alpha^k) for k < N is counted from the m-sequence at k, k + N, ...:
    x^N meets each N-th power N times and x = 0 adds 1; S(0) = p^n.  All
    p^n - 1 shifts are then one (p^n - 1, N) array of coset indices, whose
    rows of S are summed and divided by N, in O(p^n N p) memory.
    """
    L = ctx.period
    p = ctx.p
    if gcd(d, L) != 1:
        raise OutOfDomain(f"gcd({d}, {L}) != 1")
    if N < 2 or L % N:
        raise OutOfDomain(f"N = {N} does not divide p^n - 1 = {L}")
    twists = (d * pow(p, j, L) % L for j in range(ctx.n))
    d1 = next((t for t in twists if (t - 1) % (L // N) == 0), None)
    if d1 is None:
        raise OutOfDomain(
            f"(d p^j - 1) N != 0 mod p^n - 1 for every j < {ctx.n}")

    # counts[k, r]: the x != 0 with Tr(alpha^k x^N) = r, plus x = 0 at r = 0
    coset = ctx.mseq.reshape(-1, N) + p * np.arange(N)
    counts = N * np.bincount(coset.ravel(), minlength=N * p).reshape(N, p)
    counts[:, 0] += 1
    S = np.zeros((N + 1, p - 1), dtype=np.int64)
    S[:N] = counts[:, :-1] - counts[:, -1:]
    S[N, 0] = ctx.order   # S(0), at index N

    exp = ctx.exp_table
    j = np.arange(N, dtype=np.int64)
    tau = np.arange(L, dtype=np.int64)[:, None]
    c = ctx.sub(exp[j * d1 % L], exp[(tau + j) % L])
    W = S[np.where(c == 0, N, ctx.log_table[c] % N)].sum(axis=1)
    if (W % N).any():
        raise OutOfDomain("coset sum not divisible by N; decomposition invalid")
    C = (W // N).astype(np.int32)
    C[:, 0] -= 1
    return value_ordered(*np.unique(C, axis=0, return_counts=True))
