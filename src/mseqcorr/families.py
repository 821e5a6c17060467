"""Catalog of decimation families with few-valued crosscorrelation spectra.

Each `FamilyDescriptor` holds one family's own data: its applicability
predicate over (p, n, params), its decimation formula, its source table
(the published closed form as (value, count) rows, or the admissible values
of a family whose distribution is not settled), and the parameter dicts to
try at (p, n).  The catalog-wide steps are its methods, each written once:
`decimation` raises `OutOfDomain` off the predicate or when d is not coprime
to p^n - 1; `instances` keeps exactly the candidates that pass that check;
`predicted` normalizes the source rows.  Sources that count the a = 0
transform point (their rows sum to p^n, `source_counts_total == "p^n"`) are
normalized there by decrementing the -1 count once, so every predicted
table sums to p^n - 1 and satisfies sum(value * count) = 1; which convention
each source table used was settled once by brute force and is fixed in the
descriptor.

Status values: "proved-distribution" descriptors predict exact multisets;
"at-most-k" descriptors predict an admissible value set of size <= k.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Callable

import numpy as np

from .cyclo import CycInt
from .errors import OutOfDomain
from .expsums import kloosterman_weighted_sum, tau_value
from .gf import FieldCtx
from .niho import niho_decimation, resolve_fraction
from .spectra import SpectrumTable, _as_cyc, make_spectrum


@dataclass(frozen=True)
class AtMostKValues:
    """Admissible value set for families whose distribution is not settled;
    the spectrum takes at most k = len(values) distinct values."""

    values: frozenset

    @property
    def k(self) -> int:
        return len(self.values)

    def sorted_values(self):
        return sorted(self.values, key=lambda v: v.sort_key())


def _v2(x: int) -> int:
    k = 0
    while x % 2 == 0 and x:
        x //= 2
        k += 1
    return k


def _assemble(p: int, n: int, d: int, rows, include_zero_shift: bool) -> SpectrumTable:
    """Merge (value, count) rows into a normalized predicted table."""
    acc: dict[CycInt, Fraction] = {}
    for v, c in rows:
        key = _as_cyc(p, v)
        acc[key] = acc.get(key, Fraction(0)) + Fraction(c)
    if include_zero_shift:
        minus1 = CycInt.from_int(p, -1)
        acc[minus1] = acc.get(minus1, Fraction(0)) - 1
    entries: dict[CycInt, int] = {}
    for k, c in acc.items():
        if c.denominator != 1:
            raise OutOfDomain(f"non-integer predicted count {c} for value {k!r}")
        ci = int(c)
        if ci < 0:
            raise OutOfDomain(f"negative predicted count {ci} for value {k!r}")
        if ci:
            entries[k] = ci
    table = SpectrumTable(p=p, n=n, d=d, entries=entries, method="predicted")
    if table.total() != p ** n - 1:
        raise OutOfDomain(
            f"predicted counts sum to {table.total()}, expected {p ** n - 1}"
        )
    return table


def _no_params(p: int, n: int) -> list[dict]:
    return [{}]


@dataclass(frozen=True)
class FamilyDescriptor:
    """One cataloged decimation family.

    check_domain(p, n, params) is None on the family's domain, else the
    violated constraint; formula(p, n, params) is its decimation d;
    source(p, n, params) is its source table: (value, count) rows, summing
    to p^n or p^n - 1 as `source_counts_total` says, or the admissible
    values when status is "at-most-k"; candidates(p, n) are the parameter
    dicts `instances` tries.
    """

    id: str
    label: str
    check_domain: Callable[[int, int, dict], str | None]
    formula: Callable[[int, int, dict], int]
    source: Callable[[int, int, dict], list]
    candidates: Callable[[int, int], list[dict]] = _no_params
    status: str = "proved-distribution"
    source_counts_total: str = "p^n-1"
    notes: str = ""

    def decimation(self, p: int, n: int, params: dict) -> int:
        """d mod p^n - 1; OutOfDomain off the domain or when d is not
        coprime to p^n - 1."""
        viol = self.check_domain(p, n, params)
        if viol:
            raise OutOfDomain(viol)
        L = p ** n - 1
        d = self.formula(p, n, params) % L
        if gcd(d, L) != 1:
            raise OutOfDomain(f"decimation {d} not coprime to {L}")
        return d

    def predicted(self, p: int, n: int, params: dict):
        """The predicted table, a = 0 normalized, or the admissible values."""
        d = self.decimation(p, n, params)
        rows = self.source(p, n, params)
        if self.status == "at-most-k":
            return AtMostKValues(frozenset(_as_cyc(p, v) for v in rows))
        return _assemble(p, n, d, rows, self.source_counts_total == "p^n")

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
    """values -1 +/- p^((n+e)/2) and -1; the classical three-valued split."""
    big = p ** ((n + e) // 2)
    if p == 2:
        hi = 2 ** (n - e - 1) + 2 ** ((n - e - 2) // 2)
        lo = 2 ** (n - e - 1) - 2 ** ((n - e - 2) // 2)
    else:
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

    def gold_dom(p, n, pr):
        if p != 2:
            return "p must be 2"
        k = pr.get("k")
        if not k or k < 1:
            return "k >= 1 required"
        e = gcd(n, k)
        if e == n:
            return "k = 0 mod n is degenerate"
        if (n // e) % 2 == 0:
            return "n/gcd(n,k) must be odd"
        return None

    fams.append(FamilyDescriptor(
        id="gold", label="binary d = 2^k + 1",
        check_domain=gold_dom,
        formula=lambda p, n, pr: 2 ** pr["k"] + 1,
        source=k_table, candidates=k_range,
    ))

    fams.append(FamilyDescriptor(
        id="kasami-welch", label="binary d = 2^(2k) - 2^k + 1",
        check_domain=gold_dom, formula=kasami_dec,
        source=k_table, candidates=k_range,
    ))

    def cd_dom(p, n, pr):
        if p != 2:
            return "p must be 2"
        if n % 2 or (n // 2) % 2 == 0:
            return "n = 2m with m odd required"
        return None

    fams.append(FamilyDescriptor(
        id="cusick-dobbertin-a", label="binary d = 2^m + 2^((m+1)/2) + 1, n = 2m",
        check_domain=cd_dom,
        formula=lambda p, n, pr: 2 ** (n // 2) + 2 ** ((n // 2 + 1) // 2) + 1,
        source=e_table(2),
    ))

    fams.append(FamilyDescriptor(
        id="cusick-dobbertin-b", label="binary d = 2^(m+1) + 3, n = 2m",
        check_domain=cd_dom,
        formula=lambda p, n, pr: 2 ** (n // 2 + 1) + 3,
        source=e_table(2),
    ))

    def odd_n_dom(p, n, pr):
        return None if (p == 2 and n % 2 == 1 and n >= 3) else "p = 2, odd n >= 3 required"

    fams.append(FamilyDescriptor(
        id="welch", label="binary d = 2^m + 3, n = 2m + 1",
        check_domain=odd_n_dom,
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
        check_domain=odd_n_dom, formula=niho_hx_dec, source=e_table(1),
        notes="exponent pair fixed by exhaustive three-valued search at small n",
    ))

    # ---- three-valued, ternary and general odd p ----------------------

    fams.append(FamilyDescriptor(
        id="welch-ternary", label="ternary d = 2*3^m + 1, n = 2m + 1",
        check_domain=lambda p, n, pr: None if (p == 3 and n % 2 == 1 and n >= 3)
        else "p = 3, odd n >= 3 required",
        formula=lambda p, n, pr: 2 * 3 ** ((n - 1) // 2) + 1,
        source=e_table(1),
    ))

    def kl_dom(p, n, pr):
        if p != 3:
            return "p must be 3"
        if n % 2 == 0 or n < 3:
            return "odd n >= 3 required"
        k = pr.get("k")
        if not k or (4 * k - 1) % n:
            return "need n | 4k - 1"
        return None

    fams.append(FamilyDescriptor(
        id="katz-langevin", label="ternary d = 3^k + 2, n | 4k - 1",
        check_domain=kl_dom,
        formula=lambda p, n, pr: 3 ** pr["k"] + 2,
        source=e_table(1), candidates=k_range,
        notes="condition n | 4k-1 is equivalent to the d = 2*3^r + 1, n | 4r+1 "
              "form under k = n - r; verified three-valued at n = 7 (d = 11)",
    ))

    def tra_dom(p, n, pr):
        if p == 2:
            return "odd p required"
        k = pr.get("k")
        if not k or k < 1:
            return "k >= 1 required"
        if (n // gcd(n, k)) % 2 == 0:
            return "n/gcd(n,k) must be odd"
        return None

    fams.append(FamilyDescriptor(
        id="trachtenberg-half", label="p odd, d = (p^(2k) + 1)/2",
        check_domain=tra_dom,
        formula=lambda p, n, pr: (p ** (2 * pr["k"]) + 1) // 2,
        source=k_table, candidates=k_range,
    ))

    fams.append(FamilyDescriptor(
        id="helleseth-kasami-p", label="p odd, d = p^(2k) - p^k + 1",
        check_domain=tra_dom, formula=kasami_dec,
        source=k_table, candidates=k_range,
    ))

    # ---- four-valued, binary (unified Niho table) ----------------------

    def even_m_dom(p, n, pr):
        if p != 2:
            return "p must be 2"
        if n % 2 or (n // 2) % 2:
            return "n = 2m with m even required"
        return None

    fams.append(FamilyDescriptor(
        id="niho-4val-1", label="binary d = 2(2^m - 1) + 1, m even",
        check_domain=even_m_dom, formula=niho_dec(2),
        source=lambda p, n, pr: _niho_four_valued_table(n, n // 2, 1),
        source_counts_total="p^n",
    ))

    fams.append(FamilyDescriptor(
        id="niho-4val-2", label="binary d = (2^(m/2) + 1)(2^m - 1) + 2, m even",
        check_domain=even_m_dom,
        formula=lambda p, n, pr: (2 ** (n // 4) + 1) * (2 ** (n // 2) - 1) + 2,
        source=lambda p, n, pr: _niho_four_valued_table(n, n // 2, n // 4),
        source_counts_total="p^n",
    ))

    def dob4_dom(p, n, pr):
        base = even_m_dom(p, n, pr)
        if base:
            return base
        t = pr.get("t")
        m = n // 2
        if not t or not (0 < t < m):
            return "0 < t < m required"
        if gcd(t, n) != 1:
            return "gcd(t, n) = 1 required"
        return None

    fams.append(FamilyDescriptor(
        id="dobbertin-4val", label="binary d = (2^((m+1)t) - 1)/(2^t - 1), m even",
        check_domain=dob4_dom,
        formula=lambda p, n, pr: (2 ** ((n // 2 + 1) * pr["t"]) - 1) // (2 ** pr["t"] - 1),
        source=lambda p, n, pr: _niho_four_valued_table(n, n // 2, 1),
        candidates=lambda p, n: [{"t": t} for t in range(1, n // 2)],
        source_counts_total="p^n",
    ))

    def h2005_dom(p, n, pr):
        if p != 2 or n % 2:
            return "p = 2, even n required"
        t = pr.get("t")
        m = n // 2
        if not t or t < 1 or m % (2 * t):
            return "2t | m required"
        return None

    fams.append(FamilyDescriptor(
        id="helleseth-4val-2005",
        label="binary d = ((2^m - 1)/(2^t - 1))(2^m - 1) + 2, 2t | m",
        check_domain=h2005_dom,
        formula=lambda p, n, pr: ((2 ** (n // 2) - 1) // (2 ** pr["t"] - 1))
        * (2 ** (n // 2) - 1) + 2,
        source=lambda p, n, pr: _niho_four_valued_table(n, n // 2, pr["t"]),
        candidates=lambda p, n: [{"t": t} for t in range(1, n // 4 + 1)],
        source_counts_total="p^n",
    ))

    def unified_dom(p, n, pr):
        if p != 2 or n % 2:
            return "p = 2, n = 2m required"
        m = n // 2
        r, sign = pr.get("r"), pr.get("sign", -1)
        if not r or r < 1:
            return "r >= 1 required"
        if sign not in (1, -1):
            return "sign must be +1 or -1"
        if _v2(r) >= _v2(m):
            return "v2(r) < v2(m) required"
        modulus = 2 ** m + 1
        if gcd((2 ** r + sign) % modulus, modulus) != 1:
            return "2^r + sign not invertible mod 2^m + 1"
        return None

    def unified_dec(p, n, pr):
        m = n // 2
        modulus = 2 ** m + 1
        s = 2 ** pr["r"] * pow((2 ** pr["r"] + pr.get("sign", -1)) % modulus, -1, modulus)
        return niho_decimation(2, m, s % modulus)

    fams.append(FamilyDescriptor(
        id="niho-4val-unified",
        label="binary Niho s = 2^r (2^r +/- 1)^(-1) mod 2^m + 1",
        check_domain=unified_dom, formula=unified_dec,
        source=lambda p, n, pr: _niho_four_valued_table(n, n // 2, gcd(pr["r"], n // 2)),
        candidates=lambda p, n: [
            {"r": r, "sign": sg} for r in range(1, n // 2) for sg in (-1, 1)],
        source_counts_total="p^n",
    ))

    # ---- four-valued, nonbinary ----------------------------------------

    def h4p_dom(p, n, pr):
        if p == 2:
            return "odd p required"
        if n % 2:
            return "n = 2m required"
        if p ** (n // 2) % 3 == 2:
            return "p^m != 2 mod 3 required"
        return None

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
        check_domain=h4p_dom,
        formula=lambda p, n, pr: 2 * p ** (n // 2) - 1,
        source=h4p_table,
    ))

    def xia4_dom(p, n, pr):
        if p != 3:
            return "p must be 3"
        if n % 3:
            return "n = 3k required"
        k = n // 3
        if k % 2 == 0:
            return "odd k required"
        if pr.get("form") not in (1, 2):
            return "form must be 1 (d = 3^k + 2) or 2 (d = 3^(2k) + 2)"
        return None

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
        check_domain=xia4_dom,
        formula=lambda p, n, pr: 3 ** (n // 3) + 2 if pr["form"] == 1
        else 3 ** (2 * (n // 3)) + 2,
        source=xia4_table,
        candidates=lambda p, n: [{"form": 1}, {"form": 2}],
    ))

    # ---- five-valued -----------------------------------------------------

    def h5_dom(p, n, pr):
        if p != 2 or n % 2 or n < 4:
            return "p = 2, n = 2m >= 4 required"
        return None

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
        check_domain=h5_dom,
        formula=lambda p, n, pr: 2 ** (n // 2) + 3,
        source=h5_table,
    ))

    def dob5_dom(p, n, pr):
        if p != 2 or n % 4 or (n // 4) % 2 == 0:
            return "p = 2, n = 4r with r odd required"
        return None

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
        check_domain=dob5_dom,
        formula=lambda p, n, pr: 2 ** (n // 2) + 2 ** (n // 4) + 1,
        source=dob5_table, source_counts_total="p^n",
    ))

    _FRAC_PAIRS = {"2:1": (2, 1), "5:1": (5, 1), "5:3": (5, 3)}

    def frac_dom(p, n, pr):
        if p != 2 or n % 2 == 0:
            return "p = 2, odd n required"
        if pr.get("pair") not in _FRAC_PAIRS:
            return "pair must be one of 2:1, 5:1, 5:3"
        t = pr.get("t")
        if not t or t < 1:
            return "t >= 1 required"
        return None

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
        check_domain=frac_dom, formula=frac_dec, source=frac_values,
        candidates=lambda p, n: [
            {"pair": pr_, "t": t} for pr_ in _FRAC_PAIRS for t in range(1, n)],
        status="at-most-k", source_counts_total="value set",
    ))

    def dfhr_even_dom(p, n, pr):
        if p != 2 or n % 2:
            return "p = 2, n = 2m required"
        m = n // 2
        if m % 2 or m % 4 == 2:
            return "m even, m != 2 mod 4 required"
        return None

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
        check_domain=dfhr_even_dom, formula=niho_dec(3), source=dfhr_even_table,
    ))

    fams.append(FamilyDescriptor(
        id="hkl-s4", label="binary d = 4(2^m - 1) + 1, m even",
        check_domain=even_m_dom, formula=niho_dec(4),
        source=lambda p, n, pr: [-1 + j * 2 ** (n // 2) for j in (-1, 0, 1, 2, 4)],
        status="at-most-k", source_counts_total="value set",
    ))

    def xia5_dom(p, n, pr):
        if p != 3 or n % 2:
            return "p = 3, n = 2m required"
        if (n // 2) % 4 == 2:
            return "m != 2 mod 4 required"
        return None

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
        check_domain=xia5_dom, formula=niho_dec(3), source=xia5_table,
    ))

    def half_dom(p, n, pr):
        if p == 2:
            return "odd p required"
        if (p ** n) % 4 != 1:
            return "p^n = 1 mod 4 required"
        i = pr.get("i")
        if i is None or not (0 <= i < n):
            return "0 <= i < n required"
        return None

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
        check_domain=half_dom,
        formula=lambda p, n, pr: (p ** n - 1) // 2 + p ** pr["i"],
        source=half_table, candidates=i_range,
        notes="gamma is the non-square normalizer; for odd n the two single "
              "occurrences are irrational real algebraic integers",
    ))

    # ---- six-valued -------------------------------------------------------

    def th78_dom(p, n, pr):
        if p != 2 or n % 4 or (n // 4) % 2:
            return "p = 2, n = 4m with m even required"
        return None

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
        check_domain=th78_dom, formula=quarter_dec, source=th78_table,
        notes="leading value -1 + 2^(2m), pinned by the moment identity and "
              "brute force at m = 2",
    ))

    def s3_odd_dom(p, n, pr):
        if p != 2 or n % 2 or (n // 2) % 2 == 0 or n < 6:
            return "p = 2, n = 2m with odd m >= 3 required"
        return None

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
        check_domain=s3_odd_dom, formula=niho_dec(3), source=dfhr_odd_table,
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
        check_domain=s3_odd_dom, formula=niho_dec(3),
        source=dfhr_odd_kloosterman_table,
        notes="counts parameterized by the weighted Kloosterman double sum",
    ))

    fams.append(FamilyDescriptor(
        id="hkl-s4-odd", label="binary d = 4(2^m - 1) + 1, m odd",
        check_domain=cd_dom, formula=niho_dec(4),
        source=lambda p, n, pr: [-1 + j * 2 ** (n // 2) for j in (-1, 0, 1, 2, 3, 4)],
        status="at-most-k", source_counts_total="value set",
    ))

    def third_dom(p, n, pr):
        if p % 3 != 2:
            return "p = 2 mod 3 required"
        if n % 2:
            return "n = 2m required"
        i = pr.get("i")
        if i is None or not (0 <= i < n):
            return "0 <= i < n required"
        f = ((p ** n - 1) // 3) * p ** i % 3
        if f == 2:
            return "f = (p^n - 1)/3 * p^i must not be 2 mod 3"
        return None

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
        check_domain=third_dom,
        formula=lambda p, n, pr: (p ** n - 1) // 3 + p ** pr["i"],
        source=third_table, candidates=i_range,
    ))

    def h2003_dom(p, n, pr):
        if n % 4:
            return "n = 4m required"
        if p ** (n // 4) % 3 == 2:
            return "p^m != 2 mod 3 required"
        return None

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
        check_domain=h2003_dom, formula=quarter_dec, source=h2003_table,
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
    L = p ** n - 1
    degenerate = {pow(p, j, L) for j in range(n)}
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
    computed: SpectrumTable | None = field(default=None, repr=False)
    predicted: object = field(default=None, repr=False)

    def to_dict(self) -> dict:
        pred = self.predicted
        if isinstance(pred, SpectrumTable):
            pred_json = pred.to_json_dict()["entries"]
        elif isinstance(pred, AtMostKValues):
            pred_json = {"at_most": pred.k,
                         "values": [v.to_json() for v in pred.sorted_values()]}
        else:
            pred_json = None
        return {
            "family": self.family,
            "p": self.p,
            "n": self.n,
            "params": self.params,
            "d": self.d,
            "status": self.status,
            "verdict": "pass" if self.passed else "fail",
            "detail": self.detail,
            "computed": self.computed.to_json_dict()["entries"] if self.computed else None,
            "predicted": pred_json,
        }


def verify_family(family_id: str, p: int, n: int, params: dict,
                  computed: SpectrumTable) -> Verdict:
    """proved-distribution: exact multiset equality (a = 0 normalized);
    at-most-k: value-set containment, which bounds the count by k."""
    fam = get_family(family_id)
    d = fam.decimation(p, n, params)
    pred = fam.predicted(p, n, params)
    if isinstance(pred, AtMostKValues):
        extra = computed.values() - pred.values
        ok = not extra
        detail = "" if ok else f"values outside the admissible set: {[repr(v) for v in extra]}"
    else:
        ok = pred.same_entries(computed)
        detail = "" if ok else pred.diff(computed)
    return Verdict(family=family_id, p=p, n=n, params=dict(params), d=d,
                   status=fam.status, passed=ok, detail=detail,
                   computed=computed, predicted=pred)


# ----------------------------------------------------------------------
# Coset decomposition method
# ----------------------------------------------------------------------

def coset_spectrum_method(ctx: FieldCtx, d: int, N: int) -> SpectrumTable:
    """Spectrum via the N-coset decomposition.

    Applicable when (d * p^j - 1) * N = 0 mod p^n - 1 for some twist j:
    then with d1 = d p^j, each W(alpha^tau) is (1/N) sum over j < N of
    S(alpha^(j d1) - alpha^(tau + j)), where S(c) = sum_x w^(Tr(c x^N))
    depends only on the coset of c among the N-th power classes.
    """
    L = ctx.period
    p = ctx.p
    if gcd(d, L) != 1:
        raise OutOfDomain(f"gcd({d}, {L}) != 1")
    if N < 2 or L % N:
        raise OutOfDomain(f"N = {N} does not divide p^n - 1 = {L}")
    step = L // N
    d1 = None
    for j in range(ctx.n):
        cand = d * pow(p, j, L) % L
        if (cand - 1) % step == 0:
            d1 = cand
            break
    if d1 is None:
        raise OutOfDomain(
            f"(d p^j - 1) N != 0 mod p^n - 1 for every j < {ctx.n}")

    exp = ctx.exp_table
    tr = ctx.trace_table
    # S_k = sum over all x of w^(Tr(alpha^k x^N)): one count pass per coset
    S: list[tuple] = []
    for k in range(N):
        counts = [0] * p
        counts[0] += 1
        for i in range(L):
            counts[int(tr[exp[(k + i * N) % L]])] += 1
        S.append(CycInt.from_counts(p, counts))
    S.append(CycInt.from_int(p, ctx.order))   # S(0), at index N

    log = ctx.log_table
    j = np.arange(N, dtype=np.int64)
    lead = exp[j * d1 % L]
    column_counts: dict[tuple, int] = {}
    for tau in range(L):
        c = ctx.sub(lead, exp[(tau + j) % L])
        acc = sum((S[k] for k in np.where(c == 0, N, log[c] % N)), CycInt.zero(p))
        column_counts[acc.coords] = column_counts.get(acc.coords, 0) + 1

    pairs = []
    for coords, cnt in column_counts.items():
        divided = []
        for c in coords:
            if c % N:
                raise OutOfDomain(
                    "coset sum not divisible by N; decomposition invalid")
            divided.append(c // N)
        w = CycInt(p, divided)
        pairs.append((w - 1, cnt))
    return make_spectrum(p, ctx.n, d, pairs, method="coset")
