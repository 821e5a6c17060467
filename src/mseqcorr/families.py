"""Catalog of decimation families with few-valued crosscorrelation spectra.

Each descriptor bundles an applicability predicate over (p, n, params), the
decimation formula, and a predicted-spectrum generator built from the
published closed forms.  Families whose sources count the a = 0 transform
point (their tables sum to p^n) are normalized here by decrementing the -1
count once, so every predicted table sums to p^n - 1 and satisfies
sum(value * count) = 1; which convention each source table used was settled
once by brute force and is fixed in the descriptor.

Status values: "proved-distribution" descriptors predict exact multisets;
"at-most-k" descriptors predict an admissible value set of size <= k.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

import numpy as np

from .cyclo import CycInt
from .errors import OutOfDomain
from .expsums import kloosterman_weighted_sum, tau_value
from .gf import FieldCtx
from .niho import niho_decimation, resolve_fraction
from .spectra import SpectrumTable, _as_cyc, make_spectrum


def tau(m: int) -> Fraction:
    """Exact rational tau_m (see expsums.tau_value)."""
    return tau_value(m)


@dataclass(frozen=True)
class AtMostKValues:
    """Admissible value set for families whose distribution is not settled."""

    k: int
    values: frozenset

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


def _value_set(p: int, values) -> frozenset:
    return frozenset(_as_cyc(p, v) for v in values)


class FamilyDescriptor:
    """One cataloged decimation family."""

    def __init__(self, id, label, status, prime_constraint, source_counts_total,
                 applicable, decimation, predicted, instances, notes=""):
        self.id = id
        self.label = label
        self.status = status
        self.prime_constraint = prime_constraint
        self.source_counts_total = source_counts_total
        self._applicable = applicable
        self._decimation = decimation
        self._predicted = predicted
        self._instances = instances
        self.notes = notes

    def check_domain(self, p: int, n: int, params: dict) -> str | None:
        """None if (p, n, params) is admissible, else the violated constraint."""
        return self._applicable(p, n, params)

    def decimation(self, p: int, n: int, params: dict) -> int:
        viol = self.check_domain(p, n, params)
        if viol:
            raise OutOfDomain(viol)
        d = self._decimation(p, n, params) % (p ** n - 1)
        return d

    def predicted(self, p: int, n: int, params: dict):
        viol = self.check_domain(p, n, params)
        if viol:
            raise OutOfDomain(viol)
        d = self.decimation(p, n, params)
        if gcd(d, p ** n - 1) != 1:
            raise OutOfDomain(f"decimation {d} not coprime to {p ** n - 1}")
        return self._predicted(p, n, params, d)

    def param_keys(self, p: int, n: int) -> set:
        """The parameter names the family's candidate dicts carry at (p, n)."""
        return set().union(*self._instances(p, n))

    def instances(self, p: int, n: int) -> list[dict]:
        """Admissible parameter dicts at (p, n), coprime decimations only."""
        out = []
        for params in self._instances(p, n):
            if self.check_domain(p, n, params):
                continue
            d = self._decimation(p, n, params) % (p ** n - 1)
            if gcd(d, p ** n - 1) == 1:
                out.append(params)
        return out

    def __repr__(self):
        return f"FamilyDescriptor({self.id!r}, status={self.status!r})"


# ----------------------------------------------------------------------
# Shared closed-form builders
# ----------------------------------------------------------------------

def _three_valued_table(p: int, n: int, e: int, d: int) -> SpectrumTable:
    """values -1 +/- p^((n+e)/2) and -1; the classical three-valued split."""
    big = p ** ((n + e) // 2)
    if p == 2:
        hi = 2 ** (n - e - 1) + 2 ** ((n - e - 2) // 2)
        lo = 2 ** (n - e - 1) - 2 ** ((n - e - 2) // 2)
    else:
        hi = Fraction(p ** (n - e) + p ** ((n - e) // 2), 2)
        lo = Fraction(p ** (n - e) - p ** ((n - e) // 2), 2)
    rows = [(-1 + big, hi), (-1 - big, lo), (-1, p ** n - p ** (n - e) - 1)]
    return _assemble(p, n, d, rows, include_zero_shift=False)


def _niho_four_valued_table(n: int, m: int, r1: int, d: int) -> SpectrumTable:
    rows = [
        (-1 - 2 ** m, Fraction(2 ** (n + r1 - 1) - 2 ** (m + r1 - 1), 2 ** r1 + 1)),
        (-1, 2 ** (n - r1) - 2 ** (m - r1)),
        (-1 + 2 ** m, Fraction(2 ** (n + r1 - 1) - 2 ** n + 2 ** (m + r1 - 1), 2 ** r1 - 1)),
        (-1 + 2 ** (r1 + m), Fraction(2 ** n - 2 ** m, 2 ** (3 * r1) - 2 ** r1)),
    ]
    return _assemble(2, n, d, rows, include_zero_shift=True)


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
        id="gold", label="binary d = 2^k + 1", status="proved-distribution",
        prime_constraint="p = 2", source_counts_total="p^n-1",
        applicable=gold_dom,
        decimation=lambda p, n, pr: 2 ** pr["k"] + 1,
        predicted=lambda p, n, pr, d: _three_valued_table(2, n, gcd(n, pr["k"]), d),
        instances=lambda p, n: [{"k": k} for k in range(1, n)] if p == 2 else [],
    ))

    fams.append(FamilyDescriptor(
        id="kasami-welch", label="binary d = 2^(2k) - 2^k + 1",
        status="proved-distribution",
        prime_constraint="p = 2", source_counts_total="p^n-1",
        applicable=gold_dom,
        decimation=lambda p, n, pr: 2 ** (2 * pr["k"]) - 2 ** pr["k"] + 1,
        predicted=lambda p, n, pr, d: _three_valued_table(2, n, gcd(n, pr["k"]), d),
        instances=lambda p, n: [{"k": k} for k in range(1, n)] if p == 2 else [],
    ))

    def cd_dom(p, n, pr):
        if p != 2:
            return "p must be 2"
        if n % 2 or (n // 2) % 2 == 0:
            return "n = 2m with m odd required"
        return None

    fams.append(FamilyDescriptor(
        id="cusick-dobbertin-a", label="binary d = 2^m + 2^((m+1)/2) + 1, n = 2m",
        status="proved-distribution",
        prime_constraint="p = 2", source_counts_total="p^n-1",
        applicable=cd_dom,
        decimation=lambda p, n, pr: 2 ** (n // 2) + 2 ** ((n // 2 + 1) // 2) + 1,
        predicted=lambda p, n, pr, d: _three_valued_table(2, n, 2, d),
        instances=lambda p, n: [{}] if p == 2 else [],
    ))

    fams.append(FamilyDescriptor(
        id="cusick-dobbertin-b", label="binary d = 2^(m+1) + 3, n = 2m",
        status="proved-distribution",
        prime_constraint="p = 2", source_counts_total="p^n-1",
        applicable=cd_dom,
        decimation=lambda p, n, pr: 2 ** (n // 2 + 1) + 3,
        predicted=lambda p, n, pr, d: _three_valued_table(2, n, 2, d),
        instances=lambda p, n: [{}] if p == 2 else [],
    ))

    fams.append(FamilyDescriptor(
        id="welch", label="binary d = 2^m + 3, n = 2m + 1",
        status="proved-distribution",
        prime_constraint="p = 2", source_counts_total="p^n-1",
        applicable=lambda p, n, pr: None if (p == 2 and n % 2 == 1 and n >= 3)
        else "p = 2, odd n >= 3 required",
        decimation=lambda p, n, pr: 2 ** ((n - 1) // 2) + 3,
        predicted=lambda p, n, pr, d: _three_valued_table(2, n, 1, d),
        instances=lambda p, n: [{}] if p == 2 else [],
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
        status="proved-distribution",
        prime_constraint="p = 2", source_counts_total="p^n-1",
        applicable=lambda p, n, pr: None if (p == 2 and n % 2 == 1 and n >= 3)
        else "p = 2, odd n >= 3 required",
        decimation=niho_hx_dec,
        predicted=lambda p, n, pr, d: _three_valued_table(2, n, 1, d),
        instances=lambda p, n: [{}] if p == 2 else [],
        notes="exponent pair fixed by exhaustive three-valued search at small n",
    ))

    # ---- three-valued, ternary and general odd p ----------------------

    fams.append(FamilyDescriptor(
        id="welch-ternary", label="ternary d = 2*3^m + 1, n = 2m + 1",
        status="proved-distribution",
        prime_constraint="p = 3", source_counts_total="p^n-1",
        applicable=lambda p, n, pr: None if (p == 3 and n % 2 == 1 and n >= 3)
        else "p = 3, odd n >= 3 required",
        decimation=lambda p, n, pr: 2 * 3 ** ((n - 1) // 2) + 1,
        predicted=lambda p, n, pr, d: _three_valued_table(3, n, 1, d),
        instances=lambda p, n: [{}] if p == 3 else [],
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

    def kl_instances(p, n):
        if p != 3 or n % 2 == 0 or n < 3 or gcd(4, n) != 1:
            return []
        k = pow(4, -1, n) % n
        if k == 0:
            k = n
        return [{"k": k}]

    fams.append(FamilyDescriptor(
        id="katz-langevin", label="ternary d = 3^k + 2, n | 4k - 1",
        status="proved-distribution",
        prime_constraint="p = 3", source_counts_total="p^n-1",
        applicable=kl_dom,
        decimation=lambda p, n, pr: 3 ** pr["k"] + 2,
        predicted=lambda p, n, pr, d: _three_valued_table(3, n, 1, d),
        instances=kl_instances,
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
        status="proved-distribution",
        prime_constraint="p odd", source_counts_total="p^n-1",
        applicable=tra_dom,
        decimation=lambda p, n, pr: (p ** (2 * pr["k"]) + 1) // 2,
        predicted=lambda p, n, pr, d: _three_valued_table(p, n, gcd(n, pr["k"]), d),
        instances=lambda p, n: [{"k": k} for k in range(1, n)] if p != 2 else [],
    ))

    fams.append(FamilyDescriptor(
        id="helleseth-kasami-p", label="p odd, d = p^(2k) - p^k + 1",
        status="proved-distribution",
        prime_constraint="p odd", source_counts_total="p^n-1",
        applicable=tra_dom,
        decimation=lambda p, n, pr: p ** (2 * pr["k"]) - p ** pr["k"] + 1,
        predicted=lambda p, n, pr, d: _three_valued_table(p, n, gcd(n, pr["k"]), d),
        instances=lambda p, n: [{"k": k} for k in range(1, n)] if p != 2 else [],
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
        status="proved-distribution",
        prime_constraint="p = 2", source_counts_total="p^n",
        applicable=even_m_dom,
        decimation=lambda p, n, pr: 2 * (2 ** (n // 2) - 1) + 1,
        predicted=lambda p, n, pr, d: _niho_four_valued_table(n, n // 2, 1, d),
        instances=lambda p, n: [{}] if p == 2 else [],
    ))

    fams.append(FamilyDescriptor(
        id="niho-4val-2", label="binary d = (2^(m/2) + 1)(2^m - 1) + 2, m even",
        status="proved-distribution",
        prime_constraint="p = 2", source_counts_total="p^n",
        applicable=even_m_dom,
        decimation=lambda p, n, pr: (2 ** (n // 4) + 1) * (2 ** (n // 2) - 1) + 2,
        predicted=lambda p, n, pr, d: _niho_four_valued_table(n, n // 2, n // 4, d),
        instances=lambda p, n: [{}] if p == 2 else [],
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
        status="proved-distribution",
        prime_constraint="p = 2", source_counts_total="p^n",
        applicable=dob4_dom,
        decimation=lambda p, n, pr: (2 ** ((n // 2 + 1) * pr["t"]) - 1) // (2 ** pr["t"] - 1),
        predicted=lambda p, n, pr, d: _niho_four_valued_table(n, n // 2, 1, d),
        instances=lambda p, n: [
            {"t": t} for t in range(1, n // 2) if gcd(t, n) == 1
        ] if p == 2 and n % 4 == 0 else [],
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
        status="proved-distribution",
        prime_constraint="p = 2", source_counts_total="p^n",
        applicable=h2005_dom,
        decimation=lambda p, n, pr: ((2 ** (n // 2) - 1) // (2 ** pr["t"] - 1))
        * (2 ** (n // 2) - 1) + 2,
        predicted=lambda p, n, pr, d: _niho_four_valued_table(n, n // 2, pr["t"], d),
        instances=lambda p, n: [
            {"t": t} for t in range(1, n // 4 + 1) if (n // 2) % (2 * t) == 0
        ] if p == 2 and n % 2 == 0 else [],
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
        status="proved-distribution",
        prime_constraint="p = 2", source_counts_total="p^n",
        applicable=unified_dom,
        decimation=unified_dec,
        predicted=lambda p, n, pr, d: _niho_four_valued_table(
            n, n // 2, gcd(pr["r"], n // 2), d),
        instances=lambda p, n: [
            {"r": r, "sign": sg}
            for r in range(1, n // 2) for sg in (-1, 1)
        ] if p == 2 and n % 2 == 0 else [],
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

    def h4p_table(p, n, pr, d):
        q = p ** (n // 2)
        rows = [
            (-1 - q, Fraction(q * q - q, 3)),
            (-1, Fraction(q * q - q - 2, 2)),
            (-1 + q, q),
            (-1 + 2 * q, Fraction(q * q - q, 6)),
        ]
        return _assemble(p, n, d, rows, include_zero_shift=False)

    fams.append(FamilyDescriptor(
        id="helleseth-4val-p", label="p odd, d = 2 p^m - 1, n = 2m",
        status="proved-distribution",
        prime_constraint="p odd, p^m != 2 mod 3", source_counts_total="p^n-1",
        applicable=h4p_dom,
        decimation=lambda p, n, pr: 2 * p ** (n // 2) - 1,
        predicted=h4p_table,
        instances=lambda p, n: [{}] if p != 2 else [],
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

    def xia4_table(p, n, pr, d):
        # distribution written with r = k (confirmed by brute force at k = 1)
        k = n // 3
        rows = [
            (-1, 2 * 3 ** (3 * k - 1) + 3 ** (2 * k - 1) - 3 ** k - 1),
            (-1 + 3 ** (2 * k), 3 ** k),
            (-1 + 3 ** ((3 * k + 1) // 2), Fraction(3 ** (3 * k - 1) - 3 ** (2 * k - 1), 2)),
            (-1 - 3 ** ((3 * k + 1) // 2), Fraction(3 ** (3 * k - 1) - 3 ** (2 * k - 1), 2)),
        ]
        return _assemble(3, n, d, rows, include_zero_shift=False)

    fams.append(FamilyDescriptor(
        id="xia-ternary-4val", label="ternary d = 3^k + 2 or 3^(2k) + 2, n = 3k odd k",
        status="proved-distribution",
        prime_constraint="p = 3", source_counts_total="p^n-1",
        applicable=xia4_dom,
        decimation=lambda p, n, pr: 3 ** (n // 3) + 2 if pr["form"] == 1
        else 3 ** (2 * (n // 3)) + 2,
        predicted=xia4_table,
        instances=lambda p, n: [{"form": 1}, {"form": 2}]
        if p == 3 and n % 3 == 0 else [],
    ))

    # ---- five-valued -----------------------------------------------------

    def h5_dom(p, n, pr):
        if p != 2 or n % 2 or n < 4:
            return "p = 2, n = 2m >= 4 required"
        return None

    def h5_table(p, n, pr, d):
        m = n // 2
        b3 = 2 ** m + (-1) ** (m + 1) + 1
        q = 2 ** m
        rows = [
            (-1 - q, Fraction(2 ** (2 * m - 1)) - Fraction(b3, 8) * q - Fraction(q, 2)),
            (-1, Fraction(q * b3 + q // 2 - 3, 3)),
            (-1 + q, Fraction(2 ** (2 * m - 1)) - Fraction(b3, 4) * q),
            (-1 + 2 * q, q // 2),
            (-1 + 3 * q, Fraction(Fraction(b3, 8) * q - q // 2, 3)),
        ]
        return _assemble(2, n, d, rows, include_zero_shift=False)

    fams.append(FamilyDescriptor(
        id="helleseth-5val", label="binary d = 2^m + 3, n = 2m",
        status="proved-distribution",
        prime_constraint="p = 2", source_counts_total="p^n-1",
        applicable=h5_dom,
        decimation=lambda p, n, pr: 2 ** (n // 2) + 3,
        predicted=h5_table,
        instances=lambda p, n: [{}] if p == 2 else [],
    ))

    def dob5_dom(p, n, pr):
        if p != 2 or n % 4 or (n // 4) % 2 == 0:
            return "p = 2, n = 4r with r odd required"
        return None

    def dob5_table(p, n, pr, d):
        r = n // 4
        rows = [
            (-1, 2 ** (4 * r - 1) - 2 ** (3 * r - 2)),
            (-1 + 2 ** (2 * r), Fraction(2 ** (4 * r - 1) + 2 ** (3 * r - 1), 3)),
            (-1 - 2 ** (2 * r), Fraction(2 ** (4 * r - 1) + 2 ** (3 * r - 1), 3)),
            (-1 + 2 ** (2 * r + 1),
             Fraction(2 ** (4 * r - 2) - 2 ** (3 * r - 3), 3) + 2 ** (2 * r - 2)),
            (-1 - 2 ** (2 * r + 1),
             Fraction(2 ** (4 * r - 2) - 2 ** (3 * r - 3), 3) - 2 ** (2 * r - 2)),
        ]
        return _assemble(2, n, d, rows, include_zero_shift=True)

    fams.append(FamilyDescriptor(
        id="dobbertin-5val", label="binary d = 2^(2r) + 2^r + 1, n = 4r odd r",
        status="proved-distribution",
        prime_constraint="p = 2", source_counts_total="p^n",
        applicable=dob5_dom,
        decimation=lambda p, n, pr: 2 ** (n // 2) + 2 ** (n // 4) + 1,
        predicted=dob5_table,
        instances=lambda p, n: [{}] if p == 2 else [],
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

    def frac_values(p, n, pr, d):
        e = gcd(n, pr["t"])
        vals = [-1,
                -1 + 2 ** ((n + e) // 2), -1 - 2 ** ((n + e) // 2),
                -1 + 2 ** ((n + 3 * e) // 2), -1 - 2 ** ((n + 3 * e) // 2)]
        return AtMostKValues(k=5, values=_value_set(2, vals))

    fams.append(FamilyDescriptor(
        id="kasami-frac", label="binary d = (2^(lt) + 1)/(2^(kt) + 1), odd n",
        status="at-most-k",
        prime_constraint="p = 2", source_counts_total="value set",
        applicable=frac_dom,
        decimation=frac_dec,
        predicted=frac_values,
        instances=lambda p, n: [
            {"pair": pr_, "t": t} for pr_ in _FRAC_PAIRS for t in range(1, n)
        ] if p == 2 and n % 2 else [],
    ))

    def dfhr_even_dom(p, n, pr):
        if p != 2 or n % 2:
            return "p = 2, n = 2m required"
        m = n // 2
        if m % 2 or m % 4 == 2:
            return "m even, m != 2 mod 4 required"
        return None

    def dfhr_even_table(p, n, pr, d):
        m = n // 2
        q = 2 ** m
        a = q * tau_value(m)  # integer
        rows = [
            (-1 - q, Fraction(11 * q * q - a - 10 * q + 1, 30)),
            (-1, Fraction(3 * q * q + a - 4 * q - 9, 8)),
            (-1 + q, Fraction(q * q - a + 6 * q + 1, 6)),
            (-1 + 2 * q, Fraction(q * q + a - 2 * q - 1, 12)),
            (-1 + 4 * q, Fraction(q * q - a + 1, 120)),
        ]
        return _assemble(2, n, d, rows, include_zero_shift=False)

    fams.append(FamilyDescriptor(
        id="dfhr-s3", label="binary d = 3(2^m - 1) + 1, m even (m != 2 mod 4)",
        status="proved-distribution",
        prime_constraint="p = 2", source_counts_total="p^n-1",
        applicable=dfhr_even_dom,
        decimation=lambda p, n, pr: 3 * (2 ** (n // 2) - 1) + 1,
        predicted=dfhr_even_table,
        instances=lambda p, n: [{}] if p == 2 else [],
    ))

    def hkl_dom_even(p, n, pr):
        if p != 2 or n % 2 or (n // 2) % 2:
            return "p = 2, n = 2m with m even required"
        return None

    fams.append(FamilyDescriptor(
        id="hkl-s4", label="binary d = 4(2^m - 1) + 1, m even",
        status="at-most-k",
        prime_constraint="p = 2", source_counts_total="value set",
        applicable=hkl_dom_even,
        decimation=lambda p, n, pr: 4 * (2 ** (n // 2) - 1) + 1,
        predicted=lambda p, n, pr, d: AtMostKValues(
            k=5, values=_value_set(2, [-1 + j * 2 ** (n // 2) for j in (-1, 0, 1, 2, 4)])),
        instances=lambda p, n: [{}] if p == 2 else [],
    ))

    def xia5_dom(p, n, pr):
        if p != 3 or n % 2:
            return "p = 3, n = 2m required"
        if (n // 2) % 4 == 2:
            return "m != 2 mod 4 required"
        return None

    def xia5_table(p, n, pr, d):
        m = n // 2
        q = 3 ** m
        sg = (-1) ** m
        rows = [
            (-1 - q, Fraction(11 * q * q - 16 * q - sg * q + 6, 30)),
            (-1, Fraction(3 * q * q + 2 * q + sg * q - 14, 8)),
            (-1 + q, Fraction(q * q - sg * q + 6, 6)),
            (-1 + 2 * q, Fraction(q * q + 4 * q + sg * q - 6, 12)),
            (-1 + 4 * q, Fraction(q * q - 6 * q - sg * q + 6, 120)),
        ]
        return _assemble(3, n, d, rows, include_zero_shift=False)

    fams.append(FamilyDescriptor(
        id="xia-ternary-5val", label="ternary d = 3(3^m - 1) + 1, m != 2 mod 4",
        status="proved-distribution",
        prime_constraint="p = 3", source_counts_total="p^n-1",
        applicable=xia5_dom,
        decimation=lambda p, n, pr: 3 * (3 ** (n // 2) - 1) + 1,
        predicted=xia5_table,
        instances=lambda p, n: [{}] if p == 3 else [],
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

    def half_table(p, n, pr, d):
        P = p ** n
        if n % 2 == 0:
            root = _as_cyc(p, p ** (n // 2))
        else:
            # p = 1 mod 4 here; sqrt(p^n) = p^((n-1)/2) * (quadratic sum)
            root = _gauss_sqrt(p) * p ** ((n - 1) // 2)
        half_hi = _half_div(root + P)
        half_lo = _half_div(-root + P)
        rows = [
            (-1, Fraction(P - 5, 2)),
            (root - 1, Fraction(P - 1, 4)),
            (-root - 1, Fraction(P - 1, 4)),
            (half_hi - 1, 1),
            (half_lo - 1, 1),
        ]
        return _assemble(p, n, d, rows, include_zero_shift=False)

    fams.append(FamilyDescriptor(
        id="helleseth-half", label="p odd, d = (p^n - 1)/2 + p^i",
        status="proved-distribution",
        prime_constraint="p odd, p^n = 1 mod 4", source_counts_total="p^n-1",
        applicable=half_dom,
        decimation=lambda p, n, pr: (p ** n - 1) // 2 + p ** pr["i"],
        predicted=half_table,
        instances=lambda p, n: [{"i": i} for i in range(n)] if p != 2 else [],
        notes="gamma is the non-square normalizer; for odd n the two single "
              "occurrences are irrational real algebraic integers",
    ))

    # ---- six-valued -------------------------------------------------------

    def th78_dom(p, n, pr):
        if p != 2 or n % 4 or (n // 4) % 2:
            return "p = 2, n = 4m with m even required"
        return None

    def th78_table(p, n, pr, d):
        Q = 2 ** (n // 4)
        rows = [
            # leading value -1 + Q^2 is forced by sum(value*count) = 1 and
            # by the p-ary analogue at p = 2
            (-1 + Q * Q, Fraction(Q ** 4 - Q, 3)),
            (-1, Q ** 4 // 2 - Q ** 3 // 2 + Q ** 2 // 2 - Q // 2 - 2),
            (-1 - Q * Q, Q ** 3 - Q * Q),
            (-1 - 2 * Q * Q, Fraction(Q ** 4 - 3 * Q ** 3 + 3 * Q ** 2 - Q, 6)),
            (-1 + Q ** 3, 1),
            (-1 + Q * Q * (Q - 1), Q),
        ]
        return _assemble(2, n, d, rows, include_zero_shift=False)

    fams.append(FamilyDescriptor(
        id="th-h-1978", label="binary d = 2^(2m) - 2^m + 1, n = 4m even m",
        status="proved-distribution",
        prime_constraint="p = 2", source_counts_total="p^n-1",
        applicable=th78_dom,
        decimation=lambda p, n, pr: 2 ** (n // 2) - 2 ** (n // 4) + 1,
        predicted=th78_table,
        instances=lambda p, n: [{}] if p == 2 else [],
        notes="leading value -1 + 2^(2m), pinned by the moment identity and "
              "brute force at m = 2",
    ))

    def s3_odd_dom(p, n, pr):
        if p != 2 or n % 2 or (n // 2) % 2 == 0 or n < 6:
            return "p = 2, n = 2m with odd m >= 3 required"
        return None

    def dfhr_odd_table(p, n, pr, d):
        m = n // 2
        q = 2 ** m
        a = q * tau_value(m)
        rows = [
            (-1 - q, Fraction(11 * q * q - a - 22 * q + 1, 30)),
            (-1, Fraction(9 * q * q + 3 * a + 16 * q - 23, 24)),
            (-1 + q, Fraction(q * q - a - 3, 6)),
            (-1 + 2 * q, Fraction(q * q + a - 2 * q + 11, 12)),
            (-1 + 3 * q, Fraction(q - 2, 3)),
            (-1 + 4 * q, Fraction(q * q - a - 12 * q + 21, 120)),
        ]
        return _assemble(2, n, d, rows, include_zero_shift=False)

    fams.append(FamilyDescriptor(
        id="dfhr-s3-odd", label="binary d = 3(2^m - 1) + 1, m odd",
        status="proved-distribution",
        prime_constraint="p = 2", source_counts_total="p^n-1",
        applicable=s3_odd_dom,
        decimation=lambda p, n, pr: 3 * (2 ** (n // 2) - 1) + 1,
        predicted=dfhr_odd_table,
        instances=lambda p, n: [{}] if p == 2 else [],
    ))

    def dfhr_odd_kloosterman_table(p, n, pr, d):
        m = n // 2
        q = 2 ** m
        R = kloosterman_weighted_sum(m)
        rows = [
            (-1 - q, Fraction(11 * q * q - 24 * q + R, 30)),
            (-1, Fraction(9 * q * q + 22 * q - 3 * R - 20, 24)),
            (-1 + q, Fraction(q * q - 2 * q + R - 4, 6)),
            (-1 + 2 * q, Fraction(q * q - R + 12, 12)),
            (-1 + 3 * q, Fraction(q - 2, 3)),
            (-1 + 4 * q, Fraction(q * q - 14 * q + R + 20, 120)),
        ]
        return _assemble(2, n, d, rows, include_zero_shift=False)

    fams.append(FamilyDescriptor(
        id="dfhr-s3-odd-kloosterman",
        label="binary d = 3(2^m - 1) + 1, m odd, Kloosterman-sum form",
        status="proved-distribution",
        prime_constraint="p = 2", source_counts_total="p^n-1",
        applicable=s3_odd_dom,
        decimation=lambda p, n, pr: 3 * (2 ** (n // 2) - 1) + 1,
        predicted=dfhr_odd_kloosterman_table,
        instances=lambda p, n: [{}] if p == 2 else [],
        notes="counts parameterized by the weighted Kloosterman double sum",
    ))

    def hkl_dom_odd(p, n, pr):
        if p != 2 or n % 2 or (n // 2) % 2 == 0:
            return "p = 2, n = 2m with m odd required"
        return None

    fams.append(FamilyDescriptor(
        id="hkl-s4-odd", label="binary d = 4(2^m - 1) + 1, m odd",
        status="at-most-k",
        prime_constraint="p = 2", source_counts_total="value set",
        applicable=hkl_dom_odd,
        decimation=lambda p, n, pr: 4 * (2 ** (n // 2) - 1) + 1,
        predicted=lambda p, n, pr, d: AtMostKValues(
            k=6, values=_value_set(2, [-1 + j * 2 ** (n // 2) for j in (-1, 0, 1, 2, 3, 4)])),
        instances=lambda p, n: [{}] if p == 2 else [],
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

    def third_table(p, n, pr, d):
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
        return _assemble(p, n, d, common + extra, include_zero_shift=False)

    fams.append(FamilyDescriptor(
        id="helleseth-third", label="p = 2 mod 3, d = (p^n - 1)/3 + p^i, n = 2m",
        status="proved-distribution",
        prime_constraint="p = 2 mod 3", source_counts_total="p^n-1",
        applicable=third_dom,
        decimation=lambda p, n, pr: (p ** n - 1) // 3 + p ** pr["i"],
        predicted=third_table,
        instances=lambda p, n: [{"i": i} for i in range(n)] if p % 3 == 2 else [],
    ))

    def h2003_dom(p, n, pr):
        if n % 4:
            return "n = 4m required"
        if p ** (n // 4) % 3 == 2:
            return "p^m != 2 mod 3 required"
        return None

    def h2003_table(p, n, pr, d):
        Q = p ** (n // 4)
        rows = [
            (-1 - 2 * Q * Q, Fraction(Q ** 4 - 3 * Q ** 3 + 3 * Q ** 2 - Q, 6)),
            (-1 - Q * Q, Q ** 3 - Q * Q),
            (-1, Fraction(Q ** 4 - Q ** 3 + Q ** 2 - Q - 4, 2)),
            (-1 + Q * Q, Fraction(Q ** 4 - Q, 3)),
            (-1 + Q ** 3 - Q * Q, Q),
            (-1 + Q ** 3, 1),
        ]
        return _assemble(p, n, d, rows, include_zero_shift=False)

    fams.append(FamilyDescriptor(
        id="helleseth-2003", label="d = p^(2m) - p^m + 1, n = 4m, p^m != 2 mod 3",
        status="proved-distribution",
        prime_constraint="any p with p^m != 2 mod 3", source_counts_total="p^n-1",
        applicable=h2003_dom,
        decimation=lambda p, n, pr: p ** (n // 2) - p ** (n // 4) + 1,
        predicted=h2003_table,
        instances=lambda p, n: [{}],
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
    at-most-k: value-set containment and cardinality bound."""
    fam = get_family(family_id)
    d = fam.decimation(p, n, params)
    pred = fam.predicted(p, n, params)
    if isinstance(pred, AtMostKValues):
        extra = computed.values() - set(pred.values)
        ok = not extra and computed.num_values() <= pred.k
        detail = "" if ok else (
            f"values outside the admissible set: {[repr(v) for v in extra]}"
            if extra else f"{computed.num_values()} values > bound {pred.k}"
        )
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
