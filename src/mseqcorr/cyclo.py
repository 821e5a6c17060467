"""Exact arithmetic in Z[w], w = exp(2*pi*i/p), p prime.

Values are stored as integer coordinates in the basis 1, w, ..., w^(p-2)
after reduction by 1 + w + ... + w^(p-1) = 0, so the representation is
unique and equality/hashing are structural.  Coordinates are arbitrary
precision: fourth power moments reach p^(4n).

For p = 2 the ring is Z itself (w = -1) and coords has length 1.
"""

from __future__ import annotations

from typing import Iterable


class NotRational(ValueError):
    """The value has a nonzero coordinate outside the rational slot."""


class CycInt:
    """An element of Z[w] with unique basis coordinates."""

    __slots__ = ("p", "coords")

    def __init__(self, p: int, coords: Iterable[int]):
        coords = tuple(int(c) for c in coords)
        if len(coords) != p - 1:
            raise ValueError(f"need {p - 1} coordinates for p={p}, got {len(coords)}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "coords", coords)

    def __setattr__(self, *a):
        raise AttributeError("CycInt is immutable")

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, p: int) -> "CycInt":
        return cls(p, (0,) * (p - 1))

    @classmethod
    def one(cls, p: int) -> "CycInt":
        return cls.from_int(p, 1)

    @classmethod
    def from_int(cls, p: int, k: int) -> "CycInt":
        return cls(p, (k,) + (0,) * (p - 2))

    @classmethod
    def root_power(cls, p: int, j: int) -> "CycInt":
        """w^j reduced to basis coordinates."""
        j %= p
        if j < p - 1:
            c = [0] * (p - 1)
            c[j] = 1
            return cls(p, c)
        return cls(p, (-1,) * (p - 1))

    @classmethod
    def from_counts(cls, p: int, counts) -> "CycInt":
        """sum_j counts[j] * w^j for a length-p count vector.

        Invariant under adding a constant to every count (1 + w + ... = 0).
        """
        counts = list(counts)
        if len(counts) != p:
            raise ValueError(f"need {p} counts, got {len(counts)}")
        last = counts[p - 1]
        return cls(p, tuple(counts[j] - last for j in range(p - 1)))

    # -- ring operations --------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, CycInt):
            if other.p != self.p:
                raise ValueError("mixed root orders")
            return other
        if isinstance(other, int):
            return CycInt.from_int(self.p, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycInt(self.p, tuple(a + b for a, b in zip(self.coords, o.coords)))

    __radd__ = __add__

    def __neg__(self):
        return CycInt(self.p, tuple(-a for a in self.coords))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p = self.p
        # convolve with exponents mod p, then kill the w^(p-1) slot
        acc = [0] * p
        for i, a in enumerate(self.coords):
            if a:
                for j, b in enumerate(o.coords):
                    if b:
                        acc[(i + j) % p] += a * b
        last = acc[p - 1]
        return CycInt(p, tuple(acc[j] - last for j in range(p - 1)))

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative powers not defined in Z[w]")
        result = CycInt.one(self.p)
        acc = self
        while e:
            if e & 1:
                result = result * acc
            acc = acc * acc
            e >>= 1
        return result

    # -- structure ----------------------------------------------------------

    def conjugate(self) -> "CycInt":
        """Complex conjugation w -> w^(p-1); fixed points are the real values."""
        p = self.p
        acc = [0] * p
        for j, a in enumerate(self.coords):
            acc[(-j) % p] += a
        last = acc[p - 1]
        return CycInt(p, tuple(acc[j] - last for j in range(p - 1)))

    @property
    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coords[1:])

    def as_integer(self) -> int:
        if not self.is_rational:
            raise NotRational(f"{self!r} is not a rational integer")
        return self.coords[0]

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def complex_value(self) -> complex:
        """Float evaluation, debug/tests only."""
        import cmath

        w = cmath.exp(2j * cmath.pi / self.p)
        return sum(c * w ** j for j, c in enumerate(self.coords))

    # -- plumbing ----------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, int):
            return self.is_rational and self.coords[0] == other
        if isinstance(other, CycInt):
            return self.p == other.p and self.coords == other.coords
        return NotImplemented

    def __hash__(self):
        if self.is_rational:
            return hash(self.coords[0])
        return hash((self.p, self.coords))

    def __repr__(self):
        if self.is_rational:
            return f"CycInt({self.p}, {self.coords[0]})"
        return f"CycInt(p={self.p}, coords={list(self.coords)})"

    def to_json(self):
        """Plain int when rational, else {"p": p, "coords": [...]}."""
        return coords_json(self.p, self.coords)


def coords_json(p: int, coords):
    """The JSON form of the Z[w] value with these basis coordinates, the one
    that `CycInt.to_json` gives, for coordinates held outside a CycInt."""
    if any(coords[1:]):
        return {"p": p, "coords": list(coords)}
    return coords[0]


def value_key(coords) -> tuple:
    """The one order of the values of a spectrum, as a key on their basis
    coordinates: the rational values ascending, then the others in the
    lexicographic order of their coordinates."""
    return any(coords[1:]), tuple(coords)
