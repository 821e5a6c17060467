"""Exact Z[w] arithmetic: representation, ring laws, conjugation."""

import cmath
import random

import pytest

from mseqcorr.cyclo import CycInt, NotRational, coords_json


def _close(z1, z2):
    return abs(z1 - z2) < 1e-9


def test_from_counts_examples():
    assert CycInt.from_counts(2, [5, 2]) == 3
    v = CycInt.from_counts(3, [5, 2, 2])
    assert v.coords == (3, 0)
    assert v == 3
    w = CycInt.from_counts(3, [0, 1, 0])
    assert w.coords == (0, 1)
    assert not w.is_rational


def test_from_counts_shift_invariance():
    rng = random.Random(3)
    for p in (2, 3, 5, 7):
        for _ in range(50):
            counts = [rng.randrange(40) for _ in range(p)]
            c = rng.randrange(1, 9)
            assert CycInt.from_counts(p, counts) == CycInt.from_counts(
                p, [x + c for x in counts])


def test_from_counts_against_complex_evaluation():
    rng = random.Random(5)
    for p in (3, 5, 7, 11):
        w = cmath.exp(2j * cmath.pi / p)
        for _ in range(25):
            counts = [rng.randrange(30) for _ in range(p)]
            v = CycInt.from_counts(p, counts)
            direct = sum(c * w ** j for j, c in enumerate(counts))
            assert _close(v.complex_value(), direct)


def test_as_integer():
    assert CycInt(3, (7, 0)).as_integer() == 7
    with pytest.raises(NotRational):
        CycInt(3, (0, 1)).as_integer()


def test_conjugate():
    v = CycInt.from_int(2, -5)
    assert v.conjugate() == v  # p = 2: identity
    w = CycInt.root_power(3, 1)
    assert w.conjugate().coords == (-1, -1)
    rng = random.Random(9)
    for p in (3, 5, 7):
        for _ in range(50):
            v = CycInt(p, [rng.randrange(-20, 20) for _ in range(p - 1)])
            assert v.conjugate().conjugate() == v
            assert _close(v.conjugate().complex_value(),
                          v.complex_value().conjugate())


def test_ring_laws_randomized():
    rng = random.Random(17)
    for p in (2, 3, 5, 7):
        for _ in range(40):
            a, b, c = (
                CycInt(p, [rng.randrange(-9, 10) for _ in range(p - 1)])
                for _ in range(3)
            )
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert (a * b) * c == a * (b * c)
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c
            assert _close((a * b).complex_value(),
                          a.complex_value() * b.complex_value())


def test_root_power_reduction():
    for p in (3, 5, 7):
        one = CycInt.one(p)
        acc = CycInt.zero(p)
        for j in range(p):
            acc = acc + CycInt.root_power(p, j)
        assert acc.is_zero()  # 1 + w + ... + w^(p-1) = 0
        assert CycInt.root_power(p, 1) ** p == one


def test_int_mixing_and_pow():
    v = CycInt.root_power(5, 1)
    assert (v + 2) - 2 == v
    assert 3 * v == v * 3
    assert v ** 0 == 1
    assert (v ** 5) == 1
    with pytest.raises(ValueError):
        v ** -1


def test_hash_and_dict_keys():
    d = {CycInt.from_int(3, 7): "x"}
    assert d[CycInt(3, (7, 0))] == "x"
    s = {CycInt.root_power(5, 1), CycInt.root_power(5, 1)}
    assert len(s) == 1


def test_json_roundtrip():
    v = CycInt.from_int(3, -4)
    assert v.to_json() == -4 == coords_json(3, [-4, 0])
    w = CycInt(5, (1, -2, 0, 3))
    blob = w.to_json()
    assert blob == {"p": 5, "coords": [1, -2, 0, 3]} == coords_json(5, [1, -2, 0, 3])
    assert CycInt(blob["p"], blob["coords"]) == w
    assert coords_json(2, [7]) == 7


def test_immutability_and_length_check():
    v = CycInt.from_int(3, 1)
    with pytest.raises(AttributeError):
        v.coords = (9, 9)
    with pytest.raises(ValueError):
        CycInt(3, (1, 2, 3))
