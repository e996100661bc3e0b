from fractions import Fraction

import pytest

from cremona_lab.fields import GF, GF2, QQ, FieldError, field_from_descriptor
from cremona_lab.rng import Rng, is_prime, random_prime


def test_qq_canonical():
    assert QQ.parse("2/4") == Fraction(1, 2)
    a = QQ.parse("6/4")
    assert a.numerator == 3 and a.denominator == 2


def test_gf_requires_prime():
    with pytest.raises(FieldError):
        GF(1001)  # 7 * 11 * 13
    GF(1009)


def test_gf_arithmetic_and_inverse():
    F = GF(10007)
    for a in (1, 2, 123, 10006):
        assert F.mul(a, F.inv(a)) == 1
    assert F.add(10006, 1) == 0
    assert F.of(Fraction(1, 2)) == F.inv(2)


def test_gf_of_bad_denominator():
    F = GF(1009)
    with pytest.raises(FieldError):
        F.of(Fraction(1, 1009))


def test_sqrt_gf():
    for p in (10007, 1000003, 1009):
        F = GF(p)
        rng = Rng(p, "sqrt")
        for _ in range(20):
            a = F.rand(rng)
            s = F.sqrt(F.mul(a, a))
            assert s is not None and F.mul(s, s) == F.mul(a, a)
        nr = F.non_residue()
        assert F.sqrt(nr) is None


def test_gf2_field_axioms_and_sqrt():
    F2 = GF2(10007)
    rng = Rng(3, "gf2")
    for _ in range(30):
        a, b = F2.rand(rng), F2.rand(rng)
        assert F2.mul(a, b) == F2.mul(b, a)
        if a != F2.zero:
            assert F2.mul(a, F2.inv(a)) == F2.one
        sq = F2.mul(a, a)
        s = F2.sqrt(sq)
        assert s is not None and F2.mul(s, s) == sq
    # lifts of the base field are always squares
    F = F2.base
    for x in (2, 3, F.non_residue()):
        s = F2.sqrt(F2.lift(x))
        assert s is not None and F2.mul(s, s) == F2.lift(x)


def test_gf2_is_a_field_of_its_own():
    F2 = GF2(101)
    assert not isinstance(F2, GF)
    assert GF(101) != F2 and F2 != GF(101)
    assert F2.base == GF(101) and F2.r == GF(101).non_residue() == 2
    with pytest.raises(FieldError):
        GF2(100)


def test_descriptor_roundtrip():
    assert field_from_descriptor("q") == QQ
    assert field_from_descriptor("gf:10007") == GF(10007)
    with pytest.raises(FieldError):
        field_from_descriptor("gf:10")


def test_prime_generation():
    rng = Rng(1, "p")
    for _ in range(5):
        p = random_prime(rng, 10**6, 2**31)
        assert 10**6 < p < 2**31 and is_prime(p)
