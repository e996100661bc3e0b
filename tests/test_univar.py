"""Root finding over GF(p), GF(p^2) and Q: the pinned values are those of
the quadratic formula and splitting draws the package has always used."""

import time
from fractions import Fraction

from cremona_lab import univar
from cremona_lab.fields import GF, GF2, QQ
from cremona_lab.rng import Rng

F = GF(101)  # 101 = 5 mod 8, so 2 is the smallest non-residue
F2 = GF2(101)


def test_quadratic_roots_square_discriminant_stays_in_the_field():
    # (x - 3)(x - 5): disc 4 is a square, so GF2 is not used even if given
    assert univar.quadratic_roots([15, 93, 1], F) == (F, [3, 5])
    assert univar.quadratic_roots([15, 93, 1], F, F2) == (F, [3, 5])


def test_quadratic_roots_non_square_discriminant():
    # 3x^2 + x + 5: disc 1 - 60 = 42 is a non-residue mod 101
    assert univar.quadratic_roots([5, 1, 3], F) is None
    K, roots = univar.quadratic_roots([5, 1, 3], F, F2)
    assert K == F2 and roots == [(84, 3), (84, 98)]
    for r in roots:
        v = F2.add(F2.mul(F2.lift(3), F2.mul(r, r)), F2.add(r, F2.lift(5)))
        assert v == F2.zero


def test_quadratic_roots_over_q():
    assert univar.quadratic_roots([Fraction(6), Fraction(-5), Fraction(1)], QQ) \
        == (QQ, [Fraction(3), Fraction(2)])
    assert univar.quadratic_roots([Fraction(-2), Fraction(0), Fraction(1)], QQ) is None



def test_rational_roots_of_a_polynomial_with_twenty_digit_coefficients():
    # x (a x - b)(c x + d)(x - 1)^2 (x^2 + x + 1) / 3: coefficients of about
    # 20 digits, whose divisors trial division could not list in time
    a, b, c, d = 9_876_543_211, 1_234_567_891, 7_777_777_781, 3_333_333_337
    f = [Fraction(1, 3)]
    for g in ([-b, a], [d, c], [-1, 1], [-1, 1], [1, 1, 1], [0, 1]):
        f = univar.mul(f, [Fraction(x) for x in g], QQ)
    assert max(len(str(x.numerator)) for x in f) in (20, 21)
    t0 = time.perf_counter()
    got = univar.roots_qq(f, QQ)
    assert time.perf_counter() - t0 < 0.5
    assert got == [Fraction(-d, c), Fraction(0), Fraction(b, a), Fraction(1)]


def test_rational_roots_edge_cases():
    assert univar.roots_qq([Fraction(5)], QQ) == []
    assert univar.roots_qq([Fraction(0), Fraction(0), Fraction(2)], QQ) == [Fraction(0)]
    # x^2 - 2 has no rational root; 4x^2 - 1 has two
    assert univar.roots_qq([Fraction(-2), Fraction(0), Fraction(1)], QQ) == []
    assert univar.roots_qq([Fraction(-1), Fraction(0), Fraction(4)], QQ) \
        == [Fraction(-1, 2), Fraction(1, 2)]


# (x - 3)(x - 50)(x - 7)^2 (x^2 - 2)(x^2 + x + 1)(x^2 + 3x + 5) over GF(101)
MIXED = [28, 70, 88, 13, 81, 2, 85, 12, 74, 38, 1]


def test_roots_and_irreducible_quadratics_of_a_mixed_product():
    assert univar.roots_gf(MIXED, F, Rng(7, "roots")) == [3, 7, 50]
    # the order of the quadratics is the order of the splitting draws
    assert univar.irreducible_quadratics(MIXED, F, Rng(7, "quads")) \
        == [[5, 3, 1], [99, 0, 1], [1, 1, 1]]
    assert univar.irreducible_quadratics(MIXED, F, Rng(8, "quads")) \
        == [[99, 0, 1], [5, 3, 1], [1, 1, 1]]


def test_one_frobenius_gives_roots_and_quadratics():
    """x^(p^2) mod f from x^p mod f composed with itself, and both root
    problems from one x^p mod f, as the separate calls give them."""
    f, xp, lin = univar._squarefree_frobenius(MIXED, F)
    x = [F.zero, F.one]
    assert univar._compose_mod(xp, xp, f, F) == univar.powmod(x, F.p * F.p, f, F)
    roots, quads = univar.roots_and_quadratics(MIXED, F, Rng(7))
    assert roots == univar.roots_gf(MIXED, F, Rng(7, "roots")) == [3, 7, 50]
    assert sorted(quads) == sorted(univar.irreducible_quadratics(MIXED, F, Rng(7, "quads")))
