import gc
from fractions import Fraction

import pytest

from cremona_lab import linalg
from cremona_lab.fields import GF, QQ
from cremona_lab.poly import (EXP_MAX, GREVLEX, LEX, ElimBlock, ParseError, PolyError,
                              WeightedGrevlex, _grevlex_key, _ring_cache, parse_poly,
                              print_poly, ring)
from cremona_lab.rng import Rng, random_prime

FQ = ring(QQ, 4)
FP = ring(GF(10007), 4)


def pq(s):
    return parse_poly(s, FQ)


def pp(s):
    return parse_poly(s, FP)


def test_addition_of_like_terms():
    assert pq("z0") + pq("z0") == pq("2*z0")


def test_distributivity_example():
    assert pq("z0*z3 - z1*z2") * pq("z0") == pq("z0^2*z3 - z0*z1*z2")


def test_characteristic_wraps():
    R = ring(GF(1013), 4)
    f = parse_poly("1012*z0", R) + parse_poly("z0", R)
    assert f.is_zero()


def test_ring_mismatch_is_an_error():
    with pytest.raises(PolyError):
        pq("z0") * pp("z0")
    with pytest.raises(PolyError):
        pq("z0") + pp("z0")


def test_ring_axioms_random_triples():
    # associativity / commutativity / distributivity, 100+ triples per field
    for R in (FQ, FP):
        rng = Rng(11, f"axioms-{R.field!r}")
        for k in range(100):
            f = R.random_poly(1 + k % 2, rng.split(f"f{k}"))
            g = R.random_poly(1 + (k + 1) % 2, rng.split(f"g{k}"))
            h = R.random_poly(1, rng.split(f"h{k}"))
            assert f * g == g * f
            assert (f * g) * h == f * (g * h)
            assert f * (g + g) == f * g + f * g


def test_homogeneity_of_products():
    rng = Rng(5)
    f = FP.random_poly(2, rng.split("a"))
    g = FP.random_poly(3, rng.split("b"))
    assert (f * g).degree == 5


def test_euler_relation():
    rng = Rng(7)
    for k in range(10):
        f = FP.random_poly(3, rng.split(f"e{k}"))
        if not f:
            continue
        s = FP.zero
        for i in range(4):
            s = s + FP.var(i) * f.partial(i)
        assert s == f.scale(3)


def test_partials_example():
    f = pq("z0*z1^2")
    assert f.partials() == [pq("z1^2"), pq("2*z0*z1"), FQ.zero, FQ.zero]


def test_partials_vanish_on_double_line():
    comps = [pq("z0*z1^2"), pq("z0^2*z1"), pq("z0^2*z2"), pq("z1^2*z3")]
    # every partial lies in (z0, z1)
    for f in comps:
        for g in f.partials():
            for m, _ in g.terms:
                assert FQ.mexp(m, 0) + FQ.mexp(m, 1) >= 1


def test_evaluate_examples():
    assert pq("z0*z3 - z1*z2").evaluate([Fraction(1), Fraction(0), Fraction(0), Fraction(0)]) == 0
    R = ring(GF(101), 4)
    assert parse_poly("z0^3", R).evaluate([2, 0, 0, 0]) == 8
    f = pq("z2^2*z3 - z0*z1*z3")
    assert f.evaluate([Fraction(0), Fraction(0), Fraction(0), Fraction(1)]) == 0


def test_evaluate_zero_point_rejected():
    with pytest.raises(PolyError):
        pq("z0").evaluate([Fraction(0)] * 4)


def test_evaluate_representative_independent():
    F = FP.field
    rng = Rng(13)
    f = FP.random_poly(3, rng.split("f"))
    pt = [F.rand(rng) for _ in range(4)]
    lam = F.rand_nonzero(rng)
    v1 = f.evaluate(pt)
    v2 = f.evaluate([F.mul(lam, x) for x in pt])
    assert (v1 == F.zero) == (v2 == F.zero)


def test_linear_substitute_identity_swap_roundtrip():
    F = FP.field
    I4 = [[F.one if i == j else F.zero for j in range(4)] for i in range(4)]
    f = pp("z0*z3 - z1*z2")
    assert f.substitute_linear(I4) == f
    swap = [row[:] for row in I4]
    swap[0], swap[1] = swap[1], swap[0]
    assert f.substitute_linear(swap) == pp("z1*z3 - z0*z2")
    rng = Rng(17)
    M = linalg.random_invertible(F, 4, rng)
    Minv = linalg.inverse(F, M)
    g = f.substitute_linear(M).substitute_linear(Minv)
    assert g == f
    # composition law: f(MN z) = (f o M) o N
    N = linalg.random_invertible(F, 4, rng)
    columns = [linalg.mat_vec(F, M, [row[j] for row in N]) for j in range(4)]
    MN = [[col[i] for col in columns] for i in range(4)]
    assert f.substitute_linear(MN) == f.substitute_linear(M).substitute_linear(N)


def test_singular_substitution_rejected():
    F = FP.field
    M = [[F.zero] * 4 for _ in range(4)]
    with pytest.raises(PolyError):
        pp("z0").substitute_linear(M)


def test_parse_print_roundtrip():
    cases = ["z0*z3 - z1*z2", "0", "2*z0^3", "z0^3 + 3/7*z1*z2*z3 - z3^3", "5"]
    for s in cases:
        f = pq(s)
        assert parse_poly(print_poly(f), FQ) == f
    assert print_poly(pq("2*z0^3")) == "2*z0^3"
    assert print_poly(pq("0")) == "0"


def test_parse_errors_carry_position():
    with pytest.raises(ParseError):
        pq("z0 + + z1")
    with pytest.raises(ParseError):
        pq("w0 + z1")
    with pytest.raises(ParseError):
        pq("")


def test_canonical_print_is_grevlex_descending():
    f = pq("z3^2 + z0*z1 + z2^2")
    assert print_poly(f) == "z0*z1 + z2^2 + z3^2"


def _order_key_checks(order, R, rng, samples=100):
    key = order.key_func(R)
    mons = R.monomials_of_degree(2) + R.monomials_of_degree(3)
    for k in range(samples):
        a = mons[rng.randrange(len(mons))]
        b = mons[rng.randrange(len(mons))]
        c = mons[rng.randrange(len(mons))]
        ka, kb = key(a), key(b)
        # totality / antisymmetry
        assert (ka > kb) + (ka < kb) + (a == b) == 1
        # multiplicativity: a > b => ac > bc
        if ka > kb:
            assert key(a + c) > key(b + c)


def test_order_axioms_all_orders():
    R = FP
    for order in (GREVLEX, LEX, ElimBlock(1), ElimBlock(2), WeightedGrevlex((1, 2, 3, 4))):
        _order_key_checks(order, R, Rng(23, repr(order)))


def test_grevlex_reference_comparisons():
    key = GREVLEX.key_func(FP)
    m = lambda *e: FP.pack(e)
    assert key(m(2, 0, 0, 0)) > key(m(1, 1, 0, 0))  # z0^2 > z0z1
    assert key(m(0, 1, 0, 1)) < key(m(0, 0, 2, 0))  # z1z3 < z2^2
    assert key(m(1, 0, 0, 0)) > key(m(0, 0, 0, 1))  # z0 > z3


@pytest.mark.parametrize("n", range(1, 10))
def test_the_grevlex_key_is_the_closed_form_of_the_byte_loop(n):
    """key(m) = ((m >> s) << s) + sum_i 127 * 2^(8i) - (m & (2^s - 1)) for
    s = deg_shift: the byte loop `_grevlex_key` over every variable."""
    R = ring(GF(10007), n)
    s = R.deg_shift
    top = sum(EXP_MAX << (8 * i) for i in range(n))
    key = GREVLEX.key_func(R)
    rng = Rng(5, f"closed-grevlex-{n}")
    for _ in range(500):
        m = R.pack([rng.randrange(EXP_MAX + 1) for _ in range(n)])
        want = _grevlex_key(m, tuple(reversed(range(n))), s)
        assert key(m) == R.key(m) == want == ((m >> s) << s) + top - (m & ((1 << s) - 1))


@pytest.mark.parametrize("n", [1, 4, 9])
def test_mlcm_takes_the_larger_exponent_of_each_variable(n):
    """The byte-parallel lcm against the exponents, with exponents up to
    127, so that degree sums of 255 and more take the second branch."""
    R = ring(GF(10007), n)
    rng = Rng(6, f"mlcm-{n}")
    for k in range(400):
        top = 8 if k % 2 else EXP_MAX + 1
        a = [rng.randrange(top) for _ in range(n)]
        b = [rng.randrange(top) for _ in range(n)]
        assert R.mlcm(R.pack(a), R.pack(b)) == R.pack([max(x, y) for x, y in zip(a, b)])


def test_gf_q_consistency_of_ops():
    # integer-coefficient inputs: arithmetic commutes with reduction mod p
    p = 10007
    Rp = ring(GF(p), 4)
    rng = Rng(31)
    for k in range(20):
        f = FQ.from_exp_terms([(tuple(rng.randrange(3) for _ in range(4)), rng.randint(-9, 9))
                               for _ in range(5)])
        g = FQ.from_exp_terms([(tuple(rng.randrange(3) for _ in range(4)), rng.randint(-9, 9))
                               for _ in range(5)])
        assert (f * g).map_field(Rp) == f.map_field(Rp) * g.map_field(Rp)
        assert (f + g).map_field(Rp) == f.map_field(Rp) + g.map_field(Rp)


def test_linear_form_is_sum_of_scaled_variables_without_zero_terms():
    F = FP.field
    coeffs = [F.of(3), F.zero, F.of(-2), F.of(5)]
    f = FP.linear_form(coeffs)
    want = FP.zero
    for i, c in enumerate(coeffs):
        want = want + FP.var(i).scale(c)
    assert f == want
    assert len(f.terms) == 3 and all(c != F.zero for _, c in f.terms)
    assert not FP.linear_form([F.zero] * 4)
    # fewer coefficients than variables: the trailing variables get 0
    assert FQ.linear_form([1, 2]) == pq("z0 + 2*z1")


def test_a_dropped_ring_leaves_the_cache_without_the_cyclic_collector():
    rng = Rng(1, "dropped-rings")
    primes = {random_prime(rng.split(f"p{k}")) for k in range(50)}
    gc.disable()
    try:
        rings = [ring(GF(p), 4) for p in primes]
        for R in rings:
            assert not (parse_poly("z0*z1 + z2^2 - z3^2", R) * R.zero)
        del rings, R
        assert not [key for key in _ring_cache.keys() if key[0].char in primes]
    finally:
        gc.enable()


def test_equal_rings_are_one_object():
    # an elimination moves its result into ring(F, n, names[k:]); with the
    # default names spelled out that must be the caller's ring itself, not a
    # second object that only compares equal
    names = ("z0", "z1", "z2", "z3")
    assert ring(GF(10007), 4, names) is FP
    assert ring(GF(10007), 4, list(names)) is FP
    assert ring(GF(10007), 4, ("a", "b", "c", "d")) is not FP
