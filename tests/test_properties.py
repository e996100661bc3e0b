"""Hypothesis property checks on the kernel (deterministic profile)."""

import itertools
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cremona_lab import groebner, ideals, linalg
from cremona_lab.fields import GF, QQ
from cremona_lab.groebner import groebner_basis, normal_form, spoly_reduces_to_zero
from cremona_lab.ideals import IdealHandle, hilbert_from_basis, sat_irrelevant, saturate
from cremona_lab.poly import parse_poly, print_poly, ring

R = ring(GF(10007), 4)
F = R.field

exps = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
terms = st.lists(st.tuples(exps, st.integers(-50, 50)), min_size=0, max_size=6)


def from_terms(ts):
    return R.from_exp_terms(ts)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(terms)
def test_print_parse_roundtrip(ts):
    f = from_terms(ts)
    assert parse_poly(print_poly(f), R) == f


@settings(max_examples=25, derandomize=True, deadline=None)
@given(terms, terms)
def test_normal_form_idempotent(ts1, ts2):
    g = from_terms(ts1)
    f = from_terms(ts2)
    if not g:
        return
    gb = groebner_basis([g])
    nf = normal_form(f, gb)
    assert normal_form(nf, gb) == nf
    assert normal_form(f - nf, gb).is_zero()


@settings(max_examples=15, derandomize=True, deadline=None)
@given(st.lists(exps, min_size=1, max_size=3), st.integers(0, 3))
def test_saturation_monotone(mons, vi):
    gens = [R.poly({R.pack(e): F.one}) for e in mons if sum(e)]
    if not gens:
        return
    I = IdealHandle(gens, R)
    J = IdealHandle([R.var(vi)], R)
    S = saturate(I, J)
    assert all(S.contains(g) for g in I.gens)
    assert saturate(S, J).equals(S)


# exponent vectors of total degree at most 3 in four variables
SMALL_EXPS = [e for e in itertools.product(range(4), repeat=4) if sum(e) <= 3]


@st.composite
def generator_terms(draw, homogeneous):
    """One to four generators, each up to four terms with small coefficients;
    a homogeneous generator draws its monomials from one degree."""
    gens = []
    for _ in range(draw(st.integers(1, 4))):
        pool = SMALL_EXPS
        if homogeneous:
            d = draw(st.integers(1, 3))
            pool = [e for e in SMALL_EXPS if sum(e) == d]
        mons = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4, unique=True))
        gens.append([(e, draw(st.integers(-9, 9).filter(bool))) for e in mons])
    return gens


@pytest.mark.parametrize("homogeneous", [True, False], ids=["homogeneous", "affine"])
@pytest.mark.parametrize("field", [GF(10007), QQ], ids=["gf", "q"])
@settings(max_examples=50, derandomize=True, deadline=None)
@given(data=st.data())
def test_groebner_basis_is_reduced(field, homogeneous, data):
    S = ring(field, 4)
    gens = [S.from_exp_terms(ts) for ts in data.draw(generator_terms(homogeneous))]
    gb = groebner_basis(gens)
    assert all(g.lead()[1] == field.one for g in gb)
    for i, j in itertools.combinations(range(len(gb)), 2):
        assert spoly_reduces_to_zero(gb, i, j)
    assert all(normal_form(f, gb).is_zero() for f in gens)
    leads = [g.lead()[0] for g in gb]
    for a, g in enumerate(gb):
        assert not any(S.mdivides(lm, m) for b, lm in enumerate(leads) if b != a
                       for m, _ in g.terms)
    assert groebner_basis(gens[::-1] + [gens[0] * gens[-1]]) == gb


@settings(max_examples=30, derandomize=True, deadline=None)
@given(data=st.data())
def test_an_ideal_and_its_saturation_share_hilbert_data(data):
    """I and I : m^oo have the same Hilbert polynomial, so dimension, degree
    and p_a can be read off I's own basis, and dimension -1 means that the
    saturation is the unit ideal.  I * m^k adds an m-primary component.
    `IdealHandle.hilbert` reads I's own basis, numerator included, and
    saturates nothing."""
    gens = [R.from_exp_terms(ts) for ts in data.draw(generator_terms(True))]
    I = IdealHandle(gens, R)
    m = IdealHandle(R.vars(), R)
    embedded = I
    for _ in range(data.draw(st.integers(1, 2))):
        embedded = IdealHandle([a * b for a in embedded.gens for b in m.gens], R)
    for J in (I, embedded):
        h = hilbert_from_basis(J.groebner(), R)
        with mock.patch.object(ideals, "sat_irrelevant", side_effect=AssertionError):
            got = IdealHandle(J.gens, R).hilbert()
        assert (got.dimension, got.degree, got.p_a, got.hilbert_numerator) == \
            (h.dimension, h.degree, h.p_a, h.hilbert_numerator)
        sat = sat_irrelevant(IdealHandle(J.gens, R))
        hs = hilbert_from_basis(sat.groebner(), R)
        assert (h.dimension, h.degree, h.p_a) == (hs.dimension, hs.degree, hs.p_a)
        assert (h.dimension == -1) == sat.is_unit()


@st.composite
def gfp_matrices(draw):
    """(m, n, r, rnd, zero_rows): a shape m, n <= 40, a rank bound r, a seeded
    Random for the entries and up to 3 rows to zero.  The test builds A over
    each prime as the product of an m x r and an r x n factor; drawing a seed
    rather than 1600 entries keeps large shapes within the example buffer."""
    m, n = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    r = draw(st.integers(0, min(m, n)))
    rnd = random.Random(draw(st.integers(0, 2**32)))
    return m, n, r, rnd, draw(st.lists(st.integers(0, m - 1), max_size=3))


@settings(max_examples=80, derandomize=True, deadline=None)
@given(gfp_matrices())
def test_nullspace_gfp_matches_the_field_eliminator(shape):
    m, n, r, rnd, zero_rows = shape
    # k = floor(2^62 / (p-1)^2) updates between reductions: 2^62, ~4.6e10, ~4.6e6, 4 and 1
    for p in (2, 10007, 1000003, 1073741789, 2147483647):
        B = [[rnd.randrange(p) for _ in range(r)] for _ in range(m)]
        C = [[rnd.randrange(p) for _ in range(n)] for _ in range(r)]
        A = [[sum(B[i][t] * C[t][j] for t in range(r)) % p for j in range(n)] for i in range(m)]
        for i in zero_rows:
            A[i] = [0] * n
        shifted = np.array(A, dtype=np.int64).reshape(m, n) + p * np.array(
            [[rnd.randrange(-2**30 // p - 1, 2**30 // p + 1) for _ in range(n)] for _ in range(m)],
            dtype=np.int64)
        before = shifted.copy()
        want = linalg.nullspace(GF(p), A)
        assert linalg.nullspace_gfp(A, p) == want, p
        assert linalg.nullspace_gfp(shifted, p) == want, p
        assert np.array_equal(shifted, before), p  # the caller's array is left alone


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.integers(0, 7), st.integers(0, 2**32), st.sampled_from([GF(11), GF(10007), QQ]))
def test_charpoly_is_det_of_t_minus_a(n, seed, F):
    """charpoly(A) evaluated at t equals det(t - A), on sparse matrices too
    (zero subdiagonal entries take the Hessenberg reduction's other paths)."""
    rnd = random.Random(seed)
    A = [[F.of(rnd.randrange(-5, 6)) if rnd.random() < 0.6 else F.zero for _ in range(n)]
         for _ in range(n)]
    cp = linalg.charpoly(F, A)
    assert len(cp) == n + 1 and cp[-1] == F.one
    for t in (F.of(0), F.of(2), F.of(-3), F.of(7)):
        value = F.zero
        for c in reversed(cp):
            value = F.add(F.mul(value, t), c)
        shifted = [[F.sub(t, x) if r == c else F.neg(x) for c, x in enumerate(row)]
                   for r, row in enumerate(A)]
        assert value == (linalg.det(F, shifted) if n else F.one)


def _summed(f, g, op) -> dict:
    """{monomial: coefficient} of f op g, for `Ring.poly` to sort."""
    d = dict(f.terms)
    zero = f.ring.field.zero
    for m, c in g.terms:
        d[m] = op(d.get(m, zero), c)
    return d


def _reference_partial(f, i):
    """d/dz_i on exponent tuples, sorted by `Ring.poly`."""
    R, F = f.ring, f.ring.field
    d = {}
    for m, c in f.terms:
        e = list(R.unpack(m))
        if e[i]:
            e[i] -= 1
            d[R.pack(e)] = F.mul(c, F.of(e[i] + 1))
    return R.poly(d)


def _grevlex_descending(f) -> bool:
    """Stored terms strictly descending under the ring's grevlex key, with no
    zero coefficient: what `_Engine.to_list` and `from_list` read as is."""
    keys = [f.ring.key(m) for m, _ in f.terms]
    zero = f.ring.field.zero
    return all(a > b for a, b in zip(keys, keys[1:])) and all(c != zero for _, c in f.terms)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(terms, terms, exps, st.lists(st.integers(-3, 3), min_size=16, max_size=16),
       st.permutations(range(4)))
def test_every_operation_keeps_the_terms_grevlex_descending(ts1, ts2, e, entries, perm):
    f, g = from_terms(ts1), from_terms(ts2)
    z3 = R.var(3)
    S = ring(F, 5, ("t@",) + R.names)
    R3 = ring(F, 3, R.names[:3])
    M = [entries[4 * i:4 * i + 4] for i in range(4)]
    plane = [row[:3] + [0] for row in M]
    lifted = f.shift_vars(S, 1)
    divided, _ = ideals._divide_last_power([h for h in (f * z3 * z3, g * z3) if h], R)
    out = [f, R.poly(dict(f.terms + g.terms)), f.scale(7), -f, f.mul_monomial(R.pack(e)),
           f + g, f - g, f * g, f.substitute_linear(M, check_invertible=False),
           f.map_vars(R, perm), lifted, lifted * S.var(0) - S.one, lifted.shift_vars(R, -1),
           f.substitute_linear(plane, check_invertible=False).drop_last_vars(R3)] + divided
    # over GF(3) the term z0^3 has derivative 3 z0^2 = 0, which is dropped
    cubed = ring(GF(3), 4).from_exp_terms(ts1 + [((3, 0, 0, 0), 1)])
    partials = f.partials() + cubed.partials()
    out += partials
    assert all(_grevlex_descending(h) for h in out)
    assert f + g == R.poly(_summed(f, g, F.add)) and f - g == R.poly(_summed(f, g, F.sub))
    assert partials == [_reference_partial(h, i) for h in (f, cubed) for i in range(4)]
    eng = groebner._Engine(R, groebner.GREVLEX)
    for h in (f, g, f * g):
        assert eng.from_list(eng.to_list(h)) == h
        assert eng.to_list(h) == sorted(eng.to_list(h), reverse=True)
