import pytest

from cremona_lab import groebner, ideals
from cremona_lab.fields import GF
from cremona_lab.ideals import (IdealHandle, eliminate, hilbert_from_basis, intersect, line_forms,
                                quotient, sat_irrelevant, saturate, unit_ideal)
from cremona_lab.poly import ElimBlock, parse_poly, ring
from cremona_lab.rng import Rng

R = ring(GF(10007), 4)
F = R.field


def pp(s):
    return parse_poly(s, R)


def test_quotient_by_self_is_unit():
    I = IdealHandle([pp("z0*z2 - z1^2"), pp("z1*z3 - z2^2"), pp("z0*z3 - z1*z2")])
    assert quotient(I, I).is_unit()


def test_intersection_of_coprime_principal():
    got = intersect(IdealHandle([pp("z0")]), IdealHandle([pp("z1")]))
    assert got.groebner() == (pp("z0*z1"),)


def test_intersection_matches_product_on_coprime_lines():
    A = IdealHandle([pp("z0"), pp("z1")])
    B = IdealHandle([pp("z2"), pp("z3")])
    inter = intersect(A, B)
    prod = [a * b for a in A.gens for b in B.gens]
    assert inter.equals(IdealHandle(prod, R))


def test_sum_and_product():
    A = IdealHandle([pp("z0")])
    B = IdealHandle([pp("z1")])
    assert IdealHandle(A.gens + B.gens).groebner() == (pp("z0"), pp("z1"))
    assert IdealHandle([a * b for a in A.gens for b in B.gens]).groebner() == (pp("z0*z1"),)


def test_saturation_of_jump_family_ideal():
    # the saturation recovers the full one-dimensional base configuration:
    # a doubled line plus three more lines (degree 5, genus 2)
    eps = F.of(17)
    I = IdealHandle([pp("z0*z1"), pp("z0^2*z2") + pp("z0*z2^2").scale(eps), pp("z1^2*z3")])
    S = sat_irrelevant(I)
    h = hilbert_from_basis(S.groebner(), R)
    assert (h.dimension, h.degree, h.p_a) == (1, 5, 2)
    # and equals the intersection of its four visible line components
    lines = [IdealHandle([pp("z0"), pp("z1^2")]),
             IdealHandle([pp("z0") + pp("z2").scale(eps), pp("z1")]),
             IdealHandle([pp("z0"), pp("z3")]),
             IdealHandle([pp("z1"), pp("z2")])]
    acc = lines[0]
    for L in lines[1:]:
        acc = intersect(acc, L)
    assert S.equals(acc)


def test_saturation_idempotent_and_contains():
    rng = Rng(2)
    I = IdealHandle([R.random_poly(2, rng.split("a")) * R.var(0), R.random_poly(2, rng.split("b"))])
    J = IdealHandle([R.var(0), R.var(1)])
    S1 = saturate(I, J)
    assert saturate(S1, J).equals(S1)
    assert all(S1.contains(g) for g in I.gens)


def test_saturation_by_unit_is_identity():
    I = IdealHandle([pp("z0*z1")])
    assert saturate(I, unit_ideal(R)).groebner() == I.groebner()


def _no_groebner_basis(*args, **kwargs):
    raise AssertionError("the eliminant's grevlex basis comes attached")


def test_eliminate_examples(monkeypatch):
    R3 = ring(GF(10007), 3, ("z0", "z1", "z2"))
    I = IdealHandle([parse_poly("z0 - z1", R3), parse_poly("z0 - z2", R3)])
    C = IdealHandle([pp("z0 - z1 - z3"), pp("z1^2 - z2*z3"), pp("z0*z2 - z3^2")])
    cases = [eliminate(I, 1), eliminate(C, 1), eliminate(C, 2)]
    for E in cases:
        want = groebner.groebner_basis(list(E.gens))
        with monkeypatch.context() as mp:
            mp.setattr(ideals, "groebner_basis", _no_groebner_basis)
            assert list(E.groebner()) == want
    assert [len(E.gens) for E in cases] == [1, 3, 1]
    assert [str(g) for g in cases[0].groebner()] == ["z1 + 10006*z2"]
    with pytest.raises(ValueError):
        eliminate(I, 3)


def test_eliminate_matches_direct_intersection():
    # the t-trick intersection is itself an elimination; cross-check on
    # principal ideals where the product formula is exact
    A = IdealHandle([pp("z0^2 - z1*z2")])
    B = IdealHandle([pp("z3")])
    got = intersect(A, B)
    assert got.equals(IdealHandle([pp("z3") * pp("z0^2 - z1*z2")], R))


def test_quotient_strips_one_component():
    I = intersect(IdealHandle([pp("z0"), pp("z1")]), IdealHandle([pp("z2"), pp("z3")]))
    I = IdealHandle(list(I.gens), R)
    got = quotient(I, IdealHandle([pp("z0"), pp("z1")]))
    assert got.equals(IdealHandle([pp("z2"), pp("z3")], R))


def test_line_forms_through_two_points():
    a = (F.of(1), F.of(2), F.of(3), F.of(4))
    b = (F.of(0), F.of(1), F.of(5), F.of(7))
    forms = line_forms(R, a, b)
    assert len(forms) == 2
    for l in forms:
        assert l.degree == 1
        assert l.evaluate(list(a)) == F.zero and l.evaluate(list(b)) == F.zero
    # independent: together they cut out a line (degree 1, dimension 1)
    h = hilbert_from_basis(IdealHandle(forms).groebner(), R)
    assert (h.dimension, h.degree) == (1, 1)
    assert line_forms(R, a, a) is None
    assert line_forms(R, a, tuple(F.mul(F.of(3), c) for c in a)) is None


def test_as_saturated_keeps_cached_bases(monkeypatch):
    from cremona_lab import ideals

    I = IdealHandle([pp("z0*z2 - z1^2"), pp("z1*z3 - z2^2"), pp("z0*z3 - z1*z2")])
    gb = I.groebner()
    calls = []
    real = ideals.groebner_basis
    monkeypatch.setattr(ideals, "groebner_basis",
                        lambda *a, **k: calls.append(1) or real(*a, **k))
    S = I.as_saturated()
    assert S.saturated and not I.saturated and S.gens == I.gens
    assert S.groebner() == gb
    assert calls == []
    S.groebner(ElimBlock(1))  # an order not cached yet is computed
    assert calls == [1]
