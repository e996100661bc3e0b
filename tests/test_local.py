"""Local lengths, multiplicities, point counting and extraction."""

import pytest

from cremona_lab import ideals
from cremona_lab.fields import GF
from cremona_lab.ideals import (DegenerateInput, IdealHandle, count_points,
                                extract_points, hilbert_from_basis, ideal_product,
                                intersect, isolated_points, local_length,
                                multiplicity_at, sat_irrelevant)
from cremona_lab.poly import parse_poly, ring
from cremona_lab.rng import Rng

R = ring(GF(10007), 4)
F = R.field
O = F.zero
I1 = F.one
E3 = (O, O, O, I1)


def pp(s):
    return parse_poly(s, R)


def test_reduced_point_length_one():
    I = IdealHandle([pp("z0"), pp("z1"), pp("z2")], saturated=True)
    assert local_length(I, E3) == 1


def test_double_point_structure():
    I = IdealHandle([pp("z0"), pp("z1"), pp("z2^2")], saturated=True)
    assert local_length(I, E3) == 2


def test_fat_point_length_four():
    # oracle: the quotient by I_p^2 has standard monomials 1, x, y, z at the
    # point, so the component has length 4
    gens = [pp(s) for s in ("z0^2", "z0*z1", "z1^2", "z0*z2", "z1*z2", "z2^2")]
    I = IdealHandle(gens, saturated=True)
    h = hilbert_from_basis(I.groebner(), R)
    assert (h.dimension, h.degree) == (0, 4)  # the whole scheme sits at p
    assert local_length(I, E3) == 4
    assert local_length(I, (O, O, I1, O)) == 0  # point off the scheme


@pytest.mark.parametrize("embedded", [False, True], ids=["I", "I*m"])
def test_local_length_splits_total_degree(monkeypatch, embedded):
    """The lengths of I and of the unsaturated I * m agree, and neither is
    saturated by the irrelevant ideal m: only degrees are read."""
    A = IdealHandle([pp("z0"), pp("z1"), pp("z2^2")])
    B = IdealHandle([pp("z1"), pp("z2"), pp("z3")])
    I = IdealHandle(list(intersect(A, B).gens), saturated=True)
    if embedded:
        I = ideal_product(I, IdealHandle(R.vars(), R))
        assert not I.saturated
    assert I.hilbert().degree == 3
    calls = []
    real = ideals.sat_irrelevant
    monkeypatch.setattr(ideals, "sat_irrelevant", lambda *a, **k: calls.append(a) or real(*a, **k))
    assert local_length(I, E3) == 2
    assert local_length(I, (I1, O, O, O)) == 1
    assert calls == []


def test_local_length_requires_finite_scheme():
    C = IdealHandle([pp("z0"), pp("z1")], saturated=True)
    with pytest.raises(DegenerateInput):
        local_length(C, E3)


def test_multiplicity_smooth_and_nodal():
    tc = IdealHandle([pp("z0*z2 - z1^2"), pp("z1*z3 - z2^2"), pp("z0*z3 - z1*z2")],
                     saturated=True)
    assert multiplicity_at(tc, E3, Rng(1)) == 1
    # planar nodal cubic: multiplicity 2 at the node, verified further by
    # two independent plane sections inside multiplicity_at itself
    C = IdealHandle([pp("z3"), pp("z1^2*z2 - z0^3 - z0^2*z2")], saturated=True)
    assert multiplicity_at(C, (O, O, I1, O), Rng(2)) == 2


def test_count_and_extract_points():
    A = IdealHandle([pp("z0"), pp("z1"), pp("z2")])
    B = IdealHandle([pp("z1"), pp("z2"), pp("z3")])
    C = IdealHandle([pp("z0 - z3"), pp("z1 - z3"), pp("z2 - z3")])
    I = intersect(intersect(A, B), C)
    I = IdealHandle(list(I.gens), saturated=True)
    assert count_points(I, Rng(3)) == 3
    pts, ext = extract_points(I, Rng(4))
    assert not ext
    assert sorted(pts) == sorted([(O, O, O, I1), (I1, O, O, O), (I1, I1, I1, I1)])


def test_extract_points_does_not_count(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("extract_points must not count points")

    monkeypatch.setattr(ideals, "count_points", refuse)
    I = IdealHandle([pp("z2"), pp("z3"), pp("z0*z1 - z1^2")], saturated=True)
    pts, ext = extract_points(I, Rng(4))
    assert sorted(pts) == sorted([(I1, O, O, O), (I1, I1, O, O)]) and not ext


def test_extract_points_quadratic_extension():
    # two conjugate points: z0^2 = r z1^2 with r a non-residue
    r = F.non_residue()
    I = IdealHandle([pp("z2"), pp("z3"), pp("z0^2") - pp("z1^2").scale(r)], saturated=True)
    assert count_points(I, Rng(5)) == 2
    pts, ext = extract_points(I, Rng(6))
    assert not pts and len(ext) == 2


def test_cubic_extension_points_are_counted_not_extracted():
    # three conjugate points over GF(p^3): z0^3 - z0 z1^2 - z1^3 = 0 with
    # t^3 - t - 1 irreducible over GF(p) (a cubic without a root)
    assert all((t**3 - t - 1) % F.p for t in range(F.p))
    I = IdealHandle([pp("z2"), pp("z3"), pp("z0^3 - z0*z1^2 - z1^3")], saturated=True)
    assert extract_points(I, Rng(9)) == ([], [])
    assert count_points(I, Rng(10)) == 3


def test_isolated_points_against_curve():
    curve = IdealHandle([pp("z0"), pp("z1")], saturated=True)  # a line
    pt = IdealHandle([pp("z1"), pp("z2"), pp("z3")])
    J = intersect(curve, pt)
    J = IdealHandle(list(J.gens), saturated=True)
    theta, count = isolated_points(J, curve, Rng(7))
    assert count == 1 and not theta.is_unit()
    # no isolated points: theta is the unit ideal
    theta2, count2 = isolated_points(curve, curve, Rng(8))
    assert count2 == 0 and theta2.is_unit()
