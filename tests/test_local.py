"""Local lengths, multiplicities, point counting and extraction.

The multiplication-matrix route of `ideals` is compared with the eliminant
route it replaced, kept here as the reference: `_ref_extract` (one affine
eliminant per coordinate in the first chart holding every point, then every
combination of roots), `_ref_count` (the squarefree degree of a binary
eliminant, the maximum of three draws) and `_ref_local_length` (the degree
lost by saturating with the point's maximal ideal)."""

from itertools import product

import pytest

from cremona_lab import groebner, ideals, linalg, univar
from cremona_lab.fields import GF, GF2, QQ
from cremona_lab.ideals import (DegenerateInput, IdealHandle, count_points, eliminate,
                                extract_points, hilbert_from_basis,
                                intersect, isolated_points, local_length,
                                multiplicity_at, point_frame, sat_irrelevant, saturate)
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
        I = IdealHandle([g * z for g in I.gens for z in R.vars()], R)
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
    assert count_points(I) == 3
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
    assert count_points(I) == 2
    pts, ext = extract_points(I, Rng(6))
    assert not pts and len(ext) == 2


def test_cubic_extension_points_are_counted_not_extracted():
    # three conjugate points over GF(p^3): z0^3 - z0 z1^2 - z1^3 = 0 with
    # t^3 - t - 1 irreducible over GF(p) (a cubic without a root)
    assert all((t**3 - t - 1) % F.p for t in range(F.p))
    I = IdealHandle([pp("z2"), pp("z3"), pp("z0^3 - z0*z1^2 - z1^3")], saturated=True)
    assert extract_points(I, Rng(9)) == ([], [])
    assert count_points(I) == 3


def test_isolated_points_against_curve():
    curve = IdealHandle([pp("z0"), pp("z1")], saturated=True)  # a line
    pt = IdealHandle([pp("z1"), pp("z2"), pp("z3")])
    J = intersect(curve, pt)
    J = IdealHandle(list(J.gens), saturated=True)
    theta, count = isolated_points(J, curve)
    assert count == 1 and not theta.is_unit()
    # no isolated points: theta is the unit ideal
    theta2, count2 = isolated_points(curve, curve)
    assert count2 == 0 and theta2.is_unit()


# ------------------------------------------- the eliminant reference route


def _ref_local_length(I, p):
    h = I.hilbert()
    if h.dimension == -1:
        return 0
    R = I.ring
    J = I.substituted(point_frame(R, p))
    m_p = IdealHandle([R.var(i) for i in range(R.nvars - 1)], R)  # p is e_last in J's frame
    rest = saturate(J, m_p).hilbert()
    return h.degree - (rest.degree if rest.dimension == 0 else 0)


def _ref_count(I, rng):
    Isat = I if I.saturated else sat_irrelevant(I)
    if Isat.is_unit():
        return 0
    F = Isat.ring.field
    best = 0
    for k in range(3):
        B = _ref_binary_eliminant(Isat, rng.split(f"count-{k}"))
        t, s_, core = _ref_split_binary(B, F)
        extra = (1 if t else 0) + (1 if s_ else 0)
        d = univar.deg(core)
        best = max(best, extra if d <= 0 else univar.deg(univar.squarefree_part(core, F)) + extra)
    return best


def _ref_binary_eliminant(I, rng):
    """The image of V(I) under a random P^(n-1) -> P^1, as a binary form
    [c_0, ..., c_d] (c_i the coefficient of s^(d-i) t^i)."""
    R = I.ring
    F = R.field
    n = R.nvars
    S = ring(F, n + 2, R.names + ("s@", "t@"))
    gens = [g.map_vars(S, list(range(n))) for g in I.gens]
    gens.append(S.var(n) - S.linear_form([F.rand(rng) for _ in range(n)]))
    gens.append(S.var(n + 1) - S.linear_form([F.rand(rng) for _ in range(n)]))
    E = eliminate(IdealHandle(gens, S), n)
    acc = None
    for g in E.gens:
        d = g.total_degree()
        coeffs = [F.zero] * (d + 1)
        for m, c in g.terms:
            coeffs[E.ring.mexp(m, 1)] = c
        if acc is None:
            acc = coeffs
        else:
            t1, s1, c1 = _ref_split_binary(acc, F)
            t2, s2, c2 = _ref_split_binary(coeffs, F)
            acc = [F.zero] * min(t1, t2) + univar.gcd(c1, c2, F) + [F.zero] * min(s1, s2)
    return acc


def _ref_split_binary(B, F):
    lo = 0
    while B[lo] == F.zero:
        lo += 1
    hi = len(B) - 1
    while B[hi] == F.zero:
        hi -= 1
    return lo, len(B) - 1 - hi, B[lo:hi + 1]


def _ref_extract(I, rng):
    Isat = I if I.saturated else sat_irrelevant(I)
    if Isat.is_unit():
        return [], []
    pts, ext = _ref_chart(Isat, rng, 0)
    return sorted(pts), sorted(ext)


def _ref_chart(Isat, rng, depth):
    R = Isat.ring
    F = R.field
    n = R.nvars
    chart = next((i for i in range(n - 1, -1, -1)
                  if IdealHandle(list(Isat.gens) + [R.var(i)], R).hilbert().dimension == -1), None)
    if chart is None:
        assert depth < 2
        M = linalg.random_invertible(F, n, rng.split(f"chart-change-{depth}"))
        pts, ext = _ref_chart(Isat.substituted(M), rng, depth + 1)
        back = [ideals._normalize_point(linalg.mat_vec(F, M, list(p)), F) for p in pts]
        back_ext = []
        if ext:
            F2 = GF2(F.p)
            M2 = [[F2.lift(c) for c in row] for row in M]
            back_ext = [ideals._normalize_point(linalg.mat_vec(F2, M2, list(p)), F2) for p in ext]
        return back, back_ext
    A = ring(F, n - 1, tuple(nm for i, nm in enumerate(R.names) if i != chart))
    affine = [g for g in (_ref_dehomogenize(g, chart, A) for g in Isat.gens) if g]
    F2 = GF2(F.p) if isinstance(F, GF) else None
    root_sets, ext_root_sets = [], []
    for w in range(n - 1):
        f = _ref_affine_eliminant(affine, A, w)
        if F2 is None:
            root_sets.append(univar.roots_qq(f, F))
            continue
        rs = univar.roots_gf(f, F, rng.split(f"roots-{w}"))
        quads = univar.irreducible_quadratics(f, F, rng.split(f"quads-{w}"))
        root_sets.append(rs)
        ext_root_sets.append([F2.lift(r) for r in rs]
                             + [r for q in quads for r in univar.quadratic_roots(q, F, F2)[1]])
    pts = _ref_combine(affine, root_sets, F, chart)
    ext = []
    if F2 is not None:
        A2 = ring(F2, n - 1, A.names)
        every = _ref_combine([g.map_field(A2) for g in affine], ext_root_sets, F2, chart)
        ext = [p for p in every if not all(F2.in_base(c) for c in p)]
    return pts, ext


def _ref_dehomogenize(g, chart, A):
    R = g.ring
    d = {}
    for m, c in g.terms:
        mm = A.pack([R.mexp(m, i) for i in range(R.nvars) if i != chart])
        d[mm] = A.field.add(d.get(mm, A.field.zero), c)
    return A.poly(d)


def _ref_affine_eliminant(affine, A, keep):
    n = A.nvars
    perm = [i for i in range(n) if i != keep] + [keep]
    inv = [0] * n
    for pos, i in enumerate(perm):
        inv[i] = pos
    E = eliminate(IdealHandle([g.map_vars(A, inv) for g in affine], A), n - 1)
    F = A.field
    best = None
    for g in E.gens:
        coeffs = [F.zero] * (g.total_degree() + 1)
        for m, c in g.terms:
            coeffs[E.ring.mexp(m, 0)] = c
        best = coeffs if best is None else univar.gcd(best, coeffs, F)
    return best


def _ref_combine(affine, root_sets, F, chart):
    out = []
    for combo in product(*root_sets):
        if all(g.evaluate(list(combo), projective=False) == F.zero for g in affine):
            proj = list(combo)
            proj.insert(chart, F.one)
            q = ideals._normalize_point(proj, F)
            if q not in out:
                out.append(q)
    return out


# -------------------------------------- the new route against the reference

# a small integer change of coordinates: moves points off the coordinate
# hyperplanes while keeping the coefficients small over Q
MOVE = [[1, 2, 0, 1], [0, 1, 3, 1], [1, 0, 1, 2], [2, 1, 1, 1]]


def _points_ideal(R, points):
    """The reduced ideal of finitely many rational points, saturated."""
    acc = None
    for q in points:
        forms = linalg.nullspace(R.field, [list(q)], R.nvars)
        P = IdealHandle([R.linear_form(v) for v in forms], R)
        acc = P if acc is None else intersect(acc, P)
    return sat_irrelevant(IdealHandle(list(acc.gens), R))


def _no_cubic_root(F):
    """z0^3 - z0 z1^2 - c z1^3 with t^3 - t - c irreducible over GF(p)."""
    c = next(c for c in range(1, F.p) if all((t ** 3 - t - c) % F.p for t in range(F.p)))
    return f"z0^3 - z0*z1^2 - {c}*z1^3"


def _cases(F):
    R = ring(F, 4)
    o, i = F.zero, F.one
    out = {
        # off z0 = 0, so the reference needs no change of coordinates
        "points on z3 = 0": _points_ideal(R, [(i, o, o, o), (i, F.of(2), F.of(3), o),
                                              (i, i, F.of(5), o), (i, i, i, i)]),
        "fat point m_p^2 and a point": sat_irrelevant(IdealHandle(list(intersect(
            IdealHandle([g.substitute_linear(MOVE) for g in _square_of_point(R)], R),
            _points_ideal(R, [(i, o, i, o)])).gens), R)),
    }
    if isinstance(F, GF):
        r = F.non_residue()
        pair = parse_poly(f"z0^2 - {r}*z1^2", R)
        forms = (pair * parse_poly(_no_cubic_root(F), R) * parse_poly("z0 - 2*z1", R),
                 pair * parse_poly(f"z0^2 + z0*z1 - {r}*z1^2", R))
        for label, form in zip(("conjugate pair, cubic triple, a point", "two conjugate pairs"),
                               forms):
            gens = [g.substitute_linear(MOVE) for g in (R.var(2), R.var(3), form)]
            out[label] = sat_irrelevant(IdealHandle(gens, R))
    return out


def _square_of_point(R):
    """The square of the maximal ideal of e3."""
    return [parse_poly(t, R) for t in ("z0^2", "z0*z1", "z1^2", "z0*z2", "z1*z2", "z2^2")]


@pytest.mark.parametrize("F", [GF(10007), GF(11), QQ], ids=["GF(10007)", "GF(11)", "Q"])
def test_new_route_matches_the_eliminant_reference(F):
    for label, I in _cases(F).items():
        want = _ref_extract(I, Rng(1, label))
        got = extract_points(I, Rng(2, label))
        assert got == want, label
        if F != GF(11):  # the reference count is the maximum of three draws
            assert count_points(I) == _ref_count(I, Rng(4, label)), label
        for q in want[0]:
            assert local_length(I, q) == _ref_local_length(I, q), (label, q)
        assert sum(local_length(I, q) for q in want[0]) <= I.hilbert().degree


def test_fat_point_is_found_once_with_length_four():
    R = ring(GF(10007), 4)
    I = _cases(R.field)["fat point m_p^2 and a point"]
    pts, ext = extract_points(I, Rng(1))
    assert len(pts) == 2 and not ext
    assert sorted(local_length(I, q) for q in pts) == [1, 4]
    assert count_points(I) == 2


def test_points_on_the_last_hyperplane_use_a_generic_chart():
    R = ring(GF(10007), 4)
    I = _cases(R.field)["points on z3 = 0"]
    alg = I.algebra()
    assert alg.complete and alg.h[:3] != [0, 0, 0]
    assert count_points(I) == 4


def test_extension_points_are_never_rational():
    for F in (GF(10007), GF(11)):
        for label, I in _cases(F).items():
            _, ext = extract_points(I, Rng(5, label))
            F2 = GF2(F.p)
            assert all(not all(F2.in_base(c) for c in q) for q in ext), label
            assert len(set(ext)) == len(ext)


def test_a_colliding_l_is_redrawn_then_refused(monkeypatch):
    """l = z1 takes the same value at (1:0:0:1) and (0:0:0:1): the draw
    is refused and the next one taken; when every draw collides,
    DegenerateInput names the stage.  The count reads no draw."""
    F = GF(10007)
    R = ring(F, 4)
    o, i = F.zero, F.one
    points = [(o, o, o, i), (i, o, o, i)]
    real = ideals._ell_coefficients
    collide = [o, i, o, o]
    monkeypatch.setattr(ideals, "_ell_coefficients",
                        lambda F_, n, k: collide if k == 0 else real(F_, n, k))
    I = _points_ideal(R, points)
    assert extract_points(I, Rng(1)) == (sorted(points), [])
    assert [local_length(I, q) for q in points] == [1, 1]
    monkeypatch.setattr(ideals, "_ell_coefficients", lambda F_, n, k: collide)
    I = _points_ideal(R, points)
    with pytest.raises(DegenerateInput, match="extract_points"):
        extract_points(I, Rng(1))
    with pytest.raises(DegenerateInput, match="local_length"):
        local_length(I, points[0])
    assert local_length(I, (o, i, o, i)) == 0  # l(p) is no root: off the scheme
    assert count_points(I) == 2


def test_count_is_the_rank_of_the_trace_form():
    """Fat points count once, over GF(11) as well: the count reads no draw,
    and over a field this small two draws of l can easily merge the same two
    points."""
    for F in (GF(11), GF(10007), QQ):
        for label, I in _cases(F).items():
            want = len({q for q in _ref_extract(I, Rng(1, label))[0]})
            got = count_points(I)
            assert got >= want, label
            if "conjugate" not in label:
                assert got == want, label
    R = ring(GF(10007), 4)
    assert count_points(_cases(R.field)["conjugate pair, cubic triple, a point"]) == 6


def test_point_work_on_a_cached_basis_makes_no_groebner_basis(monkeypatch):
    I = IdealHandle([pp("z2"), pp("z0*z1 - z1^2 - z3^2"), pp("z0^2 - 3*z3^2")], saturated=True)
    I.groebner()

    def refuse(*args, **kwargs):
        raise AssertionError("point work computed a Groebner basis")

    monkeypatch.setattr(ideals, "groebner_basis", refuse)
    monkeypatch.setattr(groebner, "groebner_basis", refuse)
    assert I.algebra().complete  # the chart z3 = 1 holds every point
    pts, ext = extract_points(I, Rng(1))
    assert count_points(I) == len(pts) + len(ext) == 4
    assert all(local_length(I, q) == 1 for q in pts)
