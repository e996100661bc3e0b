"""Map-level pipeline: validation, liaison split, oracles, inverse."""

import hashlib

import pytest

from cremona_lab import cremona, linalg
from cremona_lab.cremona import (InverseUnavailable, MapError, RationalMap, analyze_map,
                                 genus_of_map, inverse, is_birational, is_ruled,
                                 line_preimage_split, new_map)
from cremona_lab.families import determinantal, special_examples
from cremona_lab.fields import GF, QQ
from cremona_lab.ideals import IdealHandle
from cremona_lab.poly import parse_poly, print_poly, ring
from cremona_lab.rng import Rng

P = 10007
R = ring(GF(P), 4)
F = R.field


def pp(s):
    return parse_poly(s, R)


def involution():
    return new_map(pp("z0*z1^2"), pp("z0^2*z1"), pp("z0^2*z2"), pp("z1^2*z3"),
                   label="ruled-involution")


def test_new_map_accepts_the_classical_involution():
    involution()


def test_new_map_rejects_common_factor():
    rng = Rng(1)
    qs = [R.random_poly(2, rng.split(str(i))) for i in range(4)]
    with pytest.raises(MapError):
        new_map(*[pp("z0") * q for q in qs])


def test_identity_map_needs_the_generic_degree_variant():
    comps = [R.var(i) for i in range(4)]
    with pytest.raises(MapError):
        new_map(*comps)
    psi = RationalMap(comps, 1)
    assert psi.degree == 1


def test_analysis_of_involution():
    an = analyze_map(involution(), seed=1)
    assert an.bidegree == (3, 3)
    assert an.genus == 0 and an.ruled
    assert an.birational == "yes" and an.certificate == 1
    # witness is the double line z0 = z1 = 0
    w = IdealHandle(list(an.ruled_witness), R)
    assert w.equals(IdealHandle([pp("z0"), pp("z1")], R))


def test_base_locus_of_determinantal():
    an = analyze_map(determinantal(5, GF(P)), seed=2, trials=0, with_certificate=False)
    assert (an.base_dim, an.deg1part, an.theta_count) == (1, 6, 0)


def test_split_retries_are_deterministic():
    psi = determinantal(5, GF(P))
    g1, c1a, c2a = line_preimage_split(psi, Rng(3))
    g2, c1b, c2b = line_preimage_split(psi, Rng(3))
    assert c1a.ideal.groebner() == c1b.ideal.groebner()
    assert (c1a.degree, c1a.p_a, c2a.degree, c2a.p_a) == (3, 0, 6, 3)


def test_bidegree_cross_check():
    an = analyze_map(determinantal(5, GF(P)), seed=4, trials=0, with_certificate=False)
    assert an.bidegree == (3, 3)


def test_cube_map_fiber_and_certificate():
    # frozen by this oracle run: the fiber ideal of a generic point has
    # degree 27 (the topological degree of z -> z^3), and the certificate
    # reproduces it
    psi = special_examples(QQ)["cube"].reduce_mod(P)
    an = analyze_map(psi, seed=5)
    assert an.birational == "no"
    assert an.fiber_degree == 27
    assert an.certificate == 27
    assert an.c2.degree == 0 and an.c1.degree == 9


def test_non_dominant_control():
    psi = special_examples(QQ)["segre-squares"].reduce_mod(P)
    verdict, _ = is_birational(psi, Rng(6), trials=2)
    assert verdict == "no"


def test_the_non_dominant_control_has_certificate_zero():
    # the image is the quadric y0 y3 = y1 y2, so a generic target point has
    # no preimage: 0 is the certificate's answer here, not a refused draw
    psi = special_examples(QQ)["segre-squares"].reduce_mod(1000003)
    an = analyze_map(psi, seed=7)
    assert (an.birational, an.fiber_degree, an.certificate) == ("no", None, 0)


def test_degree_three_fiber_control():
    psi = special_examples(QQ)["dJ-smooth-S"].reduce_mod(P)
    an = analyze_map(psi, seed=7)
    assert an.birational == "no" and an.fiber_degree == 3 and an.certificate == 3


def test_conjugation_invariance():
    psi = determinantal(8, GF(P))
    rng = Rng(9)
    A = linalg.random_invertible(F, 4, rng.split("A"))
    B = linalg.random_invertible(F, 4, rng.split("B"))
    an0 = analyze_map(psi, seed=1, trials=2)
    an1 = analyze_map(psi.conjugate(A, B), seed=1, trials=2)
    for f in ("bidegree", "genus", "ruled", "deg1part", "theta_count"):
        assert getattr(an0, f) == getattr(an1, f)
    assert (an0.c2.degree, an0.c2.p_a) == (an1.c2.degree, an1.c2.p_a)
    assert an0.birational == an1.birational == "yes"


def test_birationality_conjugation_invariant():
    psi = involution()
    rng = Rng(10)
    A = linalg.random_invertible(F, 4, rng.split("A"))
    B = linalg.random_invertible(F, 4, rng.split("B"))
    v, d = is_birational(psi.conjugate(A, B), rng.split("t"), trials=3)
    assert v == "yes"


def test_inverse_of_involution_is_itself():
    psi = involution()
    g = inverse(psi, 3, Rng(11))
    assert [f.monic() for f in g.components] == [f.monic() for f in psi.components]


def test_inverse_of_determinantal_is_determinantal():
    # p < 2^20 for the dense linear-algebra backend
    Fp = GF(524287)
    psi = determinantal(3, Fp)
    an = analyze_map(psi, seed=3, trials=2)
    assert an.bidegree == (3, 3)
    g = inverse(psi, 3, Rng(12))
    an2 = analyze_map(g, seed=3, trials=2)
    assert an2.bidegree == (3, 3)
    assert (an2.c2.degree, an2.c2.p_a) == (6, 3)  # determinantal signature


def test_inverse_unavailable_on_big_prime():
    psi = determinantal(3, GF(2147482951))
    with pytest.raises(InverseUnavailable):
        inverse(psi, 3, Rng(13))


def _e8_big():
    from cremona_lab.families import build

    psi, spec = build("E8", 1, GF(1000003))
    assert spec.bidegree == (3, 4)
    return psi


@pytest.mark.parametrize("dprime,dim", [(5, 4), (3, 0)])
def test_inverse_wrong_degree_error_texts(dprime, dim):
    # these texts reach reports as "inverse unavailable (...)"
    with pytest.raises(InverseUnavailable,
                       match=f"^graph solution space has dimension {dim}$"):
        inverse(_e8_big(), dprime, Rng(1, "inverse"))


def test_inverse_rejects_a_wrong_line_by_point_verification(monkeypatch):
    # the solved line, with its first coefficient moved, is a wrong candidate
    psi = _e8_big()
    assert inverse(psi, 4, Rng(1, "inverse")).degree == 4
    exact = cremona._graph_line
    monkeypatch.setattr(cremona, "_graph_line",
                        lambda X, vals, p: [(v + (i == 0)) % p
                                            for i, v in enumerate(exact(X, vals, p))])
    with pytest.raises(InverseUnavailable,
                       match="^candidate inverse fails point verification$"):
        inverse(psi, 4, Rng(1, "inverse"))


def _graph_by_full_system(X, vals, p):
    """The reference: the 3 need x 4N graph system x_0 g_k(y) - x_k g_0(y) = 0
    (k = 1, 2, 3) in one `linalg.nullspace_gfp` solve, column k*N + a for
    monomial a of g_k."""
    import numpy as np

    need, N = vals.shape
    rows = np.zeros((3, need, 4 * N), dtype=np.int64)
    for k in (1, 2, 3):
        rows[k - 1, :, k * N:(k + 1) * N] = X[:, :1] * vals
        rows[k - 1, :, :N] = -X[:, k:k + 1] * vals
    return linalg.nullspace_gfp(rows.reshape(-1, 4 * N), p)


@pytest.mark.parametrize("label,dprime", [("ruled_3_2", 2), ("E4", 3), ("E8", 4), ("E24", 5)])
def test_the_graph_solve_for_g0_is_the_full_system(monkeypatch, label, dprime):
    from cremona_lab.families import build

    psi, _ = build(label, 1, GF(1000003))
    seen = []
    real = cremona._graph_line
    monkeypatch.setattr(cremona, "_graph_line",
                        lambda X, vals, p: seen.append((X, vals, p)) or real(X, vals, p))
    inverse(psi, dprime, Rng(1, "inverse"))
    (X, vals, p), = seen
    assert [real(X, vals, p)] == _graph_by_full_system(X, vals, p)


@pytest.mark.parametrize("case", ["image-in-a-plane", "x0-zero-at-most-points"])
def test_a0_without_full_column_rank_gives_the_dimension_of_the_full_system(case):
    # dimension dim S_0 + 3 dim ker A_0, with ker A_0 != 0: for values of
    # quadrics at points of the plane y3 = 0, or with the rows of A_0 = 0
    # wherever x0 = 0
    import random

    import numpy as np

    p, rnd = 10007, random.Random(case)
    mons = R.monomials_of_degree(2)
    need = -(-(4 * len(mons) + 24) // 3)
    X, Y = (np.array([[rnd.randrange(p) for _ in range(4)] for _ in range(need)], dtype=np.int64)
            for _ in range(2))
    if case == "image-in-a-plane":
        Y[:, 3] = 0
    else:
        X[:need - len(mons) + 2, 0] = 0
    vals = cremona._monomial_values(R, mons, Y, p)
    assert linalg.nullspace_gfp(X[:, :1] * vals, p)  # A_0 has a kernel
    dim = len(_graph_by_full_system(X, vals, p))
    assert dim > 1
    with pytest.raises(InverseUnavailable, match=f"^graph solution space has dimension {dim}$"):
        cremona._graph_line(X, vals, p)


@pytest.mark.parametrize("label,dprime,digest", [
    ("ruled_3_2", 2, "96338ce5a1b4838ae2439f44e60431519ab63b8e607e8fc1e944f7f5b1c0c2c3"),
    ("E4", 3, "9ea3cfae58afaa0a7fc16b95c9f08729d5f35fc443583c7952c9dc574e14c75c"),
    ("E8", 4, "28be971faa7aa09ce4731690b7259d3b9c5f210d3ea10cf5b8c8dadcaba33170"),
    ("E24", 5, "f3d379d435da97441babb8ae5d3cac7b9e169b1be6cc8f89ce8510873829b55b"),
])
def test_inverse_is_pinned_for_each_inverse_degree(label, dprime, digest):
    # sha256 of the printed components, one per line, as `analyze --inverse` prints them
    from cremona_lab.families import build

    psi, spec = build(label, 1, GF(1000003))
    assert spec.bidegree == (3, dprime)
    g = inverse(psi, dprime, Rng(1, "inverse"))
    text = "\n".join(print_poly(f) for f in g.components)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_inverse_verifies_five_points_when_a_draw_hits_the_base_locus(monkeypatch):
    # the standard involution's base locus, the six coordinate lines, holds about
    # 6/p^2 of P^3(GF(p)); over GF(11) one of the five verification draws at
    # Rng(0) lands there and is drawn again
    R11 = ring(GF(11), 4)
    psi = RationalMap([parse_poly(s, R11)
                       for s in ("z1*z2*z3", "z0*z2*z3", "z0*z1*z3", "z0*z1*z2")], 3)
    checked = []
    exact = cremona._parallel
    monkeypatch.setattr(cremona, "_parallel",
                        lambda F, a, b: checked.append(b) or exact(F, a, b))
    g = inverse(psi, 3, Rng(0))
    assert len(checked) == 5
    assert all(psi.apply(x) is not None for x in checked)
    assert [f.monic() for f in g.components] == [f.monic() for f in psi.components]


def test_inverse_redraws_a_verification_point_on_a_contracted_surface(monkeypatch):
    # the standard involution contracts each coordinate plane z_i = 0 to a
    # point on its own base locus; over GF(11) at Rng(2) a verification draw x
    # lies on such a plane, so psi(x) is a base point of the inverse and x is
    # drawn again
    R11 = ring(GF(11), 4)
    psi = RationalMap([parse_poly(s, R11)
                       for s in ("z1*z2*z3", "z0*z2*z3", "z0*z1*z3", "z0*z1*z2")], 3)
    images = []
    real_apply = cremona.RationalMap.apply

    def recorded(self, point):
        out = real_apply(self, point)
        if self.label == "inverse":
            images.append(out)
        return out

    monkeypatch.setattr(cremona.RationalMap, "apply", recorded)
    g = inverse(psi, 3, Rng(2))
    assert None in images and len([z for z in images if z is not None]) == 5
    assert [f.monic() for f in g.components] == [f.monic() for f in psi.components]


def test_inverse_gives_up_when_no_verification_point_avoids_the_base_locus(monkeypatch):
    # the graph points are evaluated in numpy, so only verification calls apply
    monkeypatch.setattr(cremona.RationalMap, "apply", lambda self, point: None)
    with pytest.raises(InverseUnavailable, match="^could not sample a verification point"):
        inverse(_e8_big(), 4, Rng(1, "inverse"))


def test_inverse_gives_up_when_no_point_avoids_the_base_locus():
    # over GF(2) every z_i^2 z_j + z_i z_j^2 vanishes at every point
    R2 = ring(GF(2), 4)
    comps = [parse_poly(f"z{i}^2*z{j} + z{i}*z{j}^2", R2)
             for i, j in ((0, 1), (1, 2), (2, 3), (3, 0))]
    with pytest.raises(InverseUnavailable, match="could not sample"):
        inverse(RationalMap(comps, 3), 3, Rng(16))


def test_genus_and_ruledness_disagreement_is_caught():
    # sanity of the cross-check plumbing: a plainly non-ruled map
    psi = determinantal(21, GF(P))
    assert genus_of_map(psi, Rng(14)) == 1
    ruled, wit = is_ruled(psi, Rng(15))
    assert not ruled and wit is None


def test_certificate_counts_base_points():
    # generic de Jonquieres map: certificate 1
    from cremona_lab.families import dejonquieres

    psi = dejonquieres("E3", 2, GF(P))
    an = analyze_map(psi, seed=2)
    assert an.certificate == 1 and an.birational == "yes"


def test_sing_c1_support_independent_of_line_choice():
    # two draws of the generic line give C1's with the same singular support
    from cremona_lab.families import cuboquintic
    from cremona_lab.hudson import curve_singular_points

    psi = cuboquintic("E13", 4, GF(P))
    _, c1a, _ = line_preimage_split(psi, Rng(20, "a"))
    _, c1b, _ = line_preimage_split(psi, Rng(20, "b"))
    assert c1a.ideal.groebner() != c1b.ideal.groebner()  # genuinely different lines
    sa = curve_singular_points(c1a, Rng(21))
    sb = curve_singular_points(c1b, Rng(22))
    assert sa is not None and sb is not None
    assert sorted(p for p, _ in sa) == sorted(p for p, _ in sb)
    assert all(m >= 2 for _, m in sa)
