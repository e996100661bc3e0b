"""Point classification, table data, matching, component labels."""

import hashlib

import pytest

from cremona_lab import cli, hudson, linalg
from cremona_lab.cremona import RationalMap, analyze_map
from cremona_lab.families import build, dejonquieres, determinantal
from cremona_lab.fields import GF, GF2
from cremona_lab.hudson import (TABLE6_SHA256, classify_component, classify_point,
                                curve_singular_points, hudson_vector, load_table,
                                match_table, tangent_profile, _factor_rank2)
from cremona_lab.poly import parse_poly, ring
from cremona_lab.rng import Rng

P = 10007
R = ring(GF(P), 4)
F = R.field
E3PT = (F.zero, F.zero, F.zero, F.one)


def pp(s):
    return parse_poly(s, R)


def test_table_loads_and_verifies():
    rows = load_table(verify=True)
    assert len(rows) == 75
    assert rows[1].row == 2 and rows[1].bidegree == (3, 3)
    assert rows[1].fcurves == "w6 (genus 3)"
    assert rows[22].row == 23 and rows[22].counts == (0, 0, 0, 0, 1, 0)
    by_bd = {}
    for r in rows:
        by_bd[r.bidegree] = by_bd.get(r.bidegree, 0) + 1
    assert by_bd == {(3, 2): 1, (3, 3): 4, (3, 4): 6, (3, 5): 16, (3, 6): 25,
                     (3, 7): 14, (3, 8): 5, (3, 9): 4}


def test_table_checksum_pinned():
    import cremona_lab

    from importlib import resources

    data = resources.files("cremona_lab").joinpath("data/hudson_table6.txt").read_bytes()
    assert hashlib.sha256(data).hexdigest() == TABLE6_SHA256


def test_classify_ordinary_and_nonbase():
    psi = determinantal(1, GF(P))
    # a random point is not even a base point
    pt = classify_point(psi, (F.one, F.of(2), F.of(3), F.of(4)), Rng(1))
    assert pt.tag == "Ordinary" and not pt.is_base_point


def test_classify_dejonquieres_variants():
    for variant, tag, rank in (("E3", "DoublePoint", 3), ("E3.5", "Binode", 2),
                               ("E4", "DoubleContactPoint", None)):
        psi = dejonquieres(variant, 2, GF(P))
        pt = classify_point(psi, E3PT, Rng(2))
        assert pt.tag == tag
        if rank is not None:
            assert pt.rank_data == rank
        if tag == "Binode":
            # the witness plane divides the quadratic part of every member
            assert pt.fixed_plane is not None


def test_classify_equivariance():
    psi = dejonquieres("E3", 3, GF(P))
    rng = Rng(3)
    B = linalg.random_invertible(F, 4, rng)
    moved = psi.conjugate(None, B)
    q = linalg.mat_vec(F, linalg.inverse(F, B), list(E3PT))
    pt = classify_point(moved, tuple(q), rng.split("c"))
    assert pt.tag == "DoublePoint" and pt.rank_data == 3


def test_contact_and_osculation_tags():
    rng = Rng(4)
    # contact: all members in I_p^2 + (S) with S = z3^2 z0 smooth at p,
    # and a member whose quadratic part is independent (Q2 >= 2)
    lam = RationalMap([pp("z3^2*z0"), pp("z3*z0^2"), pp("z3*z0*z1"), pp("z1^3")], 3)
    pt = classify_point(lam, E3PT, rng.split("t"))
    assert pt.tag == "ContactPoint"
    # osculation: all members in I_p^3 + (S)
    lam2 = RationalMap([pp("z3^2*z0"), pp("z0^3"), pp("z0^2*z1"), pp("z0*z1^2")], 3)
    pt2 = classify_point(lam2, E3PT, rng.split("u"))
    assert pt2.tag == "OsculationPoint"


def test_factor_rank2_forms():
    # (z0 + z1)(z0 - z1) = z0^2 - z1^2: vector in QUAD_MONS3 order
    vec = [F.one, F.zero, F.zero, F.neg(F.one), F.zero, F.zero]
    factors, FF = _factor_rank2(vec, F)
    assert FF == F and len(factors) == 2
    # rank 1: z1^2
    vec1 = [F.zero, F.zero, F.zero, F.one, F.zero, F.zero]
    factors1, _ = _factor_rank2(vec1, F)
    assert len(factors1) == 1
    # irrational split lands in GF(p^2)
    r = F.non_residue()
    vec2 = [F.one, F.zero, F.zero, F.neg(r), F.zero, F.zero]  # z0^2 - r z1^2
    factors2, FF2 = _factor_rank2(vec2, F)
    assert isinstance(FF2, GF2) and len(factors2) == 2


def test_tangent_profiles_by_family():
    for label, expect in (("E3", (2, 2)), ("E7", (2, 2)), ("E8", (2, 3)),
                          ("E9", (2, 4)), ("E4", (2, 4))):
        psi, _ = build(label, 4, GF(P))
        an = analyze_map(psi, seed=4, trials=0, with_certificate=False)
        hv = hudson_vector(an)
        profs = [(d1, d2) for (_, _, d1, d2, _) in hv.profiles]
        assert expect in profs, (label, profs)


@pytest.mark.parametrize("seed", [1, 9001])
@pytest.mark.parametrize("label", ["ruled_3_2", "ruled_3_3", "ruled_3_4", "ruled_3_5"])
def test_fcurve_degrees_sum_to_the_degree_of_c2(monkeypatch, label, seed):
    """Each line of C2 is listed as often as its multiplicity, so the
    F-curve degrees add up to deg C2; one line search finds the lines."""
    searches = []
    real = hudson.candidate_lines

    def counted(*args):
        searches.append(args)
        return real(*args)

    monkeypatch.setattr(hudson, "candidate_lines", counted)
    psi, _ = build(label, seed, GF(1000003))
    an = analyze_map(psi, seed=seed, trials=0, with_certificate=False)
    hv = hudson_vector(an)
    assert an.c2.degree and sum(d for _, d, _ in hv.fcurves) == an.c2.degree
    assert len(searches) == 1


def test_match_table_rows_by_family():
    expected = {"E2": [2], "E3": [3], "E4": [4], "E6": [6], "E7": [7], "E8": [8],
                "E9": [9], "E12": [12], "E13": [13], "E14": [14], "E19": [19],
                "E23": [23], "E24": [24], "E3.5": [], "E7.5": []}
    for label, rows in expected.items():
        psi, _ = build(label, 5, GF(P))
        an = analyze_map(psi, seed=5, trials=0, with_certificate=False)
        hv = hudson_vector(an)
        assert [r.row for r in match_table(hv)] == rows, label


def test_classify_component_labels():
    for label in ("E2", "E3", "E3.5", "E4", "E6", "E7", "E7.5", "E8", "E9",
                  "E12", "E13", "E14", "E19", "E23", "E24", "ruled_3_3"):
        psi, _ = build(label, 6, GF(P))
        an = analyze_map(psi, seed=6, trials=2, with_certificate=False)
        assert classify_component(an) == label


def test_classifier_emptiness_clause():
    from cremona_lab.cremona import CurveRecord
    from cremona_lab.hudson import ClassificationError

    psi, _ = build("E13", 7, GF(P))
    an = analyze_map(psi, seed=7, trials=0, with_certificate=False)
    an.c2 = CurveRecord(an.c2.ideal, an.c2.degree, 2)  # forge p_a = 2
    with pytest.raises(ClassificationError):
        classify_component(an, hudson_vector(an))


def test_singular_system_points_lie_on_residual_curve():
    # any all-singular special point with mult_p(C1) < 4 lies on C2
    for label in ("E3", "E7", "E13", "E14", "E19"):
        psi, _ = build(label, 8, GF(P))
        an = analyze_map(psi, seed=8, trials=0, with_certificate=False)
        hv = hudson_vector(an)
        for (p, tag, d1, d2, on2) in hv.profiles:
            if tag in ("DoublePoint", "Binode", "DoubleContactPoint") and d1 < 4:
                assert on2, (label, tag)


def test_c2_singular_points_match_families():
    psi, _ = build("E14", 9, GF(P))
    an = analyze_map(psi, seed=9, trials=0, with_certificate=False)
    sing = curve_singular_points(an.c2, Rng(9))
    assert sing is not None and len(sing) == 1 and sing[0][1] == 2
    # E3.5: the residual sextic carries a triple point at the binode
    psi, _ = build("E3.5", 9, GF(P))
    an = analyze_map(psi, seed=9, trials=0, with_certificate=False)
    sing = curve_singular_points(an.c2, Rng(10))
    assert sing == [((F.zero, F.zero, F.zero, F.one), 3)]


@pytest.mark.parametrize("seed", [6, 25])
def test_a_contact_point_forced_by_a_node_of_c2_is_not_counted(monkeypatch, seed):
    """E4's special locus holds a point of contact where C2 has a node and
    C1 does not pass (profile (0, 2, on C2)); Hudson's row 4 does not count
    it, so E4 keeps one double point of contact and its table row."""
    seen = []
    real_classify, real_profile = hudson.classify_point, hudson.tangent_profile
    monkeypatch.setattr(hudson, "classify_point",
                        lambda *a: seen.append(real_classify(*a)) or seen[-1])
    monkeypatch.setattr(hudson, "tangent_profile",
                        lambda *a: seen.append(real_profile(*a)) or seen[-1])
    psi, _ = build("E4", seed, GF(1000003))
    rep = cli.analysis_report(psi, seed)
    assert rep["hudson_counts"] == [1, 0, 0, 0, 0, 0]
    assert rep["table_rows"] == [4]
    assert rep["hudson_partial"] is False
    # a profile is computed right after the classification of its point
    forced = [prof for pt, prof in zip(seen, seen[1:])
              if getattr(pt, "tag", None) == "ContactPoint" and isinstance(prof, tuple)]
    assert forced == [(0, 2, True)]


def test_a_partial_vector_matches_no_row():
    psi, _ = build("E7", 5, GF(P))
    an = analyze_map(psi, seed=5, trials=0, with_certificate=False)
    hv = hudson_vector(an)
    assert [r.row for r in match_table(hv)] == [7]
    hv.partial = True
    assert match_table(hv) == []


def test_theta_points_beyond_its_count_are_refused(monkeypatch):
    psi, _ = build("E7", 5, GF(P))
    an = analyze_map(psi, seed=5, trials=0, with_certificate=False)
    assert an.theta_count and not an.theta_ideal.is_unit()
    hudson.candidate_points(an, Rng(1))  # accepted at the true count
    an.theta_count -= 1
    with pytest.raises(hudson.DegenerateInput, match="candidate_points"):
        hudson.candidate_points(an, Rng(1))
