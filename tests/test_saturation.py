"""sat_irrelevant and saturate against their reference routes (saturate
by each variable or by each generator and intersect the parts): both give
the reference's reduced grevlex basis.  Each costs the pinned number of
Groebner bases, and the budget given to an analysis holds every Groebner
call in it.  The references live here.  The liaison residual Gamma : C1 is a
saturation, and equals the exact quotient on every stratum."""

import gc
import sys

import pytest

from cremona_lab import cli, cremona, families, groebner, hudson, ideals
from cremona_lab.cremona import RationalMap, analyze_map, line_preimage_split, new_map
from cremona_lab.fields import GF, QQ
from cremona_lab.groebner import Budget
from cremona_lab.ideals import (DegenerateInput, IdealHandle, _certified, intersect, quotient,
                                sat_irrelevant, saturate, saturate_by_poly, unit_ideal)
from cremona_lab.poly import _ring_cache, parse_poly, ring
from cremona_lab.rng import Rng, random_prime

FIELDS = [GF(10007), QQ]
# a small integer change of coordinates moves the curves off the
# coordinate hyperplanes (and keeps the coefficients small over Q)
MOVE = [[1, 2, 0, 1], [0, 1, 3, 1], [1, 0, 1, 2], [2, 1, 1, 1]]
TWISTED = ("z0*z2 - z1^2", "z1*z3 - z2^2", "z0*z3 - z1*z2")


def _ideal(R, texts, moved=False):
    gens = [parse_poly(t, R) for t in texts]
    if moved:
        gens = [g.substitute_linear(MOVE) for g in gens]
    return IdealHandle(gens, R)


def _product(I, J):
    return IdealHandle([a * b for a in I.gens for b in J.gens], I.ring)


def _irrelevant(R, power=1):
    m = IdealHandle(R.vars(), R)
    out = m
    for _ in range(power - 1):
        out = _product(out, m)
    return out


def _fresh(I):
    """I without its cached bases (e.g. the one `intersect` attaches)."""
    return IdealHandle(list(I.gens), I.ring)


def _inputs(F):
    R = ring(F, 4)
    curve = _ideal(R, TWISTED, moved=True)
    return {
        "finite length": _ideal(R, ("z0^2", "z1^2 + z0*z3", "z2^2", "z3^3")),
        "unit": IdealHandle([R.one], R),
        "saturated curve": curve,
        "curve times (z0..z3)": _product(_ideal(R, TWISTED, moved=True), _irrelevant(R)),
        "curve meet (z0..z3)^3": _fresh(intersect(_ideal(R, TWISTED, moved=True),
                                                  _irrelevant(R, 3))),
        # zero sets inside coordinate hyperplanes: here the reference returns
        # a permuted-order basis, not the reduced grevlex basis
        "coordinate point": _ideal(R, ("z1", "z2", "z3")),
        "plane curve in z0 = 0": _ideal(R, ("z0", "z1^3 + z2^3 + z3^3 + z1*z2*z3")),
        "two points, one on z3 = 0": _fresh(intersect(
            _ideal(R, ("z1 - 2*z0", "z2 - 3*z0", "z3")),
            _ideal(R, ("z1 - z0", "z2 - z0", "z3 - z0")))),
    }


def _intersect_distinct(parts):
    """Intersection of the non-unit ideals among `parts`, each distinct
    reduced basis taken once; None when every part is the unit ideal."""
    acc = None
    seen = []
    for S in parts:
        if S.is_unit():
            continue
        g = S.groebner(groebner.GREVLEX)
        if any(g == T for T in seen):
            continue
        seen.append(g)
        acc = S if acc is None else intersect(acc, S)
    return acc


def _single_variable(g):
    """i when g is a multiple of the variable z_i, else None."""
    if len(g.terms) != 1:
        return None
    m = g.terms[0][0]
    R = g.ring
    if R.mdeg(m) != 1:
        return None
    return next(i for i in range(R.nvars) if R.mexp(m, i) == 1)


def _saturate_variable(I, i):
    """(I : z_i^oo) for homogeneous I: grevlex basis with z_i cheapest, then
    divide each element by its z_i power."""
    R = I.ring
    n = R.nvars
    assert all(g.is_homogeneous() for g in I.gens)
    perm = list(range(n))
    perm[i], perm[n - 1] = perm[n - 1], perm[i]
    # z_{n-1} is already cheapest: the permutation is the identity
    moved = I if i == n - 1 else IdealHandle([g.map_vars(R, perm) for g in I.gens], R)
    out, divided = ideals._divide_last_power(moved.groebner(groebner.GREVLEX), R)
    part = IdealHandle([g.map_vars(R, perm) for g in out], R)
    known = I._gb.get(groebner.GREVLEX)
    if not divided and known is not None:
        # no lead divisible by z_i: z_i is a non-zerodivisor mod I, the part is I
        part.with_basis(groebner.GREVLEX, known)
    return part


def _saturate_by_parts(I, J):
    """The reference: (I : J^oo) as the intersection over generators g of J
    of (I : g^oo), a variable g divided out of a grevlex basis."""
    gens = [g for g in J.gens if g]
    if not gens or any(g.total_degree() == 0 for g in gens):
        return IdealHandle(list(I.gens), I.ring, saturated=I.saturated)
    parts = []
    for g in gens:
        i = _single_variable(g)
        parts.append(saturate_by_poly(I, g) if i is None else _saturate_variable(I, i))
    acc = _intersect_distinct(parts)
    return unit_ideal(I.ring) if acc is None else acc


def _sat_irrelevant_by_parts(I):
    """The reference: saturate by each variable and intersect the distinct
    parts."""
    R = I.ring
    gb0 = I.groebner(groebner.GREVLEX)
    parts = [_saturate_variable(I, i) for i in range(R.nvars)]
    if all(S.groebner(groebner.GREVLEX) == gb0 for S in parts):
        return IdealHandle(list(gb0), R, saturated=True)
    acc = _intersect_distinct(parts)
    if acc is None:
        return IdealHandle([R.one], R, saturated=True)
    return acc.as_saturated()


def _same(got, want):
    """The same saturation: both flagged, equal reduced grevlex bases (the
    generators may differ), and any cached basis is the basis of got's
    generators."""
    assert got.saturated and want.saturated
    assert got.groebner() == want.groebner()
    _cached_basis_is_exact(got)


@pytest.mark.parametrize("F", FIELDS, ids=["gf", "q"])
@pytest.mark.parametrize("name", list(_inputs(GF(10007))))
def test_sat_irrelevant_returns_the_reference_generators(F, name):
    """The reference's saturation, as a reduced grevlex basis."""
    I = _inputs(F)[name]
    want = _sat_irrelevant_by_parts(IdealHandle(list(I.gens), I.ring))
    _same(sat_irrelevant(I), want)


def test_finite_length_and_unit_inputs_give_the_unit_ideal():
    for name in ("finite length", "unit"):
        got = sat_irrelevant(_inputs(GF(10007))[name])
        assert got.gens == (got.ring.one,) and got.saturated


def test_non_homogeneous_input_is_refused():
    R = ring(GF(10007), 4)
    with pytest.raises(ValueError):
        sat_irrelevant(_ideal(R, ("z0^2 + z1", "z2")))


def _count_bases(monkeypatch):
    """The orders of the Groebner bases `ideals` computes: a
    `groebner_basis` call, or an `extend_basis` call, which extends a known
    basis (a Rabinowitsch elimination)."""
    calls = []
    real, real_extend = ideals.groebner_basis, ideals.extend_basis

    def counted(gens, order=groebner.GREVLEX):
        calls.append(order)
        return real(gens, order)

    def counted_extend(basis, f, order=groebner.GREVLEX):
        calls.append(order)
        return real_extend(basis, f, order)

    monkeypatch.setattr(ideals, "groebner_basis", counted)
    monkeypatch.setattr(ideals, "extend_basis", counted_extend)
    return calls


@pytest.mark.parametrize("name,bases", [
    ("finite length", 1),            # the basis itself shows finite length
    # the unmoved try is refused (dividing by z3 drops the point), + the
    # moved basis, where no element is divided
    ("coordinate point", 2),
    ("saturated curve", 1),          # z3 a non-zerodivisor
    # the unmoved try is refused (it drops the point on z3 = 0), + the basis
    # after z3 -> z3 + sum c_i z_i
    ("two points, one on z3 = 0", 2),
    # the input's basis, divided by its z3 powers, then `reduce_basis`
    ("curve times (z0..z3)", 1),
])
def test_groebner_calls_per_branch(monkeypatch, name, bases):
    I = _inputs(GF(10007))[name]
    calls = _count_bases(monkeypatch)
    sat_irrelevant(I)
    assert len(calls) == bases


def _zero_draws(monkeypatch, refused):
    """Make the first `refused` draws of the moved variable zero, so that
    h = z_last, which is tried before any draw, unmoved, and refused on the
    inputs used here; later draws come from the stream as before.  Returns
    the list of draws made."""
    real = ideals._small_coefficients
    draws = []

    def drawn(F, rng, k):
        out = real(F, rng, k)
        draws.append(out)
        return [F.zero] * k if len(draws) <= refused else out

    monkeypatch.setattr(ideals, "_small_coefficients", drawn)
    return draws


def test_a_refused_certificate_draws_again(monkeypatch):
    """With h = z_last, I : h^oo drops the point of I on z3 = 0 and its
    Hilbert polynomial is 1, not 2: the unmoved try and the zero draw are
    refused, and the next draw gives the saturation."""
    I = _inputs(GF(10007))["two points, one on z3 = 0"]
    draws = _zero_draws(monkeypatch, 1)
    got = sat_irrelevant(I)
    assert len(draws) == 2
    monkeypatch.undo()
    _same(got, _sat_irrelevant_by_parts(_fresh(I)))


def test_every_draw_refused_raises_degenerate_input(monkeypatch):
    I = _inputs(GF(10007))["two points, one on z3 = 0"]
    draws = _zero_draws(monkeypatch, ideals._SAT_DRAWS)
    with pytest.raises(DegenerateInput, match="^sat_irrelevant: "):
        sat_irrelevant(I)
    assert len(draws) == ideals._SAT_DRAWS


def test_saturated_points_off_the_coordinate_hyperplanes_cost_one_basis(monkeypatch):
    R = ring(GF(10007), 4)
    I = _fresh(intersect(_ideal(R, ("z1 - 2*z0", "z2 - 3*z0", "z3 - 5*z0")),
                         _ideal(R, ("z1 - z0", "z2 - z0", "z3 - z0"))))
    calls = _count_bases(monkeypatch)
    got = sat_irrelevant(I)
    assert len(calls) == 1
    _same(got, _sat_irrelevant_by_parts(IdealHandle(list(I.gens), R)))


def test_a_part_by_a_non_zerodivisor_reuses_the_basis_of_the_input():
    I = _inputs(GF(10007))["saturated curve"]
    gb0 = I.groebner()
    for i in range(4):
        part = _saturate_variable(I, i)
        assert part._gb.get(groebner.GREVLEX) == gb0
        assert tuple(groebner.groebner_basis(list(part.gens))) == gb0


def _special_locus_by_minors(psi, J):
    """The reference: J's generators plus every nonzero 2x2 Jacobian minor
    of psi, saturated."""
    return sat_irrelevant(IdealHandle(list(J.gens) + hudson._jacobian_minors(psi.components),
                                      psi.ring))


@pytest.mark.parametrize("label", [l for l in families.FAMILY_LABELS
                                   if not l.startswith("ruled")])
def test_the_special_locus_is_the_saturation_of_j_and_all_its_minors(label):
    """J's basis plus the minors independent modulo J give the ideal that J
    plus every minor gives, so the same reduced basis."""
    psi, _ = families.build(label, 1, GF(1000003))
    J = psi.base_ideal()
    got = hudson.special_locus(psi, J)
    _same(got, _special_locus_by_minors(psi, J))


def test_analyze_map_saturates_the_base_ideal_once(monkeypatch):
    template, _ = families.build("E8", 1, GF(1000003))
    seen = []
    real = cremona.sat_irrelevant

    def watched(I):
        seen.append(I.gens)
        return real(I)

    monkeypatch.setattr(cremona, "sat_irrelevant", watched)
    psi = new_map(*template.components, label=template.label, seed=1)
    analyze_map(psi, seed=1, trials=0, with_certificate=False)
    assert seen.count(psi.ideal().gens) == 1


def test_an_invariants_analysis_saturates_only_the_base_ideal(monkeypatch):
    """The genus and ruledness read Hilbert data off unsaturated ideals (an
    ideal and its saturation have the same Hilbert polynomial), so the base
    ideal is the only ideal saturated by the irrelevant ideal."""
    template, _ = families.build("E8", 1, GF(1000003))
    psi = RationalMap(template.components, 3, label=template.label)
    seen = []
    real = ideals.sat_irrelevant

    def watched(I):
        seen.append(I.gens)
        return real(I)

    for mod in (ideals, cremona, hudson, families):
        monkeypatch.setattr(mod, "sat_irrelevant", watched)
    analyze_map(psi, 1, trials=0, with_certificate=False)
    assert seen == [psi.ideal().gens]


def _limits_seen(monkeypatch) -> dict:
    """The Groebner limits in force at each call of `groebner_basis`, of
    `extend_basis`, of `ideals._certified` and of `ideals._powers_in`,
    wrapped in every module that binds them."""
    seen = {}
    for home, name in ((groebner, "groebner_basis"), (groebner, "extend_basis"),
                       (ideals, "_certified"), (ideals, "_powers_in")):
        real = getattr(home, name)
        seen[name] = []

        def watched(*args, real=real, log=seen[name]):
            log.append(groebner.current_limits())
            return real(*args)

        for mod in list(sys.modules.values()):
            if mod is not None and mod.__name__.startswith("cremona_lab") \
                    and getattr(mod, name, None) is real:
                monkeypatch.setattr(mod, name, watched)
    return seen


def test_analysis_report_passes_the_budget_to_every_groebner_call(monkeypatch):
    """With Hudson, the certificate and the inverse on, every Groebner basis,
    every saturation certificate and every linkage check of
    `analysis_report` is held to its budget, and the default limits are back
    once it returns."""
    default = groebner.current_limits()
    budget = Budget(100000, 25)
    for name in ("E2", "E23", "ruled_3_4"):
        psi, _ = families.build(name, 1, GF(1000003))
        seen = _limits_seen(monkeypatch)
        rep = cli.analysis_report(psi, 1, with_hudson=True, with_inverse=True, budget=budget)
        monkeypatch.undo()
        assert rep["birational"] == "yes" and rep["certificate"] == 1 and rep["inverse"]
        for calls in seen.values():
            assert calls and all(b is budget for b in calls), name
        assert groebner.current_limits() is default


def _cached_basis_is_exact(I):
    """The cached grevlex basis, if any, is the basis of I's generators."""
    gb = I._gb.get(groebner.GREVLEX)
    assert gb is None or gb == tuple(groebner.groebner_basis(list(I.gens)))


def test_every_saturation_of_a_scan_matches_the_reference(monkeypatch):
    """Two full-level scans per stratum, members at seeds 1 + k and
    9001 + k (Hudson, fiber oracle and certificate included), with every
    sat_irrelevant, saturate and split_unmixed call checked against its
    reference route.
    An invariants scan saturates little by the irrelevant ideal beyond the
    base ideal, so it would check too few."""
    real = ideals.sat_irrelevant
    real_saturate = ideals.saturate
    real_split = ideals.split_unmixed
    checked = []
    checked_saturate = []
    checked_split = []

    def compared(I):
        got = real(I)
        _same(got, _sat_irrelevant_by_parts(IdealHandle(list(I.gens), I.ring)))
        checked.append(I)
        return got

    def compared_saturate(I, J):
        got = real_saturate(I, J)
        want = _saturate_by_parts(_fresh(I), J)
        assert got.gens == want.groebner() and got.saturated == want.saturated
        _cached_basis_is_exact(got)
        checked_saturate.append(I)
        return got

    def compared_split(I, J):
        c1, c2 = real_split(I, J)
        want1 = _saturate_by_parts(_fresh(I), J)
        assert c1.gens == want1.groebner()
        assert c2.gens == _saturate_by_parts(_fresh(I), want1).groebner()
        _cached_basis_is_exact(c1)
        _cached_basis_is_exact(c2)
        checked_split.append(I)
        return c1, c2

    for mod in (ideals, cremona, hudson, families):
        monkeypatch.setattr(mod, "sat_irrelevant", compared)
    for mod in (ideals, cremona, hudson):
        monkeypatch.setattr(mod, "saturate", compared_saturate)
    monkeypatch.setattr(cremona, "split_unmixed", compared_split)
    rng = Rng(1, "scan-primes")
    for seed in (1, 9001):
        for k, fam in enumerate(families.FAMILY_LABELS):
            rec = cli.scan_one(fam, seed + k, random_prime(rng.split(f"p{k}")), level="full")
            assert rec["ok"], rec
    assert len(checked) > 100, len(checked)
    assert len(checked_saturate) >= 3 * len(families.FAMILY_LABELS), len(checked_saturate)
    assert len(checked_split) >= 2 * len(families.FAMILY_LABELS), len(checked_split)


def test_the_certificate_degree_cap_is_the_current_limit():
    """z0 * (z0, ..., z3) : (z0, ..., z3)^oo = (z0), certified at degree 2:
    refused under a degree limit of 1."""
    R = ring(GF(10007), 4)
    I = _ideal(R, ("z0^2", "z0*z1", "z0*z2", "z0*z3"))
    K = _ideal(R, ("z0",))
    gens = list(R.vars())
    assert _certified(I, K, gens)  # also caches I's reducer, so no basis is taken below
    with groebner.limits(Budget(max_degree=1)):
        assert not _certified(I, K, gens)


def _two_points_and_two_quadrics():
    """I = I_P meet I_Q with P = (1:2:3:5), Q = (1:1:1:1), and J = (g1, g2)
    with g1 vanishing at P only and g2 at neither: I : g1^oo = I_Q is
    strictly larger than I : (g1, g2)^oo = I."""
    R = ring(GF(10007), 4)
    I = intersect(_ideal(R, ("z1 - 2*z0", "z2 - 3*z0", "z3 - 5*z0")),
                  _ideal(R, ("z1 - z0", "z2 - z0", "z3 - z0")))
    return I, _ideal(R, ("z1^2 + z2*z3 - 19*z0^2", "z0^2 + z1^2 + z2^2 + z3^2"))


def test_the_certificate_rejects_a_saturation_by_one_generator(monkeypatch):
    """`_certified` refuses I : g1^oo and accepts I : g2^oo; in saturate, a
    first combination that is only g1 is refused (I is 0-dimensional, so
    by the power check) and the next draw from the stream gives I."""
    I, J = _two_points_and_two_quadrics()
    g1, g2 = J.gens
    too_big = saturate_by_poly(I, g1)
    assert not too_big.equals(I)
    assert not _certified(I, too_big, [g1, g2])
    assert _certified(I, saturate_by_poly(I, g2), [g1, g2])
    draws = _forced_draws(monkeypatch, {0: g1})
    got = saturate(I, J)
    assert len(draws) == 2 and draws[0] != draws[1]
    assert got.gens == _saturate_by_parts(_fresh(I), J).groebner() and got.equals(I)


def test_the_power_check_refuses_a_first_draw_of_one_generator(monkeypatch):
    """I is 0-dimensional, so a draw h is accepted when every generator of J
    has a power in I + (h), and `_certified` is not called.  h = g1 vanishes
    at P, where g2 does not, so g2 has no power in I + (g1): the draw is
    refused before any elimination, and the next draw is accepted."""
    I, J = _two_points_and_two_quadrics()
    checks, eliminated = [], []
    real_powers, real_rabinowitsch = ideals._powers_in, ideals._rabinowitsch

    def checked(K, gens):
        checks.append(real_powers(K, gens))
        return checks[-1]

    def elimination(I, g):
        eliminated.append(g)
        return real_rabinowitsch(I, g)

    monkeypatch.setattr(ideals, "_powers_in", checked)
    monkeypatch.setattr(ideals, "_rabinowitsch", elimination)
    monkeypatch.setattr(ideals, "_certified", lambda *args: pytest.fail("_certified called"))
    draws = _forced_draws(monkeypatch, {0: J.gens[0]})
    got = saturate(I, J)
    assert checks == [False, True] and eliminated == [draws[1]]
    assert got.equals(I)
    checks.clear()
    draws = _forced_draws(monkeypatch, dict.fromkeys(range(ideals._SAT_DRAWS), J.gens[0]))
    with pytest.raises(DegenerateInput, match="^saturate: the power check refused "):
        saturate(I, J)
    assert checks == [False] * ideals._SAT_DRAWS and len(draws) == ideals._SAT_DRAWS


def _points(F, spec):
    """The intersection of the ideals of the points named in `spec`: P =
    (1:2:3:5) or Q = (1:1:1:1), P2 for the square of I_P."""
    R = ring(F, 4)
    ideal_of = {"P": ("z1 - 2*z0", "z2 - 3*z0", "z3 - 5*z0"),
                "Q": ("z1 - z0", "z2 - z0", "z3 - z0")}
    parts = []
    for name in spec:
        I = _ideal(R, ideal_of[name[0]])
        parts.append(_product(I, I) if name.endswith("2") else I)
    out = parts[0]
    for part in parts[1:]:
        out = intersect(out, part)
    return out


@pytest.mark.parametrize("F", FIELDS, ids=["gf", "q"])
@pytest.mark.parametrize("spec,by", [
    pytest.param(("P", "Q"), "P", id="PQ-by-P"), pytest.param(("P2", "Q"), "Q", id="P2Q-by-Q"),
    pytest.param(("P2", "Q"), "P", id="P2Q-by-P"), pytest.param(("P", "Q", "m"), "Q", id="PQm-by-Q")])
def test_saturate_of_a_zero_dimensional_ideal_matches_the_reference(monkeypatch, F, spec, by):
    """Points, a fat point and an embedded component at the vertex ("m":
    the product with (z0, ..., z3)), saturated by the ideal of one point:
    the power check's route gives the reference's reduced grevlex basis,
    and `_certified` is not called."""
    I = _points(F, [s for s in spec if s != "m"])
    if "m" in spec:
        I = _product(I, _irrelevant(I.ring))
    I = _fresh(I)
    J = _points(F, by)
    J = IdealHandle(list(J.gens), J.ring)
    assert I.hilbert().dimension == 0 and len(J.gens) == 3
    monkeypatch.setattr(ideals, "_certified", lambda *args: pytest.fail("_certified called"))
    got = saturate(I, J)
    monkeypatch.undo()
    want = _saturate_by_parts(_fresh(I), J)
    assert got.gens == want.groebner()
    assert got.equals(_points(F, [s for s in spec if s not in ("m",) and s[0] != by]))
    _cached_basis_is_exact(got)


def test_every_refused_saturate_draw_raises_degenerate_input(monkeypatch):
    """A certificate that refuses every draw: `_SAT_DRAWS` draws, then
    DegenerateInput naming saturate."""
    cubic, line = _cubic_and_line(GF(10007))
    I = intersect(cubic, line)
    calls = []

    def refused(*args):
        calls.append(args)
        return False

    monkeypatch.setattr(ideals, "_certified", refused)
    with pytest.raises(DegenerateInput, match="^saturate: "):
        saturate(I, line)
    assert len(calls) == ideals._SAT_DRAWS


@pytest.mark.parametrize("F", FIELDS, ids=["gf", "q"])
def test_saturate_by_two_variables_matches_the_reference(F):
    """J = (z0, z1), which the reference saturates variable by variable:
    the combination route gives the reduced grevlex basis of the same
    ideal, here the twisted cubic left after the line z0 = z1 = 0 and the
    embedded structure of the product are stripped."""
    R = ring(F, 4)
    cubic = _ideal(R, TWISTED, moved=True)
    J = _ideal(R, ("z0", "z1"))
    I = _product(intersect(cubic, J), J)
    got = saturate(I, J)
    want = _saturate_by_parts(_fresh(I), J)
    assert got.gens == want.groebner() == cubic.groebner()
    _cached_basis_is_exact(got)


def _e8_line_preimage():
    """An E8 map and the preimage Gamma of a line, its basis computed."""
    psi, _ = families.build("E8", 1, GF(1000003))
    F = psi.ring.field
    sub = Rng(1, "one-basis")
    rows = [[F.rand(sub) for _ in range(4)] for _ in range(2)]
    Gamma = IdealHandle([psi.member(r) for r in rows], psi.ring, saturated=True)
    Gamma.groebner()
    return psi, Gamma


def test_saturate_by_the_base_ideal_costs_one_basis(monkeypatch):
    """saturate(Gamma, I_psi) on an E8 map: one Rabinowitsch basis (the
    reference costs a basis per generator), and is_unit on the result is
    free because the basis comes attached."""
    psi, Gamma = _e8_line_preimage()
    calls = _count_bases(monkeypatch)
    got = saturate(Gamma, psi.ideal())
    assert len(calls) == 1
    assert not got.is_unit()
    assert len(calls) == 1
    monkeypatch.undo()
    assert got.gens == _saturate_by_parts(Gamma, psi.ideal()).groebner()


def test_a_quotient_by_one_generator_of_j_can_be_larger():
    """I = (z0*z1), J = (z0, z2): I : z0 = (z1) is strictly larger than
    I : J = (z0*z1), because z1*z2 is not in I."""
    R = ring(GF(10007), 4)
    I, J = _ideal(R, ("z0*z1",)), _ideal(R, ("z0", "z2"))
    assert ideals.quotient_by_poly(I, J.gens[0]).equals(_ideal(R, ("z1",)))
    assert quotient(I, J).equals(I)


def test_no_single_quotient_gives_two_squares_by_their_variables():
    """I = (z0^2, z1^2), J = (z0, z1): I : J = (z0^2, z0*z1, z1^2), but
    I : f holds a*z0 - b*z1 for every f = a*z0 + b*z1, since their product
    is a^2*z0^2 - b^2*z1^2.  quotient intersects the quotients by z0 and
    z1."""
    R = ring(GF(10007), 4)
    I, J = _ideal(R, ("z0^2", "z1^2")), _ideal(R, ("z0", "z1"))
    want = _ideal(R, ("z0^2", "z0*z1", "z1^2"))
    for a, b in ((1, 0), (0, 1), (3, 7), (5, 1)):
        too_big = ideals.quotient_by_poly(I, parse_poly(f"{a}*z0 + {b}*z1", R))
        other = parse_poly(f"{a}*z0 - {b}*z1", R)
        assert too_big.contains(other) and not want.contains(other)
    assert quotient(I, J).groebner() == want.groebner()


def test_a_quotient_by_an_ideal_inside_i_is_the_unit_ideal():
    R = ring(GF(10007), 4)
    I, J = _ideal(R, ("z0*z1", "z2")), _ideal(R, ("z0*z1*z3", "z2*z3"))
    assert quotient(I, J).is_unit()
    assert quotient(I, _ideal(R, ("0",))).is_unit()


def test_the_liaison_residual_saturation_is_the_quotient_on_every_stratum():
    """C2 = Gamma : C1^oo (one saturation) has the reduced basis of the
    exact quotient Gamma : C1 on every stratum at seeds 1 + k and 9001 + k:
    Gamma is unmixed and C1 keeps exactly its components off the base
    locus (proof in `line_preimage_split`)."""
    rng = Rng(1, "scan-primes")
    for seed in (1, 9001):
        for k, fam in enumerate(families.FAMILY_LABELS):
            psi, _ = families.build(fam, seed + k, GF(random_prime(rng.split(f"p{k}"))))
            Gamma, c1, c2 = line_preimage_split(psi, Rng(seed + k, "split"))
            assert c2.ideal.groebner() == quotient(Gamma, c1.ideal).groebner(), (fam, seed)


def test_the_split_costs_three_bases(monkeypatch):
    """line_preimage_split on an E8 map: Gamma's grevlex basis and one
    Rabinowitsch elimination each for C1 and C2, each extending Gamma's
    basis by signatures (`groebner.extend_basis`).  Their bases come
    attached, so the Hilbert data, the linkage check and the identities
    cost nothing more, and no normal-form certificate is run."""
    psi, _ = families.build("E8", 1, GF(1000003))
    calls = _count_bases(monkeypatch)
    certificates = []
    real = ideals._certified

    def counted(*args):
        certificates.append(args)
        return real(*args)

    monkeypatch.setattr(ideals, "_certified", counted)
    _, c1, c2 = line_preimage_split(psi, Rng(1, "split"))
    assert len(calls) == 3
    assert certificates == []
    assert (c1.degree, c2.degree) == (4, 5)


def test_no_candidate_of_the_split_reduces_to_zero(monkeypatch):
    """The signature criteria leave no reduction to zero in E8's split at
    seed 1: every candidate of its two eliminations becomes a new element
    or is dropped as singular top-reducible."""
    psi, _ = families.build("E8", 1, GF(1000003))
    results = []
    real = groebner._regular_reduce

    def counted(*args):
        out = real(*args)
        results.append(out)
        return out

    monkeypatch.setattr(groebner, "_regular_reduce", counted)
    _, c1, c2 = line_preimage_split(psi, Rng(1, "split"))
    assert (c1.degree, c2.degree) == (4, 5)
    assert results and [] not in results


def test_the_strict_transform_is_the_reference_saturation_on_every_stratum():
    """C1 from the linkage-checked split has the reduced basis of the
    per-generator reference Gamma : I_psi^oo on every stratum at seed 1."""
    rng = Rng(1, "scan-primes")
    for k, fam in enumerate(families.FAMILY_LABELS):
        psi, _ = families.build(fam, 1 + k, GF(random_prime(rng.split(f"p{k}"))))
        Gamma, c1, _ = line_preimage_split(psi, Rng(1 + k, "split"))
        want = _saturate_by_parts(_fresh(Gamma), psi.ideal())
        assert c1.ideal.groebner() == want.groebner(), fam


def _cubic_and_two_lines():
    """Gamma = twisted cubic u (z2 = z3 = 0) u (z0 = z1 = 0), unmixed of
    degree 5; the ideal J of the second line, which is also the residual;
    the expected first part, the cubic u the first line; and h = z0*z3,
    which lies in J and vanishes on the first line but not on the cubic."""
    R = ring(GF(10007), 4)
    cubic, line1, line2 = (_ideal(R, TWISTED), _ideal(R, ("z2", "z3")), _ideal(R, ("z0", "z1")))
    Gamma = _fresh(intersect(intersect(cubic, line1), line2))
    return Gamma, line2, intersect(cubic, line1), parse_poly("z0*z3", R)


def _forced_draws(monkeypatch, forced):
    """Generic combinations in call order (h1 then h2 for each pair of
    `split_unmixed`): the k-th is replaced by forced[k] when given (the
    stream is drawn as before).  Returns the list of draws made."""
    real = ideals._generic_combination
    draws = []

    def drawn(gens, rng):
        draws.append(real(gens, rng))
        return forced.get(len(draws) - 1, draws[-1])

    monkeypatch.setattr(ideals, "_generic_combination", drawn)
    return draws


def _split_after_one_refusal(monkeypatch, Gamma, J, want1, forced):
    draws = _forced_draws(monkeypatch, forced)
    c1, c2 = ideals.split_unmixed(Gamma, J)
    assert len(draws) == 4  # the refused pair and the accepted one
    monkeypatch.undo()
    assert c1.groebner() == want1.groebner() == _saturate_by_parts(_fresh(Gamma), J).groebner()
    assert c2.groebner() == J.groebner()
    _cached_basis_is_exact(c1)
    _cached_basis_is_exact(c2)


def test_the_power_check_refuses_a_draw_that_drops_a_component(monkeypatch):
    """With h1 = z0*z3, C1 = Gamma : h1^oo is the cubic alone: the first
    line is lost to C2 = Gamma : h2^oo.  The degrees still add up (3 + 2 =
    5), but z0 has no power in C2, so the pair is refused and the next draw
    gives the split."""
    Gamma, J, want1, h = _cubic_and_two_lines()
    lost1 = saturate_by_poly(Gamma, h)
    lost2 = saturate(Gamma, lost1)
    assert (lost1.hilbert().degree, lost2.hilbert().degree) == (3, 2)
    assert not ideals._powers_in(lost2, list(J.gens))
    _split_after_one_refusal(monkeypatch, Gamma, J, want1, {0: h})


def test_the_degree_check_refuses_a_residual_that_drops_a_component(monkeypatch):
    """With h2 a generator of Gamma (it lies in C1, as h2 must), C2 =
    Gamma : h2^oo is the unit ideal: every generator of J has a power in
    it, but 4 + 0 is not 5, so the pair is refused."""
    Gamma, J, want1, _ = _cubic_and_two_lines()
    assert saturate_by_poly(Gamma, Gamma.gens[0]).is_unit()
    _split_after_one_refusal(monkeypatch, Gamma, J, want1, {1: Gamma.gens[0]})


def test_every_refused_split_draw_raises_degenerate_input(monkeypatch):
    Gamma, J, _, h = _cubic_and_two_lines()
    draws = _forced_draws(monkeypatch, {2 * k: h for k in range(ideals._SAT_DRAWS)})
    with pytest.raises(DegenerateInput, match="^split_unmixed: "):
        ideals.split_unmixed(Gamma, J)
    assert len(draws) == 2 * ideals._SAT_DRAWS


def _cubic_and_line(F):
    R = ring(F, 4)
    return _ideal(R, TWISTED, moved=True), _ideal(R, ("z0 + z1 - z2", "z1 + 2*z3 - z0"))


def test_saturate_over_q_takes_one_combination(monkeypatch):
    """A twisted cubic plus a line over Q: saturating by the line's ideal
    leaves the cubic, from the first draw of the combination."""
    cubic, line = _cubic_and_line(QQ)
    I = intersect(cubic, line)

    certificates = []
    real = ideals._certified

    def counted(*args):
        certificates.append(real(*args))
        return certificates[-1]

    monkeypatch.setattr(ideals, "_certified", counted)
    got = saturate(I, line)
    monkeypatch.undo()
    assert certificates == [True]
    assert got.gens == _saturate_by_parts(_fresh(I), line).groebner()
    assert got.equals(cubic)
    _cached_basis_is_exact(got)


@pytest.mark.parametrize("F", FIELDS, ids=["gf", "q"])
def test_intersections_and_rabinowitsch_parts_carry_their_reduced_basis(F):
    cubic, line = _cubic_and_line(F)
    meet = intersect(cubic, line)
    part = saturate_by_poly(meet, line.gens[0])
    for I in (meet, part):
        assert I._gb.get(groebner.GREVLEX) is not None
        _cached_basis_is_exact(I)


def test_rings_are_released_with_their_last_polynomial():
    rng = Rng(1, "released-rings")
    primes = {random_prime(rng.split(f"p{k}")) for k in range(50)}
    rings = [ring(GF(p), 4) for p in primes]
    for R in rings:
        parse_poly("z0*z1 + z2^2 - z3^2", R)
    del rings, R
    gc.collect()
    assert not [key for key in _ring_cache.keys() if key[0].char in primes]


def _bir_map(name):
    """A family member at seed 1, or a pinned Q example, over GF(1000003)."""
    if name in families.FAMILY_LABELS:
        return families.build(name, 1, GF(1000003))[0]
    return families.special_examples(QQ)[name].reduce_mod(1000003)


def _hilbert_pair(h):
    """What `_fiber_degree` returns for the Hilbert data h of a fiber."""
    return ((h.degree if h.dimension == 0 else 0), 0) if h.dimension <= 0 \
        else (h.degree, h.dimension)


@pytest.mark.parametrize("name", ["E8", "cube", "dJ-smooth-S", "segre-squares"])
def test_the_fiber_oracle_saturates_by_one_component(monkeypatch, name):
    """Each fiber is saturated by the component psi_i with y_i != 0 of the
    sampled image y: no saturate or _certified call inside is_birational,
    and every fiber degree equals that of the reference saturate(Fib, (psi))."""
    psi = _bir_map(name)
    refused = []
    for mod, fn in ((ideals, "saturate"), (cremona, "saturate"), (ideals, "_certified")):
        monkeypatch.setattr(mod, fn, lambda *a, fn=fn, **k: refused.append(fn))
    fibers, results = [], []
    real_sat, real_fiber = cremona.saturate_by_poly, cremona._fiber_degree

    def recorded_sat(I, g):
        fibers.append((I, g))
        return real_sat(I, g)

    def recorded_fiber(*args):
        results.append(real_fiber(*args))
        return results[-1]

    monkeypatch.setattr(cremona, "saturate_by_poly", recorded_sat)
    monkeypatch.setattr(cremona, "_fiber_degree", recorded_fiber)
    cremona.is_birational(psi, Rng(6, name), trials=2)
    monkeypatch.undo()
    assert not refused
    assert results and len(fibers) == len(results)
    for (Fib, g), got in zip(fibers, results):
        assert g in psi.components
        assert got == _hilbert_pair(saturate(_fresh(Fib), psi.ideal()).hilbert())


def _two_step_certificate_value(T, an):
    """The reference stripping in two steps: saturate by C1 + C2 when
    deg C2 > 0, then by Theta when Theta is not the unit ideal."""
    rest = T
    if an.c2.degree:
        rest = saturate(rest, IdealHandle(an.c1.ideal.gens + an.c2.ideal.gens, T.ring))
    if an.theta_ideal is not None and not an.theta_ideal.is_unit():
        rest = saturate(rest, an.theta_ideal)
    h = rest.hilbert()
    return h.degree if h.dimension == 0 else 0


@pytest.mark.parametrize("name,theta,c2", [
    ("E2", 0, 6), ("E13", 2, 4), ("ruled_3_4", 4, 5), ("cube", 0, 0)])
def test_the_certificate_takes_one_saturation(monkeypatch, name, theta, c2):
    """One saturate(T, (psi)) gives the value of stripping C1 meet C2 and
    then Theta.  T is 0-dimensional, so its draw is accepted by the power
    check and `_certified` is not called."""
    psi = _bir_map(name)
    an = analyze_map(psi, seed=1, trials=0, with_certificate=False)
    assert (an.theta_count, an.c2.degree) == (theta, c2)
    calls = []
    real = cremona.saturate

    def counted(I, J):
        calls.append((I, J))
        return real(I, J)

    monkeypatch.setattr(cremona, "saturate", counted)
    monkeypatch.setattr(ideals, "_certified", lambda *args: pytest.fail("_certified called"))
    got = cremona.birationality_certificate(psi, an, Rng(1, "cert"))
    monkeypatch.undo()
    assert len(calls) == 1 and calls[0][1].gens == psi.ideal().gens
    assert got == _two_step_certificate_value(_fresh(calls[0][0]), an)
