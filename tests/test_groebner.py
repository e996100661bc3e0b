import pytest

from cremona_lab import groebner
from cremona_lab.fields import GF, GF2, QQ
from cremona_lab.groebner import (Budget, BudgetError, Reducer, current_limits, exact_divide,
                                  extend_basis, groebner_basis, limits, normal_form,
                                  reduce_basis, spoly_reduces_to_zero)
from cremona_lab.ideals import _divide_last_power
from cremona_lab.poly import GREVLEX, LEX, ElimBlock, WeightedGrevlex, parse_poly, ring
from cremona_lab.rng import Rng

R = ring(GF(10007), 4)


def pp(s):
    return parse_poly(s, R)


TWISTED = [pp("z0*z2 - z1^2"), pp("z1*z3 - z2^2"), pp("z0*z3 - z1*z2")]


def test_monomial_free_linear_ideal_is_its_own_basis():
    gens = [pp("z0"), pp("z1")]
    assert groebner_basis(gens) == sorted(gens, key=lambda f: R.key(f.lead()[0]), reverse=True)


def test_twisted_cubic_reduced_basis_is_three_quadrics():
    gb = groebner_basis(TWISTED)
    assert len(gb) == 3
    assert all(g.degree == 2 for g in gb)
    # verify by the definition: every S-pair reduces to zero
    for i in range(3):
        for j in range(i + 1, 3):
            assert spoly_reduces_to_zero(gb, i, j)


def test_generating_sets_agree():
    # the reduced basis depends on the ideal only, not on how it is generated
    rng = Rng(3)
    for k in range(6):
        gens = [R.random_poly(2 + k % 2, rng.split(f"{k}-{i}")) for i in range(3)]
        assert groebner_basis(gens) == groebner_basis(gens[::-1] + [gens[0] * gens[1]])


def test_normal_form_examples():
    gb = groebner_basis(TWISTED)
    # single reduction step, checkable by hand: z1^2 -> z0 z2
    assert normal_form(pp("z1^2"), gb) == pp("z0*z2")
    for g in TWISTED:
        assert normal_form(g, gb).is_zero()
    # linearity on random pairs
    rng = Rng(9)
    for k in range(10):
        f = R.random_poly(3, rng.split(f"f{k}"))
        g = R.random_poly(3, rng.split(f"g{k}"))
        assert normal_form(f + g, gb) == normal_form(f, gb) + normal_form(g, gb)


def test_membership_decidable():
    gb = groebner_basis(TWISTED)
    member = TWISTED[0] * pp("z3") - TWISTED[1] * pp("z0")
    assert normal_form(member, gb).is_zero()
    assert not normal_form(pp("z0^2"), gb).is_zero()


def test_deterministic_output():
    gb1 = groebner_basis(TWISTED)
    gb2 = groebner_basis(list(reversed(TWISTED)))
    assert gb1 == gb2


def test_budget_errors():
    rng = Rng(4)
    gens = [R.random_poly(3, rng.split(str(i))) for i in range(4)]
    with pytest.raises(BudgetError), limits(Budget(max_pairs=1)):
        groebner_basis(gens)
    with pytest.raises(BudgetError), limits(Budget(max_degree=2)):
        groebner_basis(gens)


def test_budget_defaults_ignore_the_environment(monkeypatch):
    # the limits come from the arguments (--max-pairs/--max-degree) alone
    monkeypatch.setenv("CREMONA_LAB_MAX_PAIRS", "7")
    monkeypatch.setenv("CREMONA_LAB_MAX_DEGREE", "3")
    for b in (Budget(), current_limits()):
        assert (b.max_pairs, b.max_degree) == (200_000, 30)


def test_limits_are_scoped_and_restored():
    default = current_limits()
    outer, inner = Budget(max_pairs=10), Budget(max_degree=4)
    with limits(outer):
        assert current_limits() is outer
        with limits(inner):
            assert current_limits() is inner
        assert current_limits() is outer
    assert current_limits() is default
    # a BudgetError inside the scope still restores the previous limits
    gens = [R.random_poly(3, Rng(4).split(str(i))) for i in range(4)]
    with pytest.raises(BudgetError):
        with limits(Budget(max_pairs=1)):
            groebner_basis(gens)
    assert current_limits() is default


def test_pair_count_and_the_exact_pair_budget(monkeypatch):
    # four random cubics: the Gebauer-Moeller update leaves 75 S-pairs to
    # reduce (117 with the product and chain criteria alone) for the same
    # 29-element basis; max_pairs counts exactly these pairs
    rng = Rng(4)
    gens = [R.random_poly(3, rng.split(str(i))) for i in range(4)]
    reduced = []
    spoly = groebner._Engine.spoly
    monkeypatch.setattr(groebner._Engine, "spoly",
                        lambda self, *args: reduced.append(args[2]) or spoly(self, *args))
    gb = groebner_basis(gens)
    assert len(reduced) == 75
    assert len(gb) == 29
    with limits(Budget(max_pairs=75)):
        # the limits hold each computation on its own: they do not add up
        assert groebner_basis(gens) == gb
        assert groebner_basis(gens) == gb
    with pytest.raises(BudgetError), limits(Budget(max_pairs=74)):
        groebner_basis(gens)


def test_exact_divide():
    f = pp("z0^2*z3 - z0*z1*z2")
    assert exact_divide(f, pp("z0")) == pp("z0*z3 - z1*z2")
    assert exact_divide(f, pp("z1")) is None
    rng = Rng(6)
    a = R.random_poly(2, rng.split("a"))
    b = R.random_poly(3, rng.split("b"))
    assert exact_divide(a * b, b) == a


def test_lex_and_elimination_bases():
    # under lex, the twisted cubic picks up the degree-3 eliminant relations
    gb = groebner_basis(TWISTED, order=LEX)
    keyf = LEX.key_func(R)
    for g in gb:
        lead = max(g.terms, key=lambda t: keyf(t[0]))[0]
        assert keyf(lead) == max(keyf(m) for m, _ in g.terms)
    # an element free of z0 must exist (elimination of the first variable)
    free = [g for g in gb if all(R.mexp(m, 0) == 0 for m, _ in g.terms)]
    assert free


def _orders(n: int, rng: Rng) -> list:
    return ([GREVLEX, LEX, WeightedGrevlex(tuple(rng.randint(0, 5) for _ in range(n)))]
            + [ElimBlock(k) for k in range(1, n)])


@pytest.mark.parametrize("n", range(3, 10))
def test_order_keys_are_affine_in_the_exponents(n):
    """key(a*b) = key(a) + key(b) - key(1), the contract that lets the
    reduction shift a basis element's stored keys instead of recomputing
    them; exponents up to 63 keep every product within EXP_MAX."""
    S = ring(GF(10007), n)
    rng = Rng(n, "affine-keys")
    for order in _orders(n, rng):
        key = order.key_func(S)
        one = key(0)
        for _ in range(100):
            a, b = (S.pack([rng.randint(0, 63) for _ in range(n)]) for _ in range(2))
            assert key(a + b) == key(a) + key(b) - one, order


def test_elimination_basis_when_the_grevlex_lead_is_not_the_order_lead():
    # x = -y^2/2 and x*y = 1 give y^3 = -2; under ElimBlock(1) the lead of
    # 2*x + y^2 is x, under grevlex it is y^2, and the inputs are made monic
    # with the order's lead
    R2 = ring(GF(101), 2, ("x", "y"))
    gb = groebner_basis([parse_poly("2*x + y^2", R2), parse_poly("x*y - 1", R2)], ElimBlock(1))
    assert parse_poly("y^3 + 2", R2) in gb


def test_qq_groebner():
    RQ = ring(QQ, 4)
    gens = [parse_poly(s, RQ) for s in ("z0*z2 - z1^2", "z1*z3 - z2^2", "z0*z3 - z1*z2")]
    gb = groebner_basis(gens)
    assert len(gb) == 3
    assert normal_form(parse_poly("z1^2", RQ), gb) == parse_poly("z0*z2", RQ)


@pytest.mark.parametrize("F", [GF(10007), QQ], ids=["gf", "q"])
def test_a_prepared_reducer_gives_the_normal_forms(F):
    S = ring(F, 4)
    basis = groebner_basis([parse_poly(t, S) for t in
                            ("z0*z2 - z1^2", "z1*z3 - z2^2", "z0*z3 - z1*z2", "z0 + 3*z3")])
    nf = Reducer(basis)
    for t in ("z0^3 + 2*z1*z2*z3", "z3^4 - 5*z0*z1*z2^2", "z1*z3 - z2^2", "7", "0"):
        f = parse_poly(t, S)
        assert nf(f) == normal_form(f, basis)
    assert Reducer([])(f) == f
    with pytest.raises(ValueError):
        nf(ring(GF(101), 4).var(0))


def _no_spair(monkeypatch):
    def refused(*args):
        raise AssertionError("an S-pair was formed")

    monkeypatch.setattr(groebner._Engine, "spoly", refused)


REDUCE_FIELDS = [GF(10007), QQ, GF2(10007)]
REDUCE_IDS = ["gf", "q", "gf2"]
# a small integer change of coordinates that moves the twisted cubic off
# the coordinate hyperplanes
MOVE = [[1, 2, 0, 1], [0, 1, 3, 1], [1, 0, 1, 2], [2, 1, 1, 1]]


def _moved_twisted_cubic(S):
    M = [[S.field.of(c) for c in row] for row in MOVE]
    return [parse_poly(t, S).substitute_linear(M) for t in
            ("z0*z2 - z1^2", "z1*z3 - z2^2", "z0*z3 - z1*z2")]


@pytest.mark.parametrize("F", REDUCE_FIELDS, ids=REDUCE_IDS)
def test_reduce_basis_of_a_divided_basis_is_its_reduced_basis(F, monkeypatch):
    """The twisted cubic times (z0..z3): its basis divided by the z3 powers
    is a Groebner basis of the cubic (Bayer-Stillman), not a reduced one."""
    S = ring(F, 4)
    curve = _moved_twisted_cubic(S)
    gb = groebner_basis([g * z for g in curve for z in S.vars()])
    divided = _divide_last_power(gb, S)
    assert divided != list(gb)
    want = groebner_basis(divided)
    assert want == groebner_basis(curve)
    _no_spair(monkeypatch)
    assert reduce_basis(divided) == want


@pytest.mark.parametrize("F", REDUCE_FIELDS, ids=REDUCE_IDS)
def test_reduce_basis_drops_redundant_elements_and_reduces_tails(F, monkeypatch):
    S = ring(F, 4)
    gb = groebner_basis(_moved_twisted_cubic(S))
    g0, g1, g2 = gb  # leads descending, all quadrics
    z0, _, _, z3 = S.vars()
    three = F.of(3)
    # the same leads with unreduced tails and other lead coefficients, a
    # duplicate, and elements whose leads a quadric's lead divides
    messy = [(g0 + g2.scale(F.of(2))).scale(three), g1, g2 + g2, (g1 + g2).scale(three),
             z0 * g1 + z3 * g2, g0 * g0]
    assert groebner_basis(messy) == gb
    _no_spair(monkeypatch)
    assert reduce_basis(messy) == gb
    assert reduce_basis([S.zero]) == []


def _extension_inputs(F, k):
    """Input k: a random grevlex basis of two or three forms in four
    variables, that basis lifted to k[t, z0..z3] and t*g - 1 for a random g
    of degree 1 to 3."""
    S = ring(F, 4)
    T = ring(F, 5, ("t",) + S.names)
    rng = Rng(7, f"extend-{k}")
    gens = [S.random_poly(2 + (i + k) % 2, rng.split(f"g{i}")) for i in range(2 + k % 2)]
    gb = groebner_basis(gens)
    lifted = [h.map_vars(T, [1, 2, 3, 4]) for h in gb]
    g = S.random_poly(1 + k % 3, rng.split("h"))
    return gb, lifted, T.var(0) * g.map_vars(T, [1, 2, 3, 4]) - T.one


@pytest.mark.parametrize("F", REDUCE_FIELDS, ids=REDUCE_IDS)
def test_extend_basis_is_the_reduced_basis_of_the_extended_ideal(F):
    """Over GF(p), Q and GF(p^2): a grevlex basis lifted to k[t, z] extended
    by t*g - 1 for ElimBlock(1) (a Rabinowitsch elimination), and a grevlex
    basis extended by a form, give Buchberger's reduced bases."""
    for k in range(6):
        gb, lifted, f = _extension_inputs(F, k)
        assert extend_basis(lifted, f, ElimBlock(1)) == groebner_basis(lifted + [f], ElimBlock(1))
        form = ring(F, 4).random_poly(2 + k % 2, Rng(8, f"extend-form-{k}"))
        assert extend_basis(gb, form) == groebner_basis(gb + [form])


def test_extend_basis_of_a_member_or_an_empty_basis():
    gb = groebner_basis(TWISTED)
    assert extend_basis(gb, TWISTED[0] * pp("z3 + z1")) == gb
    assert extend_basis(gb, R.zero) == gb
    assert extend_basis([], TWISTED[1].scale(5)) == [TWISTED[1].monic()]
    assert extend_basis(gb, pp("z0 + 2")) == groebner_basis(TWISTED + [pp("z0 + 2")])
    assert extend_basis(gb, R.one) == [R.one]


def test_extend_basis_is_held_to_the_limits():
    _, lifted, f = _extension_inputs(GF(10007), 1)
    assert extend_basis(lifted, f, ElimBlock(1))
    with pytest.raises(BudgetError, match="pair budget 1 exceeded"), limits(Budget(max_pairs=1)):
        extend_basis(lifted, f, ElimBlock(1))
    with pytest.raises(BudgetError, match="exceeds budget 4"), limits(Budget(max_degree=4)):
        extend_basis(lifted, f, ElimBlock(1))
