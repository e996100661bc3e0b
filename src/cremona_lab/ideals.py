"""Ideal-theoretic toolbox on top of the Groebner engine.

IdealHandle caches a reduced Groebner basis per monomial order and is the
one reader of facts off its grevlex basis: `hilbert` (Hilbert data of the
ideal itself, never of its saturation: an ideal and its saturation by the
irrelevant ideal share dimension, degree and p_a), and `nf` / `contains`
(one cached `Reducer`).  `eliminate` is the one reader of elimination
ideals: the part of the reduced ElimBlock(k) basis free of the first k
variables, in the smaller ring and attached as its grevlex basis.  It finds
that part with one mask of the first k exponent bytes and moves it with
`Polynomial.shift_vars`, m >> 8k on each packed monomial.  Only the
certificate of `sat_irrelevant` reads Hilbert data off a bare basis.  The
constructions used throughout:

* intersection   -- t * I + (1-t) * J in a scratch ring k[t, z], eliminate
  t; I and J are lifted as `_rabinowitsch` lifts, by `shift_vars`;
* quotient I:g   -- (I meet (g)) / g;
* quotient I:J   -- the intersection of the quotients I:g by J's
  generators, exact with no draw; one quotient by a combination of them
  would not do, as (z0^2, z1^2) : (z0, z1) shows.  The analysis does not
  call it;
* saturation I:g^oo -- Rabinowitsch trick (t*g - 1, eliminate t), as
  I's grevlex basis lifted to k[t, z], a Groebner basis for ElimBlock(1),
  extended by t*g - 1 with signatures (`groebner.extend_basis`), so no pair
  reduces to zero on a known syzygy; I's grevlex basis is computed first
  when it is not cached.  t is variable 0 of k[t, z], so the lift is
  m << 8 on each packed monomial (`Polynomial.shift_vars`), with the terms
  in the same order and no exponent unpacked;
* saturation I:J^oo  -- I:g^oo when J has one generator g; otherwise one
  Rabinowitsch saturation K = I:h^oo by a generic combination h of J's
  generators (degrees padded by a linear form, drawn from a fixed
  stream), accepted for a 0-dimensional I when every generator of J has
  a power in I + (h), and otherwise when a normal-form certificate shows
  g^N k in I for every generator g of J and k of K.  A refused draw is
  redrawn a bounded number of times, then DegenerateInput is raised.  The
  result is the reduced grevlex basis of I:J^oo, whatever the draw;
* the split of an unmixed I -- `split_unmixed` gives I:J^oo and the
  residual I:(I:J^oo)^oo from one Rabinowitsch saturation each, by generic
  combinations of J's generators and of the first part's, accepted by
  linkage instead of the normal-form certificate: the two degrees add up
  to deg I, and every generator of J has a power in the residual;
* saturation by (z_0, ..., z_{n-1}) -- `sat_irrelevant` reads the grevlex
  basis of I: finite length gives the unit ideal, and when no lead is
  divisible by z_last, z_last is a non-zerodivisor and I is saturated.
  Otherwise it divides each element of that basis by its z_last power
  (Bayer-Stillman), which gives K = I : z_last^oo, containing I^sat.  K is
  accepted when its Hilbert polynomial equals I's: S/I^sat has no
  finite-length submodule, so any K strictly larger than I^sat has a
  smaller Hilbert polynomial.  Only when some component of I^sat, embedded
  or not, lies in z_last = 0 is this refused; then it moves
  z_last -> z_last + sum c_i z_i (the c_i from a fixed stream), takes one
  grevlex basis and divides and checks the same way.  A refused draw is
  redrawn a bounded number of times, then DegenerateInput is raised.  The
  result is the reduced grevlex basis of I^sat, whatever the route.

Zero-dimensional schemes are read off one algebra, `IdealHandle.algebra`:
the matrices M_j of multiplication by z_j / h on k[x]/I in a chart h = 1,
built from the cached grevlex basis with no further Groebner basis.  Two
exact checks pick the chart:

* z_last = 1.  Setting z_last = 1 in the grevlex basis keeps each lead but
  for its z_last power (Bayer-Stillman), so the standard monomials are a
  basis of the chart algebra, for an unsaturated I too.  The chart holds
  every point exactly when their number equals the degree of I.  An
  unsaturated I keeps this chart even when it misses points: `local_length`
  needs only the chart of its point;
* otherwise, for a saturated I, a generic h = sum h_i z_i.  For d with
  HF(d) = deg I, let X_j : (S/I)_d -> (S/I)_{d+1} be multiplication by z_j.
  H = sum h_i X_i is invertible exactly when h vanishes at no point, and
  then M_j = X_j H^-1.

By Stickelberger's theorem chi_l = det(t - M_l) = prod (t - l(q)/h(q))^len(q)
over the points q, for a linear form l drawn from a fixed stream.  The
separation certificate: the kernel W of M_l - lam is invariant under every
M_j, and it lies at one point exactly when each M_j restricted to W is a
scalar plus a nilpotent map (the scalar is its trace over dim W; the degree
is kept below the characteristic).  `extract_points` reads the GF(p) points
off the roots of chi_l in GF(p) and the GF(p^2) points off its irreducible
quadratic factors, so no rational point is found twice; each point is
checked on the generators.  `local_length` is the multiplicity of the root
l(p)/h(p) once its kernel lies at p.  A draw that fails the certificate is
redrawn a bounded number of times, then DegenerateInput names the stage.
`count_points` needs no draw: it is the rank of the trace form
(f, g) -> Tr(M_fg), exact because every length is below the
characteristic.  Extraction does no counting; a caller that needs to know
what was missed compares with `count_points`.

`candidate_lines` is the one search for lines on a curve: cut with two
generic planes, extract the points of each section and yield the line
through each pair (`line_forms`).  Linear forms are built with
`Ring.linear_form`.
"""

from __future__ import annotations

from math import comb

from . import linalg, univar
from .fields import GF, GF2, Field
from .groebner import (Reducer, current_limits, exact_divide, extend_basis, groebner_basis,
                       reduce_basis)
from .poly import EXP_BITS, GREVLEX, ElimBlock, MonomialOrder, Polynomial, Ring, ring
from .rng import Rng


class DegenerateInput(RuntimeError):
    """A probabilistic routine hit persistent degeneracy (bad input or prime)."""


class IdealHandle:
    """A homogeneous ideal with cached Groebner bases, and the facts read
    off its grevlex basis: Hilbert data (`hilbert`), normal forms (`nf`,
    `contains`) and, for a 0-dimensional ideal, the multiplication matrices
    of its algebra (`algebra`)."""

    __slots__ = ("ring", "gens", "saturated", "_gb", "_hilbert", "_reducer", "_algebra")

    def __init__(self, gens, ring_: Ring | None = None, saturated: bool = False):
        gens = [g for g in gens if g]
        if ring_ is None:
            if not gens:
                raise ValueError("empty generator list needs an explicit ring")
            ring_ = gens[0].ring
        for g in gens:
            if g.ring != ring_:
                raise ValueError("mixed rings in ideal")
        self.ring = ring_
        self.gens = tuple(gens)
        self.saturated = saturated
        self._gb: dict = {}
        self._hilbert = None
        self._reducer = None
        self._algebra = None

    def __repr__(self):
        return f"Ideal({', '.join(map(str, self.gens)) or '0'})"

    def groebner(self, order: MonomialOrder = GREVLEX) -> tuple:
        got = self._gb.get(order)
        if got is None:
            got = tuple(groebner_basis(list(self.gens), order))
            self._gb[order] = got
        return got

    def with_basis(self, order, basis) -> "IdealHandle":
        self._gb[order] = tuple(basis)
        return self

    def as_saturated(self) -> "IdealHandle":
        """The same ideal flagged as saturated, keeping the cached facts."""
        out = IdealHandle(self.gens, self.ring, saturated=True)
        out._gb.update(self._gb)
        out._hilbert, out._reducer = self._hilbert, self._reducer
        return out

    def nf(self, f: Polynomial) -> Polynomial:
        """Normal form of f modulo the grevlex basis, by one cached Reducer."""
        if self._reducer is None:
            self._reducer = Reducer(self.groebner(GREVLEX), GREVLEX)
        return self._reducer(f)

    def contains(self, f: Polynomial) -> bool:
        return not self.nf(f)

    def is_unit(self) -> bool:
        gb = self.groebner(GREVLEX)
        return len(gb) == 1 and gb[0].total_degree() == 0

    def is_zero(self) -> bool:
        return not self.groebner()

    def equals(self, other: "IdealHandle") -> bool:
        return self.groebner() == other.groebner()

    def hilbert(self) -> "HilbertData":
        """Hilbert data of this ideal's own grevlex basis, cached.  Never
        saturates: I and I : (z_0, ..., z_{n-1})^oo have the same dimension,
        degree and p_a (only the numerator, i.e. the Hilbert function in low
        degrees, can differ)."""
        if self._hilbert is None:
            self._hilbert = hilbert_from_basis(self.groebner(GREVLEX), self.ring)
        return self._hilbert

    def algebra(self) -> "_Algebra":
        """The multiplication matrices of k[x]/I for a 0-dimensional I,
        built once off the grevlex basis (`_build_algebra`)."""
        if self._algebra is None:
            self._algebra = _build_algebra(self)
        return self._algebra

    def substituted(self, M) -> "IdealHandle":
        return IdealHandle([g.substitute_linear(M) for g in self.gens], self.ring,
                           saturated=self.saturated)


def unit_ideal(R: Ring) -> IdealHandle:
    return IdealHandle([R.one], R, saturated=False)


# ------------------------------------------------------------- basic ops


def _same_ring(I, J):
    if I.ring != J.ring:
        raise ValueError("ring/field mismatch")


def _scratch_ring(R: Ring) -> Ring:
    names = ("t@",) + R.names
    return ring(R.field, R.nvars + 1, names)


def intersect(I: IdealHandle, J: IdealHandle) -> IdealHandle:
    """I meet J via the auxiliary-variable construction."""
    _same_ring(I, J)
    R = I.ring
    if not I.gens:
        return I
    if not J.gens:
        return J
    S = _scratch_ring(R)
    t = S.var(0)
    one_minus_t = S.one - t
    gens = [t * g.shift_vars(S, 1) for g in I.gens]
    gens += [one_minus_t * g.shift_vars(S, 1) for g in J.gens]
    return eliminate(IdealHandle(gens, S), 1)


def quotient_by_poly(I: IdealHandle, g: Polynomial) -> IdealHandle:
    """(I : g) = (I meet (g)) / g."""
    if not g:
        raise ZeroDivisionError("quotient by zero")
    meet = intersect(I, IdealHandle([g], I.ring))
    out = []
    for h in meet.gens:
        q = exact_divide(h, g)
        if q is None:
            raise RuntimeError("intersection with (g) not divisible by g")
        out.append(q)
    return IdealHandle(out, I.ring)


def quotient(I: IdealHandle, J: IdealHandle) -> IdealHandle:
    """(I : J), exact with no draw: the intersection over the generators g
    of J of I : g (`quotient_by_poly`), and the unit ideal when J = 0.  No
    single I : f with f in J would do: (z0^2, z1^2) : (z0, z1) =
    (z0^2, z0*z1, z1^2), but for every f = a*z0 + b*z1 the quotient
    (z0^2, z1^2) : f also holds a*z0 - b*z1 (their product is
    a^2*z0^2 - b^2*z1^2).  The analysis does not call it: the liaison
    residual is a saturation (`cremona.line_preimage_split`).
    """
    _same_ring(I, J)
    acc = None
    for g in J.gens:
        q = quotient_by_poly(I, g)
        acc = q if acc is None else intersect(acc, q)
    return unit_ideal(I.ring) if acc is None else acc


def saturate_by_poly(I: IdealHandle, g: Polynomial) -> IdealHandle:
    """(I : g^oo): I for a constant g, otherwise the Rabinowitsch
    elimination, which comes with its reduced grevlex basis."""
    if not g:
        raise ZeroDivisionError("saturation by zero")
    if g.total_degree() == 0:
        return IdealHandle(list(I.gens), I.ring, saturated=I.saturated)
    return _rabinowitsch(I, g)


def _rabinowitsch(I: IdealHandle, g: Polynomial) -> IdealHandle:
    """(I : g^oo) = (I + (t*g - 1)) meet k[z], for any polynomial g.  I's
    grevlex basis lifted to k[t, z] is a Groebner basis for ElimBlock(1),
    which is grevlex on t-free monomials, so the elimination basis is that
    basis extended by t*g - 1 (`extend_basis`).  t is variable 0, so the
    lift is a shift of each packed monomial (`shift_vars`)."""
    S = _scratch_ring(I.ring)
    basis = [f.shift_vars(S, 1) for f in I.groebner()]
    f = S.var(0) * g.shift_vars(S, 1) - S.one
    elim = ElimBlock(1)
    return eliminate(IdealHandle(basis + [f], S).with_basis(elim, extend_basis(basis, f, elim)), 1)


# the draws of `saturate` and `sat_irrelevant` before they give up
_SAT_DRAWS = 4


def saturate(I: IdealHandle, J: IdealHandle) -> IdealHandle:
    """(I : J^oo), as its reduced grevlex basis when J has two or more
    nonzero generators.

    A J with a constant generator, or with none, gives I, and a J with one
    nonzero generator g gives `saturate_by_poly(I, g)`.  Otherwise the saturation
    is K = I : h^oo for one combination h = sum_i c_i l^(D - d_i) g_i of
    J's generators, padded to the top degree D (l and the c_i drawn from
    the fixed stream "saturate-combination"), which `eliminate` returns as
    its reduced grevlex basis.  I : h^oo keeps exactly the primary
    components of I whose prime does not contain h (Atiyah-Macdonald,
    ch. 4), and h lies in J, so K = I : J^oo when every associated prime of
    I that contains h contains J.  The draw is accepted by one of two exact
    checks, chosen by the dimension of I:
    - dimension at most 0: every generator of J has a power in I + (h)
      (`_powers_in` on I's basis extended by h), made before the
      elimination.  A prime that contains h contains I + (h), hence J.  It
      is also necessary: if K = I : J^oo, every point of I on V(h) lies on
      V(J), and so does the irrelevant prime;
    - otherwise `_certified` shows g^N k in I for every generator g of J
      and k of K.  The power check would refuse every draw when a curve of
      I lies off V(J), since the curve meets V(h).
    Both accept every draw with K = I : J^oo up to the degree limit of
    `groebner.current_limits()`, so the result does not depend on the draw.
    A refused draw is followed by another from the same stream; after
    `_SAT_DRAWS` draws are refused, DegenerateInput is raised.  A
    BudgetError is not caught.  The liaison split does not come here: its
    input is unmixed, and `split_unmixed` accepts its draws by linkage.
    """
    _same_ring(I, J)
    gens = [g for g in J.gens if g]
    if not gens or any(g.total_degree() == 0 for g in gens):
        return IdealHandle(list(I.gens), I.ring, saturated=I.saturated)
    if len(gens) == 1:
        return saturate_by_poly(I, gens[0])
    rng = Rng(0, "saturate-combination")
    points = I.hilbert().dimension <= 0
    for _ in range(_SAT_DRAWS):
        h = _generic_combination(gens, rng)
        if points:
            cut = IdealHandle(list(I.gens) + [h], I.ring)
            if _powers_in(cut.with_basis(GREVLEX, extend_basis(list(I.groebner()), h)), gens):
                return _rabinowitsch(I, h)
        else:
            K = _rabinowitsch(I, h)
            if _certified(I, K, gens):
                return K
    raise DegenerateInput(f"saturate: the {'power check' if points else 'normal-form certificate'} "
                          f"refused {_SAT_DRAWS} draws of the combination")


def split_unmixed(I: IdealHandle, J: IdealHandle) -> tuple:
    """(I : J^oo, I : (I : J^oo)^oo) for an unmixed I, each as its reduced
    grevlex basis: the components of I not inside V(J), and those inside it.

    I must be unmixed: I = q_1 meet ... meet q_r with every prime p_i of a
    primary q_i minimal (a complete intersection is).  Then I : h^oo is the
    meet of the q_i with h not in p_i, for any h.  A J with a constant
    generator, or with none, gives (I, the unit ideal).  Otherwise one pair
    is drawn: K1 = I : h1^oo and K2 = I : h2^oo, one Rabinowitsch
    elimination each, for h1 a generic combination of J's generators and h2
    one of K1's, each from its own fresh stream "saturate-combination" (so
    with two or more generators the first draws are `saturate`'s).  The
    pair is accepted when
      (a) deg K1 + deg K2 = deg I, counting a part of lower dimension (the
          unit ideal) as 0, and
      (b) every generator g of J has a power in K2: r <- NF_K2(g * r), from
          r = 1, reaches 0 within the degree limit of
          `groebner.current_limits()` (`_powers_in`).
    An accepted pair is exact:
    - h1 lies in J, so K1 keeps only components with J not in p_i;
    - h2 lies in K1, hence in the prime of every component of K1, so K2
      keeps none of K1's components;
    - deg I is the sum over the components of length(q_i) * deg p_i, so (a)
      puts every component in K1 or in K2;
    - (b) puts J in the prime of every component of K2.
    So K1 is the meet of the q_i with J not in p_i, that is I : J^oo, and K2
    the meet of the others.  K2 is also I : K1^oo = I : K1: q_i : K1 = (1)
    for the q_i of K1, and for the others K1 does not lie in p_i (else some
    prime p_j of K1 would lie in p_i, and p_j = p_i as both are minimal), so
    q_i : K1 = q_i : K1^oo = q_i.  A generic pair passes both checks.  A
    refused pair is followed by the next draw of each stream; after
    `_SAT_DRAWS` refused pairs, DegenerateInput is raised.  A BudgetError
    is not caught.
    """
    _same_ring(I, J)
    gens = [g for g in J.gens if g]
    if not gens or any(g.total_degree() == 0 for g in gens):
        return IdealHandle(list(I.gens), I.ring, saturated=I.saturated), unit_ideal(I.ring)
    whole = I.hilbert()
    first, second = Rng(0, "saturate-combination"), Rng(0, "saturate-combination")
    for _ in range(_SAT_DRAWS):
        K1 = _rabinowitsch(I, _generic_combination(gens, first))
        K2 = _rabinowitsch(I, _generic_combination(list(K1.gens), second))
        degree = sum(h.degree for h in (K1.hilbert(), K2.hilbert())
                     if h.dimension == whole.dimension)
        if degree == whole.degree and _powers_in(K2, gens):
            return K1, K2
    raise DegenerateInput(f"split_unmixed: the linkage check refused {_SAT_DRAWS} draws "
                          "of the pair")


def _powers_in(K: IdealHandle, gens: list) -> bool:
    """True when every g in `gens`, none constant, has a power in K: r <-
    NF_K(g * r) from r = 1 reaches 0.  False when some power would exceed
    the degree limit of `groebner.current_limits()` first."""
    max_degree = current_limits().max_degree
    for g in gens:
        r, degree = K.ring.one, 0
        while r:
            degree += g.total_degree()
            if degree > max_degree:
                return False
            r = K.nf(g * r)
    return True


def _generic_combination(gens: list, rng: Rng) -> Polynomial:
    """sum_i c_i l^(D - d_i) g_i for D the top degree of `gens`, with the
    linear form l and the c_i the next draws from `rng`."""
    R = gens[0].ring
    ell = R.linear_form(_small_coefficients(R.field, rng, R.nvars))
    coeffs = _small_coefficients(R.field, rng, len(gens))
    top = max(g.total_degree() for g in gens)
    h = R.zero
    for c, g in zip(coeffs, gens):
        term = g.scale(c)
        for _ in range(top - g.total_degree()):
            term = term * ell
        h = h + term
    return h


def _small_coefficients(F: Field, rng: Rng, k: int) -> list:
    """k draws from `rng`: uniform over GF(p), small positive integers over
    Q (which keep the coefficients of the generic choices small)."""
    return [F.of(rng.randrange(F.char) if F.char else rng.randint(1, 16)) for _ in range(k)]


def _certified(I: IdealHandle, K: IdealHandle, gens: list) -> bool:
    """True when every generator k of K has g^N k in I for every g in
    `gens`: then J^M k lies in I for M = len(gens) * (N - 1) + 1, so K lies
    in I : J^oo.  r <- NF(g * r) modulo I's grevlex basis, from r = NF(k),
    reaches 0 after N steps.  False when some g^N k would exceed the degree
    limit of `groebner.current_limits()` first.  Only `saturate` calls it,
    for an I of positive dimension: in the analysis, Theta
    (`isolated_points`) and the F-curve lines.  A 0-dimensional I, as the
    birationality certificate's, is checked by powers in I + (h) instead,
    and the liaison split by linkage (`split_unmixed`)."""
    max_degree = current_limits().max_degree
    for k in K.gens:
        start = I.nf(k)
        for g in gens:
            r = start
            degree = k.total_degree()
            while r:
                degree += g.total_degree()
                if degree > max_degree:
                    return False
                r = I.nf(g * r)
    return True


def sat_irrelevant(I: IdealHandle) -> IdealHandle:
    """Saturation with respect to (z_0, ..., z_{n-1}), as its reduced grevlex
    basis, flagged as saturated.

    A finite-length I gives the unit ideal, and I itself is returned when no
    lead of its grevlex basis is divisible by z_last (then z_last is a
    non-zerodivisor mod I, so I = I : z_last^oo, which contains I^sat).
    Otherwise each element of a grevlex basis is divided by its z_last power
    (Bayer-Stillman), which gives a Groebner basis of K = I : h^oo with
    h = z_last; K contains I^sat, as it does for any nonzero linear form h.
    K is accepted when its Hilbert polynomial equals that of I (and so of
    I^sat); then the reduced basis of K is returned.  The check is exact:
    S/I^sat has no finite-length submodule, so a nonzero K/I^sat has a
    nonzero Hilbert polynomial and K would have a smaller one.

    The first try is I's own basis, with no move: it costs one division and
    one Hilbert series, and it is refused exactly when some component of
    I^sat, embedded or not, lies in z_last = 0.  Then I is moved by
    z_last -> z_last + sum c_i z_i, the c_i drawn from the fixed stream
    "sat-irrelevant-certificate", the division is made on one grevlex basis
    of the moved ideal, and K moved back is I : h^oo for another nonzero
    linear form h; an accepted K is returned as the reduced grevlex basis of
    K moved back.  A refused draw is followed by another from the same
    stream; after `_SAT_DRAWS` draws are refused, DegenerateInput is raised.
    A BudgetError is not caught.
    """
    R = I.ring
    if not I.gens:
        return IdealHandle([], R, saturated=True)
    if any(not g.is_homogeneous() for g in I.gens):
        raise ValueError("variable saturation requires homogeneous input")
    gb0 = I.groebner(GREVLEX)
    h0 = I.hilbert()
    if h0.dimension == -1:
        return IdealHandle([R.one], R, saturated=True)
    n = R.nvars
    if not any(R.mexp(g.lead()[0], n - 1) for g in gb0):
        return _saturated_basis(gb0, R)
    K, _ = _divide_last_power(gb0, R)
    if _same_hilbert_polynomial(hilbert_from_basis(K, R), h0):
        return _saturated_basis(reduce_basis(K), R)
    F = R.field
    rng = Rng(0, "sat-irrelevant-certificate")
    for _ in range(_SAT_DRAWS):
        coeffs = _small_coefficients(F, rng, n - 1)
        move = [[F.one if r == c else F.zero for c in range(n)] for r in range(n - 1)]
        back = [row[:] for row in move]
        move.append(coeffs + [F.one])
        back.append([F.neg(c) for c in coeffs] + [F.one])
        K, divided = _divide_last_power(
            groebner_basis([g.substitute_linear(move, check_invertible=False) for g in gb0]), R)
        if not divided:  # K is the moved I: I is saturated
            return _saturated_basis(gb0, R)
        hK = hilbert_from_basis(K, R)
        if _same_hilbert_polynomial(hK, h0):
            gb = groebner_basis([g.substitute_linear(back, check_invertible=False) for g in K])
            return _saturated_basis(gb, R)
    raise DegenerateInput("sat_irrelevant: the Hilbert polynomial certificate refused "
                          f"{_SAT_DRAWS} draws of the moved variable")


def _saturated_basis(gb, R: Ring) -> IdealHandle:
    """The saturated ideal with reduced grevlex basis `gb`, as generators
    and as its cached basis."""
    return IdealHandle(list(gb), R, saturated=True).with_basis(GREVLEX, gb)


def _same_hilbert_polynomial(a: HilbertData, b: HilbertData) -> bool:
    """Equal Hilbert polynomials: the same dimension d, and equal values at
    d + 1 degrees past both numerators, where `hp` is the polynomial."""
    start = max(len(a.hilbert_numerator), len(b.hilbert_numerator))
    return a.dimension == b.dimension and all(
        a.hp(k) == b.hp(k) for k in range(start, start + a.dimension + 1))


def _divide_last_power(gb, R: Ring) -> tuple:
    """Each element of a grevlex basis divided by its power of z_last, and
    whether any was divisible.  For a homogeneous ideal that is a Groebner
    basis of I : z_last^oo (Bayer-Stillman): in grevlex z_last divides a
    homogeneous form exactly when it divides its lead."""
    n = R.nvars
    step = (1 << (8 * (n - 1))) + (1 << R.deg_shift)
    out = []
    divided = False
    for g in gb:
        e = min(R.mexp(m, n - 1) for m, _ in g.terms)
        if e:
            divided = True
            g = Polynomial(R, tuple((m - e * step, c) for m, c in g.terms))
        out.append(g)
    return out, divided


def eliminate(I: IdealHandle, k: int) -> IdealHandle:
    """I meet field[z_k, ..., z_{n-1}], in the ring of those n - k variables:
    the part of I's reduced ElimBlock(k) basis free of the first k
    variables.  ElimBlock(k) restricted to those monomials is grevlex, so
    that part is the reduced grevlex basis of the elimination ideal and is
    attached as its cached basis.  An element is free of the first k
    variables when no term has a bit under the mask of their bytes, and it
    moves to the smaller ring by m >> 8k (`shift_vars`)."""
    R = I.ring
    n = R.nvars
    if k <= 0 or k >= n:
        raise ValueError("elimination count out of range")
    R2 = ring(R.field, n - k, R.names[k:])
    front = (1 << (EXP_BITS * k)) - 1
    out = [g.shift_vars(R2, -k) for g in I.groebner(ElimBlock(k))
           if not any(m & front for m, _ in g.terms)]
    return IdealHandle(out, R2).with_basis(GREVLEX, out)


# ---------------------------------------------------------- Hilbert data


class HilbertData:
    """Projective dimension / degree / arithmetic genus of S/I.

    hilbert_numerator is the numerator of the Hilbert series over
    (1-t)^nvars, as an integer coefficient list.
    """

    __slots__ = ("dimension", "degree", "p_a", "hilbert_numerator", "nvars")

    def __init__(self, dimension, degree, p_a, numerator, nvars):
        self.dimension = dimension
        self.degree = degree
        self.p_a = p_a
        self.hilbert_numerator = numerator
        self.nvars = nvars

    def __repr__(self):
        return f"HilbertData(dim={self.dimension}, deg={self.degree}, p_a={self.p_a})"

    def hf(self, k: int) -> int:
        """Hilbert function of S/I at degree k (from the numerator)."""
        if k < 0:
            return 0
        n = self.nvars
        return sum(c * comb(k - i + n - 1, n - 1) for i, c in enumerate(self.hilbert_numerator) if i <= k)

    def hp(self, k: int) -> int:
        """Hilbert polynomial value at k."""
        d = self.dimension
        if d < 0:
            return 0
        Q = _divide_one_minus_t(self.hilbert_numerator, self.nvars - 1 - d)
        return sum(c * comb(k - i + d, d) for i, c in enumerate(Q))


def _divide_one_minus_t(N: list, times: int) -> list:
    Q = list(N)
    for _ in range(times):
        out = []
        acc = 0
        for c in Q:
            acc += c
            out.append(acc)
        assert out and out[-1] == 0
        out.pop()
        Q = out
        while Q and Q[-1] == 0:
            Q.pop()
    return Q


def monomial_hilbert_numerator(leads: list, R: Ring) -> list:
    """Numerator of the Hilbert series of S/(leads) over (1-t)^n."""
    mons = _minimalize(leads, R)
    poly = _hn(mons, R)
    return poly


def _minimalize(mons: list, R: Ring) -> list:
    mons = sorted(set(mons), key=R.mdeg)
    out = []
    for m in mons:
        if not any(R.mdivides(g, m) for g in out):
            out.append(m)
    return out


def _poly_mul_1_minus_td(N: list, d: int) -> list:
    out = list(N) + [0] * d
    for i, c in enumerate(N):
        out[i + d] -= c
    while out and out[-1] == 0:
        out.pop()
    return out


def _hn(mons: list, R: Ring) -> list:
    """Pivot recursion for the h-numerator of a minimal monomial ideal."""
    if not mons:
        return [1]
    if any(m >> R.deg_shift == 0 for m in mons):
        return []
    if len(mons) == 1:
        return _poly_mul_1_minus_td([1], R.mdeg(mons[0]))
    # pure powers (necessarily of distinct variables, being minimal): product formula
    supports = [_support(m, R) for m in mons]
    if all(len(s) == 1 for s in supports):
        N = [1]
        for m in mons:
            N = _poly_mul_1_minus_td(N, R.mdeg(m))
        return N
    # pivot on the most frequent variable among mixed generators, so both
    # branches strictly shrink
    counts = [0] * R.nvars
    for s in supports:
        if len(s) >= 2:
            for i in s:
                counts[i] += 1
    piv = max(range(R.nvars), key=lambda i: counts[i])
    step = 1 << (8 * piv)
    dstep = 1 << R.deg_shift
    plus = _minimalize([m for m in mons if R.mexp(m, piv) == 0] + [step + dstep], R)
    colon = _minimalize([(m - step - dstep) if R.mexp(m, piv) else m for m in mons], R)
    N1 = _hn(plus, R)
    N2 = _hn(colon, R)
    out = [0] * max(len(N1), len(N2) + 1)
    for i, c in enumerate(N1):
        out[i] += c
    for i, c in enumerate(N2):
        out[i + 1] += c
    while out and out[-1] == 0:
        out.pop()
    return out


def _support(m: int, R: Ring) -> list:
    return [i for i in range(R.nvars) if R.mexp(m, i)]


def hilbert_from_basis(gb: tuple, R: Ring) -> HilbertData:
    leads = [g.lead()[0] for g in gb]
    N = monomial_hilbert_numerator(leads, R)
    n = R.nvars
    if not N:
        return HilbertData(-1, 0, None, N, n)
    # strip (1-t) factors
    Q = list(N)
    e = 0
    while Q and sum(Q) == 0:
        Q = _divide_one_minus_t(Q, 1)
        e += 1
    D = n - e  # Krull dimension of S/I
    if D == 0:
        return HilbertData(-1, 0, None, N, n)
    dim = D - 1
    degree = sum(Q)
    p_a = None
    if dim == 1:
        # HP(T) = deg*T + (Q(1) - Q'(1)); p_a = 1 - HP(0)
        q1p = sum(i * c for i, c in enumerate(Q))
        p_a = 1 - degree + q1p
    return HilbertData(dim, degree, p_a, N, n)


def graded_piece_dim(I: IdealHandle, k: int) -> int:
    """dim of the degree-k piece of I (I expected saturated)."""
    n = I.ring.nvars
    return comb(k + n - 1, n - 1) - I.hilbert().hf(k)


# --------------------------------------------- degree pieces as subspaces


def piece_span(I: IdealHandle, d: int):
    """Coefficient matrix (rows) spanning the degree-d piece of I."""
    R = I.ring
    mons = R.monomials_of_degree(d)
    idx = {m: i for i, m in enumerate(mons)}
    rows = []
    F = R.field
    for g in I.gens:
        if not g:
            continue
        dg = g.degree
        if dg > d:
            continue
        for mm in R.monomials_of_degree(d - dg):
            gm = g.mul_monomial(mm)
            row = [F.zero] * len(mons)
            for m, c in gm.terms:
                row[idx[m]] = c
            rows.append(row)
    return linalg.row_space_basis(F, rows), mons


def vectors_to_polys(vectors, mons, R: Ring) -> list:
    F = R.field
    out = []
    for v in vectors:
        out.append(R.poly({m: c for m, c in zip(mons, v) if c != F.zero}))
    return out


# ----------------------------------------------------- local information


def point_frame(R: Ring, p) -> list:
    """Invertible matrix whose last column is p (deterministic completion)."""
    F = R.field
    n = R.nvars
    i0 = next(i for i, c in enumerate(p) if c != F.zero)
    cols = [[F.one if r == j else F.zero for r in range(n)] for j in range(n) if j != i0]
    cols.append(list(p))
    M = [[cols[j][r] for j in range(n)] for r in range(n)]
    return M


def local_length(I: IdealHandle, p) -> int:
    """Length of the component at the point p of the 0-dimensional scheme
    defined by I, read off I's algebra (`IdealHandle.algebra`): for a draw
    l, the multiplicity of the root lam = l(p)/h(p) of chi_l, accepted when
    the kernel of M_l - lam lies at the one point p (`_point_of`).  Then
    no other point shares the value lam, so the multiplicity is p's length;
    a kernel at one other point shows that p is off the scheme, and lam no
    root at all gives 0 too.  A kernel at two points is a refused draw;
    after `_DRAWS` refused draws DegenerateInput is raised.

    I is not saturated: the chart z_last = 1 of I and of its saturation is
    the same algebra.  When that chart misses a point of the scheme and p
    lies on z_last = 0, p is first moved to e_last by `point_frame`.  On a
    complete algebra h vanishes at no point of the scheme, so h(p) = 0
    gives length 0."""
    R = I.ring
    h = I.hilbert()
    if h.dimension > 0:
        raise DegenerateInput("local_length requires a 0-dimensional scheme")
    if h.dimension == -1:
        return 0
    F = R.field
    alg = I.algebra()
    if not alg.complete and p[-1] == F.zero:
        e_last = (F.zero,) * (R.nvars - 1) + (F.one,)
        return local_length(I.substituted(point_frame(R, p)), e_last)
    hp = linalg.dot(F, alg.h, p)
    if hp == F.zero:
        return 0
    for k in range(_DRAWS):
        ell, M, chi = alg.draw(k)
        lam = F.div(linalg.dot(F, ell, p), hp)
        mult = _root_multiplicity(chi, lam, F)
        if not mult:
            return 0
        q = _point_of(alg.mats, M, lam, F)
        if q is not None:
            return mult if q == _normalize_point(p, F) else 0
    raise DegenerateInput(f"local_length: {_DRAWS} draws of l did not separate the point")


def multiplicity_at(C: IdealHandle, p, rng: Rng) -> int:
    """Multiplicity of the curve C at p: local length of a generic plane
    section; two independent planes among the first five must agree."""
    R = C.ring
    F = R.field
    values = []
    for k in range(5):
        sub = rng.split(f"mult-plane-{k}")
        # random hyperplane through p
        coeffs = None
        while coeffs is None:
            cand = [F.rand(sub) for _ in range(R.nvars)]
            s = linalg.dot(F, cand, p)
            i0 = next((i for i, x in enumerate(p) if x != F.zero), None)
            # adjust to vanish at p
            corr = F.div(s, p[i0])
            cand[i0] = F.sub(cand[i0], corr)
            if any(c != F.zero for c in cand):
                coeffs = cand
        section = IdealHandle(list(C.gens) + [R.linear_form(coeffs)], R)
        try:
            val = local_length(section, p)
        except DegenerateInput:
            continue
        values.append(val)
        if len(values) >= 2 and values[-1] == values[-2]:
            return values[-1]
    raise DegenerateInput(f"multiplicity trials disagree: {values}")


# ----------------------------------------- 0-dimensional scheme analysis

# the draws of the generic form l (and of the chart form h) before the point
# work gives up; over GF(11) a draw separates four points about half the time
_DRAWS = 8


class _Algebra:
    """k[x]/I of a 0-dimensional scheme in the chart h = 1: the matrices
    `mats`[j] of multiplication by z_j / h on a basis of the algebra, row b
    of each holding the coordinates of (z_j / h) * b.  The basis element b
    is the function prod_j (z_j / h)^e_j for the exponents e in `basis`.
    `h` holds the coefficients of the linear form h; `complete` says that
    the chart holds every point of the scheme.

    `draw(k)` is the k-th generic form l of the fixed stream
    "zero-dim-ell-k", with M_l = sum_j l_j M_j and chi_l = det(t - M_l),
    cached.  By Stickelberger's theorem chi_l = prod (t - l(q)/h(q))^len(q)
    over the points q of the chart, and the evaluation vectors (b(q))_b of
    the points span the kernels of M_l - l(q)/h(q)."""

    __slots__ = ("field", "basis", "h", "mats", "complete", "_draws")

    def __init__(self, field: Field, basis: list, h: list, mats: list, complete: bool):
        self.field = field
        self.basis = basis
        self.h = h
        self.mats = mats
        self.complete = complete
        self._draws: dict = {}

    def draw(self, k: int) -> tuple:
        """(coefficients of l, M_l, chi_l) for the k-th draw."""
        got = self._draws.get(k)
        if got is None:
            F = self.field
            ell = _ell_coefficients(F, len(self.mats), k)
            M = _combine(F, ell, self.mats)
            got = self._draws[k] = (ell, M, linalg.charpoly(F, M))
        return got

    def basis_matrices(self) -> list:
        """The matrix of multiplication by each basis element: the product
        of the M_j over its exponents."""
        F = self.field
        n = len(self.mats)
        D = len(self.mats[0])
        memo = {(0,) * n: [[F.one if r == c else F.zero for c in range(D)] for r in range(D)]}

        def of(e):
            got = memo.get(e)
            if got is None:
                j = next(i for i, x in enumerate(e) if x)
                got = memo[e] = linalg.mat_mul(
                    F, self.mats[j], of(e[:j] + (e[j] - 1,) + e[j + 1:]))
            return got

        return [of(e) for e in self.basis]


def _ell_coefficients(F: Field, n: int, k: int) -> list:
    """The coefficients of the k-th generic form l of the point work."""
    return _small_coefficients(F, Rng(0, f"zero-dim-ell-{k}"), n)


def _combine(F: Field, coeffs: list, mats: list) -> list:
    """sum_j coeffs[j] * mats[j]."""
    D = len(mats[0])
    out = [[F.zero] * D for _ in range(D)]
    for c, M in zip(coeffs, mats):
        if c == F.zero:
            continue
        for r in range(D):
            out[r] = [F.add(a, F.mul(c, b)) for a, b in zip(out[r], M[r])]
    return out


def _build_algebra(I: IdealHandle) -> _Algebra:
    """The algebra of a 0-dimensional I, read off its grevlex basis with no
    further Groebner basis.

    Setting z_last = 1 in a grevlex basis keeps each lead but for its z_last
    power (Bayer-Stillman), so it is a grevlex basis of the chart z_last = 1,
    for an unsaturated I too.  Its standard monomials B are a basis of the
    chart algebra, whose length |B| equals the degree of I exactly when no
    point lies on z_last = 0.  That chart is taken when it is complete, or
    when I is not flagged saturated (`local_length` needs only p's chart);
    otherwise `_graded_algebra` builds the algebra of a generic chart.
    DegenerateInput is raised when the degree is not below the
    characteristic, where local lengths and squarefree parts could be
    divisible by p."""
    R = I.ring
    F = R.field
    n = R.nvars
    hd = I.hilbert()
    if hd.dimension != 0:
        raise DegenerateInput("zero-dimensional algebra: the scheme is not 0-dimensional")
    if F.char and hd.degree >= F.char:
        raise DegenerateInput(f"zero-dimensional algebra: degree {hd.degree} is not below "
                              f"the characteristic {F.char}")
    A = ring(F, n - 1, R.names[:-1])
    chart = [_dehomogenize_last(g, A) for g in I.groebner(GREVLEX)]
    normal = _normal_set([g.lead()[0] for g in chart], A)
    complete = len(normal) == hd.degree
    if not complete and I.saturated:
        return _graded_algebra(I, hd)
    index = {m: i for i, m in enumerate(normal)}
    reduce = Reducer(chart, GREVLEX)
    D = len(normal)
    mats = []
    for j in range(n - 1):
        step = A.pack([int(i == j) for i in range(n - 1)])
        M = []
        for b in normal:
            row = [F.zero] * D
            i = index.get(b + step)
            if i is not None:
                row[i] = F.one
            else:
                for m, c in reduce(Polynomial(A, ((b + step, F.one),))).terms:
                    row[index[m]] = c
            M.append(row)
        mats.append(M)
    mats.append([[F.one if r == c else F.zero for c in range(D)] for r in range(D)])
    return _Algebra(F, [A.unpack(b) + (0,) for b in normal], [F.zero] * (n - 1) + [F.one],
                    mats, complete)


def _dehomogenize_last(g: Polynomial, A: Ring) -> Polynomial:
    """g with z_last = 1, in the ring A of the other variables."""
    k = g.ring.nvars - 1
    return A.poly({A.pack(g.ring.unpack(m)[:k]): c for m, c in g.terms})


def _normal_set(leads: list, A: Ring) -> list:
    """The standard monomials of a finite-colength monomial ideal, from 1
    up by multiplying with each variable (they form an order ideal)."""
    steps = [A.pack([int(i == j) for i in range(A.nvars)]) for j in range(A.nvars)]
    out = [] if 0 in leads else [0]
    seen = set(out)
    i = 0
    while i < len(out):
        b = out[i]
        i += 1
        for s in steps:
            m = b + s
            if m not in seen and not any(A.mdivides(lead, m) for lead in leads):
                seen.add(m)
                out.append(m)
    return out


def _graded_algebra(I: IdealHandle, hd: HilbertData) -> _Algebra:
    """The algebra of a saturated 0-dimensional I in the chart h = 1 of a
    generic linear form h.  For d with HF(d) = deg, the maps
    X_j : (S/I)_d -> (S/I)_{d+1}, multiplication by z_j, are read off normal
    forms.  H = sum_i h_i X_i is invertible exactly when h vanishes at no
    point (I saturated), and then M_j = X_j H^-1 is multiplication by z_j / h
    on (S/I)_d.  h is drawn from the fixed stream "zero-dim-h"; a singular H
    is redrawn, and after `_DRAWS` singular draws DegenerateInput is
    raised."""
    R = I.ring
    F = R.field
    n = R.nvars
    leads = [g.lead()[0] for g in I.groebner(GREVLEX)]
    d = 0
    while hd.hf(d) != hd.degree:
        d += 1

    def standard(k):
        return [m for m in R.monomials_of_degree(k)
                if not any(R.mdivides(lead, m) for lead in leads)]

    low = standard(d)
    index = {m: i for i, m in enumerate(standard(d + 1))}
    X = []
    for j in range(n):
        step = R.pack([int(i == j) for i in range(n)])
        rows = []
        for b in low:
            row = [F.zero] * len(low)
            for m, c in I.nf(Polynomial(R, ((b + step, F.one),))).terms:
                row[index[m]] = c
            rows.append(row)
        X.append(rows)
    rng = Rng(0, "zero-dim-h")
    for _ in range(_DRAWS):
        h = _small_coefficients(F, rng, n)
        try:
            Hinv = linalg.inverse(F, _combine(F, h, X))
        except ZeroDivisionError:  # h vanishes at a point of the scheme
            continue
        return _Algebra(F, [R.unpack(b) for b in low], h,
                        [linalg.mat_mul(F, Xj, Hinv) for Xj in X], True)
    raise DegenerateInput(f"zero-dimensional algebra: {_DRAWS} draws of the chart form h "
                          "each vanish at a point")


def _root_multiplicity(f: list, a, F: Field) -> int:
    """How often t - a divides f."""
    k = 0
    while len(f) > 1:
        q, r = univar.divmod_(f, [F.neg(a), F.one], F)
        if r:
            break
        f, k = q, k + 1
    return k


def count_points(I: IdealHandle) -> int:
    """Number of distinct points of a 0-dim scheme over the closure: the
    rank of the trace form (f, g) -> Tr(M_fg) of its algebra.  Over the
    closure that form is sum_q len(q) ev_q (x) ev_q, with the evaluations at
    the points independent, so its rank counts the points whose length is
    nonzero in the field: all of them, as lengths are at most the degree,
    which is below the characteristic (`_build_algebra`).  Exact, with no
    draw."""
    Isat = I if I.saturated else sat_irrelevant(I)
    if Isat.is_unit():
        return 0
    alg = Isat.algebra()
    F = alg.field
    mats = alg.basis_matrices()
    tau = [_trace(F, Mb) for Mb in mats]
    # row i of M_{b_j} holds the coordinates of b_i b_j
    return linalg.rank(F, [[linalg.dot(F, Mb[i], tau) for Mb in mats] for i in range(len(mats))])


def extract_points(I: IdealHandle, rng: Rng):
    """Points of a 0-dimensional scheme: (rational points, GF(p^2) points),
    normalized projective tuples, each list sorted.  Points whose field of
    definition is larger are not returned; `count_points` counts them.

    The points of one draw l (`_points_of_draw`, rng splitting the roots)
    are returned; a draw whose l does not separate the points, or that gives
    a point off the scheme, is refused, and after `_DRAWS` refused draws
    DegenerateInput is raised."""
    Isat = I if I.saturated else sat_irrelevant(I)
    if Isat.is_unit():
        return [], []
    if Isat.hilbert().dimension != 0:
        raise DegenerateInput("extract_points requires a 0-dimensional scheme")
    alg = Isat.algebra()
    for k in range(_DRAWS):
        got = _points_of_draw(alg, k, Isat, rng.split(f"roots-{k}"))
        if got is not None:
            return got
    raise DegenerateInput(f"extract_points: {_DRAWS} draws of l were refused (no separation)")


def _points_of_draw(alg: _Algebra, k: int, I: IdealHandle, rng: Rng):
    """The points read off the roots of chi_l for the k-th draw l, or None
    when the draw is refused.  Each root in GF(p) (or Q) gives a rational
    point and each irreducible quadratic factor of chi_l over GF(p) a pair
    of conjugate GF(p^2) points, so no rational point is found twice.  Every
    point is checked on the generators of I."""
    F = alg.field
    _, M, chi = alg.draw(k)
    if isinstance(F, GF):
        roots, quads = univar.roots_and_quadratics(chi, F, rng)
    else:
        roots, quads = univar.roots_qq(chi, F), []
    pts = []
    for lam in roots:
        q = _point_of(alg.mats, M, lam, F)
        if q is None or not _on_scheme(I.gens, q):
            return None
        pts.append(q)
    ext = []
    if quads:
        F2 = GF2(F.p)
        R2 = ring(F2, I.ring.nvars, I.ring.names)
        gens2 = [g.map_field(R2) for g in I.gens]
        mats2 = [[[F2.lift(x) for x in row] for row in A] for A in alg.mats]
        M2 = [[F2.lift(x) for x in row] for row in M]
        for quad in quads:
            q = _point_of(mats2, M2, univar.quadratic_roots(quad, F, F2)[1][0], F2)
            if q is None or not _on_scheme(gens2, q):
                return None
            ext += [q, tuple((a, F.neg(b)) for a, b in q)]  # and its conjugate
    return sorted(pts), sorted(ext)


def _point_of(mats: list, M: list, lam, K: Field) -> tuple | None:
    """The point q with l(q)/h(q) = lam, from the kernel W of M - lam (over
    the field K of lam), or None when l does not separate two points there.
    W is invariant under every M_j.  Restricted to W, M_j is q_j / h(q)
    plus a nilpotent map when W lies at one point, so q_j / h(q) is its
    trace over dim W (dim W <= degree < char); two points in W show as a
    restriction with a second eigenvalue, which the nilpotency test refuses.
    nullspace gives each basis vector a 1 at its own free column (its last
    nonzero entry) and 0 at the others', so the restriction's coordinates
    are read at those columns."""
    D = len(M)
    W = linalg.nullspace(K, [[K.sub(x, lam) if r == c else x for c, x in enumerate(row)]
                             for r, row in enumerate(M)], D)
    k = len(W)
    free = [max(i for i, x in enumerate(w) if x != K.zero) for w in W]
    q = []
    for Mj in mats:
        images = [linalg.mat_vec(K, Mj, w) for w in W]
        C = [[images[i][free[r]] for i in range(k)] for r in range(k)]
        qj = K.div(_trace(K, C), K.of(k))
        if k > 1:
            N = [[K.sub(x, qj) if r == c else x for c, x in enumerate(row)]
                 for r, row in enumerate(C)]
            if linalg.charpoly(K, N) != [K.zero] * k + [K.one]:
                return None
        q.append(qj)
    return _normalize_point(q, K)


def _trace(K: Field, C: list):
    s = K.zero
    for i, row in enumerate(C):
        s = K.add(s, row[i])
    return s


def _on_scheme(gens, q) -> bool:
    return all(g.evaluate(list(q)) == g.ring.field.zero for g in gens)


def _normalize_point(p, F) -> tuple:
    i0 = next(i for i, c in enumerate(p) if c != F.zero)
    inv = F.inv(p[i0])
    return tuple(F.mul(c, inv) for c in p)


def isolated_points(J: IdealHandle, curve_part: IdealHandle | None):
    """0-dimensional part of the base scheme: (theta_ideal, distinct count)."""
    R = J.ring
    Jsat = J if J.saturated else sat_irrelevant(J)
    if Jsat.is_unit():
        return unit_ideal(R), 0
    if curve_part is None or curve_part.is_unit() or not curve_part.gens:
        theta = Jsat
    else:
        theta = saturate(Jsat, curve_part)
    if theta.is_unit():
        return theta, 0
    if theta.hilbert().dimension != 0:
        raise DegenerateInput("residual of the curve part is not 0-dimensional")
    theta = theta.as_saturated()
    return theta, count_points(theta)


# ------------------------------------------------------------ line search


def line_forms(R: Ring, a, b) -> list | None:
    """Two independent linear forms cutting out the line through the points
    a and b; None when the points coincide."""
    null = linalg.nullspace(R.field, [list(a), list(b)], R.nvars)
    if len(null) != 2:
        return None
    return [R.linear_form(v) for v in null]


def candidate_lines(C: IdealHandle, rng: Rng, plane_label: str):
    """Lines that may lie on the 1-dimensional scheme V(C): cut C with two
    generic planes (drawn from the streams `{plane_label}-0` and `-1`),
    extract the field-rational points of each section and yield the linear
    forms of the line through every pair of distinct points, one from each
    section.  Yields nothing when a section is empty or not finite; the
    caller decides which candidate actually lies on the scheme."""
    R = C.ring
    F = R.field
    samples = []
    for k in range(2):
        sub = rng.split(f"{plane_label}-{k}")
        plane = R.linear_form([F.rand(sub) for _ in range(R.nvars)])
        cut = sat_irrelevant(IdealHandle(list(C.gens) + [plane], R))
        if cut.hilbert().dimension != 0:
            return
        pts, _ = extract_points(cut, sub.split("pts"))
        samples.append(pts)
    for a in samples[0]:
        for b in samples[1]:
            if a == b:
                continue
            forms = line_forms(R, a, b)
            if forms is not None:
                yield forms


# ---------------------------------------------------------- monomial values


def _eval_monomials(R: Ring, mons, p):
    F = R.field
    row = []
    for m in mons:
        v = F.one
        for i in range(R.nvars):
            for _ in range(R.mexp(m, i)):
                v = F.mul(v, p[i])
        row.append(v)
    return row
