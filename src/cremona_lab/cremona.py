"""Analysis pipeline for degree-3 rational self-maps of P^3.

Given four cubics without common factor, this module computes the base
scheme, splits the preimage of a generic line into the part supported on
the base locus and its liaison residual, derives the bidegree and genus,
decides ruledness, runs the fiber-sampling birationality oracle and its
independent local-length certificate, and (best effort) extracts the
inverse map from the linear conditions that sampled points of the graph put
on its coefficients (exact with high probability by the Schwartz-Zippel
lemma, and checked on independent points; see `inverse`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import linalg
from .fields import GF
from .groebner import BudgetError
from .ideals import (DegenerateInput, IdealHandle, candidate_lines, isolated_points,
                     piece_span, sat_irrelevant, saturate, saturate_by_poly, split_unmixed)
# not used here since the line search moved to ideals; perfbench/test_tracer.py
# spot-checks that the tracer rewraps this from-imported binding
from .ideals import extract_points  # noqa: F401
from .poly import Polynomial, ring
from .rng import Rng


class MapError(ValueError):
    pass


class RationalMap:
    """A rational self-map of P^3 given by 4 forms of a common degree."""

    __slots__ = ("ring", "components", "degree", "label", "seed", "_base")

    def __init__(self, components, degree: int, label: str | None = None, seed=None):
        components = list(components)
        if len(components) != 4:
            raise MapError("a self-map of P^3 needs 4 components")
        R = components[0].ring
        if R.nvars != 4:
            raise MapError("components must live in a 4-variable ring")
        for f in components:
            if f.ring != R:
                raise MapError("components in different rings")
            if f and f.degree != degree:
                raise MapError(f"component of degree {f.degree}, expected {degree}")
        if all(not f for f in components):
            raise MapError("zero map")
        self.ring = R
        self.components = tuple(components)
        self.degree = degree
        self.label = label
        self.seed = seed
        self._base = None

    def __repr__(self):
        return f"RationalMap<{self.label or 'deg %d' % self.degree}>({', '.join(map(str, self.components))})"

    def ideal(self) -> IdealHandle:
        return IdealHandle([f for f in self.components if f], self.ring)

    def base_ideal(self) -> IdealHandle:
        """The saturated base ideal sat(f0, ..., f3), computed once per map."""
        if self._base is None:
            self._base = sat_irrelevant(self.ideal())
        return self._base

    def apply(self, point):
        """Image of a point, or None if the point is in the base locus."""
        F = self.ring.field
        img = [f.evaluate(point) if f else F.zero for f in self.components]
        if all(v == F.zero for v in img):
            return None
        return tuple(img)

    def member(self, coeffs) -> Polynomial:
        F = self.ring.field
        acc = self.ring.zero
        for c, f in zip(coeffs, self.components):
            if c != F.zero:
                acc = acc + f.scale(c)
        return acc

    def random_member(self, rng: Rng) -> Polynomial:
        while True:
            g = self.member([self.ring.field.rand(rng) for _ in range(4)])
            if g:
                return g

    def conjugate(self, A=None, B=None) -> "RationalMap":
        """(A, B) -> A o psi o B: left action mixes components, right action
        substitutes coordinates."""
        F = self.ring.field
        comps = list(self.components)
        if B is not None:
            comps = [f.substitute_linear(B) if f else f for f in comps]
        if A is not None:
            comps = [
                sum((comps[j].scale(A[i][j]) for j in range(4) if A[i][j] != F.zero),
                    self.ring.zero)
                for i in range(4)
            ]
        return RationalMap(comps, self.degree, label=self.label, seed=self.seed)

    def reduce_mod(self, p: int) -> "RationalMap":
        """Q -> GF(p) reduction (raises FieldError on bad denominators)."""
        R2 = ring(GF(p), 4, self.ring.names)
        return RationalMap([f.map_field(R2) for f in self.components], self.degree,
                           label=self.label, seed=self.seed)

    def components_independent(self) -> bool:
        # the degree-d piece of the ideal is exactly the span of the components
        span, _ = piece_span(IdealHandle(list(self.components), self.ring), self.degree)
        return len(span) == 4


def new_map(f0, f1, f2, f3, label=None, seed=None) -> RationalMap:
    """Validated degree-3 map: 4 cubics with no common factor."""
    comps = [f0, f1, f2, f3]
    for f in comps:
        if not f or f.degree != 3:
            raise MapError("new_map requires four nonzero cubics")
    psi = RationalMap(comps, 3, label=label, seed=seed)
    if base_dimension(psi) > 1:
        raise MapError("components share a common factor (base locus has a surface)")
    return psi


def base_dimension(psi: RationalMap) -> int:
    return psi.base_ideal().hilbert().dimension


def deg1part(J: IdealHandle) -> int:
    """The degree of the curve part of the base scheme J: deg J when J is
    1-dimensional, else 0."""
    h = J.hilbert()
    return h.degree if h.dimension == 1 else 0


# ------------------------------------------------------------------ data


@dataclass
class CurveRecord:
    """A saturated curve (or empty) with its Hilbert invariants."""

    ideal: IdealHandle
    degree: int
    p_a: int

    @classmethod
    def from_ideal(cls, I: IdealHandle) -> "CurveRecord":
        h = I.hilbert()
        if h.dimension == -1:
            return cls(I, 0, 1)  # empty curve: HP = 0, p_a = 1 - HP(0)
        if h.dimension != 1:
            raise DegenerateInput(f"expected a curve, got dimension {h.dimension}")
        return cls(I, h.degree, h.p_a)


@dataclass
class MapAnalysis:
    psi: RationalMap
    seed: object
    base_ideal: IdealHandle = None
    base_dim: int = None
    deg1part: int = 0
    theta_ideal: IdealHandle = None
    theta_count: int = 0
    gamma: IdealHandle = None
    c1: CurveRecord = None
    c2: CurveRecord = None
    genus: int = None
    ruled: bool = None
    ruled_witness: tuple = None
    birational: str = None  # yes / no / inconclusive
    fiber_degree: int = None
    certificate: int = None
    notes: list = field(default_factory=list)

    @property
    def bidegree(self):
        if self.c1 is None:
            return None
        return (self.psi.degree, self.c1.degree)


# ------------------------------------------------------- liaison splitting


def line_preimage_split(psi: RationalMap, rng: Rng):
    """Preimage of a generic line and its liaison split.

    Returns (Gamma, C1, C2) where Gamma is the complete intersection of two
    generic members, C1 = Gamma : I_psi^oo is the strict transform of the
    line and C2 = Gamma : C1 the residual supported on the base locus
    (Peskine-Szpiro linkage).  Redraws the line, up to five times, if its
    preimage is not a curve of degree (deg psi)^2 or lies in the base locus.

    Gamma is a complete intersection, so it is unmixed, and
    `split_unmixed(Gamma, I_psi)` gives both curves from one Rabinowitsch
    elimination each.  Its acceptance test is linkage itself: the degree
    identity deg C1 + deg C2 = deg Gamma and a power of every psi_i in C2
    make the pair exact, C2 = Gamma : C1^oo = Gamma : C1, with no component
    shared (proof there).  The genus identity of linkage is checked on top,
    as an independent cross-check.
    """
    R = psi.ring
    F = R.field
    Ipsi = psi.ideal()
    last_err = None
    for attempt in range(5):
        sub = rng.split(f"line-{attempt}")
        rows = [[F.rand(sub) for _ in range(4)] for _ in range(2)]
        if linalg.rank(F, [r[:] for r in rows]) < 2:
            continue
        g1, g2 = psi.member(rows[0]), psi.member(rows[1])
        if not g1 or not g2:
            continue
        Gamma = IdealHandle([g1, g2], R, saturated=True)
        h = Gamma.hilbert()
        if h.dimension != 1 or h.degree != psi.degree ** 2:
            last_err = f"degenerate line preimage (dim {h.dimension}, deg {h.degree})"
            continue
        C1i, C2i = split_unmixed(Gamma, Ipsi)
        if C1i.is_unit():
            last_err = "line preimage entirely inside the base locus"
            continue
        c1 = CurveRecord.from_ideal(C1i.as_saturated())
        c2 = CurveRecord.from_ideal(C2i.as_saturated())
        # linkage in a (d, d) complete intersection: the genus difference is
        # (d - 2) times the degree difference (factor 1 for cubic maps)
        if c2.p_a - c1.p_a != (psi.degree - 2) * (c2.degree - c1.degree):
            raise DegenerateInput(
                f"liaison genus identity failed: deg {c2.degree}-{c1.degree}, "
                f"p_a {c2.p_a}-{c1.p_a}")
        return Gamma, c1, c2
    raise DegenerateInput(last_err or "no valid generic line found")


# ------------------------------------------------------------ birationality


def is_birational(psi: RationalMap, rng: Rng, trials: int = 5):
    """Fiber-sampling oracle over GF(p).

    Returns (verdict, fiber_degree) with verdict in {yes, no, inconclusive}:
    yes iff every sampled fiber is a single reduced point; a fiber of degree
    >= 2 (stable under one retry) is a no; positive-dimensional fibers are a
    no (non-dominant map); budget blowups give inconclusive.  Each fiber
    is saturated by the one component of psi that is nonzero at the
    sampled image, which is exact (see `_fiber_degree`): no generic
    combination is drawn and no certificate or fallback is needed.
    """
    F = psi.ring.field
    if not isinstance(F, GF):
        raise MapError("fiber oracle needs a prime field; reduce mod p first")
    if not psi.components_independent():
        return "no", None
    for t in range(trials):
        sub = rng.split(f"fiber-{t}")
        try:
            d, dim = _fiber_degree(psi, sub)
            if dim > 0 or d != 1:
                # one retry guards against an unlucky sample or bad prime
                d2, dim2 = _fiber_degree(psi, rng.split(f"fiber-retry-{t}"))
                if dim2 > 0 or d2 != 1:
                    return "no", (d2 if dim2 == 0 else None)
        except BudgetError:
            return "inconclusive", None
    return "yes", 1


def _fiber_degree(psi: RationalMap, rng: Rng):
    """(degree, dimension) of the fiber of psi through a random point x:
    Fib = (y_j psi_i - y_i psi_j) for y = psi(x), without its components
    in the base locus, i.e. Fib : (psi)^oo.  Fib is generated by the three
    members c . psi for c in a basis of the vectors with c . y = 0.

    That saturation equals Fib : psi_i^oo for the first i with y_i != 0,
    for fibers of any dimension.  I : g^oo keeps exactly the primary
    components of I whose prime does not contain g (Atiyah-Macdonald,
    ch. 4).  Take a prime P associated to Fib.  If V(P) lies in the base
    locus, P contains (psi) and so psi_i.  Otherwise, at a general point
    of V(P), psi = lambda*y with lambda != 0 (the 2x2 minors vanish there),
    so psi_i = lambda*y_i != 0 and psi_i is not in P.  So both saturations
    drop the same components, and one Rabinowitsch elimination gives the
    answer.
    """
    R = psi.ring
    F = R.field
    x = None
    for _ in range(50):
        cand = tuple(F.rand(rng) for _ in range(4))
        if all(c == F.zero for c in cand):
            continue
        y = psi.apply(cand)
        if y is not None:
            x = cand
            break
    if x is None:
        raise DegenerateInput("could not sample a point off the base locus")
    # the minors y_j psi_i - y_i psi_j span the net {c . psi : c . y = 0}
    gens = [g for g in (psi.member(c) for c in linalg.nullspace(F, [list(y)], 4)) if g]
    i = next(i for i, v in enumerate(y) if v != F.zero)
    h = saturate_by_poly(IdealHandle(gens, R), psi.components[i]).hilbert()
    if h.dimension <= 0:
        return (h.degree if h.dimension == 0 else 0), 0
    return h.degree, h.dimension


def birationality_certificate(psi: RationalMap, analysis: "MapAnalysis", rng: Rng) -> int:
    """Number of preimage points of a generic target point that avoid the
    base locus: 3*deg C1 minus the local intersection lengths of a generic
    member with C1 at C1 meet C2 and at the isolated base points.  Equals 1
    exactly for birational maps.

    Computed scheme-theoretically: the degree of T = C1 + (S) after
    stripping the points supported on C1 meet C2 and on Theta, which is
    one saturation T : (psi)^oo.  A saturation of T depends only on the
    zero set of the saturating ideal L inside V(T) (T : L^oo equals
    T : (L + T)^oo, and a saturation by L depends only on the radical of
    L), and:
    - T contains C1, so V(T) meet V(C1 + C2) = V(T) meet V(C2);
    - Theta = J : C2^oo (J itself when deg C2 = 0), so V(J) = V(C2) u V(Theta);
    - so T : (C1 + C2)^oo : Theta^oo = T : J^oo = T : (psi)^oo, since J is
      the saturation of (psi) by the irrelevant ideal m and cuts the same
      cone (up to its vertex, which no Hilbert polynomial sees).
    Only Hilbert data is read, so nothing is saturated by m: I and I : m^oo
    have the same Hilbert polynomial.  T is 0-dimensional, so `saturate`
    accepts its draw h by a power of every psi_i in T + (h), with no
    normal-form certificate.  The value 0 is an answer, not a refused draw:
    a non-dominant map has no preimage of a generic target point.
    """
    R = psi.ring
    c1, gamma = analysis.c1, analysis.gamma
    for attempt in range(5):
        sub = rng.split(f"cert-{attempt}")
        S = psi.random_member(sub)
        if gamma is not None and gamma.contains(S):
            continue  # S must be nonzero modulo the pencil cutting C1 u C2
        T = IdealHandle(list(c1.ideal.gens) + [S], R)
        hT = T.hilbert()
        if hT.dimension != 0:
            continue
        if hT.degree != psi.degree * c1.degree:
            continue
        hr = saturate(T, psi.ideal()).hilbert()
        return hr.degree if hr.dimension == 0 else 0
    raise DegenerateInput("no suitable member for the certificate")


# ------------------------------------------------------------------ genus


def genus_of_map(psi: RationalMap, rng: Rng) -> int:
    """Geometric genus (0 or 1) of a generic plane section of a generic
    member: 1 iff the plane cubic is smooth.  Majority verdict over 3
    clean draws.  The plane is z3 = 0 after a random coordinate change M;
    M's last column is zeroed first, so the substitution gives the plane
    cubic directly.  The singular locus is read off the Hilbert data of the
    Jacobian ideal itself (that of its saturation): dimension -1 means
    smooth, a single reduced point a node."""
    F = psi.ring.field
    R3 = ring(F, 3, ("u0", "u1", "u2"))
    votes = []
    for attempt in range(12):
        sub = rng.split(f"genus-{attempt}")
        S = psi.random_member(sub)
        M = linalg.random_invertible(F, 4, sub.split("plane"))
        plane = [row[:3] + [F.zero] for row in M]
        cubic = S.substitute_linear(plane, check_invertible=False).drop_last_vars(R3)
        if not cubic or not cubic.is_homogeneous() or cubic.total_degree() != 3:
            continue
        h = IdealHandle(cubic.partials(), R3).hilbert()
        if h.dimension == -1:
            votes.append(1)
        elif h.dimension == 0 and h.degree == 1:
            votes.append(0)  # a single node: rational cubic
        else:
            continue  # ambiguous section (cusp or reducible); redraw
        if votes.count(votes[-1]) >= 2:
            return votes[-1]
    raise DegenerateInput("plane sections stayed ambiguous; map likely degenerate")


# ---------------------------------------------------------------- ruledness


def common_singular_locus(psi: RationalMap) -> IdealHandle:
    """The ideal of the 16 partial derivatives, whose zero set is where
    every member of the system is singular.  Not saturated: its Hilbert
    polynomial is that of its saturation."""
    gens = []
    for f in psi.components:
        gens.extend(g for g in f.partials() if g)
    return IdealHandle(gens, psi.ring)


def is_ruled(psi: RationalMap, rng: Rng):
    """(ruled?, witness double line as a pair of linear forms or None).

    Ruled means the members share a whole line of singular points delta and
    the system lies in I_delta^2; cross-checked by the caller against
    genus = 0.  A common singular locus of dimension < 1 (read off the
    unsaturated ideal) is not ruled; only a curve is saturated for the line
    search.
    """
    R = psi.ring
    Sigma = common_singular_locus(psi)
    if Sigma.hilbert().dimension < 1:
        return False, None
    Sigma = sat_irrelevant(Sigma)
    for l1, l2 in candidate_lines(Sigma, rng, "ruled-plane"):
        sq = IdealHandle([l1 * l1, l1 * l2, l2 * l2], R)
        if all(sq.contains(f) for f in psi.components):
            return True, (l1, l2)
    return False, None


# ----------------------------------------------------------------- inverse


class InverseUnavailable(RuntimeError):
    pass


def inverse(psi: RationalMap, dprime: int, rng: Rng | None = None) -> RationalMap:
    """Inverse map of a birational psi with known inverse degree d'.

    Solves for a 4-tuple g of degree-d' forms with g(psi(x)) parallel to x.
    Each point x off the base locus, y = psi(x), gives three linear conditions
    x_0 g_k(y) - x_k g_0(y) = 0 on the 4N coefficients of g (N degree-d'
    monomials); points come from the "graph" stream until there are at least
    4N + 24 conditions, and `_graph_line` solves them.
    The points are drawn `need` at a time and psi is evaluated on a batch in
    one numpy pass (`_monomial_values` times psi's coefficient matrix), which
    also gives the degree-d' monomial values of the y's.  Such a product sums
    N terms below p^2, so it stays inside int64 (N p^2 < 2^63) for p < 2^20.

    Exactness: the sampled solution space contains the exact one, and a
    line is returned normalised to 1 at the largest index of its support, a
    canonical form, so equal spaces give equal vectors whatever the rows.
    So a line is the exact one or the exact space is 0; then some
    x_i g_j(psi) - x_j g_i(psi) is a nonzero form of degree 3d'+1, and by the
    Schwartz-Zippel lemma (Schwartz, J. ACM 27, 1980) each of the 5
    independent verification points passes with probability at most
    (3d'+1)/p, all five with at most ((3d'+1)/p)^5: about 1e-24 for d' = 5
    at p = 1000003.  A verification draw x on the base locus of psi, or
    with psi(x) on the base locus of the candidate (x on a surface psi
    contracts), is drawn again from its own stream, so all five points are
    checked; both loci are proper closed subsets.

    Raises InverseUnavailable unless the field is GF(p) with p < 2^20, the
    sampled solution space is a line and the candidate passes verification.
    """
    R = psi.ring
    F = R.field
    rng = rng or Rng(psi.seed or 0, "inverse")
    if not (isinstance(F, GF) and F.p < (1 << 20)):
        raise InverseUnavailable(
            "inverse extraction needs a prime field with p < 2^20 (budget)")
    import numpy as np  # loaded on the first inverse only, as in linalg.nullspace_gfp

    p = F.p
    mons_psi = sorted({m for f in psi.components for m, _ in f.terms})
    coeffs = np.array([[dict(f.terms).get(m, 0) for m in mons_psi] for f in psi.components],
                      dtype=np.int64).T  # coeffs[a, k]: monomial a in psi_k
    mons_d = R.monomials_of_degree(dprime)
    N = len(mons_d)
    need = -(-(4 * N + 24) // 3)
    sub = rng.split("graph")
    X = Y = np.zeros((0, 4), dtype=np.int64)
    for _ in range(50):  # at most 50 * need draws, in stream order
        Xb = np.array([[F.rand(sub) for _ in range(4)] for _ in range(need)], dtype=np.int64)
        Yb = _monomial_values(R, mons_psi, Xb, p) @ coeffs % p
        ok = Xb.any(axis=1) & Yb.any(axis=1)
        X, Y = np.vstack([X, Xb[ok]]), np.vstack([Y, Yb[ok]])
        if len(X) >= need:
            break
    else:
        raise InverseUnavailable("could not sample enough points off the base locus")
    X, Y = X[:need], Y[:need]
    vec = _graph_line(X, _monomial_values(R, mons_d, Y, p), p)
    comps_out = [R.poly({m: vec[k * N + a] for a, m in enumerate(mons_d)}) for k in range(4)]
    g = RationalMap(comps_out, dprime, label="inverse")
    # verify g o psi = id up to scalar on random points
    for t in range(5):
        sub = rng.split(f"verify-{t}")
        for _ in range(50):
            x = tuple(F.rand(sub) for _ in range(4))
            y = psi.apply(x) if any(x) else None
            z = g.apply(y) if y is not None else None
            if z is not None:
                break
        else:
            raise InverseUnavailable("could not sample a verification point off the base loci")
        if not _parallel(F, z, x):
            raise InverseUnavailable("candidate inverse fails point verification")
    return g


def _graph_line(X, vals, p: int) -> list:
    """The solution line of the graph system A_0 g_k = A_k g_0 (k = 1, 2, 3),
    A_j = diag(X[:, j]) vals, as the list whose entry k*N + a is the
    coefficient of monomial a in g_k, normalised to 1 at the largest index of
    its support.  Raises InverseUnavailable, naming the dimension of the
    solution space, unless that is 1.

    Solved for g_0 alone: for W spanning the left kernel of A_0, a solution
    has W A_k g_0 = W A_0 g_k = 0, so g_0 lies in S_0 = ker [W A_1; W A_2;
    W A_3].  For g_0 in S_0, each A_k g_0 is orthogonal to that left kernel,
    hence in the column space of A_0, and the g_k form a coset of ker A_0.
    So the dimension is dim S_0 + 3 dim ker A_0.  For a line, A_0 has full
    column rank, and the kernel of [A_0 | -A_1 g_0 | -A_2 g_0 | -A_3 g_0]
    has its basis vector for the free column N + k - 1 holding g_k.  Each
    product sums at most `need` terms under p^2, inside int64 for p < 2^20."""
    import numpy as np

    need, N = vals.shape
    A = [X[:, j:j + 1] * vals % p for j in range(4)]
    W = np.array(linalg.nullspace_gfp(A[0].T, p), dtype=np.int64).reshape(-1, need)
    kernel = N - need + len(W)  # dim ker A_0 = N - rank A_0
    S0 = linalg.nullspace_gfp(np.vstack([W @ A[k] % p for k in (1, 2, 3)]), p)
    if len(S0) + 3 * kernel != 1:
        raise InverseUnavailable(
            f"graph solution space has dimension {len(S0) + 3 * kernel}")
    g0 = np.array(S0[0], dtype=np.int64)
    rest = linalg.nullspace_gfp(np.hstack([A[0]] + [(-A[k] @ g0 % p)[:, None] for k in (1, 2, 3)]), p)
    vec = np.concatenate([g0] + [np.array(v[:N], dtype=np.int64) for v in rest])
    last = int(vec.nonzero()[0][-1])
    return (vec * pow(int(vec[last]), p - 2, p) % p).tolist()


def _monomial_values(R, mons, X, p: int):
    """vals[s, a] = X_s^mons[a] mod p, for rows X_s of residues mod p < 2^31."""
    import numpy as np

    E = np.array([R.unpack(m) for m in mons], dtype=np.int64)
    powers = [np.ones_like(X)]  # powers[e][s, i] = X[s, i]^e
    for _ in range(int(E.max())):
        powers.append(powers[-1] * X % p)
    powers = np.stack(powers)
    vals = np.ones((len(X), len(mons)), dtype=np.int64)
    for i in range(R.nvars):
        vals = vals * powers[E[:, i], :, i].T % p
    return vals


def _parallel(F, a, b) -> bool:
    for i in range(4):
        for j in range(i + 1, 4):
            if F.sub(F.mul(a[i], b[j]), F.mul(a[j], b[i])) != F.zero:
                return False
    return True


# ------------------------------------------------------------ orchestration


def analyze_map(psi: RationalMap, seed=0, trials: int = 5,
                with_certificate: bool = True) -> MapAnalysis:
    """Full invariant analysis over the map's own (prime) field."""
    rng = Rng(seed, f"analyze:{psi.label or ''}")
    an = MapAnalysis(psi=psi, seed=seed)
    an.gamma, an.c1, an.c2 = line_preimage_split(psi, rng.split("split"))
    J = psi.base_ideal()
    an.base_ideal = J
    an.base_dim = J.hilbert().dimension
    an.deg1part = deg1part(J)
    an.theta_ideal, an.theta_count = isolated_points(
        J, an.c2.ideal if an.c2.degree else None)
    if psi.degree == 3:
        an.genus = genus_of_map(psi, rng.split("genus"))
        an.ruled, an.ruled_witness = is_ruled(psi, rng.split("ruled"))
        if an.ruled != (an.genus == 0):
            raise DegenerateInput(
                f"ruledness ({an.ruled}) and genus ({an.genus}) checks disagree")
    if trials:
        an.birational, an.fiber_degree = is_birational(psi, rng.split("bir"), trials)
    if with_certificate:
        try:
            an.certificate = birationality_certificate(psi, an, rng.split("cert"))
        except (DegenerateInput, BudgetError) as e:
            an.notes.append(f"certificate unavailable: {e}")
    return an
