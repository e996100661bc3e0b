"""Certified constructors for the classical families of cubic birational
maps of P^3, plus the explicit degeneration paths between them.

Each constructor assembles the 4-dimensional system of cubics from its
geometric ingredients (all "general" choices drawn from a splittable seeded
stream), asserts the dimension, validates the steering-specific local
structure, and returns the map together with the invariants the analyzer
must reproduce.

Every randomized constructor samples through `_sample`: attempt k draws all
its ingredients from the child stream `Rng(seed, stream).split(f"try-{k}")`,
and an attempt is rejected when its draw returns None (a degenerate
ingredient or a failed `classify_point` check) or raises DegenerateInput or
MapError; after the last attempt `_sample` raises DegenerateInput naming
the stream and the seed.  Linear conditions that restrict a cubic to a
line or a plane (ruling lines, contact structures, points on the ruled
cubic) all come from `_restriction_rows`, the coefficients of
f(sum_k u_k P_k) in the parameters u_k.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg, univar
from .cremona import MapError, RationalMap, deg1part, new_map
from .fields import GF, QQ, Field
from .ideals import (DegenerateInput, IdealHandle, _eval_monomials, intersect, line_forms,
                     piece_span, sat_irrelevant, vectors_to_polys)
from .hudson import _rank4, classify_point
from .poly import Polynomial, Ring, parse_poly, ring
from .rng import Rng

FAMILY_LABELS = (
    "ruled_3_2", "ruled_3_3", "ruled_3_4", "ruled_3_5",
    "E2", "E3", "E3.5", "E4",
    "E6", "E7", "E7.5", "E8", "E9",
    "E12", "E13", "E14", "E19", "E23", "E24",
)

PATHS = ("det_to_dJ", "E6_to_E7", "ruled_jump", "E24_to_E23")


@dataclass
class FamilySpec:
    label: str
    bidegree: tuple
    c2: tuple | None  # (degree, p_a) of the residual curve; None for ruled
    counts: tuple | None  # (dpc, binode, dp, osc, contact, ordinary)
    table_row: int | None  # None = documented missing row
    seed: object = None
    field: str = ""
    notes: str = ""


EXPECTED = {
    "ruled_3_2": FamilySpec("ruled_3_2", (3, 2), None, None, 1),
    "ruled_3_3": FamilySpec("ruled_3_3", (3, 3), None, None, 5),
    "ruled_3_4": FamilySpec("ruled_3_4", (3, 4), None, None, 11),
    "ruled_3_5": FamilySpec("ruled_3_5", (3, 5), None, None, 27),
    "E2": FamilySpec("E2", (3, 3), (6, 3), (0, 0, 0, 0, 0, 0), 2),
    "E3": FamilySpec("E3", (3, 3), (6, 4), (0, 0, 1, 0, 0, 0), 3),
    "E3.5": FamilySpec("E3.5", (3, 3), (6, 4), (0, 1, 0, 0, 0, 0), None,
                       notes="binode stratum absent from the classical table"),
    "E4": FamilySpec("E4", (3, 3), (6, 4), (1, 0, 0, 0, 0, 0), 4),
    "E6": FamilySpec("E6", (3, 4), (5, 1), (0, 0, 0, 0, 0, 1), 6),
    "E7": FamilySpec("E7", (3, 4), (5, 2), (0, 0, 1, 0, 0, 1), 7),
    "E7.5": FamilySpec("E7.5", (3, 4), (5, 2), (0, 1, 0, 0, 0, 1), None,
                       notes="smooth-quadric binode stratum missing from the classical table"),
    "E8": FamilySpec("E8", (3, 4), (5, 2), (0, 1, 0, 0, 0, 1), 8),
    "E9": FamilySpec("E9", (3, 4), (5, 2), (1, 0, 0, 0, 0, 1), 9),
    "E12": FamilySpec("E12", (3, 5), (4, -1), (0, 0, 0, 0, 0, 2), 12),
    "E13": FamilySpec("E13", (3, 5), (4, 1), (0, 0, 1, 0, 0, 2), 13),
    "E14": FamilySpec("E14", (3, 5), (4, 0), (0, 0, 1, 0, 0, 2), 14),
    "E19": FamilySpec("E19", (3, 5), (4, 1), (0, 0, 2, 0, 0, 2), 19),
    "E23": FamilySpec("E23", (3, 5), (4, 0), (0, 0, 0, 0, 1, 0), 23),
    "E24": FamilySpec("E24", (3, 5), (4, 1), (0, 0, 1, 0, 1, 0), 24),
}


def family_spec(label: str, seed=None, field: Field | None = None) -> FamilySpec:
    sp = EXPECTED[label]
    return FamilySpec(sp.label, sp.bidegree, sp.c2, sp.counts, sp.table_row,
                      seed=seed, field=repr(field) if field else "", notes=sp.notes)


# -------------------------------------------------------- linear scaffolding


LINE_EXPONENTS = ((3, 0), (2, 1), (1, 2), (0, 3))  # s^3 .. t^3 of f(s a + t b)
CONTACT_EXPONENTS = ((3, 0, 0), (2, 1, 0), (2, 0, 1))  # s^3, s^2 t, s^2 u


def _sample(stream: str, seed, draw, attempts: int = 10) -> RationalMap:
    """The map of the first accepted attempt.  Attempt k draws from
    `Rng(seed, stream).split(f"try-{k}")`; `draw(rng)` returns the map, or
    rejects the attempt by returning None or raising DegenerateInput or
    MapError."""
    rng0 = Rng(seed, stream)
    for attempt in range(attempts):
        try:
            psi = draw(rng0.split(f"try-{attempt}"))
        except (DegenerateInput, MapError):
            continue
        if psi is not None:
            return psi
    raise DegenerateInput(f"{stream} sampling failed for seed {seed}")


def _mons3(R: Ring):
    return R.monomials_of_degree(3)


def _span_conditions(R: Ring, polys) -> list:
    """Linear conditions on cubic coefficient vectors (over `_mons3`) that
    cut out exactly the span of the cubics `polys`."""
    F = R.field
    mons = _mons3(R)
    idx = {m: i for i, m in enumerate(mons)}
    rows = []
    for f in polys:
        row = [F.zero] * len(mons)
        for m, c in f.terms:
            row[idx[m]] = c
        rows.append(row)
    return linalg.nullspace(F, rows, len(mons))


def _restriction_rows(R: Ring, points, exponents, polys=None) -> list:
    """Row r, column j: the coefficient of u^exponents[r] in
    f_j(sum_k u_k points[k]), with f_j the cubic monomials (`_mons3`) unless
    `polys` is given."""
    F = R.field
    add, mul, zero = F.add, F.mul, F.zero
    n = len(points)
    # per variable: the points with a nonzero coordinate there, and that value
    coords = [[(k, P[i]) for k, P in enumerate(points) if P[i] != zero] for i in range(4)]
    row_of = {e: r for r, e in enumerate(exponents)}
    cols = [((m, F.one),) for m in _mons3(R)] if polys is None else [f.terms for f in polys]
    rows = [[zero] * len(cols) for _ in exponents]
    for col, terms in enumerate(cols):
        for m, cf in terms:
            acc = {(0,) * n: cf}
            for i in range(4):
                for _ in range(R.mexp(m, i)):
                    nxt = {}
                    for key, c in acc.items():
                        for k, w in coords[i]:
                            nk = key[:k] + (key[k] + 1,) + key[k + 1:]
                            nxt[nk] = add(nxt.get(nk, zero), mul(c, w))
                    acc = nxt
            for key, c in acc.items():
                if key in row_of:
                    row = rows[row_of[key]]
                    row[col] = add(row[col], c)
    return rows


def _solve_system(R: Ring, constraint_rows):
    """Nullspace of the stacked constraints as a list of 4 cubics."""
    F = R.field
    mons = _mons3(R)
    null = linalg.nullspace(F, constraint_rows, len(mons))
    if len(null) != 4:
        raise DegenerateInput(f"system dimension {len(null)}, expected 4")
    return vectors_to_polys(null, mons, R)


def _rand_point(R: Ring, rng: Rng):
    F = R.field
    while True:
        p = tuple(F.rand(rng) for _ in range(4))
        if any(c != F.zero for c in p):
            return p


def _rand_linear(R: Ring, rng: Rng, z3free: bool = False) -> Polynomial:
    F = R.field
    n = 3 if z3free else 4
    while True:
        f = R.linear_form([F.rand(rng) for _ in range(n)])
        if f:
            return f


def _rand_linears(R: Ring, rng: Rng, labels) -> list:
    """One random linear form from each child stream `rng.split(label)`."""
    return [_rand_linear(R, rng.split(label)) for label in labels]


def _rand_form(R: Ring, deg: int, rng: Rng, z3free: bool = False) -> Polynomial:
    F = R.field
    d = {}
    for m in R.monomials_of_degree(deg):
        if z3free and R.mexp(m, 3):
            continue
        c = F.rand(rng)
        if c != F.zero:
            d[m] = c
    if not d:
        raise DegenerateInput("zero random form")
    return R.poly(d)


def _origin(R: Ring):
    F = R.field
    return (F.zero, F.zero, F.zero, F.one)


# ------------------------------------------------------------------- ruled


def ruled(d: int, seed, field: Field, degenerate: bool = False) -> RationalMap:
    """Generic ruled map of bidegree (3, d): double line delta = {z0=z1=0},
    5-d ruling lines of a ruled cubic through delta, and 2d-4 simple base
    points on that cubic.

    With degenerate=True two of the base points are placed on a line meeting
    delta, which drops the bidegree by one (the inclusion of the ruled
    strata in each other's closures).
    """
    if d not in (2, 3, 4, 5):
        raise MapError("ruled bidegree must have d in 2..5")
    R = ring(field, 4)
    F = field
    mons = _mons3(R)

    def draw(rng):
        # ruled cubic S = z0^2 a + z0 z1 b + z1^2 c
        abc = _rand_linears(R, rng, "abc")
        lines = []
        for k in range(5 - d):
            got = _ruling_line(R, abc, rng.split(f"ruling-{k}"))
            if got is None:
                return None
            lines.append(got)
        # pairwise disjoint ruling lines
        if not _lines_disjoint(F, lines):
            return None
        npts = 2 * d - 4
        pts = []
        if degenerate and npts >= 2:
            x0 = (F.zero, F.zero, F.rand(rng.split("dx1")), F.one)
            w = _rand_point(R, rng.split("dw"))
            pts.append(tuple(F.add(x0[i], w[i]) for i in range(4)))
            t2 = F.rand_nonzero(rng.split("dt"))
            pts.append(tuple(F.add(x0[i], F.mul(t2, w[i])) for i in range(4)))
            npts -= 2
        for k in range(npts):
            q = _point_on_surface(R, abc, rng.split(f"pt-{k}"))
            if q is None:
                return None
            pts.append(q)
        # membership in I_delta^2: the 10 monomials with z0,z1-degree <= 1 vanish
        rows = [[F.one if c == col else F.zero for c in range(len(mons))]
                for col, m in enumerate(mons) if R.mexp(m, 0) + R.mexp(m, 1) <= 1]
        for line in lines:
            rows.extend(_restriction_rows(R, line, LINE_EXPONENTS))
        rows.extend(_eval_monomials(R, mons, p) for p in pts)
        return new_map(*_solve_system(R, rows),
                       label=f"ruled_3_{d - (1 if degenerate else 0)}", seed=seed)

    return _sample(f"ruled-{d}", seed, draw)


def _lines_disjoint(F, lines) -> bool:
    for i in range(len(lines)):
        for j in range(i + 1, len(lines)):
            M = [list(lines[i][0]), list(lines[i][1]), list(lines[j][0]), list(lines[j][1])]
            if linalg.rank(F, M) < 4:
                return False
    return True


def _ruling_line(R: Ring, abc, rng: Rng):
    """A line on the ruled cubic meeting the double line: returns (q, v)."""
    F = R.field
    a, b, c = abc
    for k in range(20):
        sub = rng.split(f"draw-{k}")
        q = (F.zero, F.zero, F.rand(sub), F.rand(sub))
        if q[2] == F.zero and q[3] == F.zero:
            continue
        root = _conic_root(F, a.evaluate(q), b.evaluate(q), c.evaluate(q))
        if root is None:
            continue
        v0, v1 = root
        # second condition: v0^2 a(v) + v0 v1 b(v) + v1^2 c(v) = 0, linear in v2, v3
        form = a.scale(F.mul(v0, v0)) + b.scale(F.mul(v0, v1)) + c.scale(F.mul(v1, v1))
        co = [form.coeff_of(e) for e in ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))]
        cons = F.add(F.mul(co[0], v0), F.mul(co[1], v1))
        v2 = F.rand(sub)
        if co[3] != F.zero:
            v3 = F.neg(F.div(F.add(cons, F.mul(co[2], v2)), co[3]))
            v = (v0, v1, v2, v3)
        elif co[2] != F.zero:
            v3 = F.rand(sub)
            v2 = F.neg(F.div(F.add(cons, F.mul(co[3], v3)), co[2]))
            v = (v0, v1, v2, v3)
        else:
            continue
        if linalg.rank(F, [list(q), list(v)]) == 2:
            return q, v
    return None


def _conic_root(F, a, b, c):
    """(v0 : v1) with a v0^2 + b v0 v1 + c v1^2 = 0, F-rational."""
    if a == F.zero:
        return (F.one, F.zero)
    roots = univar.quadratic_roots([c, b, a], F)
    return None if roots is None else (roots[1][0], F.one)


def _point_on_surface(R: Ring, abc, rng: Rng):
    """Rational point on the ruled cubic, off the double line."""
    F = R.field
    a, b, c = abc
    z0, z1 = R.var(0), R.var(1)
    S = z0 * z0 * a + z0 * z1 * b + z1 * z1 * c
    for k in range(20):
        sub = rng.split(f"draw-{k}")
        x = _rand_point(R, sub)
        y = _rand_point(R, sub)
        # S(x + t y) as univariate in t
        coeffs = [row[0] for row in _restriction_rows(R, (x, y), LINE_EXPONENTS, [S])]
        if all(cc == F.zero for cc in coeffs):
            continue
        roots = univar.roots_gf(coeffs, F, sub) if isinstance(F, GF) else \
            univar.roots_qq(coeffs, F)
        for t in roots:
            p = tuple(F.add(x[i], F.mul(F.of(t) if not isinstance(t, tuple) else t, y[i]))
                      for i in range(4))
            if p[0] == F.zero and p[1] == F.zero:
                continue
            return p
    return None


# ------------------------------------------------------------ determinantal


def determinantal(seed, field: Field) -> RationalMap:
    """Signed 3x3 minors of a random 4x3 matrix of linear forms."""
    R = ring(field, 4)

    def draw(rng):
        M = [[_rand_linear(R, rng.split(f"m{i}{j}")) for j in range(3)] for i in range(4)]
        return new_map(*_signed_minors(M), label="E2", seed=seed)

    return _sample("determinantal", seed, draw)


def _signed_minors(M) -> list:
    """(-1)^i det of the 4x3 matrix M without row i, for i = 0..3."""
    out = []
    for i in range(4):
        d = _det3([M[j] for j in range(4) if j != i])
        out.append(-d if i % 2 else d)
    return out


def _det3(M):
    return (M[0][0] * (M[1][1] * M[2][2] - M[1][2] * M[2][1])
            - M[0][1] * (M[1][0] * M[2][2] - M[1][2] * M[2][0])
            + M[0][2] * (M[1][0] * M[2][1] - M[1][1] * M[2][0]))


# ------------------------------------------------------------ de Jonquieres


def dejonquieres(variant: str, seed, field: Field) -> RationalMap:
    """(3,3) maps from a quadric Q through p and a cubic S singular at p:
    the system is I_p Q + (S) with p = (0:0:0:1).

    E3:   Q of rank 4, quadratic part of S of rank 3 (double point);
    E3.5: quadratic part of S = T_pQ * (other plane)   (binode);
    E4:   Q of rank 2 and singular at p                 (double point of contact).
    """
    if variant not in ("E3", "E3.5", "E4"):
        raise MapError(f"unknown de Jonquieres variant {variant}")
    R = ring(field, 4)
    z3 = R.var(3)
    p = _origin(R)
    expect = {"E3": "DoublePoint", "E3.5": "Binode", "E4": "DoubleContactPoint"}[variant]

    def draw(rng):
        if variant == "E4":
            Q = (_rand_linear(R, rng.split("h1"), z3free=True)
                 * _rand_linear(R, rng.split("h2"), z3free=True))
        else:
            l = _rand_linear(R, rng.split("l"), z3free=True)
            Q = z3 * l + _rand_form(R, 2, rng.split("q"), z3free=True)
        if variant == "E3.5":
            qS = l * _rand_linear(R, rng.split("u"), z3free=True)
        else:
            qS = _rand_form(R, 2, rng.split("qS"), z3free=True)
        S = z3 * qS + _rand_form(R, 3, rng.split("cS"), z3free=True)
        psi = new_map(R.var(0) * Q, R.var(1) * Q, R.var(2) * Q, S, label=variant, seed=seed)
        if classify_point(psi, p, rng.split("verify")).tag != expect:
            return None
        if variant == "E3" and _rank4(Q) != 4:
            return None
        return psi

    return _sample(f"dejonquieres-{variant}", seed, draw)


# -------------------------------------------------------------- (3,4) maps


def cuboquartic(variant: str, seed, field: Field) -> RationalMap:
    if variant == "E6":
        return _build_e6(seed, field)
    if variant in ("E7", "E7.5", "E9"):
        return _build_e7_family(variant, seed, field)
    if variant == "E8":
        return _build_e8(seed, field)
    raise MapError(f"unknown cubo-quartic variant {variant}")


def _pencil_matrix_maps(R: Ring, Ls, t):
    """The 2x4 matrix whose minors cut the quintic: rows
    (t z3, z0, -z1, -z2) and (t z3 L0 + Q, q1, q2, q3)."""
    z0, z1, z2, z3 = R.vars()
    L0, L1, L2, L3 = Ls
    Q = z0 * z3 - z1 * z2
    tz3 = z3.scale(t)
    r1 = [tz3, z0, -z1, -z2]
    q1 = z2 * z2 + z0 * L1 + tz3 * L2
    q2 = -(z2 * z3) - z1 * L1 + tz3 * L3
    q3 = -(z2 * L0) - z1 * L2 - z0 * L3
    r2 = [tz3 * L0 + Q, q1, q2, q3]
    minors = []
    for i in range(4):
        for j in range(i + 1, 4):
            m = r1[i] * r2[j] - r1[j] * r2[i]
            if m:
                minors.append(m)
    return minors


def _build_e6(seed, field: Field, t=None) -> RationalMap:
    R = ring(field, 4)

    def draw(rng):
        Ls = [_rand_linear(R, rng.split(f"L{i}")) for i in range(4)]
        tval = t if t is not None else field.rand_nonzero(rng.split("t"))
        return _assemble(R, _pencil_matrix_maps(R, Ls, tval), [_rand_point(R, rng.split("p1"))],
                         label="E6", seed=seed)

    return _sample("E6", seed, draw)


def _build_e7_family(variant: str, seed, field: Field) -> RationalMap:
    """E7 / E7.5 / E9 through the bilinear parametrization
    Q = L0 L3 - L1 L2, S1 = L0 Q1 + L1 Q2, S2 = L2 Q1 + L3 Q2 with the Q_i
    z3-free (cones with vertex p = (0:0:0:1)) and p on Q."""
    R = ring(field, 4)
    F = field
    z3 = R.var(3)
    p = _origin(R)
    expect = {"E7": "DoublePoint", "E7.5": "Binode", "E9": "DoubleContactPoint"}[variant]

    def draw(rng):
        ls = [_rand_linear(R, rng.split(f"l{i}"), z3free=True) for i in range(4)]
        if variant == "E9":
            a0 = F.rand_nonzero(rng.split("a0"))
            avals = [a0, F.zero, a0, F.zero]
            ls[3] = ls[1]
        else:
            a0 = F.rand_nonzero(rng.split("a0"))
            a1 = F.rand_nonzero(rng.split("a1"))
            a2 = F.rand_nonzero(rng.split("a2"))
            avals = [a0, a1, a2, F.mul(a1, F.div(a2, a0))]
        Ls = [z3.scale(avals[i]) + ls[i] if avals[i] != F.zero else ls[i]
              for i in range(4)]
        Q = Ls[0] * Ls[3] - Ls[1] * Ls[2]
        Q1 = _rand_form(R, 2, rng.split("Q1"), z3free=True)
        if variant == "E7.5":
            # T_pQ (a z3-free linear form) must divide the quadratic part
            T = (ls[3].scale(avals[0]) + ls[0].scale(avals[3])
                 - ls[2].scale(avals[1]) - ls[1].scale(avals[2]))
            if not T:
                return None
            hprime = _rand_linear(R, rng.split("h'"), z3free=True)
            Q2 = (T * hprime - Q1.scale(avals[0])).scale(F.inv(avals[1]))
        else:
            Q2 = _rand_form(R, 2, rng.split("Q2"), z3free=True)
        S1 = Ls[0] * Q1 + Ls[1] * Q2
        S2 = Ls[2] * Q1 + Ls[3] * Q2
        span = [R.var(i) * Q for i in range(3)] + [S1, S2]
        psi = _assemble(R, span, [_rand_point(R, rng.split("p1"))], label=variant, seed=seed)
        if classify_point(psi, p, rng.split("verify")).tag != expect:
            return None
        if variant in ("E7", "E7.5") and _rank4(Q) != 4:
            return None
        return psi

    return _sample(variant, seed, draw)


def _build_e8(seed, field: Field) -> RationalMap:
    """Binode stratum: the quadric through C2 is an irreducible cone with
    vertex p = (1:0:0:0).

    Built through the bilinear parametrization S1 = L0 Q1 + L1 Q2,
    S2 = L2 Q1 + L3 Q2, Q = L0 L3 - L1 L2 with every L_i vanishing at p (so
    Q is a cone with vertex p) and the two auxiliary cones Q1, Q2 tangent
    at p (parallel gradients); the common tangent direction is the fixed
    plane of the binode."""
    R = ring(field, 4)
    F = field
    z0, z1, z2, z3 = R.vars()
    p = (F.one, F.zero, F.zero, F.zero)

    def lin_e0(sub):
        while True:
            f = R.linear_form([F.zero] + [F.rand(sub) for _ in range(3)])
            if f:
                return f

    def quad12(sub):
        d = {}
        for e in ((0, 2, 0, 0), (0, 1, 1, 0), (0, 0, 2, 0)):
            c = F.rand(sub)
            if c != F.zero:
                d[R.pack(e)] = c
        return R.poly(d) if d else quad12(sub)

    def draw(rng):
        Ls = [lin_e0(rng.split(f"L{i}")) for i in range(4)]
        m = R.poly({R.pack((0, 1, 0, 0)): F.rand_nonzero(rng.split("m1")),
                    R.pack((0, 0, 1, 0)): F.rand(rng.split("m2"))})
        gamma = F.rand_nonzero(rng.split("g"))
        Q1 = z0 * m + quad12(rng.split("c1"))
        Q2 = z0 * m.scale(gamma) + quad12(rng.split("c2"))
        Q = Ls[0] * Ls[3] - Ls[1] * Ls[2]
        if _rank4(Q) != 3:
            return None
        S1 = Ls[0] * Q1 + Ls[1] * Q2
        S2 = Ls[2] * Q1 + Ls[3] * Q2
        span = [Q * z1, Q * z2, Q * z3, S1, S2]
        psi = _assemble(R, span, [_rand_point(R, rng.split("p1"))], label="E8", seed=seed)
        if classify_point(psi, p, rng.split("verify")).tag != "Binode":
            return None
        return psi

    return _sample("E8", seed, draw, attempts=12)


# -------------------------------------------------------------- (3,5) maps


def cuboquintic(variant: str, seed, field: Field) -> RationalMap:
    builders = {"E12": _build_e12, "E13": _build_e13, "E14": _build_e14,
                "E19": _build_e19, "E23": _build_e23, "E24": _build_e24}
    if variant not in builders:
        raise MapError(f"unknown cubo-quintic variant {variant}")
    return builders[variant](seed, field)


def _twisted_cubic(R: Ring, M=None) -> IdealHandle:
    z0, z1, z2, z3 = R.vars()
    gens = [z0 * z2 - z1 * z1, z1 * z3 - z2 * z2, z0 * z3 - z1 * z2]
    if M is not None:
        gens = [g.substitute_linear(M, check_invertible=False) for g in gens]
    return IdealHandle(gens, R, saturated=True)


def _assemble(R: Ring, span_polys, point_conds, label="", seed=None):
    """The map of the cubics in the span of `span_polys` through `point_conds`."""
    mons = _mons3(R)
    rows = _span_conditions(R, span_polys) + [_eval_monomials(R, mons, p) for p in point_conds]
    return new_map(*_solve_system(R, rows), label=label, seed=seed)


def _two_points(R: Ring, rng: Rng) -> list:
    return [_rand_point(R, rng.split("p1")), _rand_point(R, rng.split("p2"))]


def _build_e12(seed, field: Field) -> RationalMap:
    """C2 = twisted cubic plus a disjoint line; two ordinary base points."""
    R = ring(field, 4)
    F = field

    def draw(rng):
        Gamma = _twisted_cubic(R, linalg.random_invertible(F, 4, rng.split("M")))
        forms = line_forms(R, _rand_point(R, rng.split("la")), _rand_point(R, rng.split("lb")))
        if forms is None:
            return None
        ell = IdealHandle(forms, R, saturated=True)
        if not sat_irrelevant(IdealHandle(list(Gamma.gens) + list(ell.gens), R)).is_unit():
            return None
        span_g, mons = piece_span(Gamma, 3)
        span_l, _ = piece_span(ell, 3)
        rows = linalg.nullspace(F, span_g, len(mons)) + linalg.nullspace(F, span_l, len(mons))
        rows.extend(_eval_monomials(R, mons, x) for x in _two_points(R, rng))
        return new_map(*_solve_system(R, rows), label="E12", seed=seed)

    return _sample("E12", seed, draw)


def _build_e13(seed, field: Field) -> RationalMap:
    """C2 a (2,2) complete intersection through p; system I_C2 * I_p plus
    two ordinary points."""
    R = ring(field, 4)

    def draw(rng):
        Q1 = _rand_form(R, 2, rng.split("Q1"), z3free=False)
        Q2 = _rand_form(R, 2, rng.split("Q2"), z3free=False)
        # force through p: drop the z3^2 coefficient
        Q1 = Q1 - R.poly({R.pack((0, 0, 0, 2)): Q1.coeff_of((0, 0, 0, 2))})
        Q2 = Q2 - R.poly({R.pack((0, 0, 0, 2)): Q2.coeff_of((0, 0, 0, 2))})
        if not Q1 or not Q2:
            return None
        span = [R.var(i) * Qj for i in range(3) for Qj in (Q1, Q2)]
        return _assemble(R, span, _two_points(R, rng), label="E13", seed=seed)

    return _sample("E13", seed, draw)


def _build_e14(seed, field: Field) -> RationalMap:
    """C2 = twisted cubic and a line meeting at p; system I_Gamma * I_ell."""
    R = ring(field, 4)
    p = _origin(R)

    def draw(rng):
        Gamma = _twisted_cubic(R)  # contains (0:0:0:1)
        forms = line_forms(R, p, _rand_point(R, rng.split("x")))
        if forms is None:
            return None
        hm = sat_irrelevant(IdealHandle(list(Gamma.gens) + forms, R)).hilbert()
        if hm.dimension != 0 or hm.degree != 1:
            return None  # the line must meet the cubic only at p
        qspan, _ = piece_span(Gamma, 2)
        qpolys = vectors_to_polys(qspan, R.monomials_of_degree(2), R)
        span = [q * l for q in qpolys for l in forms]
        return _assemble(R, span, _two_points(R, rng), label="E14", seed=seed)

    return _sample("E14", seed, draw)


def _build_e19(seed, field: Field) -> RationalMap:
    """C2 = twisted cubic with the secant line through its two marked
    points; all cubics singular at both."""
    R = ring(field, 4)

    def draw(rng):
        Gamma = _twisted_cubic(R)  # contains e0 and e3
        qspan, _ = piece_span(Gamma, 2)
        qpolys = vectors_to_polys(qspan, R.monomials_of_degree(2), R)
        span = [q * l for q in qpolys for l in (R.var(1), R.var(2))]
        return _assemble(R, span, _two_points(R, rng), label="E19", seed=seed)

    return _sample("E19", seed, draw)


def _e23_quartic(R: Ring, a, b, c, coords=None):
    """(Q, S0, S1, S2): the rational quartic on the standard smooth quadric,
    written in `coords` (default the variables z0..z3)."""
    z0, z1, z2, z3 = coords or R.vars()
    Q = z0 * z3 - z1 * z2
    S0 = a * (z0 * z2) + b * (z0 * z3) + c * (z1 * z3)
    S1 = a * (z0 * z0) + b * (z0 * z1) + c * (z1 * z1)
    S2 = a * (z2 * z2) + b * (z2 * z3) + c * (z3 * z3)
    return Q, S0, S1, S2


def _contact_point_rows(R: Ring, rng: Rng):
    """A random contact structure: point q, plane H_q through q; returns the
    three linear conditions on cubics (f restricted to H_q is singular at q)
    and q."""
    F = R.field
    q = _rand_point(R, rng.split("q"))
    # two more points spanning a random plane through q
    while True:
        x = _rand_point(R, rng.split("hx"))
        y = _rand_point(R, rng.split("hy"))
        if linalg.rank(F, [list(q), list(x), list(y)]) == 3:
            break
    return _restriction_rows(R, (q, x, y), CONTACT_EXPONENTS), q


def _build_e23(seed, field: Field) -> RationalMap:
    R = ring(field, 4)

    def draw(rng):
        Q, S0, S1, S2 = _e23_quartic(R, *_rand_linears(R, rng, "abc"))
        rows = _span_conditions(R, [R.var(i) * Q for i in range(4)] + [S0, S1, S2])
        crow, q = _contact_point_rows(R, rng.split("ct"))
        psi = new_map(*_solve_system(R, rows + crow), label="E23", seed=seed)
        if classify_point(psi, q, rng.split("verify")).tag != "ContactPoint":
            return None
        return psi

    return _sample("E23", seed, draw)


def _build_e24(seed, field: Field) -> RationalMap:
    R = ring(field, 4)
    z0, z1, z2, z3 = R.vars()
    p = _origin(R)

    def draw(rng):
        a, b, c = _rand_linears(R, rng, "abc")
        Q0 = z1 * z2 - z0 * z0
        Qp = a * z2 + b * z0 + c * z1
        span = [Q0 * v for v in (z0, z1, z2, z3)] + [Qp * z0, Qp * z1, Qp * z2]
        crow, q = _contact_point_rows(R, rng.split("ct"))
        psi = new_map(*_solve_system(R, _span_conditions(R, span) + crow), label="E24", seed=seed)
        if classify_point(psi, p, rng.split("va")).tag != "DoublePoint":
            return None
        if classify_point(psi, q, rng.split("vb")).tag != "ContactPoint":
            return None
        return psi

    return _sample("E24", seed, draw)


# ------------------------------------------------------------ golden maps


def special_examples(field: Field = QQ) -> dict:
    """Pinned-coefficient maps used as golden regression objects."""
    R = ring(field, 4)
    pp = lambda s: parse_poly(s, R)
    out = {}
    out["ruled-involution"] = RationalMap(
        [pp("z0*z1^2"), pp("z0^2*z1"), pp("z0^2*z2"), pp("z1^2*z3")], 3,
        label="ruled-involution")
    out["dJ-ruled"] = RationalMap(
        [pp("z0^3"), pp("z0^2*z1"), pp("z0^2*z2"), pp("z1^2*z3")], 3, label="dJ-ruled")
    out["cube"] = RationalMap(
        [pp("z0^3"), pp("z1^3"), pp("z2^3"), pp("z3^3")], 3, label="cube")
    out["segre-squares"] = RationalMap(
        [pp("z0^2*z2"), pp("z0^2*z3"), pp("z1^2*z2"), pp("z1^2*z3")], 3,
        label="segre-squares")
    out["dJ-smooth-S"] = RationalMap(
        [pp("z0*z1^2 + z0^2*z3"), pp("z1^3 + z0*z1*z3"), pp("z1^2*z2 + z0*z2*z3"),
         pp("z0^3 + z1^3 + z2^3 + z3^3")], 3, label="dJ-smooth-S")
    return out


def pro_inter(eps, field: Field, p2=None) -> RationalMap:
    """The bidegree-jump family: eps != 0 gives a (3,4) map, eps = 0 a
    ruled (3,3) one."""
    R = ring(field, 4)
    F = field
    eps = F.of(eps)
    pp = lambda s: parse_poly(s, R)
    z0z1 = pp("z0*z1")
    span = [z0z1 * R.var(0), z0z1 * R.var(1), z0z1 * R.var(2),
            pp("z0^2*z2") + pp("z0*z2^2").scale(eps), pp("z1^2*z3")]
    if p2 is None:
        p2 = (F.of(1), F.of(2), F.of(3), F.of(5))
    return _assemble(R, span, [p2], label=f"pro-inter({eps})")


def a1_example(field: Field = QQ) -> tuple:
    """The explicit double-point-of-contact example on a smooth quadric:
    returns (psi, p, I_C2)."""
    R = ring(field, 4)
    F = field
    pp = lambda s: parse_poly(s, R)
    c2_parts = [
        IdealHandle([pp("z2^2"), pp("z0*z2"), pp("z0^2"), pp("z0*z3-z1*z2")], R),
        IdealHandle([pp("z1"), pp("z2")], R),
        IdealHandle([pp("z0-z2"), pp("z1-z2")], R),
    ]
    IC2 = intersect(intersect(c2_parts[0], c2_parts[1]), c2_parts[2])
    dpc = IdealHandle([pp("z2^2*z3 - z0*z1*z3")] + _z3_free_cubics(R), R)
    span_c2, mons = piece_span(IC2, 3)
    span_dpc, _ = piece_span(dpc, 3)
    rows = linalg.nullspace(F, span_c2, len(mons)) + linalg.nullspace(F, span_dpc, len(mons))
    rows.append(_eval_monomials(R, mons, (F.of(1), F.of(2), F.of(5), F.of(3))))
    rows.append(_eval_monomials(R, mons, (F.of(3), F.of(1), F.of(4), F.of(7))))
    comps = _solve_system(R, rows)
    psi = new_map(*comps, label="a1-example")
    return psi, _origin(R), IC2


def _z3_free_cubics(R: Ring) -> list:
    """The cubic monomials free of z3."""
    return [R.poly({m: R.field.one}) for m in _mons3(R) if not R.mexp(m, 3)]


def a2_example(field: Field = QQ) -> tuple:
    """The explicit example with a plane cubic plus a line through its
    singular point: returns (psi, p, I_C2, J) where J = I_C2 meet I_dpc."""
    R = ring(field, 4)
    F = field
    pp = lambda s: parse_poly(s, R)
    IC3 = IdealHandle([pp("z1-z0"), pp("z1^2*z3 - z1*z2*z3 + z0^3 + z1^3 + z2^3")], R)
    Iell = IdealHandle([pp("z1"), pp("z2")], R)
    IC2 = intersect(IC3, Iell)
    dpc = IdealHandle([pp("z1^2 - z0*z2")] + _z3_free_cubics(R), R)
    J = intersect(IC2, dpc)
    span_j, mons = piece_span(J, 3)
    rows = linalg.nullspace(F, span_j, len(mons))
    rows.append(_eval_monomials(R, mons, (F.of(1), F.of(2), F.of(5), F.of(3))))
    rows.append(_eval_monomials(R, mons, (F.of(3), F.of(1), F.of(4), F.of(7))))
    comps = _solve_system(R, rows)
    psi = new_map(*comps, label="a2-example")
    return psi, _origin(R), IC2, J


# ------------------------------------------------------------ deformations


DET_TO_DJ_MATRIX = (
    (None, None, None),
    ("-z1", "-z2", None),
    ("z0", None, "-z2"),
    (None, "z0", "z1"),
)


def det_to_dJ_map(t, seed, field: Field) -> RationalMap:
    """Divided minors det(A_i + t B_i)/t of the pinned degenerate matrix A
    completed by a random linear matrix B; t = 0 is the de Jonquieres limit."""
    R5 = ring(field, 5, ("z0", "z1", "z2", "z3", "t@"))
    R = ring(field, 4)
    F = field
    rng = Rng(seed, "det_to_dJ")
    A = [[parse_poly(e, R5) if e else R5.zero for e in row] for row in DET_TO_DJ_MATRIX]
    B = [[_rand_linear(R, rng.split(f"b{i}{j}")).map_vars(R5, [0, 1, 2, 3])
          for j in range(3)] for i in range(4)]
    tv = R5.var(4)
    M = [[A[i][j] + tv * B[i][j] for j in range(3)] for i in range(4)]
    tval = F.of(t)
    comps = []
    for d in _signed_minors(M):
        # every term carries t at least once; divide and substitute t = value
        dd: dict = {}
        for m, cf in d.terms:
            e = R5.mexp(m, 4)
            if e == 0:
                raise DegenerateInput("pinned matrix lost its divisibility by t")
            rest = R.pack(tuple(R5.mexp(m, k) for k in range(4)))
            scale = cf
            for _ in range(e - 1):
                scale = F.mul(scale, tval)
            dd[rest] = F.add(dd.get(rest, F.zero), scale)
        comps.append(R.poly(dd))
    return new_map(*comps, label=f"det_to_dJ(t={t})", seed=seed)


def e6_to_e7_map(t, seed, field: Field) -> RationalMap:
    return _build_e6(seed, field, t=field.of(t))


def ruled_jump_map(eps, seed, field: Field) -> RationalMap:
    rng = Rng(seed, "ruled_jump")
    p2 = _rand_point(ring(field, 4), rng.split("p2"))
    return pro_inter(eps, field, p2=p2)


def e24_to_e23_map(t, seed, field: Field) -> RationalMap:
    """J_t meet ct_q with J_t the coordinate-degenerated quartic pencil."""
    R = ring(field, 4)
    rng = Rng(seed, "E24_to_E23")
    z0, z1, z2, z3 = R.vars()
    tv = field.of(t)
    Q, S0, S1, S2 = _e23_quartic(R, *_rand_linears(R, rng, "abc"),
                                 (z0 + z3.scale(tv), z1, z2, z0 - z3.scale(tv)))
    rows = _span_conditions(R, [Q * v for v in (z0, z1, z2, z3)] + [S0, S1, S2])
    # fixed contact structure along the path
    crows, _ = _contact_point_rows(R, rng.split("ct"))
    return new_map(*_solve_system(R, rows + crows), label=f"E24_to_E23(t={t})", seed=seed)


PATH_BUILDERS = {
    "det_to_dJ": det_to_dJ_map,
    "E6_to_E7": e6_to_e7_map,
    "ruled_jump": ruled_jump_map,
    "E24_to_E23": e24_to_e23_map,
}


def deform(path: str, samples, seed, field: Field):
    """[(parameter, RationalMap)] along a named degeneration path."""
    if path not in PATH_BUILDERS:
        raise MapError(f"unknown deformation path {path!r}")
    build = PATH_BUILDERS[path]
    return [(t, build(t, seed, field)) for t in samples]


# --------------------------------------------------------------- dispatch


def build(label: str, seed, field: Field) -> tuple:
    """(map, FamilySpec) for any family label.

    The member's base scheme is checked against criterion 4's rule: the
    degree of its curve part (`deg1part`, read off the base ideal `new_map`
    saturated) is 9 - d for a map of bidegree (3, d), and below 9 - d for a
    ruled one.  Over a small field a generic choice can fail and give a
    member of another stratum; DegenerateInput is raised then, naming the
    label, the seed and deg1part.
    """
    if label not in FAMILY_LABELS:
        raise MapError(f"unknown family {label!r}")
    is_ruled = label.startswith("ruled_3_")
    if is_ruled:
        psi = ruled(int(label[-1]), seed, field)
    elif label == "E2":
        psi = determinantal(seed, field)
    elif label in ("E3", "E3.5", "E4"):
        psi = dejonquieres(label, seed, field)
    elif label in ("E6", "E7", "E7.5", "E8", "E9"):
        psi = cuboquartic(label, seed, field)
    else:
        psi = cuboquintic(label, seed, field)
    spec = family_spec(label, seed=seed, field=field)
    degree, d = deg1part(psi.base_ideal()), spec.bidegree[1]
    if not (degree < 9 - d if is_ruled else degree == 9 - d):
        rule = f"below {9 - d}" if is_ruled else str(9 - d)
        raise DegenerateInput(f"families.build: {label} at seed {seed} has deg1part "
                              f"{degree}, the rule for its stratum is {rule}")
    return psi, spec
