"""Hudson-style local invariants of a cubic system at its special points.

The decision tree follows the classical definitions: with the point moved
to (0:0:0:1) and the system expanded in the local variables, the dimension
L of the span of the linear parts, the span of the joint (linear,
quadratic) parts, and the span W of the quadratic parts decide between

  ordinary            L >= 2 (base point with no special structure)
  point of osculation L = 1 and everything is one cubic modulo I_p^3
  point of contact    L = 1 otherwise
  double pt of contact L = 0, dim W = 1
  binode              L = 0, all of W of rank <= 2 with a common plane
  double point        L = 0 otherwise (generic rank recorded)

All the linear algebra is exact; factoring a rank-2 quadratic form may need
the quadratic extension of GF(p), in which case the fixed plane is reported
over that extension.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field
from importlib import resources

from . import linalg, univar
from .cremona import CurveRecord, MapAnalysis, RationalMap
from .fields import GF, GF2
from .ideals import (DegenerateInput, IdealHandle, candidate_lines, count_points,
                     extract_points, graded_piece_dim, multiplicity_at, piece_span,
                     point_frame, sat_irrelevant, saturate, vectors_to_polys)
from .poly import GREVLEX, Polynomial, Ring, ring
from .rng import Rng

TAGS = ("DoublePoint", "Binode", "DoubleContactPoint", "ContactPoint",
        "OsculationPoint", "Ordinary")


@dataclass
class PointType:
    tag: str
    rank_data: int | None = None
    fixed_plane: object = None  # Polynomial over the working field or its extension
    contact_surface_degree_ok: bool | None = None
    is_base_point: bool = True
    needs_extension: bool = False

    def is_all_singular(self) -> bool:
        return self.tag in ("DoublePoint", "Binode", "DoubleContactPoint")


QUAD_MONS3 = [(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)]


def _local_parts(f: Polynomial, M) -> tuple:
    """(constant, linear 3-vector, quadratic 6-vector) of f at M*e3."""
    g = f.substitute_linear(M, check_invertible=False)
    R = g.ring
    F = R.field
    const = F.zero
    lin = [F.zero] * 3
    quad = [F.zero] * 6
    qidx = {q: i for i, q in enumerate(QUAD_MONS3)}
    for m, c in g.terms:
        e3 = R.mexp(m, 3)
        rest = (R.mexp(m, 0), R.mexp(m, 1), R.mexp(m, 2))
        if e3 == 3:
            const = c
        elif e3 == 2:
            lin[rest.index(1)] = c
        elif e3 == 1:
            quad[qidx[rest]] = c
    return const, lin, quad


def _quad_matrix(vec, F):
    """Symmetric 3x3 matrix of a quadratic form given by its 6 coefficients."""
    inv2 = F.inv(F.of(2))
    a, b, c, d, e, f_ = vec
    h = lambda x: F.mul(x, inv2)
    return [[a, h(b), h(c)], [h(b), d, h(e)], [h(c), h(e), f_]]


def _quad_rank(vec, F) -> int:
    return linalg.rank(F, _quad_matrix(vec, F))


def _bilinear(A, u, w, F):
    """u^T A w for a 3x3 matrix A."""
    s = F.zero
    for i in range(3):
        for j in range(3):
            s = F.add(s, F.mul(F.mul(u[i], A[i][j]), w[j]))
    return s


def _quad_restrict_zero(vec, l, F) -> bool:
    """Does the linear form l (3-vector) divide the quadratic form vec?"""
    A = _quad_matrix(vec, F)
    basis = linalg.nullspace(F, [list(l)], 3)
    if len(basis) != 2:
        return False
    v1, v2 = basis
    return all(_bilinear(A, u, w, F) == F.zero for u, w in ((v1, v1), (v1, v2), (v2, v2)))


def _factor_rank2(vec, F):
    """Factor a rank <= 2 ternary quadratic form into two linear forms.

    Returns (factors, field) where factors is a list of one or two 3-vectors
    over `field` (the base field, or its quadratic extension when the
    discriminant is a non-residue); None when factoring is impossible (rank
    3 input, or Q without real extension support).
    """
    A = _quad_matrix(vec, F)
    r = linalg.rank(F, A)
    if r == 0:
        return None
    if r > 2:
        return None
    ker = linalg.nullspace(F, A, 3)
    comp = _complete_basis(ker, F)
    u1, u2 = comp[0], comp[1] if len(comp) > 1 else None
    B = [c for c in comp] + ker
    Binv = linalg.inverse(F, [[B[j][i] for j in range(3)] for i in range(3)])
    # rows of Binv give the dual coordinates sigma_k(z)
    sigma = [Binv[k] for k in range(3)]
    if r == 1:
        return ([sigma[0]], F)
    a = _bilinear(A, u1, u1, F)
    b = F.mul(F.of(2), _bilinear(A, u1, u2, F))
    c = _bilinear(A, u2, u2, F)
    # factor a s^2 + b s t + c t^2
    if a == F.zero and c == F.zero:
        return ([sigma[0], sigma[1]], F)
    if a == F.zero:
        # t (b s + c t)
        l2 = [F.add(F.mul(b, sigma[0][i]), F.mul(c, sigma[1][i])) for i in range(3)]
        return ([sigma[1], l2], F)
    # a (s - r1 t)(s - r2 t): factors s - r_k t, over GF(p^2) if need be
    roots = univar.quadratic_roots([c, b, a], F, GF2(F.p) if isinstance(F, GF) else None)
    if roots is None:
        return None
    K, rs = roots
    sig0, sig1 = sigma[0], sigma[1]
    if K != F:
        sig0, sig1 = [K.lift(x) for x in sig0], [K.lift(x) for x in sig1]
    return ([[K.sub(sig0[i], K.mul(r, sig1[i])) for i in range(3)] for r in rs], K)


def _complete_basis(ker, F):
    """Extend the kernel basis to a basis of F^3; returns the complement."""
    rows = [list(v) for v in ker]
    comp = []
    for i in range(3):
        e = [F.one if j == i else F.zero for j in range(3)]
        if linalg.rank(F, rows + comp + [e]) > len(rows) + len(comp):
            comp.append(e)
    return comp


def classify_point(system, p, rng: Rng | None = None) -> PointType:
    """Classify the behaviour of a 4-dimensional cubic system at a point.

    `system` is a RationalMap or a list of 4 cubics over the point's field.
    """
    comps = system.components if isinstance(system, RationalMap) else list(system)
    R = comps[0].ring
    F = R.field
    rng = rng or Rng(0, "classify")
    M = point_frame(R, p)
    parts = [_local_parts(f, M) for f in comps]
    if any(pt[0] != F.zero for pt in parts):
        return PointType("Ordinary", is_base_point=False)
    lin_rows = [pt[1] for pt in parts]
    L = linalg.rank(F, [r[:] for r in lin_rows])
    if L >= 2:
        return PointType("Ordinary", is_base_point=True)
    if L == 1:
        joint = [pt[1] + pt[2] for pt in parts]
        Q2 = linalg.rank(F, joint)
        if Q2 == 1:
            return PointType("OsculationPoint", contact_surface_degree_ok=True)
        return PointType("ContactPoint", contact_surface_degree_ok=True)
    # L == 0: all members singular at p
    W = linalg.row_space_basis(F, [pt[2] for pt in parts])
    dW = len(W)
    if dW == 0:
        return PointType("DoublePoint", rank_data=0)
    if dW == 1:
        return PointType("DoubleContactPoint", rank_data=_quad_rank(W[0], F))
    grank = 0
    for k in range(3):
        sub = rng.split(f"rank-{k}")
        combo = [F.zero] * 6
        for row in W:
            c = F.rand(sub)
            combo = [F.add(x, F.mul(c, y)) for x, y in zip(combo, row)]
        grank = max(grank, _quad_rank(combo, F))
    if grank >= 3:
        return PointType("DoublePoint", rank_data=grank)
    # all quadratic parts of rank <= 2: search for a common plane
    factored = _factor_rank2(W[0], F)
    if factored is None:
        return PointType("Binode", rank_data=grank, needs_extension=True)
    factors, FF = factored
    W2 = W if FF == F else [[FF.lift(c) for c in row] for row in W]
    for l in factors:
        if all(_quad_restrict_zero(row, l, FF) for row in W2):
            return PointType("Binode", rank_data=grank, fixed_plane=_plane_back(l, M, FF, R),
                             needs_extension=FF != F)
    return PointType("DoublePoint", rank_data=grank)


def _plane_back(l, M, FF, R: Ring):
    """Local linear form (3-vector) -> linear form on P^3 in original coords.

    The local coordinates are (M^-1 z)_0..2, so the plane is
    sum l_i (M^-1 z)_i.  Over the quadratic extension FF of R's field the
    plane lives in the matching ring over FF.
    """
    if FF != R.field:
        R = ring(FF, 4, R.names)
        M = [[FF.lift(c) for c in row] for row in M]
    Minv = linalg.inverse(FF, M)
    coeffs = [FF.zero] * 4
    for i in range(3):
        for j in range(4):
            coeffs[j] = FF.add(coeffs[j], FF.mul(l[i], Minv[i][j]))
    return R.linear_form(coeffs)


# ------------------------------------------------------- special locus


def _jacobian_minors(gens) -> list:
    """The nonzero 2x2 minors of the Jacobian matrix of `gens`: rows i < j
    of the generators, then columns a < b of the variables."""
    jac = [g.partials() for g in gens]
    minors = []
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            for a in range(len(jac[i])):
                for b in range(a + 1, len(jac[i])):
                    m = jac[i][a] * jac[j][b] - jac[i][b] * jac[j][a]
                    if m:
                        minors.append(m)
    return minors


def _with_jacobian_minors(I: IdealHandle, gens) -> IdealHandle:
    """sat_irrelevant(I + the 2x2 Jacobian minors of `gens`), fed I's reduced
    grevlex basis and, degree by degree, a basis of the span of the nonzero
    normal forms of the minors modulo I (`piece_span`).  That is the same
    ideal, since each minor minus its normal form lies in I, and so the same
    reduced basis, with fewer generators than the raw minors."""
    R = I.ring
    residues: dict = {}
    for m in _jacobian_minors(gens):
        r = I.nf(m)
        if r:
            residues.setdefault(r.degree, []).append(r)
    out = list(I.groebner(GREVLEX))
    for d, rs in sorted(residues.items()):
        span, mons = piece_span(IdealHandle(rs, R), d)
        out += vectors_to_polys(span, mons, R)
    return sat_irrelevant(IdealHandle(out, R))


def special_locus(psi: RationalMap, base_ideal: IdealHandle) -> IdealHandle:
    """Base points where the system can carry a Hudson structure: the rank
    of the 4x4 Jacobian is <= 1 there (rank 0 for double points / binodes /
    double points of contact, rank 1 for contact and osculation points).
    It is sat_irrelevant(J + the 2x2 minors) for the base ideal J, built
    from J's cached basis and the minors independent modulo J, quartics for
    a cubic map (`_with_jacobian_minors`)."""
    return _with_jacobian_minors(base_ideal, psi.components)


def candidate_points(analysis: MapAnalysis, rng: Rng):
    """Candidate special points: the rank <= 1 locus of the system plus the
    isolated base points (and the singular points of C2, which the rank
    locus already contains for all-singular structures).

    Returns (rational points, extension points, unresolved count), the
    last being the points of the special locus that `count_points` counts
    but `extract_points` does not find (defined over a larger field).
    DegenerateInput is raised when Theta's extracted points outnumber
    `theta_count`.
    """
    psi = analysis.psi
    spec = special_locus(psi, analysis.base_ideal)
    pts: list = []
    ext: list = []
    unresolved = 0
    if not spec.is_unit():
        if spec.hilbert().dimension != 0:
            raise DegenerateInput("special locus is not finite (ruled map?)")
        pts, ext = extract_points(spec, rng.split("spec"))
        total = count_points(spec)
        unresolved = max(0, total - len(pts) - len(ext))
    if analysis.theta_ideal is not None and not analysis.theta_ideal.is_unit():
        got, got_ext = extract_points(analysis.theta_ideal, rng.split("theta"))
        if len(got) + len(got_ext) > analysis.theta_count:
            raise DegenerateInput(f"candidate_points: {len(got) + len(got_ext)} points "
                                  f"extracted from Theta, {analysis.theta_count} counted")
        for q in got:
            if q not in pts:
                pts.append(q)
        for q in got_ext:
            if q not in ext:
                ext.append(q)
    return pts, ext, unresolved


def tangent_profile(c1: CurveRecord, c2: CurveRecord, p, rng: Rng):
    """(tangent-cone degree on C1, on C2, p in C2?)."""
    F = c1.ideal.ring.field
    on1 = all(g.evaluate(list(p)) == F.zero for g in c1.ideal.gens)
    on2 = c2.degree > 0 and all(g.evaluate(list(p)) == F.zero for g in c2.ideal.gens)
    d1 = multiplicity_at(c1.ideal, p, rng.split("c1")) if on1 else 0
    d2 = multiplicity_at(c2.ideal, p, rng.split("c2")) if on2 else 0
    return d1, d2, on2


# ------------------------------------------------------------ the vector


@dataclass
class HudsonVector:
    bidegree: tuple
    counts: dict  # tag -> count, plus "ordinary"
    fcurves: list  # [(kind, degree, p_a)]
    profiles: list  # [(point, tag, d1, d2, on_c2)]
    partial: bool = False
    specials: list = field(default_factory=list)  # [(point, PointType)]
    ruled: bool = False
    quadric_rank: int | None = None  # rank of the unique quadric through C2

    def count_tuple(self):
        c = self.counts
        return (c.get("DoubleContactPoint", 0), c.get("Binode", 0),
                c.get("DoublePoint", 0), c.get("OsculationPoint", 0),
                c.get("ContactPoint", 0), c.get("ordinary", 0))


def hudson_vector(analysis: MapAnalysis, rng: Rng | None = None) -> HudsonVector:
    """Counts, profiles and F-curves of the system at its special points.

    A point of contact whose tangent profile is (0, >= 2, on C2) is not
    counted: its common tangent plane is forced by C2.  Every member of
    the system contains the base curve C2, and a surface smooth at p that
    contains a curve contains the curve's tangent cone at p in its tangent
    plane.  At such a point C2 has two branches (multiplicity >= 2, as at the
    node where E4's two plane cubics cross), whose tangent lines span a
    plane; so every member smooth at p has that plane as its tangent plane.
    The tangency follows from containing C2 and is no further condition on
    the system, and Hudson's rows count only such further conditions.  The
    genuine points of contact (E23, E24) have profile (2, 0, off C2).  The
    rule reads the multiplicity, not the span of the tangent cone, so a
    cusp of C2 at a point of contact would be skipped too.  A skipped point
    is left out of `specials` and `profiles` as well.
    """
    rng = rng or Rng(analysis.seed, "hudson")
    psi = analysis.psi
    F = psi.ring.field
    if analysis.ruled:
        # the singular locus is a whole line; Hudson's point columns apply
        # to the non-ruled strata, so only the ordinary count is reported
        fcurves = _split_fcurves(analysis.c2, rng.split("fc"))
        return HudsonVector(analysis.bidegree, {"ordinary": analysis.theta_count},
                            fcurves, [], ruled=True)
    pts, ext, unresolved = candidate_points(analysis, rng.split("cand"))
    counts: dict = {}
    specials = []
    profiles = []
    theta = analysis.theta_ideal
    absorbed = 0
    for p in pts:
        pt = classify_point(psi, p, rng.split(f"class-{p}"))
        if pt.tag == "Ordinary":
            continue
        prof = tangent_profile(analysis.c1, analysis.c2, p, rng.split(f"prof-{p}"))
        if pt.tag == "ContactPoint" and prof[0] == 0 and prof[1] >= 2 and prof[2]:
            continue  # a tangency forced by C2, see above
        specials.append((p, pt))
        counts[pt.tag] = counts.get(pt.tag, 0) + 1
        if theta is not None and not theta.is_unit():
            if all(g.evaluate(list(p)) == F.zero for g in theta.gens):
                absorbed += 1
        profiles.append((p, pt.tag, prof[0], prof[1], prof[2]))
    partial = unresolved > 0
    if ext:
        R2 = ring(GF2(F.p), 4, psi.ring.names)
        comps2 = [f.map_field(R2) for f in psi.components]
    for p in ext:
        pt = classify_point(comps2, p, rng.split("class-ext"))
        if pt.tag == "Ordinary":
            continue
        specials.append((p, pt))
        counts[pt.tag] = counts.get(pt.tag, 0) + 1
    counts["ordinary"] = max(0, analysis.theta_count - absorbed)
    fcurves = _split_fcurves(analysis.c2, rng.split("fc"))
    qrank = None
    if analysis.c2.degree:
        q = _unique_quadric_of(analysis.c2)
        if q is not None:
            qrank = _rank4(q)
    return HudsonVector(analysis.bidegree, counts, fcurves, profiles,
                        partial=partial, specials=specials, quadric_rank=qrank)


def _split_fcurves(c2: CurveRecord, rng: Rng) -> list:
    """C2 split into its lines over the working field and the rest.

    One line search (`candidate_lines`) finds the distinct lines
    L_1, ..., L_k that C2 contains, and they are saturated out in turn:
    K_0 = C2 and K_i = K_{i-1} : I_{L_i}^oo.  The saturation strips exactly
    the components of K_{i-1} supported on L_i, and the degree of a curve
    reads only its 1-dimensional part, so L_i has multiplicity
    m_i = deg K_{i-1} - deg K_i and is listed m_i times as ("l", 1, 0).
    The rest K_k follows as ("w", degree, p_a) when it is a curve, so the
    degrees sum to deg C2."""
    if c2.degree == 0:
        return []
    C = c2.ideal
    lines = []
    for forms in candidate_lines(C, rng.split("lines"), "plane"):
        L = IdealHandle(forms, C.ring, saturated=True)
        if all(L.contains(g) for g in C.gens) and not any(L.equals(M) for M in lines):
            lines.append(L)
    out = []
    work, degree = C, c2.degree
    for L in lines:
        work = saturate(work, L)
        h = work.hilbert()
        rest = h.degree if h.dimension == 1 else 0
        out += [("l", 1, 0)] * (degree - rest)
        degree = rest
    if degree:
        h = work.hilbert()
        out.append(("w", h.degree, h.p_a))
    return out


# ---------------------------------------------------------------- table VI


TABLE6_SHA256 = "119f656f420832cf31d7e2a208769e500c08a93beeff8695ec8f2222fddc0c32"


@dataclass
class TableRow:
    row: int
    bidegree: tuple
    counts: tuple  # (dpc, binode, dp, osculation, contact, ordinary)
    fcurves: str
    remarks: str


_table_cache = None


def load_table(verify: bool = False) -> list:
    global _table_cache
    if _table_cache is not None and not verify:
        return _table_cache
    data = resources.files("cremona_lab").joinpath("data/hudson_table6.txt").read_bytes()
    if verify:
        digest = hashlib.sha256(data).hexdigest()
        if digest != TABLE6_SHA256:
            raise RuntimeError(
                f"hudson_table6.txt integrity check failed ({digest[:12]}...)")
    rows = []
    for line in data.decode("utf-8").splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("|")
        num = int(parts[0])
        d, dp = parts[1].split("-")
        counts = tuple(int(x) for x in parts[2:8])
        rows.append(TableRow(num, (int(d), int(dp)), counts, parts[8], parts[9] if len(parts) > 9 else ""))
    if [r.row for r in rows] != list(range(1, 76)):
        raise RuntimeError("hudson_table6.txt must hold rows 1..75")
    _table_cache = rows
    return rows


def match_table(v: HudsonVector) -> list:
    """Rows compatible with the observed bidegree and counts; the F-curve
    line/omega structure disambiguates when it was computable.  An empty
    list is legal (the classification itself flags two missing rows), and
    is the answer for a partial vector, whose counts miss points."""
    if v.partial:
        return []
    rows = load_table()
    if v.ruled:
        dbl = [r for r in rows if r.bidegree == v.bidegree and r.fcurves.startswith("l^2")]
        got = [r for r in dbl if r.counts[5] == v.counts.get("ordinary", 0)]
        return got or dbl
    cand = [r for r in rows if r.bidegree == v.bidegree and r.counts == v.count_tuple()]
    # the classical (3,4) binode row is the cone stratum: its F-curve lies
    # on a singular quadric; the smooth-quadric binode stratum has no row
    if v.quadric_rank == 4:
        cand = [r for r in cand if r.row != 8]
    # single-special rows encode the multiplicity of the F-curve at the
    # marked point (O1^k); compare with the observed tangent profile
    if sum(v.count_tuple()[:5]) == 1 and len(v.profiles) == 1:
        d2 = v.profiles[0][3]
        cand = [r for r in cand
                if sum(r.counts[:5]) != 1 or _fcurve_mult_at_o1(r.fcurves) == d2]
    if len(cand) > 1 and v.fcurves:
        nlines = sum(1 for k, _, _ in v.fcurves if k == "l")
        got = [r for r in cand if _fcurve_line_count(r.fcurves) == nlines]
        if got:
            cand = got
    return cand


def _fcurve_line_count(text: str) -> int:
    # standalone line components: tokens starting with "l" but not "l^2"
    n = 0
    for tok in text.split(","):
        tok = tok.strip()
        if re.match(r"^l\d*( |$|=)", tok + " ") and not tok.startswith("l^"):
            n += 1
    return n


def _fcurve_mult_at_o1(text: str) -> int:
    """Total multiplicity of the F-curve at the first marked point: sum of
    the O1^k (or O^k) powers across the component list."""
    total = 0
    for m in re.finditer(r"O(\d*)(?:\^(\d+))?", text):
        if m.group(1) in ("", "1"):
            total += int(m.group(2) or 1)
    return total


# ------------------------------------------------------------- components


class ClassificationError(RuntimeError):
    pass


def classify_component(analysis: MapAnalysis, hv: HudsonVector | None = None,
                       rng: Rng | None = None) -> str:
    """Component / stratum label of a birational cubic map of P^3."""
    rng = rng or Rng(analysis.seed, "component")
    if analysis.birational not in (None, "yes"):
        raise ClassificationError("classification requires a birational map")
    d = analysis.bidegree[1]
    if analysis.ruled:
        if d not in (2, 3, 4, 5):
            raise ClassificationError(f"ruled map of unexpected bidegree (3,{d})")
        return f"ruled_3_{d}"
    if d not in (3, 4, 5):
        raise ClassificationError(f"no non-ruled stratum for bidegree (3,{d})")
    p2 = analysis.c2.p_a
    if hv is None:
        hv = hudson_vector(analysis, rng.split("hv"))
    sing_tags = [(p, t) for (p, t) in hv.specials if t.is_all_singular()]
    contact_tags = [(p, t) for (p, t) in hv.specials
                    if t.tag in ("ContactPoint", "OsculationPoint")]
    if d == 3:
        if p2 == 3:
            return "E2"
        if p2 == 4:
            if not sing_tags:
                raise ClassificationError("(3,3) with p2=4 but no fixed singular point found")
            tag = sing_tags[0][1].tag
            return {"DoublePoint": "E3", "Binode": "E3.5", "DoubleContactPoint": "E4"}[tag]
        raise ClassificationError(f"Bir(3,3) with p_a(C2)={p2} is empty")
    if d == 4:
        if p2 == 1:
            return "E6"
        if p2 == 2:
            tags = sorted(t.tag for _, t in sing_tags)
            if tags == ["Binode", "DoubleContactPoint"]:
                return "E10"
            if not sing_tags:
                raise ClassificationError("(3,4) with p2=2 but no singular system point")
            tag = sing_tags[0][1].tag
            if tag == "DoublePoint":
                return "E7"
            if tag == "DoubleContactPoint":
                return "E9"
            # binode: separate by the rank of the quadric through C2
            return "E7.5" if hv.quadric_rank == 4 else "E8"
        raise ClassificationError(f"Bir(3,4) with p_a(C2)={p2} is empty")
    # d == 5
    if p2 == -1:
        return "E12"
    if p2 == 0:
        if sing_tags:
            return "E14"
        if contact_tags and graded_piece_dim(analysis.c2.ideal, 3) == 7:
            return "E23"
        raise ClassificationError("(3,5) with p2=0 but neither E14 nor E23 shape")
    if p2 == 1:
        if len(sing_tags) >= 2:
            return "E19"
        if len(sing_tags) == 1 and contact_tags:
            return "E24"
        if len(sing_tags) == 1:
            p = sing_tags[0][0]
            mult = multiplicity_at(analysis.c1.ideal, p, rng.split("mult"))
            if mult == 3:
                return "E13"
            raise ClassificationError(
                f"(3,5), p2=1, one singular point of C1 multiplicity {mult}")
        raise ClassificationError("(3,5) with p2=1 but no singular system point")
    raise ClassificationError(f"Bir(3,5) with p_a(C2)={p2} is empty")


def _unique_quadric_of(c2: CurveRecord):
    span, mons = piece_span(c2.ideal, 2)
    if len(span) != 1:
        return None
    return vectors_to_polys(span, mons, c2.ideal.ring)[0]


def _rank4(q: Polynomial) -> int:
    R = q.ring
    F = R.field
    inv2 = F.inv(F.of(2))
    A = [[F.zero] * 4 for _ in range(4)]
    for m, c in q.terms:
        exps = R.unpack(m)
        idx = [i for i in range(4) for _ in range(exps[i])]
        i, j = idx[0], idx[1]
        if i == j:
            A[i][i] = c
        else:
            A[i][j] = A[j][i] = F.mul(c, inv2)
    return linalg.rank(F, A)


# ------------------------------------------------------- curve singularities


def curve_singular_points(C: CurveRecord, rng: Rng):
    """Singular points of a curve over the working field, with their
    multiplicities: [(point, mult)].  Returns None when the singular locus
    is not finite (non-reduced curves, e.g. the double line of a ruled map).
    """
    I = C.ideal
    S = _with_jacobian_minors(I, I.groebner(GREVLEX))
    if S.is_unit():
        return []
    if S.hilbert().dimension != 0:
        return None
    pts, _ = extract_points(S, rng.split("pts"))
    out = []
    for p in pts:
        try:
            m = multiplicity_at(I, p, rng.split(f"m-{p}"))
        except DegenerateInput:
            continue
        if m >= 2:
            out.append((p, m))
    return out
