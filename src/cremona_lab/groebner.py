"""Groebner bases by two paths, with resource limits.

* `groebner_basis(gens, order)` -- Buchberger's algorithm with the
  Gebauer-Moeller pair update, for a list of generators.  A new basis
  element is paired only with the elements whose lead no later lead
  divides, and its new pairs are thinned by the product criterion and
  Gebauer-Moeller's criteria M and F; the chain criterion is applied when a
  pair is popped.  Every grevlex basis of an ideal's generators comes from
  here.
* `extend_basis(basis, f, order)` -- the basis of (basis) + (f) when
  `basis` is already a Groebner basis for `order`, by signatures with f as
  the one new generator, so that no pair reduces to zero on a known
  syzygy.  Every Rabinowitsch elimination (`ideals._rabinowitsch`) comes
  from here: I's grevlex basis lifted to k[t, z] is a Groebner basis for
  ElimBlock(1), extended by t*g - 1.

Both end in the same reduction pass (`_reduced`, also `reduce_basis`), and a
reduced basis is unique, so the two paths give identical bases.

The engine works on term lists [(key, monomial, coeff), ...] sorted
descending by the active order key; prime-field coefficients get a dedicated
arithmetic path (plain ints mod p).  Order keys are affine in the exponent
vector, so multiplying a list by a monomial adds one key difference to each
stored key and no key is recomputed.  Every key is a closed form on the
packed monomial (grevlex and ElimBlock(k) alike), cheap enough that the
engine keeps no cache of them.  A polynomial's stored terms are already
grevlex-descending, so under grevlex a term list is the terms with their
keys, in stored order, and a result is the list with its keys dropped; only
other orders sort, once per input and once per result.

Limits turn runaway computations into explicit errors: classification code
must be able to tell "expensive" from "wrong".  They are a scoped setting
read here alone: `with limits(Budget(max_pairs, max_degree)):` bounds every
Groebner computation started in the body, each on its own (the limits do
not add up across calls), and restores the previous limits on exit.
Outside any such scope the limits are `Budget()`.
"""

from __future__ import annotations

import heapq
from contextlib import contextmanager
from contextvars import ContextVar

from .fields import GF
from .poly import GREVLEX, MonomialOrder, Polynomial, Ring


class BudgetError(RuntimeError):
    """Raised when a Groebner computation exceeds its resource budget."""


class Budget:
    """Limits of one Groebner computation.  `max_pairs` counts the S-pairs
    that pass the pair criteria and get reduced, not every pair of basis
    elements; the Gebauer-Moeller update leaves fewer such pairs than the
    product and chain criteria alone, so a given budget admits larger
    computations than it did with those two.  In `extend_basis` it counts
    the candidates that pass the signature criteria, which skip every pair
    that would reduce to zero on a known syzygy, so a given `max_pairs` now
    admits larger eliminations than Buchberger's pairs did.  `max_degree`
    bounds the degree of a reduced pair's lcm, or of a candidate's lead."""

    __slots__ = ("max_pairs", "max_degree")

    def __init__(self, max_pairs: int | None = None, max_degree: int | None = None):
        self.max_pairs = 200_000 if max_pairs is None else max_pairs
        self.max_degree = 30 if max_degree is None else max_degree


_LIMITS: ContextVar[Budget] = ContextVar("groebner_limits", default=Budget())


def current_limits() -> Budget:
    """The limits every Groebner computation started now is held to."""
    return _LIMITS.get()


@contextmanager
def limits(budget: Budget):
    """Hold every Groebner computation in the body to `budget`.  The
    previous limits come back on exit, also when the body raises (a
    BudgetError, say)."""
    token = _LIMITS.set(budget)
    try:
        yield
    finally:
        _LIMITS.reset(token)


def _merge_sub_gf(work, start, g, dk, shift, factor, p):
    """work[start+1:] - factor * x^shift * g[1:] over GF(p): the leads cancel
    by construction.  Order keys are affine in the exponent vector, so a
    term of g moves to key + dk, dk = key(x^shift * lead g) - key(lead g)."""
    out = []
    append = out.append
    i, j = start + 1, 1
    lw, lg = len(work), len(g)
    while i < lw and j < lg:
        wk = work[i][0]
        gk, gm, gc = g[j]
        gk += dk
        if wk > gk:
            append(work[i])
            i += 1
        elif wk < gk:
            append((gk, gm + shift, -factor * gc % p))
            j += 1
        else:
            c = (work[i][2] - factor * gc) % p
            if c:
                append((wk, work[i][1], c))
            i += 1
            j += 1
    if i < lw:
        out += work[i:]
    if j < lg:
        out += [(k + dk, m + shift, -factor * c % p) for k, m, c in g[j:]]
    return out


def _merge_sub_gen(work, start, g, dk, shift, factor, F):
    """`_merge_sub_gf` over any field F."""
    out = []
    append = out.append
    neg, mul, sub, zero = F.neg, F.mul, F.sub, F.zero
    i, j = start + 1, 1
    lw, lg = len(work), len(g)
    while i < lw and j < lg:
        wk = work[i][0]
        gk, gm, gc = g[j]
        gk += dk
        if wk > gk:
            append(work[i])
            i += 1
        elif wk < gk:
            append((gk, gm + shift, neg(mul(factor, gc))))
            j += 1
        else:
            c = sub(work[i][2], mul(factor, gc))
            if c != zero:
                append((wk, work[i][1], c))
            i += 1
            j += 1
    if i < lw:
        out += work[i:]
    if j < lg:
        out += [(k + dk, m + shift, neg(mul(factor, c))) for k, m, c in g[j:]]
    return out


class _Engine:
    """One Groebner computation (fixed ring and order)."""

    def __init__(self, ring: Ring, order: MonomialOrder):
        self.ring = ring
        self.grevlex = order == GREVLEX
        self.keyf = ring._grevlex_key if self.grevlex else order.key_func(ring)
        F = ring.field
        p = F.char if isinstance(F, GF) else 0
        self.gf_p = p
        # the merge and its last argument, picked once for the field
        self.merge, self.arith = (_merge_sub_gf, p) if p else (_merge_sub_gen, F)

    def to_list(self, f: Polynomial) -> list:
        """f's terms with their keys, descending.  Stored terms are already
        grevlex-descending, so under grevlex they keep their order."""
        keyf = self.keyf
        out = [(keyf(m), m, c) for m, c in f.terms]
        return out if self.grevlex else sorted(out, reverse=True)

    def from_list(self, lst: list) -> Polynomial:
        """The polynomial of a term list; a grevlex list is in stored order."""
        if self.grevlex:
            return Polynomial(self.ring, tuple([(m, c) for _, m, c in lst]))
        return self.ring.poly({m: c for _, m, c in lst})

    def reduce_full(self, work: list, G: list) -> list:
        """Full normal form of the term list `work` against monic lists G:
        each term is reduced by the first element of G whose lead divides
        it, or moves to the output."""
        guard = self.ring.guard
        merge, arith = self.merge, self.arith
        leads = [(g[0][1], g) for g in G]
        out = []
        i = 0
        while i < len(work):
            wk, m, c = work[i]
            mg = m | guard
            for lm, g in leads:
                if (mg - lm) & guard == guard:
                    work = merge(work, i, g, wk - g[0][0], m - lm, c, arith)
                    i = 0
                    break
            else:
                out.append(work[i])
                i += 1
        return out

    def spoly(self, f: list, g: list, lcm_m: int) -> list:
        """S-polynomial of two monic term lists."""
        lk = self.keyf(lcm_m)
        df, sf = lk - f[0][0], lcm_m - f[0][1]
        shifted = [(k + df, m + sf, c) for k, m, c in f]
        return self.merge(shifted, 0, g, lk - g[0][0], lcm_m - g[0][1], self.ring.field.one,
                          self.arith)

    def make_monic(self, lst: list) -> list:
        F = self.ring.field
        lc = lst[0][2]
        if lc == F.one:
            return lst
        if self.gf_p:
            inv = pow(lc, self.gf_p - 2, self.gf_p)
            return [(k, m, c * inv % self.gf_p) for k, m, c in lst]
        inv = F.inv(lc)
        return [(k, m, F.mul(c, inv)) for k, m, c in lst]


def groebner_basis(gens: list, order: MonomialOrder = GREVLEX) -> list:
    """Reduced Groebner basis, deterministic, leads descending.  Pairs are
    selected by smallest lcm (degree, then order key).  Raises BudgetError
    when it exceeds `current_limits()`."""
    gens = [g for g in gens if g]
    if not gens:
        return []
    ring = gens[0].ring
    for g in gens:
        if g.ring != ring:
            raise ValueError("mixed rings in generator list")
    budget = _LIMITS.get()
    eng = _Engine(ring, order)
    mdeg = ring.mdeg
    mlcm = ring.mlcm
    mdiv = ring.mdivides

    G: list = []
    lead: list = []  # packed lead monomials, parallel to G
    active: list = []  # indices into G whose lead no later lead divides
    pending: list = []  # heap of (lcm degree, lcm key, i, j, lcm)
    npairs = 0

    def add_element(lst: list):
        # Gebauer-Moeller update: pair the new element h only with the active
        # elements; a new pair goes (criteria M and F) when the lcm of a later
        # new pair or of a kept one divides its lcm, unless its leads are
        # coprime; kept coprime pairs reduce to zero and are not pushed
        h = len(G)
        lh = lst[0][1]
        G.append(lst)
        lead.append(lh)
        new = [(i, mlcm(lead[i], lh)) for i in active]
        kept: list = []
        for n, (i, lcm_m) in enumerate(new):
            if lcm_m == lead[i] + lh or not (
                any(mdiv(l, lcm_m) for _, l in new[n + 1:]) or any(mdiv(l, lcm_m) for _, l in kept)
            ):
                kept.append((i, lcm_m))
        for i, lcm_m in kept:
            if lcm_m != lead[i] + lh:
                heapq.heappush(pending, (mdeg(lcm_m), eng.keyf(lcm_m), i, h, lcm_m))
        active[:] = [i for i in active if not mdiv(lh, lead[i])]
        active.append(h)

    for lst in sorted((eng.make_monic(eng.to_list(g)) for g in gens), key=lambda l: l[0][0]):
        add_element(lst)

    while pending:
        _, _, i, j, lcm_m = heapq.heappop(pending)
        # chain criterion (Gebauer-Moeller B): some other lead divides the
        # lcm and both sub-lcms are strictly smaller
        skip = False
        for t in range(len(G)):
            if t == i or t == j:
                continue
            if mdiv(lead[t], lcm_m) and mlcm(lead[i], lead[t]) != lcm_m and mlcm(lead[j], lead[t]) != lcm_m:
                skip = True
                break
        if skip:
            continue
        npairs += 1
        if npairs > budget.max_pairs:
            raise BudgetError(f"pair budget {budget.max_pairs} exceeded")
        if mdeg(lcm_m) > budget.max_degree:
            raise BudgetError(f"degree {mdeg(lcm_m)} exceeds budget {budget.max_degree}")
        s = eng.spoly(G[i], G[j], lcm_m)
        s = eng.reduce_full(s, G)
        if s:
            add_element(eng.make_monic(s))

    return _reduced(eng, G)


def extend_basis(basis: list, f: Polynomial, order: MonomialOrder = GREVLEX) -> list:
    """The reduced Groebner basis of (basis) + (f), when `basis` is already a
    Groebner basis for `order`, computed by signatures with f as the one new
    generator.

    An element r = a*f + (an element of (basis)) has signature u_r, the
    lead of a; the elements of `basis` have the empty signature, below
    every u.  Signatures s are taken in increasing order from the J-pairs:
    (lcm / lead r) * u_r for a new r and an element of `basis` whose leads
    are not coprime, and the larger of the two for two new elements (none
    when they are equal).  A signature is skipped when a known syzygy
    signature divides it: a lead of `basis` (F5 criterion), the Koszul
    signature max(lead(r) * u_q, lead(q) * u_r) of two new elements when
    the two differ, or a signature whose candidate reduced to zero.
    Otherwise the candidate (s / u_r) * r, for the latest new r with
    u_r | s (f itself for s = 1), is reduced regularly: by `basis` always,
    by a new r only where the multiple's signature lies below s.  It is
    dropped when its lead is singular top-reducible once regular reduction
    has stopped, since a new element of the same signature covers it, and
    is a new element otherwise.  When every signature is done, `basis` and
    the new elements are a Groebner basis (Eder and Faugere, "A survey on
    signature-based algorithms for computing Groebner bases", J. Symbolic
    Comput. 80, 2017), reduced as `groebner_basis` reduces its own.

    Each candidate counts as one pair against `current_limits()`, and a
    candidate whose lead degree exceeds its `max_degree` raises BudgetError,
    as a pair's lcm does in `groebner_basis`."""
    basis = [g for g in basis if g]
    if not f:
        return reduce_basis(basis, order)
    ring = f.ring
    if any(g.ring != ring for g in basis):
        raise ValueError("mixed rings in generator list")
    budget = _LIMITS.get()
    eng = _Engine(ring, order)
    key, mdeg, mlcm, guard = eng.keyf, ring.mdeg, ring.mlcm, ring.guard

    G = sorted((eng.make_monic(eng.to_list(g)) for g in basis), key=lambda l: l[0][0])
    known = [(g[0][1], g) for g in G]
    new: list = []  # (lead, term list, signature, key(signature) - key(lead))
    syzygies = [lm for lm, _ in known]
    pending = [(key(0), 0)]  # heap of (key, signature); f itself has signature 1
    npairs = 0
    last = None
    while pending:
        sk, s = heapq.heappop(pending)
        sg = s | guard
        if s == last or any((sg - z) & guard == guard for z in syzygies):
            continue
        last = s
        if new:
            _, r, u, _ = next(e for e in reversed(new) if (sg - e[2]) & guard == guard)
            dk, shift = sk - key(u), s - u
            work = [(k + dk, m + shift, c) for k, m, c in r]
            npairs += 1
            if npairs > budget.max_pairs:
                raise BudgetError(f"pair budget {budget.max_pairs} exceeded")
            if mdeg(work[0][1]) > budget.max_degree:
                raise BudgetError(f"degree {mdeg(work[0][1])} exceeds budget {budget.max_degree}")
        else:
            work = eng.make_monic(eng.to_list(f))
        work = _regular_reduce(eng, work, sk, known, new)
        if work is None:
            continue
        if not work:
            syzygies.append(s)
            continue
        work = eng.make_monic(work)
        lk, lr = work[0][0], work[0][1]
        ratio = sk - lk
        for lm, _ in known:
            lcm_m = mlcm(lm, lr)
            if lcm_m != lm + lr:
                t = lcm_m - lr + s
                heapq.heappush(pending, (key(t), t))
        # key(x * u_y) - key(y * u_x) = ratio_y - ratio_x for two new
        # elements: the side with the larger ratio gives the J-pair and the
        # Koszul signature, and equal ratios give neither
        for lq, _, uq, ratio_q in new:
            if ratio > ratio_q:
                t = mlcm(lq, lr) - lr + s
                syzygies.append(lq + s)
            elif ratio < ratio_q:
                t = mlcm(lq, lr) - lq + uq
                syzygies.append(lr + uq)
            else:
                continue
            heapq.heappush(pending, (key(t), t))
        new.append((lr, work, s, ratio))
    return _reduced(eng, G + [r for _, r, _, _ in new])


def _regular_reduce(eng: _Engine, work: list, sk: int, known: list, new: list):
    """Regular reduction of the term list `work` of signature key `sk` for
    `extend_basis`: each term is reduced by the first lead of `known` that
    divides it, else by the first new element whose multiple has a smaller
    signature, else moves to the output.  Returns [] when `work` reduces to
    zero, and None when its final lead is singular top-reducible: some new
    element's multiple has that lead and the signature `sk`.

    A multiple t*r of the new element r with lead l and signature u has the
    signature key key(t*u) = key(m) + key(u) - key(l) when t*l = m, so the
    test compares the stored key(u) - key(l) with sk - key(m)."""
    guard = eng.ring.guard
    merge, arith = eng.merge, eng.arith
    out: list = []
    i = 0
    while i < len(work):
        wk, m, c = work[i]
        mg = m | guard
        for lm, g in known:
            if (mg - lm) & guard == guard:
                work = merge(work, i, g, wk - g[0][0], m - lm, c, arith)
                i = 0
                break
        else:
            bound = sk - wk
            for lm, g, _, ratio in new:
                if ratio < bound and (mg - lm) & guard == guard:
                    work = merge(work, i, g, wk - g[0][0], m - lm, c, arith)
                    i = 0
                    break
            else:
                if not out and any(ratio == bound and (mg - lm) & guard == guard
                                   for lm, _, _, ratio in new):
                    return None
                out.append(work[i])
                i += 1
    return out


def reduce_basis(basis: list, order: MonomialOrder = GREVLEX) -> list:
    """The reduced Groebner basis of `basis`, which must already be a
    Groebner basis for `order`: the pass that ends `groebner_basis`, with no
    S-pair formed."""
    basis = [g for g in basis if g]
    if not basis:
        return []
    ring = basis[0].ring
    if any(g.ring != ring for g in basis):
        raise ValueError("mixed rings in generator list")
    eng = _Engine(ring, order)
    return _reduced(eng, [eng.make_monic(eng.to_list(g)) for g in basis])


def _reduced(eng: _Engine, G: list) -> list:
    """The reduced basis of the monic term lists G of a Groebner basis:
    drop redundant leads, then tail-reduce to the unique reduced basis."""
    mdiv = eng.ring.mdivides
    keep: list = []
    for t in sorted(range(len(G)), key=lambda t: G[t][0][0]):
        lm = G[t][0][1]
        if any(mdiv(G[u][0][1], lm) for u in keep):
            continue
        keep = [u for u in keep if not mdiv(lm, G[u][0][1])]
        keep.append(t)

    # one ascending pass over the minimal basis (`keep` is ascending): a tail
    # term of an element is below its lead, so only a smaller lead can divide
    # it, and those elements are reduced already; the leads stay, since no
    # lead of a minimal basis divides another
    reduced: list = []
    for t in keep:
        reduced.append([G[t][0]] + eng.reduce_full(G[t][1:], reduced))
    reduced.reverse()
    return [eng.from_list(lst) for lst in reduced]


class Reducer:
    """Normal forms modulo one fixed Groebner basis.  The engine and the
    basis' monic term lists are built once, so a caller reducing many
    polynomials against the same basis pays the conversion once; each
    result equals `normal_form(f, basis, order)`."""

    def __init__(self, basis: list, order: MonomialOrder = GREVLEX):
        basis = list(basis)
        self._eng = None
        if not basis:
            return
        ring = basis[0].ring
        if any(g.ring != ring for g in basis):
            raise ValueError("order/ring mismatch")
        self._eng = eng = _Engine(ring, order)
        self._G = sorted((eng.make_monic(eng.to_list(g)) for g in basis if g),
                         key=lambda l: l[0][0])

    def __call__(self, f: Polynomial) -> Polynomial:
        eng = self._eng
        if eng is None or not f:
            return f
        if f.ring != eng.ring:
            raise ValueError("order/ring mismatch")
        return eng.from_list(eng.reduce_full(eng.to_list(f), self._G))


def normal_form(f: Polynomial, basis: list, order: MonomialOrder = GREVLEX) -> Polynomial:
    """Remainder of f modulo a Groebner basis (no term divisible by a lead).

    The remainder map is linear in f; `basis` must be a Groebner basis for
    `order` for the result to be canonical.
    """
    if not basis or not f:
        return f
    return Reducer(basis, order)(f)


def exact_divide(f: Polynomial, g: Polynomial) -> Polynomial | None:
    """f / g when g divides f exactly, else None."""
    if not g:
        raise ZeroDivisionError("division by zero polynomial")
    if not f:
        return f
    ring = f.ring
    F = ring.field
    eng = _Engine(ring, GREVLEX)
    gl = eng.to_list(g)
    work = eng.to_list(f)
    quot: dict = {}
    glk, glm, glc = gl[0]
    while work:
        k, m, c = work[0]
        if not ring.mdivides(glm, m):
            return None
        shift = m - glm
        factor = F.div(c, glc)
        quot[shift] = factor
        work = eng.merge(work, 0, gl, k - glk, shift, factor, eng.arith)
    return ring.poly(quot)


def spoly_reduces_to_zero(basis: list, i: int, j: int, order=GREVLEX) -> bool:
    """Check one S-pair of a claimed Groebner basis."""
    ring = basis[0].ring
    eng = _Engine(ring, order)
    G = [eng.make_monic(eng.to_list(g)) for g in basis]
    lcm_m = ring.mlcm(G[i][0][1], G[j][0][1])
    s = eng.spoly(G[i], G[j], lcm_m)
    return not eng.reduce_full(s, G)
