"""Buchberger's algorithm with the Gebauer-Moeller pair update and resource
limits.

A new basis element is paired only with the elements whose lead no later
lead divides, and its new pairs are thinned by the product criterion and
Gebauer-Moeller's criteria M and F; the chain criterion is applied when a
pair is popped.

The engine works on term lists [(key, monomial, coeff), ...] sorted
descending by the active order key; prime-field coefficients get a dedicated
arithmetic path (plain ints mod p).  Order keys are affine in the exponent
vector, so multiplying a list by a monomial adds one key difference to each
stored key and no key is recomputed.

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
    computations than it did with those two.  `max_degree` bounds the
    degree of a reduced pair's lcm."""

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
        self.order = order
        self.keyf = ring._grevlex_key if order == GREVLEX else order.key_func(ring)
        self.cache: dict = {}
        F = ring.field
        p = F.char if isinstance(F, GF) else 0
        self.gf_p = p
        # the merge and its last argument, picked once for the field
        self.merge, self.arith = (_merge_sub_gf, p) if p else (_merge_sub_gen, F)

    def key(self, m: int) -> int:
        k = self.cache.get(m)
        if k is None:
            k = self.keyf(m)
            self.cache[m] = k
        return k

    def to_list(self, f: Polynomial) -> list:
        keyf, cache = self.keyf, self.cache
        out = []
        for m, c in f.terms:
            k = cache.get(m)
            if k is None:
                k = keyf(m)
                cache[m] = k
            out.append((k, m, c))
        out.sort(reverse=True)
        return out

    def from_list(self, lst: list) -> Polynomial:
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
        lk = self.key(lcm_m)
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
                heapq.heappush(pending, (mdeg(lcm_m), eng.key(lcm_m), i, h, lcm_m))
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
