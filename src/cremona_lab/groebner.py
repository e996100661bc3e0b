"""Buchberger's algorithm with the Gebauer-Moeller pair update and resource
budgets.

A new basis element is paired only with the elements whose lead no later
lead divides, and its new pairs are thinned by the product criterion and
Gebauer-Moeller's criteria M and F; the chain criterion is applied when a
pair is popped.

The engine works on term lists [(key, monomial, coeff), ...] sorted
descending by the active order key; prime-field coefficients get a dedicated
arithmetic path (plain ints mod p).  Budgets turn runaway computations into
explicit errors: classification code must be able to tell "expensive" from
"wrong".
"""

from __future__ import annotations

import heapq
import os

from .fields import GF, GF2
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
        env_pairs = os.environ.get("CREMONA_LAB_MAX_PAIRS")
        env_deg = os.environ.get("CREMONA_LAB_MAX_DEGREE")
        self.max_pairs = max_pairs if max_pairs is not None else int(env_pairs or 200_000)
        self.max_degree = max_degree if max_degree is not None else int(env_deg or 30)


DEFAULT_BUDGET = Budget()


def _merge_sub_gf(work, g, shift, factor, p, keyf, cache):
    """work - factor * x^shift * g over GF(p); leads cancel by construction."""
    out = []
    i, j = 1, 1
    lw, lg = len(work), len(g)
    while i < lw and j < lg:
        wk, wm, wc = work[i]
        gm = g[j][1] + shift
        gk = cache.get(gm)
        if gk is None:
            gk = keyf(gm)
            cache[gm] = gk
        if wk > gk:
            out.append(work[i])
            i += 1
        elif wk < gk:
            out.append((gk, gm, -factor * g[j][2] % p))
            j += 1
        else:
            c = (wc - factor * g[j][2]) % p
            if c:
                out.append((wk, wm, c))
            i += 1
            j += 1
    if i < lw:
        out.extend(work[i:])
    while j < lg:
        gm = g[j][1] + shift
        gk = cache.get(gm)
        if gk is None:
            gk = keyf(gm)
            cache[gm] = gk
        out.append((gk, gm, -factor * g[j][2] % p))
        j += 1
    return out


def _merge_sub_gen(work, g, shift, factor, F, keyf, cache):
    out = []
    i, j = 1, 1
    lw, lg = len(work), len(g)
    neg, mul, sub, zero = F.neg, F.mul, F.sub, F.zero
    while i < lw and j < lg:
        wk, wm, wc = work[i]
        gm = g[j][1] + shift
        gk = cache.get(gm)
        if gk is None:
            gk = keyf(gm)
            cache[gm] = gk
        if wk > gk:
            out.append(work[i])
            i += 1
        elif wk < gk:
            out.append((gk, gm, neg(mul(factor, g[j][2]))))
            j += 1
        else:
            c = sub(wc, mul(factor, g[j][2]))
            if c != zero:
                out.append((wk, wm, c))
            i += 1
            j += 1
    if i < lw:
        out.extend(work[i:])
    while j < lg:
        gm = g[j][1] + shift
        gk = cache.get(gm)
        if gk is None:
            gk = keyf(gm)
            cache[gm] = gk
        out.append((gk, gm, neg(mul(factor, g[j][2]))))
        j += 1
    return out


class _Engine:
    """One Groebner computation (fixed ring, order, budget)."""

    def __init__(self, ring: Ring, order: MonomialOrder, budget: Budget):
        self.ring = ring
        self.order = order
        self.budget = budget
        self.keyf = ring._grevlex_key if order == GREVLEX else order.key_func(ring)
        self.cache: dict = {}
        F = ring.field
        self.gf_p = F.char if (isinstance(F, GF) and not isinstance(F, GF2)) else 0

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
        """Full normal form of the term list `work` against monic lists G."""
        ring = self.ring
        mdiv = ring.mdivides
        out = []
        p = self.gf_p
        F = ring.field
        keyf, cache = self.keyf, self.cache
        while work:
            m, c = work[0][1], work[0][2]
            hit = None
            for g in G:
                if mdiv(g[0][1], m):
                    hit = g
                    break
            if hit is None:
                out.append(work[0])
                work = work[1:]
                continue
            shift = m - hit[0][1]
            if p:
                work = _merge_sub_gf(work, hit, shift, c % p, p, keyf, cache)
            else:
                work = _merge_sub_gen(work, hit, shift, c, F, keyf, cache)
        return out

    def spoly(self, f: list, g: list, lcm_m: int) -> list:
        """S-polynomial of two monic term lists."""
        keyf, cache = self.keyf, self.cache
        sf = lcm_m - f[0][1]
        out = []
        for _, m, c in f:
            mm = m + sf
            kk = cache.get(mm)
            if kk is None:
                kk = keyf(mm)
                cache[mm] = kk
            out.append((kk, mm, c))
        F = self.ring.field
        if self.gf_p:
            return _merge_sub_gf(out, g, lcm_m - g[0][1], 1, self.gf_p, keyf, cache)
        return _merge_sub_gen(out, g, lcm_m - g[0][1], F.one, F, keyf, cache)

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


def groebner_basis(
    gens: list,
    order: MonomialOrder = GREVLEX,
    budget: Budget | None = None,
    strategy: str = "normal",
) -> list:
    """Reduced Groebner basis, deterministic, leads descending.

    strategy "normal" selects pairs by smallest lcm, "sugar" by smallest
    sugar degree; both must return the identical reduced basis.
    """
    gens = [g for g in gens if g]
    if not gens:
        return []
    ring = gens[0].ring
    for g in gens:
        if g.ring != ring:
            raise ValueError("mixed rings in generator list")
    budget = budget or DEFAULT_BUDGET
    eng = _Engine(ring, order, budget)
    mdeg = ring.mdeg
    mlcm = ring.mlcm
    mdiv = ring.mdivides

    G: list = []
    lead: list = []  # packed lead monomials, parallel to G
    sugars: list = []
    active: list = []  # indices into G whose lead no later lead divides
    pending: list = []  # heap of (sel, lcm_key, i, j, lcm)
    npairs = 0

    def push_pair(i: int, j: int, lcm_m: int):
        li, lj = lead[i], lead[j]
        lk = eng.cache.get(lcm_m)
        if lk is None:
            lk = eng.keyf(lcm_m)
            eng.cache[lcm_m] = lk
        if strategy == "sugar":
            sel = (max(sugars[i] + mdeg(lcm_m) - mdeg(li), sugars[j] + mdeg(lcm_m) - mdeg(lj)), lk)
        else:
            sel = (mdeg(lcm_m), lk)
        heapq.heappush(pending, (sel, lk, i, j, lcm_m))

    def add_element(lst: list, sugar: int):
        # Gebauer-Moeller update: pair the new element h only with the active
        # elements; a new pair goes (criteria M and F) when the lcm of a later
        # new pair or of a kept one divides its lcm, unless its leads are
        # coprime; kept coprime pairs reduce to zero and are not pushed
        h = len(G)
        lh = lst[0][1]
        G.append(lst)
        lead.append(lh)
        sugars.append(sugar)
        new = [(i, mlcm(lead[i], lh)) for i in active]
        kept: list = []
        for n, (i, lcm_m) in enumerate(new):
            if lcm_m == lead[i] + lh or not (
                any(mdiv(l, lcm_m) for _, l in new[n + 1:]) or any(mdiv(l, lcm_m) for _, l in kept)
            ):
                kept.append((i, lcm_m))
        for i, lcm_m in kept:
            if lcm_m != lead[i] + lh:
                push_pair(i, h, lcm_m)
        active[:] = [i for i in active if not mdiv(lh, lead[i])]
        active.append(h)

    for lst in sorted((eng.to_list(g.monic()) for g in gens), key=lambda l: l[0][0]):
        add_element(lst, max(mdeg(t[1]) for t in lst))

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
            add_element(eng.make_monic(s), max(mdeg(t[1]) for t in s))

    # drop redundant leads, then tail-reduce to the unique reduced basis
    order_idx = sorted(range(len(G)), key=lambda t: G[t][0][0])
    keep: list = []
    for t in order_idx:
        lm = lead[t]
        if any(mdiv(lead[u], lm) for u in keep):
            continue
        keep = [u for u in keep if not mdiv(lm, lead[u])]
        keep.append(t)
    minimal = [G[t] for t in sorted(keep, key=lambda t: G[t][0][0], reverse=True)]

    changed = True
    while changed:
        changed = False
        for idx in range(len(minimal)):
            others = minimal[:idx] + minimal[idx + 1 :]
            red = eng.make_monic(eng.reduce_full(list(minimal[idx]), others))
            if red != minimal[idx]:
                minimal[idx] = red
                changed = True
    minimal.sort(key=lambda l: l[0][0], reverse=True)
    return [eng.from_list(lst) for lst in minimal]


class Reducer:
    """Normal forms modulo one fixed Groebner basis.  The engine and the
    basis' monic term lists are built once, so a caller reducing many
    polynomials against the same basis pays the conversion once; each
    result equals `normal_form(f, basis, order)`."""

    def __init__(self, basis: list, order: MonomialOrder = GREVLEX,
                 budget: Budget | None = None):
        basis = list(basis)
        self._eng = None
        if not basis:
            return
        ring = basis[0].ring
        if any(g.ring != ring for g in basis):
            raise ValueError("order/ring mismatch")
        self._eng = eng = _Engine(ring, order, budget or DEFAULT_BUDGET)
        self._G = sorted((eng.to_list(g.monic()) for g in basis if g), key=lambda l: l[0][0])

    def __call__(self, f: Polynomial) -> Polynomial:
        eng = self._eng
        if eng is None or not f:
            return f
        if f.ring != eng.ring:
            raise ValueError("order/ring mismatch")
        return eng.from_list(eng.reduce_full(eng.to_list(f), self._G))


def normal_form(
    f: Polynomial,
    basis: list,
    order: MonomialOrder = GREVLEX,
    budget: Budget | None = None,
) -> Polynomial:
    """Remainder of f modulo a Groebner basis (no term divisible by a lead).

    The remainder map is linear in f; `basis` must be a Groebner basis for
    `order` for the result to be canonical.
    """
    if not basis or not f:
        return f
    return Reducer(basis, order, budget)(f)


def exact_divide(f: Polynomial, g: Polynomial) -> Polynomial | None:
    """f / g when g divides f exactly, else None."""
    if not g:
        raise ZeroDivisionError("division by zero polynomial")
    if not f:
        return f
    ring = f.ring
    F = ring.field
    eng = _Engine(ring, GREVLEX, DEFAULT_BUDGET)
    gl = eng.to_list(g)
    work = eng.to_list(f)
    quot: dict = {}
    glm, glc = gl[0][1], gl[0][2]
    while work:
        m, c = work[0][1], work[0][2]
        if not ring.mdivides(glm, m):
            return None
        shift = m - glm
        factor = F.div(c, glc)
        quot[shift] = factor
        if eng.gf_p:
            work = _merge_sub_gf(work, gl, shift, factor, eng.gf_p, eng.keyf, eng.cache)
        else:
            work = _merge_sub_gen(work, gl, shift, factor, F, eng.keyf, eng.cache)
    return ring.poly(quot)


def spoly_reduces_to_zero(basis: list, i: int, j: int, order=GREVLEX) -> bool:
    """Check one S-pair of a claimed Groebner basis."""
    ring = basis[0].ring
    eng = _Engine(ring, order, DEFAULT_BUDGET)
    G = [eng.to_list(g.monic()) for g in basis]
    lcm_m = ring.mlcm(G[i][0][1], G[j][0][1])
    s = eng.spoly(G[i], G[j], lcm_m)
    return not eng.reduce_full(s, G)
