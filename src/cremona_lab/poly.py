"""Sparse multivariate polynomials over an exact field.

Monomials are packed into a single int: one byte per exponent (low to high
variable index) plus a 16-bit total-degree field on top.  Multiplication of
monomials is then integer addition, and divisibility is a masked subtraction
(one guard bit per byte).  Exponents are capped at 127, far above the degree
budget any computation here is allowed to reach.

A polynomial stores its terms sorted descending under its ring's canonical
order (grevlex); Groebner code re-sorts internally when working under other
orders.
"""

from __future__ import annotations

import weakref
from typing import Iterable

from .fields import Field, QQ
from .rng import Rng

EXP_BITS = 8
EXP_MASK = 0xFF
EXP_MAX = 127


class PolyError(ValueError):
    pass


class ParseError(PolyError):
    def __init__(self, msg: str, pos: int):
        super().__init__(f"{msg} (at position {pos})")
        self.pos = pos


# ----------------------------------------------------------------- orders


class MonomialOrder:
    """A global monomial order, exposed as a monotone integer key.

    Every key is affine in the packed exponent vector: for monomials a, b
    whose product stays within EXP_MAX, key(a*b) = key(a) + key(b) - key(1).
    The Groebner engine relies on this to move the stored keys of a basis
    element by one difference when it multiplies the element by a monomial.
    """

    kind = "?"

    def key_func(self, ring: "Ring"):
        raise NotImplementedError

    def __eq__(self, other):
        return type(self) is type(other) and self._ident() == other._ident()

    def __hash__(self):
        return hash((self.kind, self._ident()))

    def _ident(self):
        return ()

    def __repr__(self):
        tail = self._ident()
        return self.kind + (str(tail) if tail else "")


def _grevlex_key(m: int, idxs, shift: int) -> int:
    # (total degree, 127-e_last, ..., 127-e_first) lexicographically
    k = m >> shift if shift else 0
    for i in idxs:
        k = (k << EXP_BITS) | (EXP_MAX - ((m >> (EXP_BITS * i)) & EXP_MASK))
    return k


class Grevlex(MonomialOrder):
    kind = "grevlex"

    def key_func(self, ring):
        idxs = tuple(reversed(range(ring.nvars)))
        shift = ring.deg_shift
        return lambda m: _grevlex_key(m, idxs, shift)


class Lex(MonomialOrder):
    kind = "lex"

    def key_func(self, ring):
        n = ring.nvars

        def key(m):
            k = 0
            for i in range(n):
                k = (k << EXP_BITS) | ((m >> (EXP_BITS * i)) & EXP_MASK)
            return k

        return key


class ElimBlock(MonomialOrder):
    """Eliminates the first k variables: block (grevlex, grevlex)."""

    kind = "elim"

    def __init__(self, k: int):
        self.k = k

    def _ident(self):
        return (self.k,)

    def key_func(self, ring):
        k, n = self.k, ring.nvars
        front = tuple(reversed(range(k)))
        back = tuple(reversed(range(k, n)))
        back_bits = 16 + EXP_BITS * (n - k + 1)

        def key(m):
            d1 = sum((m >> (EXP_BITS * i)) & EXP_MASK for i in range(k))
            k1 = _grevlex_key(m, front, 0) | (d1 << (EXP_BITS * k))
            d2 = (m >> ring.deg_shift) - d1
            k2 = _grevlex_key(m, back, 0) | (d2 << (EXP_BITS * (n - k)))
            return (k1 << back_bits) | k2

        return key


class WeightedGrevlex(MonomialOrder):
    """Weight vector first, graded reverse lex as tie-break."""

    kind = "wgrevlex"

    def __init__(self, weights: tuple):
        self.weights = tuple(int(w) for w in weights)
        if any(w < 0 for w in self.weights):
            raise PolyError("weights must be non-negative")

    def _ident(self):
        return self.weights

    def key_func(self, ring):
        if len(self.weights) != ring.nvars:
            raise PolyError("weight length != nvars")
        w = self.weights
        idxs = tuple(reversed(range(ring.nvars)))
        shift = ring.deg_shift
        bits = 16 + EXP_BITS * (ring.nvars + 1)

        def key(m):
            wd = sum(w[i] * ((m >> (EXP_BITS * i)) & EXP_MASK) for i in range(len(w)))
            return (wd << bits) | _grevlex_key(m, idxs, shift)

        return key


GREVLEX = Grevlex()
LEX = Lex()


# ------------------------------------------------------------------- ring


class Ring:
    """k[z0..z_{n-1}] with a canonical grevlex term order."""

    def __init__(self, field: Field, nvars: int, names: tuple | None = None):
        if nvars < 1 or nvars > 9:
            raise PolyError("supported variable counts: 1..9")
        self.field = field
        self.nvars = nvars
        self.names = tuple(names) if names else tuple(f"z{i}" for i in range(nvars))
        if len(self.names) != nvars:
            raise PolyError("name count mismatch")
        self.deg_shift = EXP_BITS * nvars
        self.guard = sum(0x80 << (EXP_BITS * i) for i in range(nvars)) | (
            0x8000 << self.deg_shift
        )
        self.order = GREVLEX
        self._grevlex_key = GREVLEX.key_func(self)
        self._key_cache: dict = {}

    def __eq__(self, other):
        return (
            isinstance(other, Ring)
            and other.field == self.field
            and other.nvars == self.nvars
            and other.names == self.names
        )

    def __hash__(self):
        return hash((self.field, self.nvars, self.names))

    def __repr__(self):
        return f"{self.field!r}[{','.join(self.names)}]"

    # -- monomial utilities (packed ints)

    def pack(self, exps) -> int:
        m = 0
        d = 0
        for i, e in enumerate(exps):
            if e < 0 or e > EXP_MAX:
                raise PolyError(f"exponent {e} out of range")
            m |= e << (EXP_BITS * i)
            d += e
        return m | (d << self.deg_shift)

    def unpack(self, m: int) -> tuple:
        return tuple((m >> (EXP_BITS * i)) & EXP_MASK for i in range(self.nvars))

    def mdeg(self, m: int) -> int:
        return m >> self.deg_shift

    def mexp(self, m: int, i: int) -> int:
        return (m >> (EXP_BITS * i)) & EXP_MASK

    def mdivides(self, a: int, b: int) -> bool:
        """a | b as monomials."""
        g = self.guard
        return ((b | g) - a) & g == g

    def mlcm(self, a: int, b: int) -> int:
        m = 0
        d = 0
        for i in range(self.nvars):
            e = max((a >> (EXP_BITS * i)) & EXP_MASK, (b >> (EXP_BITS * i)) & EXP_MASK)
            m |= e << (EXP_BITS * i)
            d += e
        return m | (d << self.deg_shift)

    def key(self, m: int) -> int:
        k = self._key_cache.get(m)
        if k is None:
            k = self._grevlex_key(m)
            self._key_cache[m] = k
        return k

    # -- polynomial constructors

    def poly(self, term_dict: dict) -> "Polynomial":
        F = self.field
        items = [(m, c) for m, c in term_dict.items() if c != F.zero]
        items.sort(key=lambda t: self.key(t[0]), reverse=True)
        return Polynomial(self, tuple(items))

    def from_exp_terms(self, terms: Iterable) -> "Polynomial":
        d: dict = {}
        F = self.field
        for exps, c in terms:
            m = self.pack(exps)
            d[m] = F.add(d.get(m, F.zero), F.of(c))
        return self.poly(d)

    def linear_form(self, coeffs) -> "Polynomial":
        """sum_i coeffs[i] * z_i (zero coefficients are dropped)."""
        return self.poly({self.pack(tuple(1 if j == i else 0 for j in range(self.nvars))): c
                          for i, c in enumerate(coeffs)})

    def var(self, i: int) -> "Polynomial":
        return self.poly({self.pack(tuple(1 if j == i else 0 for j in range(self.nvars))): self.field.one})

    def vars(self):
        return [self.var(i) for i in range(self.nvars)]

    def constant(self, c) -> "Polynomial":
        return self.poly({0: self.field.of(c)})

    @property
    def zero(self) -> "Polynomial":
        # built on demand: a stored zero polynomial would refer back to its
        # ring, and the cycle would keep a dead ring in `_ring_cache` until
        # the cyclic collector runs
        return Polynomial(self, ())

    @property
    def one(self) -> "Polynomial":
        return self.constant(1)

    def monomials_of_degree(self, d: int) -> list:
        """All degree-d monomials, descending under grevlex (deterministic)."""
        out = []

        def rec(i, rem, acc):
            if i == self.nvars - 1:
                out.append(acc | (rem << (EXP_BITS * i)) | (d << self.deg_shift))
                return
            for e in range(rem + 1):
                rec(i + 1, rem - e, acc | (e << (EXP_BITS * i)))

        rec(0, d, 0)
        out.sort(key=self.key, reverse=True)
        return out

    def random_poly(self, degree: int, rng: Rng, homogeneous: bool = True) -> "Polynomial":
        mons = self.monomials_of_degree(degree)
        F = self.field
        d = {m: F.rand(rng) for m in mons}
        if not homogeneous:
            for dd in range(degree):
                for m in self.monomials_of_degree(dd):
                    d[m] = F.rand(rng)
        f = self.poly(d)
        return f


# held weakly: a scan draws a fresh prime per sample, and every ring keeps a
# monomial-key cache, so strong references would grow for the whole process
_ring_cache: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def ring(field: Field, nvars: int, names: tuple | None = None) -> Ring:
    """The ring over `field` in `nvars` variables, shared while it is in use.
    Default names are spelled out first, so that equal rings are one object
    and share one monomial-key cache."""
    key = (field, nvars, tuple(names) if names else tuple(f"z{i}" for i in range(nvars)))
    R = _ring_cache.get(key)
    if R is None:
        R = Ring(field, nvars, names)
        _ring_cache[key] = R
    return R


# ------------------------------------------------------------- polynomial


class Polynomial:
    """Immutable sparse polynomial; terms sorted descending under grevlex."""

    __slots__ = ("ring", "terms", "_hash")

    def __init__(self, ring: Ring, terms: tuple):
        self.ring = ring
        self.terms = terms
        self._hash = None

    # -- structure

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    @property
    def degree(self):
        """Common degree of a homogeneous polynomial (None for 0)."""
        if not self.terms:
            return None
        shift = self.ring.deg_shift
        d = self.terms[0][0] >> shift
        for m, _ in self.terms:
            if m >> shift != d:
                raise PolyError("inhomogeneous polynomial has no degree")
        return d

    def total_degree(self):
        if not self.terms:
            return None
        shift = self.ring.deg_shift
        return max(m >> shift for m, _ in self.terms)

    def is_homogeneous(self) -> bool:
        if not self.terms:
            return True
        shift = self.ring.deg_shift
        d = self.terms[0][0] >> shift
        return all(m >> shift == d for m, _ in self.terms)

    def lead(self):
        """(monomial, coeff) under the ring order."""
        if not self.terms:
            raise PolyError("zero polynomial has no lead term")
        return self.terms[0]

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and other.ring == self.ring
            and other.terms == self.terms
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring.nvars, self.terms))
        return self._hash

    def __repr__(self):
        return print_poly(self)

    # -- arithmetic

    def _check(self, other: "Polynomial"):
        if other.ring != self.ring:
            raise PolyError("field/ring mismatch")

    def __add__(self, other):
        self._check(other)
        F = self.ring.field
        d = dict(self.terms)
        for m, c in other.terms:
            s = F.add(d.get(m, F.zero), c)
            if s == F.zero:
                d.pop(m, None)
            else:
                d[m] = s
        return self.ring.poly(d)

    def __sub__(self, other):
        self._check(other)
        F = self.ring.field
        d = dict(self.terms)
        for m, c in other.terms:
            s = F.sub(d.get(m, F.zero), c)
            if s == F.zero:
                d.pop(m, None)
            else:
                d[m] = s
        return self.ring.poly(d)

    def __neg__(self):
        F = self.ring.field
        return Polynomial(self.ring, tuple((m, F.neg(c)) for m, c in self.terms))

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return self.scale(other)
        self._check(other)
        F = self.ring.field
        mul, add, zero = F.mul, F.add, F.zero
        d: dict = {}
        if len(self.terms) > len(other.terms):
            a, b = other.terms, self.terms
        else:
            a, b = self.terms, other.terms
        for m1, c1 in a:
            for m2, c2 in b:
                m = m1 + m2
                p = mul(c1, c2)
                s = add(d.get(m, zero), p)
                if s == zero:
                    d.pop(m, None)
                else:
                    d[m] = s
        return self.ring.poly(d)

    def scale(self, c) -> "Polynomial":
        F = self.ring.field
        c = F.of(c)
        if c == F.zero:
            return self.ring.zero
        return Polynomial(self.ring, tuple((m, F.mul(cc, c)) for m, cc in self.terms))

    def monic(self) -> "Polynomial":
        if not self.terms:
            return self
        lc = self.terms[0][1]
        if lc == self.ring.field.one:
            return self
        return self.scale(self.ring.field.inv(lc))

    def mul_monomial(self, m: int, c=None) -> "Polynomial":
        F = self.ring.field
        if c is None:
            return Polynomial(self.ring, tuple((mm + m, cc) for mm, cc in self.terms))
        return Polynomial(self.ring, tuple((mm + m, F.mul(cc, c)) for mm, cc in self.terms))

    def coeff_of(self, exps) -> object:
        m = self.ring.pack(exps)
        for mm, cc in self.terms:
            if mm == m:
                return cc
        return self.ring.field.zero

    # -- calculus / evaluation / substitution

    def evaluate(self, point, projective: bool = True):
        """Value at a point; a projective point must not be all-zero."""
        F = self.ring.field
        if projective and all(x == F.zero for x in point):
            raise PolyError("evaluation at the zero point")
        acc = F.zero
        n = self.ring.nvars
        for m, c in self.terms:
            v = c
            for i in range(n):
                e = (m >> (EXP_BITS * i)) & EXP_MASK
                for _ in range(e):
                    v = F.mul(v, point[i])
            acc = F.add(acc, v)
        return acc

    def partial(self, i: int) -> "Polynomial":
        F = self.ring.field
        d: dict = {}
        step = 1 << (EXP_BITS * i)
        dstep = 1 << self.ring.deg_shift
        for m, c in self.terms:
            e = (m >> (EXP_BITS * i)) & EXP_MASK
            if e:
                d[m - step - dstep] = F.mul(c, F.of(e))
        return self.ring.poly(d)

    def partials(self) -> list:
        return [self.partial(i) for i in range(self.ring.nvars)]

    def substitute_linear(self, M, check_invertible: bool = True) -> "Polynomial":
        """f(M z): each variable z_i is replaced by sum_j M[i][j] z_j."""
        from . import linalg

        R = self.ring
        F = R.field
        if check_invertible and linalg.det(F, M) == F.zero:
            raise PolyError("singular substitution matrix")
        lin = [R.linear_form([F.of(c) for c in M[i]]) for i in range(R.nvars)]
        maxe = [0] * R.nvars
        for m, _ in self.terms:
            for i in range(R.nvars):
                e = (m >> (EXP_BITS * i)) & EXP_MASK
                if e > maxe[i]:
                    maxe[i] = e
        powers = []
        for i in range(R.nvars):
            ps = [R.one]
            for _ in range(maxe[i]):
                ps.append(ps[-1] * lin[i])
            powers.append(ps)
        acc = R.zero
        for m, c in self.terms:
            t = R.constant(c)
            for i in range(R.nvars):
                e = (m >> (EXP_BITS * i)) & EXP_MASK
                if e:
                    t = t * powers[i][e]
            acc = acc + t
        return acc

    def map_field(self, ring2: Ring) -> "Polynomial":
        """Push coefficients through ring2.field.of (e.g. Q -> GF(p) reduction)."""
        F2 = ring2.field
        if ring2.nvars != self.ring.nvars:
            raise PolyError("variable count mismatch")
        d = {}
        for m, c in self.terms:
            v = F2.of(c)
            if v != F2.zero:
                d[m] = v
        return ring2.poly(d)

    def map_vars(self, ring2: Ring, var_map) -> "Polynomial":
        """Reinterpret into ring2 sending variable i to variable var_map[i]."""
        d = {}
        F2 = ring2.field
        for m, c in self.terms:
            exps = [0] * ring2.nvars
            for i in range(self.ring.nvars):
                e = (m >> (EXP_BITS * i)) & EXP_MASK
                if e:
                    exps[var_map[i]] += e
            d[ring2.pack(exps)] = F2.of(c)
        return ring2.poly(d)


# ------------------------------------------------------------ text format


def print_poly(f: Polynomial) -> str:
    if not f.terms:
        return "0"
    R = f.ring
    F = R.field
    parts = []
    for idx, (m, c) in enumerate(f.terms):
        neg = F == QQ and c < 0
        mag = -c if neg else c
        factors = []
        for i in range(R.nvars):
            e = R.mexp(m, i)
            if e == 1:
                factors.append(R.names[i])
            elif e > 1:
                factors.append(f"{R.names[i]}^{e}")
        if not factors:
            s = F.to_str(mag)
        elif mag == F.one:
            s = "*".join(factors)
        else:
            s = F.to_str(mag) + "*" + "*".join(factors)
        if idx == 0:
            parts.append("-" + s if neg else s)
        else:
            parts.append(("- " if neg else "+ ") + s)
    return " ".join(parts)


def parse_poly(text: str, R: Ring) -> Polynomial:
    """Inverse of print_poly; grammar: terms joined by +/-, each term an
    optional coefficient (integer or a/b) and *-separated variable powers
    name^e.  Whitespace is insignificant."""
    F = R.field
    name_to_idx = {nm: i for i, nm in enumerate(R.names)}
    i, n = 0, len(text)
    terms: dict = {}

    def skip_ws():
        nonlocal i
        while i < n and text[i].isspace():
            i += 1

    def parse_number() -> str:
        nonlocal i
        start = i
        while i < n and text[i].isdigit():
            i += 1
        if i == start:
            raise ParseError("expected digits", start)
        if i < n and text[i] == "/":
            i += 1
            start2 = i
            while i < n and text[i].isdigit():
                i += 1
            if i == start2:
                raise ParseError("expected denominator digits", start2)
        return text[start:i].replace(" ", "")

    def parse_varpow():
        nonlocal i
        start = i
        while i < n and (text[i].isalnum() or text[i] == "_"):
            i += 1
        name = text[start:i]
        # longest alnum run may glue digits of the exponent-less next token;
        # variable names here are exact dictionary entries
        while name and name not in name_to_idx:
            name = name[:-1]
            i = start + len(name)
        if not name:
            raise ParseError("unknown variable", start)
        e = 1
        skip_ws()
        if i < n and text[i] == "^":
            i += 1
            skip_ws()
            estart = i
            while i < n and text[i].isdigit():
                i += 1
            if i == estart:
                raise ParseError("expected exponent", estart)
            e = int(text[estart:i])
        return name_to_idx[name], e

    skip_ws()
    if i >= n:
        raise ParseError("empty input", 0)
    first = True
    while True:
        skip_ws()
        if i >= n:
            if first:
                raise ParseError("expected term", i)
            break
        sign = 1
        if text[i] == "+":
            i += 1
            skip_ws()
        elif text[i] == "-":
            sign = -1
            i += 1
            skip_ws()
        elif not first:
            raise ParseError("expected + or -", i)
        if i >= n:
            raise ParseError("dangling sign", i)
        coeff_txt = None
        if text[i].isdigit():
            coeff_txt = parse_number()
        exps = [0] * R.nvars
        has_var = False
        while True:
            skip_ws()
            if i < n and (text[i].isalpha() or text[i] == "_"):
                vi, e = parse_varpow()
                exps[vi] += e
                has_var = True
                skip_ws()
                if i < n and text[i] == "*":
                    i += 1
                    continue
                break
            if i < n and text[i] == "*":
                i += 1
                continue
            break
        if coeff_txt is None and not has_var:
            raise ParseError("expected coefficient or variable", i)
        c = F.of(1) if coeff_txt is None else F.parse(coeff_txt)
        if sign < 0:
            c = F.neg(c)
        m = R.pack(exps)
        terms[m] = F.add(terms.get(m, F.zero), c)
        first = False
    return R.poly(terms)
