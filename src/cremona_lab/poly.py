"""Sparse multivariate polynomials over an exact field.

Monomials are packed into a single int: one byte per exponent (low to high
variable index) plus a 16-bit total-degree field on top.  Multiplication of
monomials is then integer addition, and divisibility is a masked subtraction
(one guard bit per byte).  Exponents are capped at 127, far above the degree
budget any computation here is allowed to reach.

In a ring of n variables the byte of z_i sits at bit 8i and the degree field
at bit 8n (`Ring.deg_shift`), right above the last byte.  So ring changes
that keep the variables in order are shifts of the whole int, degree field
included: m << 8k is m with k variables put in front (the t of k[t, z]), and
m >> 8k drops the first k variables of a monomial free of them.  Dropping the
last variables of a monomial free of them keeps the low bytes and moves the
degree field down.  No exponent is unpacked.

A polynomial stores its terms sorted descending under its ring's canonical
order (grevlex).  Grevlex compares the degree first and the first variables
last, so the term order survives each of those ring changes, multiplication
by a monomial, and division by the power of a variable that every term
holds.  The Groebner engine relies on it: it reads a polynomial's terms in
grevlex order as they are, and re-sorts only under other orders.
"""

from __future__ import annotations

import weakref
from typing import Iterable

from .fields import GF, Field, QQ
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
    """Graded reverse lex.  `_grevlex_key` over every variable in closed
    form: the degree field stays in place, and each exponent byte e becomes
    127 - e, which is the packed exponents subtracted from all 127s."""

    kind = "grevlex"

    def key_func(self, ring):
        shift = ring.deg_shift
        low = (1 << shift) - 1
        top = sum(EXP_MAX << (EXP_BITS * i) for i in range(ring.nvars))
        return lambda m: ((m >> shift) << shift) + top - (m & low)


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
    """Eliminates the first k variables: block (grevlex, grevlex).

    The key is the front block's grevlex key over the back block's, each in
    the closed form of `Grevlex`: a block's exponent bytes e become 127 - e
    under the block's degree.  The back degree is the total degree less the
    front degree d1.  d1 is the byte sum of the front bytes x, taken with no
    loop: the even and the odd bytes of x go to 16-bit lanes and add up, and
    a multiplication by 1 + 2^16 + 2^32 + ... sums the lanes into the top
    one.  Lane sums stay below 127 * 9 < 2^16, so nothing carries and d1 is
    exact for every exponent."""

    kind = "elim"

    def __init__(self, k: int):
        self.k = k

    def _ident(self):
        return (self.k,)

    def key_func(self, ring):
        k, n, s = self.k, ring.nvars, ring.deg_shift
        front = EXP_BITS * k
        back_deg = EXP_BITS * (n - k)
        back_bits = 16 + EXP_BITS * (n - k + 1)
        low = (1 << front) - 1
        back = ((1 << s) - 1) ^ low
        top = sum(EXP_MAX << (EXP_BITS * i) for i in range(k)) << back_bits
        top += sum(EXP_MAX << (EXP_BITS * i) for i in range(n - k))
        lanes = (k + 1) // 2
        even = sum(EXP_MASK << (16 * j) for j in range(lanes))
        ones = sum(1 << (16 * j) for j in range(lanes))
        top_lane = 16 * (lanes - 1)

        def key(m):
            x = m & low
            d1 = ((((x & even) + ((x >> EXP_BITS) & even)) * ones) >> top_lane) & 0xFFFF
            return (((d1 << front) - x) << back_bits) + top + (
                ((m >> s) - d1) << back_deg) - ((m & back) >> front)

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
        self._exponents = (1 << self.deg_shift) - 1
        self._top_bits = sum(0x80 << (EXP_BITS * i) for i in range(nvars))
        self.guard = self._top_bits | (0x8000 << self.deg_shift)
        self.order = GREVLEX
        self._grevlex_key = GREVLEX.key_func(self)

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
        """lcm(a, b), byte by byte: (a_i + 128) - b_i has its top bit set
        exactly when a_i >= b_i.  The degree is the byte sum, which is that
        sum mod 255 while it stays below 255."""
        low, shift = self._exponents, self.deg_shift
        ea, eb = a & low, b & low
        pick_a = ((((ea | self._top_bits) - eb) & self._top_bits) >> 7) * EXP_MASK
        m = (ea & pick_a) | (eb & (low ^ pick_a))
        if (a >> shift) + (b >> shift) < 255:
            return m | ((m % 255) << shift)
        return m | (sum((m >> (EXP_BITS * i)) & EXP_MASK for i in range(self.nvars)) << shift)

    def key(self, m: int) -> int:
        """The grevlex key of the monomial m."""
        return self._grevlex_key(m)

    # -- polynomial constructors

    def poly(self, term_dict: dict) -> "Polynomial":
        """The polynomial with these {monomial: coefficient} terms, zero
        coefficients dropped.  One sort, on m ^ low for the exponent mask
        low: that is (degree << deg_shift) + low - (exponent bytes), the
        grevlex key less a constant."""
        zero, low = self.field.zero, self._exponents
        items = sorted([(m ^ low, m, c) for m, c in term_dict.items() if c != zero], reverse=True)
        return Polynomial(self, tuple([(m, c) for _, m, c in items]))

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


# held weakly: a scan draws a fresh prime per sample, so strong references
# would keep a ring per prime for the whole process
_ring_cache: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def ring(field: Field, nvars: int, names: tuple | None = None) -> Ring:
    """The ring over `field` in `nvars` variables, shared while it is in use.
    Default names are spelled out first, so that equal rings are one object."""
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
        return self._merged(other, self.ring.field.add, None)

    def __sub__(self, other):
        return self._merged(other, self.ring.field.sub, self.ring.field.neg)

    def _merged(self, other, op, alone) -> "Polynomial":
        """self op other in one merge of the two term tuples, both
        grevlex-descending (by m ^ low for the exponent mask low, the key
        `Ring.poly` sorts by), so the result comes out in order.  A term of
        other alone gets alone(d), or stays d when alone is None."""
        self._check(other)
        R = self.ring
        low, zero = R._exponents, R.field.zero
        a, b = self.terms, other.terms
        out = []
        i = j = 0
        while i < len(a) and j < len(b):
            ma, mb = a[i][0], b[j][0]
            if ma == mb:
                c = op(a[i][1], b[j][1])
                if c != zero:
                    out.append((ma, c))
                i += 1
                j += 1
            elif ma ^ low > mb ^ low:
                out.append(a[i])
                i += 1
            else:
                out.append(b[j] if alone is None else (mb, alone(b[j][1])))
                j += 1
        out += a[i:]
        out += b[j:] if alone is None else [(m, alone(c)) for m, c in b[j:]]
        return Polynomial(R, tuple(out))

    def __neg__(self):
        F = self.ring.field
        return Polynomial(self.ring, tuple((m, F.neg(c)) for m, c in self.terms))

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return self.scale(other)
        self._check(other)
        F = self.ring.field
        if len(self.terms) > len(other.terms):
            a, b = other.terms, self.terms
        else:
            a, b = self.terms, other.terms
        return self.ring.poly(_settled(_mul_into({}, a, b, F), F))

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
        """d/dz_i.  Dividing by z_i keeps the grevlex order of the terms
        divisible by it, so the kept terms stay in order; a coefficient
        e * c that is 0 in the field is dropped."""
        F = self.ring.field
        zero = F.zero
        step = (1 << (EXP_BITS * i)) + (1 << self.ring.deg_shift)
        terms = []
        for m, c in self.terms:
            e = (m >> (EXP_BITS * i)) & EXP_MASK
            if e:
                c = F.mul(c, F.of(e))
                if c != zero:
                    terms.append((m - step, c))
        return Polynomial(self.ring, tuple(terms))

    def partials(self) -> list:
        return [self.partial(i) for i in range(self.ring.nvars)]

    def substitute_linear(self, M, check_invertible: bool = True) -> "Polynomial":
        """f(M z): each variable z_i is replaced by sum_j M[i][j] z_j.

        The powers of the linear forms and the products of the powers are
        {monomial: coefficient} dicts, each product of a prefix z_0^e_0 ...
        z_i^e_i of a term built once, and the result is sorted once."""
        from . import linalg

        R = self.ring
        F = R.field
        if check_invertible and linalg.det(F, M) == F.zero:
            raise PolyError("singular substitution matrix")
        n, zero, one = R.nvars, F.zero, {0: F.one}
        unit = [(1 << (EXP_BITS * j)) | (1 << R.deg_shift) for j in range(n)]
        lin = [[(unit[j], c) for j, c in enumerate(map(F.of, M[i])) if c != zero]
               for i in range(n)]
        powers = [[one] for _ in range(n)]
        prefixes = {0: one}  # exponent bytes of z_0^e_0 ... z_i^e_i -> its image
        acc: dict = {}
        for m, c in self.terms:
            t, part = one, 0
            for i in range(n):
                e = (m >> (EXP_BITS * i)) & EXP_MASK
                if not e:
                    continue
                part |= e << (EXP_BITS * i)
                got = prefixes.get(part)
                if got is None:
                    ps = powers[i]
                    while len(ps) <= e:
                        ps.append(_settled(_mul_into({}, ps[-1].items(), lin[i], F), F))
                    got = prefixes[part] = _settled(_mul_into({}, t.items(), ps[e].items(), F), F)
                t = got
            _mul_into(acc, ((0, c),), t.items(), F)
        return R.poly(_settled(acc, F))

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

    def shift_vars(self, ring2: Ring, k: int) -> "Polynomial":
        """This polynomial in ring2, over the same field, with variable i sent
        to variable i + k: for k > 0 ring2 has k more variables in front
        (the t of k[t, z]); for k < 0 it lacks the first -k variables, which
        must not occur here.  Each monomial moves by 8k bits, its degree
        field with it, and the terms keep their order (see the module
        docstring): `map_vars` with the map i -> i + k, in closed form."""
        if ring2.field != self.ring.field or ring2.nvars != self.ring.nvars + k:
            raise PolyError("shift_vars needs the same field and nvars + k variables")
        if k >= 0:
            b = EXP_BITS * k
            return Polynomial(ring2, tuple([(m << b, c) for m, c in self.terms]))
        b = -EXP_BITS * k
        return Polynomial(ring2, tuple([(m >> b, c) for m, c in self.terms]))

    def drop_last_vars(self, ring2: Ring) -> "Polynomial":
        """This polynomial in ring2, over the same field and the first
        ring2.nvars variables of this ring; the others must not occur here.
        Their bytes are zero, so each monomial keeps its low bytes and its
        degree field moves down, and the terms keep their order."""
        if ring2.field != self.ring.field or ring2.nvars > self.ring.nvars:
            raise PolyError("drop_last_vars needs the same field and fewer variables")
        low, s, s2 = ring2._exponents, self.ring.deg_shift, ring2.deg_shift
        return Polynomial(ring2, tuple([((m & low) | ((m >> s) << s2), c) for m, c in self.terms]))


def _mul_into(acc: dict, a, b, F: Field) -> dict:
    """acc + a * b, into acc, for a and b sequences of (monomial, coefficient)
    pairs.  Over GF(p) the coefficients are summed as plain ints and left
    unreduced, for `_settled` to reduce once."""
    get = acc.get
    if isinstance(F, GF):
        for m1, c1 in a:
            for m2, c2 in b:
                m = m1 + m2
                acc[m] = get(m, 0) + c1 * c2
    else:
        mul, add, zero = F.mul, F.add, F.zero
        for m1, c1 in a:
            for m2, c2 in b:
                m = m1 + m2
                acc[m] = add(get(m, zero), mul(c1, c2))
    return acc


def _settled(acc: dict, F: Field) -> dict:
    """The terms of `_mul_into`'s acc, reduced, with no zero coefficient."""
    if isinstance(F, GF):
        p = F.p
        return {m: r for m, c in acc.items() if (r := c % p)}
    zero = F.zero
    return {m: c for m, c in acc.items() if c != zero}


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
