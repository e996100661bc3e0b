"""Dense univariate arithmetic over a Field: gcd, squarefree part, roots.

Polynomials are coefficient lists [c0, c1, ...] (c_k the coefficient of
x^k), normalized to have a nonzero top coefficient.  Only tiny degrees occur
here (characteristic polynomials of zero-dimensional schemes), so
everything is quadratic and plain.

Each root problem is solved once: `roots_gf` and `irreducible_quadratics`
share the squarefree part, x^p mod f and gcd(f, x^p - x), and split with
the one Cantor-Zassenhaus routine `_equal_degree_factors`.
`roots_and_quadratics` gives both from one powmod: x^(p^2) comes from
composing x^p mod f with itself.  `quadratic_roots` is the one quadratic
formula, over any field, going to GF(p^2) when asked.
Rational roots over Q come from `roots_qq`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as igcd, lcm

from .fields import GF, GF2, Field
from .rng import Rng, is_prime


def trim(f: list, F: Field) -> list:
    while f and f[-1] == F.zero:
        f.pop()
    return f


def deg(f: list) -> int:
    return len(f) - 1


def monic(f: list, F: Field) -> list:
    if not f:
        return f
    inv = F.inv(f[-1])
    return [F.mul(c, inv) for c in f]


def add(f, g, F):
    n = max(len(f), len(g))
    out = []
    for i in range(n):
        a = f[i] if i < len(f) else F.zero
        b = g[i] if i < len(g) else F.zero
        out.append(F.add(a, b))
    return trim(out, F)


def mul(f, g, F):
    if not f or not g:
        return []
    out = [F.zero] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a == F.zero:
            continue
        for j, b in enumerate(g):
            out[i + j] = F.add(out[i + j], F.mul(a, b))
    return trim(out, F)


def divmod_(f, g, F):
    if not g:
        raise ZeroDivisionError
    f = f[:]
    q = [F.zero] * max(0, len(f) - len(g) + 1)
    ginv = F.inv(g[-1])
    while len(f) >= len(g) and f:
        c = F.mul(f[-1], ginv)
        k = len(f) - len(g)
        q[k] = c
        for i in range(len(g)):
            f[k + i] = F.sub(f[k + i], F.mul(c, g[i]))
        trim(f, F)
    return trim(q, F), f


def gcd(f, g, F):
    f, g = f[:], g[:]
    while g:
        f, g = g, divmod_(f, g, F)[1]
    return monic(f, F)


def derivative(f, F):
    return trim([F.mul(c, F.of(i)) for i, c in enumerate(f)][1:], F)


def squarefree_part(f, F):
    if deg(f) <= 0:
        return monic(f, F)
    d = derivative(f, F)
    if not d:
        raise ValueError("inseparable polynomial (characteristic divides exponents)")
    g = gcd(f, d, F)
    q, r = divmod_(f, g, F)
    assert not r
    return monic(q, F)


def powmod(base, e: int, f, F):
    """base^e mod f."""
    result = [F.one]
    base = divmod_(base, f, F)[1]
    while e:
        if e & 1:
            result = divmod_(mul(result, base, F), f, F)[1]
        base = divmod_(mul(base, base, F), f, F)[1]
        e >>= 1
    return result


def _squarefree_frobenius(f, F: GF) -> tuple:
    """(the monic squarefree part g of f, x^p mod g, the product of g's
    linear factors gcd(g, x^p - x)): the one powmod of a root problem."""
    f = monic(squarefree_part(f, F), F)
    xp = powmod([F.zero, F.one], F.p, f, F)
    return f, xp, _gcd_with_x(xp, f, F)


def _gcd_with_x(xq, f, F: GF) -> list:
    """gcd(f, x^q - x) from x^q mod f."""
    return gcd(add(xq, [F.zero, F.neg(F.one)], F), f, F)


def _compose_mod(a, b, f, F) -> list:
    """a(b) mod f, by Horner: deg a products mod f."""
    out: list = []
    for c in reversed(a):
        out = add(divmod_(mul(out, b, F), f, F)[1], [c], F)
    return out


def _linear_roots(lin, F: GF, rng: Rng) -> list:
    return sorted(F.neg(g[0]) for g in _equal_degree_factors(lin, 1, F, rng))


def _quadratic_factors(f, xp, lin, F: GF, rng: Rng) -> list:
    """The irreducible quadratic factors of the squarefree f with x^p mod f
    `xp` and linear part `lin`: on f' = f / lin, x^(p^2) = (x^p)^p is
    x^p mod f' composed with itself (the coefficients lie in GF(p))."""
    f = divmod_(f, lin, F)[0]
    if deg(f) <= 0:
        return []
    xp = divmod_(xp, f, F)[1]
    return _equal_degree_factors(_gcd_with_x(_compose_mod(xp, xp, f, F), f, F), 2, F, rng)


def roots_gf(f, F: GF, rng: Rng) -> list:
    """All roots in GF(p) of a nonzero polynomial (with multiplicity dropped)."""
    assert isinstance(F, GF)
    return _linear_roots(_squarefree_frobenius(f, F)[2], F, rng)


def irreducible_quadratics(f, F: GF, rng: Rng) -> list:
    """The distinct irreducible quadratic factors of f over GF(p), monic."""
    return _quadratic_factors(*_squarefree_frobenius(f, F), F, rng)


def roots_and_quadratics(f, F: GF, rng: Rng) -> tuple:
    """(`roots_gf`, `irreducible_quadratics`) of f from one x^p mod f, the
    splitting draws taken from rng's streams "roots" and "quads"."""
    f, xp, lin = _squarefree_frobenius(f, F)
    return (_linear_roots(lin, F, rng.split("roots")),
            _quadratic_factors(f, xp, lin, F, rng.split("quads")))


def _equal_degree_factors(f, k: int, F: GF, rng: Rng) -> list:
    """The monic factors of f, a product of distinct irreducible factors of
    degree k over GF(p) (Cantor-Zassenhaus): for a random monic a of degree
    k, gcd(f, a^((p^k - 1)/2) - 1) holds each factor independently with
    probability about 1/2."""
    d = deg(f)
    if d <= 0:
        return []
    if d == k:
        return [monic(f, F)]
    e = (F.p ** k - 1) // 2
    while True:
        a = [F.rand(rng) for _ in range(k)] + [F.one]
        g = add(powmod(a, e, f, F), [F.neg(F.one)], F)
        h = gcd(g, f, F)
        if 0 < deg(h) < d:
            return (_equal_degree_factors(h, k, F, rng)
                    + _equal_degree_factors(divmod_(f, h, F)[0], k, F, rng))


def quadratic_roots(f, F: Field, F2: GF2 | None = None):
    """(K, [r1, r2]): the roots (-b ± s) / 2a of f = [c, b, a], a != 0, with
    s a square root of b^2 - 4ac.  K is F when the discriminant is a square
    in F; otherwise K is the quadratic extension F2 of F = GF(p), or the
    result is None when F2 is not given."""
    c, b, a = f
    disc = F.sub(F.mul(b, b), F.mul(F.of(4), F.mul(a, c)))
    K, s = F, F.sqrt(disc)
    if s is None:
        if F2 is None:
            return None
        K, s = F2, F2.sqrt(F2.lift(disc))
        a, b = F2.lift(a), F2.lift(b)
    inv2a = K.inv(K.mul(K.of(2), a))
    return K, [K.mul(K.add(K.neg(b), s), inv2a), K.mul(K.sub(K.neg(b), s), inv2a)]


def roots_qq(f, F) -> list:
    """The distinct rational roots of f over Q, sorted.  With denominators
    cleared and the content and the factor x^k taken out (0 is a root when
    k > 0), f is an integer polynomial a_n x^n + ... + a_0 with a_0 != 0,
    whose roots u/v in lowest terms have |u| <= |a_0| and 0 < v <= |a_n|.
    Each is the rational reconstruction of one of f's roots modulo the first
    prime q > 2 |a_0| |a_n| (`roots_gf`, stream "roots-qq"); the
    reconstructions that are exact roots are kept.  The cost grows with the
    digits of the coefficients.  Above 3.3e24 `is_prime` is a strong
    probable-prime test on twelve bases."""
    f = trim(f[:], F)
    if deg(f) <= 0:
        return []
    den = lcm(*(c.denominator for c in f))
    zf = [int(c * den) for c in f]
    k = next(i for i, c in enumerate(zf) if c)
    content = igcd(*zf)
    zf = [c // content for c in zf[k:]]
    roots = [Fraction(0)] if k else []
    if len(zf) > 1:
        a0, an = abs(zf[0]), abs(zf[-1])
        q = max(2 * a0 * an, len(zf)) + 1
        while not is_prime(q):
            q += 1
        for r in roots_gf([c % q for c in zf], GF(q), Rng(0, "roots-qq")):
            cand = _rational_reconstruction(r, q, a0)
            if sum(c * cand ** i for i, c in enumerate(zf)) == 0:
                roots.append(cand)
    return sorted(roots)


def _rational_reconstruction(a: int, q: int, bound: int) -> Fraction:
    """u/v = a mod q with |u| <= bound, from the extended Euclidean algorithm
    on (q, a) stopped at the first remainder <= bound (Wang): the only such
    fraction with 0 < v <= (q - 1) / (2 bound) when one exists."""
    r0, r1, t0, t1 = q, a, 0, 1
    while r1 > bound:
        k = r0 // r1
        r0, r1 = r1, r0 - k * r1
        t0, t1 = t1, t0 - k * t1
    return Fraction(r1, t1)

