"""Exact coefficient fields: Q, GF(p) and its quadratic extension.

Field elements are plain Python values (Fraction for Q, int for GF(p),
pair-of-ints for GF(p^2)); the Field object carries the arithmetic.  Mixing
elements from different fields is a constructive error caught where values
enter a ring, not per operation.

GF(p^2) is a field of its own (`GF2`), not a kind of GF(p): it holds its
prime field as `base` and that field's smallest non-residue r, so a test
`isinstance(F, GF)` means "a prime field" everywhere.
"""

from __future__ import annotations

from fractions import Fraction

from .rng import Rng, is_prime


class FieldError(ValueError):
    pass


def _fraction(text: str) -> Fraction:
    """Fraction(text); a zero denominator is a FieldError."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise FieldError(f"zero denominator in {text!r}") from None


class Field:
    """Common interface; see QQ / GF / GF2 below."""

    char = 0

    def parse(self, text: str):
        raise NotImplementedError

    def to_str(self, a) -> str:
        raise NotImplementedError


class _RationalField(Field):
    """Q with Fraction values (always reduced, positive denominator)."""

    char = 0
    name = "q"

    zero = Fraction(0)
    one = Fraction(1)

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, _RationalField)

    def __hash__(self):
        return hash("QQ")

    @staticmethod
    def of(x):
        return Fraction(x)

    @staticmethod
    def add(a, b):
        return a + b

    @staticmethod
    def sub(a, b):
        return a - b

    @staticmethod
    def mul(a, b):
        return a * b

    @staticmethod
    def neg(a):
        return -a

    @staticmethod
    def inv(a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return 1 / Fraction(a)

    def div(self, a, b):
        return a / b

    def rand(self, rng: Rng):
        # small numerators keep golden examples readable
        return Fraction(rng.randint(-20, 20), rng.randint(1, 12))

    def rand_nonzero(self, rng: Rng):
        while True:
            a = self.rand(rng)
            if a != 0:
                return a

    def parse(self, text: str):
        return _fraction(text)

    def to_str(self, a) -> str:
        return str(a)

    def sqrt(self, a):
        """Exact square root in Q, or None."""
        if a < 0:
            return None
        num, den = a.numerator, a.denominator
        rn = _isqrt_exact(num)
        rd = _isqrt_exact(den)
        if rn is None or rd is None:
            return None
        return Fraction(rn, rd)


def _isqrt_exact(n: int):
    import math

    r = math.isqrt(n)
    return r if r * r == n else None


QQ = _RationalField()


class GF(Field):
    """Prime field GF(p); values are ints in [0, p)."""

    name = "gf"

    def __init__(self, p: int):
        if not is_prime(p):
            raise FieldError(f"{p} is not prime")
        self.p = p
        self.char = p
        self.zero = 0
        self.one = 1 % p

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, GF) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def of(self, x):
        if isinstance(x, Fraction):
            den = x.denominator % self.p
            if den == 0:
                raise FieldError(f"denominator divisible by {self.p}")
            return x.numerator * pow(den, self.p - 2, self.p) % self.p
        return int(x) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, self.p - 2, self.p)

    def div(self, a, b):
        return a * self.inv(b) % self.p

    def rand(self, rng: Rng):
        return rng.randrange(self.p)

    def rand_nonzero(self, rng: Rng):
        return 1 + rng.randrange(self.p - 1)

    def parse(self, text: str):
        return self.of(_fraction(text))

    def to_str(self, a) -> str:
        return str(a)

    def is_square(self, a) -> bool:
        return a == 0 or pow(a, (self.p - 1) // 2, self.p) == 1

    def sqrt(self, a):
        """Tonelli-Shanks; None for non-residues."""
        p = self.p
        if a == 0:
            return 0
        if pow(a, (p - 1) // 2, p) != 1:
            return None
        if p % 4 == 3:
            return pow(a, (p + 1) // 4, p)
        # general case
        q, s = p - 1, 0
        while q % 2 == 0:
            q //= 2
            s += 1
        z = 2
        while pow(z, (p - 1) // 2, p) == 1:
            z += 1
        m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
        while t != 1:
            i, t2 = 0, t
            while t2 != 1:
                t2 = t2 * t2 % p
                i += 1
            b = pow(c, 1 << (m - i - 1), p)
            m, c = i, b * b % p
            t = t * c % p
            r = r * b % p
        return r

    def non_residue(self) -> int:
        """Smallest quadratic non-residue (deterministic)."""
        a = 2
        while self.is_square(a):
            a += 1
        return a


class GF2(Field):
    """GF(p^2) = base[w]/(w^2 - r), base = GF(p) and r its smallest
    non-residue.

    Values are pairs (a, b) meaning a + b*w.  Used for point extraction and
    quadratic-form factorization when GF(p) is not enough.
    """

    name = "gf2"
    zero = (0, 0)
    one = (1, 0)

    def __init__(self, p: int):
        self.base = GF(p)
        self.r = self.base.non_residue()
        self.p = self.char = p

    def __repr__(self):
        return f"GF({self.p}^2)"

    def __eq__(self, other):
        return isinstance(other, GF2) and other.p == self.p

    def __hash__(self):
        return hash(("GF2", self.p))

    def of(self, x):
        if isinstance(x, tuple):
            return (x[0] % self.p, x[1] % self.p)
        return (self.base.of(x), 0)

    def lift(self, a):
        """Embed a GF(p) value."""
        return (a % self.p, 0)

    def in_base(self, a):
        return a[1] == 0

    def add(self, a, b):
        p = self.p
        return ((a[0] + b[0]) % p, (a[1] + b[1]) % p)

    def sub(self, a, b):
        p = self.p
        return ((a[0] - b[0]) % p, (a[1] - b[1]) % p)

    def mul(self, a, b):
        p = self.p
        return ((a[0] * b[0] + a[1] * b[1] % p * self.r) % p, (a[0] * b[1] + a[1] * b[0]) % p)

    def neg(self, a):
        p = self.p
        return (-a[0] % p, -a[1] % p)

    def inv(self, a):
        p = self.p
        n = (a[0] * a[0] - self.r * a[1] * a[1]) % p  # norm
        if n == 0:
            raise ZeroDivisionError("inverse of 0")
        ni = pow(n, p - 2, p)
        return (a[0] * ni % p, -a[1] * ni % p)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def rand(self, rng: Rng):
        return (rng.randrange(self.p), rng.randrange(self.p))

    def rand_nonzero(self, rng: Rng):
        while True:
            a = self.rand(rng)
            if a != (0, 0):
                return a

    def parse(self, text: str):
        raise FieldError("GF(p^2) values have no text form")

    def to_str(self, a) -> str:
        return f"{a[0]}+{a[1]}w"

    def sqrt(self, a):
        """Square root in GF(p^2), or None for non-squares.  Every lift of
        a GF(p) element is a square here."""
        p = self.p
        if a == (0, 0):
            return (0, 0)
        if a[1] == 0:
            s = self.base.sqrt(a[0])
            if s is not None:
                return (s, 0)
            # sqrt of a non-residue u: u = r*(u/r) with u/r a residue
            s = self.base.sqrt(a[0] * pow(self.r, p - 2, p) % p)
            return (0, s)
        # solve (x + y w)^2 = a0 + a1 w: x^2 + r y^2 = a0, 2xy = a1;
        # the norm a0^2 - r a1^2 must be a square in GF(p)
        n = self.base.sqrt((a[0] * a[0] - self.r * a[1] * a[1]) % p)
        if n is None:
            return None
        inv2 = pow(2, p - 2, p)
        for sign in (1, -1):
            x2 = (a[0] + sign * n) * inv2 % p
            x = self.base.sqrt(x2)
            if x is not None and x != 0:
                y = a[1] * inv2 % p * pow(x, p - 2, p) % p
                return (x, y)
        return None


def field_from_descriptor(desc: str) -> Field:
    """Parse "q" or "gf:<p>"."""
    if desc == "q":
        return QQ
    if isinstance(desc, str) and desc.startswith("gf:"):
        return GF(int(desc[3:]))
    raise FieldError(f"unknown field descriptor {desc!r}")


def field_descriptor(field: Field) -> str:
    if field == QQ:
        return "q"
    if isinstance(field, GF):
        return f"gf:{field.p}"
    raise FieldError(f"unknown field {field!r}")
