"""Splittable, counter-based deterministic randomness.

Every "generic" choice in the library is drawn from a stream keyed by
(seed, purpose label).  Children are derived by hashing, so re-drawing one
ingredient (e.g. on a bad-prime retry) never shifts the bytes consumed by
another.
"""

from __future__ import annotations

import hashlib


class Rng:
    """Deterministic byte stream from blake2b(key)(counter)."""

    __slots__ = ("_key", "_counter", "_buf", "_pos")

    def __init__(self, seed, label: str = ""):
        if isinstance(seed, Rng):
            key = seed._key
        elif isinstance(seed, bytes):
            key = seed
        else:
            key = str(seed).encode()
        h = hashlib.blake2b(key, digest_size=32, person=b"cremona-lab "[:16])
        h.update(label.encode())
        self._key = h.digest()
        self._counter = 0
        self._buf = b""
        self._pos = 0

    def split(self, label: str) -> "Rng":
        """Independent child stream; same (parent, label) -> same child."""
        return Rng(self._key, label)

    def _refill(self) -> None:
        h = hashlib.blake2b(self._key, digest_size=64)
        h.update(self._counter.to_bytes(8, "little"))
        self._buf = h.digest()
        self._pos = 0
        self._counter += 1

    def bytes(self, n: int) -> bytes:
        out = bytearray()
        while len(out) < n:
            if self._pos >= len(self._buf):
                self._refill()
            take = min(n - len(out), len(self._buf) - self._pos)
            out += self._buf[self._pos : self._pos + take]
            self._pos += take
        return bytes(out)

    def randbits(self, k: int) -> int:
        nbytes = (k + 7) // 8
        return int.from_bytes(self.bytes(nbytes), "little") >> (nbytes * 8 - k)

    def randrange(self, n: int) -> int:
        """Uniform in [0, n) by rejection."""
        if n <= 0:
            raise ValueError("empty range")
        k = n.bit_length()
        while True:
            v = self.randbits(k)
            if v < n:
                return v

    def randint(self, a: int, b: int) -> int:
        return a + self.randrange(b - a + 1)


def random_prime(rng: Rng, lo: int = 10**6, hi: int = 2**31) -> int:
    """Random prime in (lo, hi), by trial sampling + Miller-Rabin."""
    while True:
        n = rng.randint(lo + 1, hi - 1) | 1
        if is_prime(n):
            return n


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for n < 3.3e24."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True
