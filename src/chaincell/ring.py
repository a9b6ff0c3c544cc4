"""Exact arithmetic in the two supported coefficient rings.

Both rings are local with principal maximal ideal m = (r) and r*r = 0:

* ``zpsq:p``  -- integers mod p**2, with r = p;
* ``dual:p``  -- truncated polynomials F_p[X]/(X^2), with r = X.

Elements are written ``a + b*r`` with a, b in [0, p); the pair (a, b) is
the unique canonical representation in either flavor, and an element is
a unit exactly when a != 0.  The prime p is at most ``MAX_P`` = 251,
the bound under which the int64 kernels are exact.

``RingElement`` arithmetic runs on the packed value a + p*b through the
same ``_kernels`` functions as the matrices, so the two flavours'
rules (they differ only in whether the residue carries into the
r-part) are written once, there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from ._kernels import MAX_P
from .errors import DomainError, UsageError

ZPSQ = "zpsq"
DUAL = "dual"

_FLAVOR_CODES = {DUAL: _kernels.FLAVOR_DUAL, ZPSQ: _kernels.FLAVOR_ZPSQ}


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class RingSpec:
    """One of the supported rings, identified by flavor and prime p."""

    flavor: str
    p: int

    def __post_init__(self):
        if self.flavor not in _FLAVOR_CODES:
            raise UsageError(f"unknown ring flavor {self.flavor!r}")
        if self.p > MAX_P:
            raise UsageError(f"p must be at most {MAX_P} (int64 kernels), got {self.p}")
        if not is_prime(self.p):
            raise UsageError(f"p must be prime, got {self.p}")

    @property
    def flavor_code(self) -> int:
        return _FLAVOR_CODES[self.flavor]

    @property
    def size(self) -> int:
        return self.p * self.p

    def element(self, a: int, b: int = 0) -> "RingElement":
        return RingElement(self, a % self.p, b % self.p)

    def zero(self) -> "RingElement":
        return RingElement(self, 0, 0)

    def one(self) -> "RingElement":
        return RingElement(self, 1, 0)

    def r(self) -> "RingElement":
        """The fixed generator of the maximal ideal."""
        return RingElement(self, 0, 1)

    def from_encoded(self, v: int) -> "RingElement":
        return RingElement(self, v % self.p, (v // self.p) % self.p)

    def elements(self):
        """All p**2 elements, in encoded order."""
        return [self.from_encoded(v) for v in range(self.size)]

    def __str__(self) -> str:
        return f"{self.flavor}:{self.p}"


def parse_ring(text: str) -> RingSpec:
    """Parse a ring specification string such as ``zpsq:2`` or ``dual:3``."""
    parts = text.strip().split(":")
    if len(parts) != 2:
        raise UsageError(f"bad ring spec {text!r}; expected flavor:p")
    flavor, p_text = parts
    try:
        p = int(p_text)
    except ValueError:
        raise UsageError(f"bad ring spec {text!r}; p is not an integer") from None
    return RingSpec(flavor, p)


def check_same_ring(x, y):
    """Refuse to combine two objects (elements, matrices, complexes) over different rings."""
    if x.ring != y.ring:
        raise UsageError(f"ring mismatch: {x.ring} vs {y.ring}")


@dataclass(frozen=True)
class RingElement:
    """The element a + b*r, canonically reduced."""

    ring: RingSpec
    a: int
    b: int

    @property
    def encoded(self) -> int:
        return self.a + self.ring.p * self.b

    def is_unit(self) -> bool:
        return self.a != 0

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def _combine(self, kernel, other: "RingElement") -> "RingElement":
        check_same_ring(self, other)
        ring = self.ring
        return ring.from_encoded(int(kernel(self.encoded, other.encoded, ring.p, ring.flavor_code)))

    def __add__(self, other: "RingElement") -> "RingElement":
        return self._combine(_kernels.enc_add, other)

    def __sub__(self, other: "RingElement") -> "RingElement":
        return self._combine(_kernels.enc_sub, other)

    def __mul__(self, other: "RingElement") -> "RingElement":
        return self._combine(_kernels.enc_mul, other)

    def __neg__(self) -> "RingElement":
        ring = self.ring
        return ring.from_encoded(int(_kernels.enc_neg(self.encoded, ring.p, ring.flavor_code)))

    def inverse(self) -> "RingElement":
        """Multiplicative inverse; defined exactly on units."""
        if not self.is_unit():
            raise DomainError(f"{self} is not a unit")
        ring = self.ring
        inv = _kernels.mat_inverse(np.array([[self.encoded]]), ring.p, ring.flavor_code)
        return ring.from_encoded(int(inv[0, 0]))

    def residue(self) -> int:
        """Image in the residue field k = R/m, as an integer in [0, p)."""
        return self.a

    def __str__(self) -> str:
        return f"{self.a}+{self.b}r"


def lift(ring: RingSpec, v: int) -> RingElement:
    """The coefficient section k -> R sending v to v + 0*r."""
    return ring.element(v, 0)


def times_r(ring: RingSpec, v: int) -> RingElement:
    """k -> m, v -> v*r.  Every non-unit arises this way."""
    return ring.element(0, v)
