"""Finite-field arithmetic over GF(p^k) at desk scale.

Elements are the ints 0..q-1, whose base-p digits are the coefficients of a
polynomial in the root of the modulus.  Fields are constructed with the
lexicographically smallest monic irreducible modulus, so every run of the
toolkit agrees on element order and on Reed-Solomon evaluation points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

DEFAULT_ORDER_CAP = 4096


class FieldError(ValueError):
    pass


def is_prime(p: int) -> bool:
    return p >= 2 and all(p % f for f in range(2, math.isqrt(p) + 1))


def prime_power(q: int) -> tuple[int, int] | None:
    """Return (p, k) with q = p^k, or None if q is not a prime power."""
    if q < 2:
        return None
    for p in range(2, q + 1):
        if p * p > q:
            break
        if q % p:
            continue
        k, rest = 0, q
        while rest % p == 0:
            rest //= p
            k += 1
        return (p, k) if rest == 1 else None
    return (q, 1)  # q itself prime


# ---------- polynomial helpers over GF(p), little-endian coefficient tuples ----------

def _poly_mul(a: tuple[int, ...], b: tuple[int, ...], p: int) -> tuple[int, ...]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return tuple(out)


def _poly_mod(a: tuple[int, ...], b: tuple[int, ...], p: int) -> tuple[int, ...]:
    """Remainder of a modulo b, untrimmed; b must be monic."""
    r = list(a)
    db = len(b) - 1
    for top in range(len(r) - 1, db - 1, -1):  # cancel r[top] x^top
        lead = r[top]
        for j, bj in enumerate(b):
            r[top - db + j] = (r[top - db + j] - lead * bj) % p
    return tuple(r[:db])


def _is_irreducible(poly: tuple[int, ...], p: int) -> bool:
    """Trial division by every monic polynomial of degree 1..deg/2."""
    deg = len(poly) - 1
    for d in range(1, deg // 2 + 1):
        for idx in range(p**d):
            div = _digits(idx, p, d) + (1,)
            if not any(_poly_mod(poly, div, p)):
                return False
    return True


def _digits(idx: int, p: int, k: int) -> tuple[int, ...]:
    return tuple(idx // p**i % p for i in range(k))


@dataclass(frozen=True)
class Field:
    """GF(p^k) with a fixed monic irreducible modulus of degree k.

    add and mul take elements as Python ints or as numpy int arrays, alike
    and mixed, elementwise; arrays come back in the narrowest unsigned dtype
    that holds q-1.  Two read-only arrays over the smallest primitive element g
    serve both: exp[i] = g^i for i < 2(q-1), followed by 2q-1 zeros, and
    log[g^i] = i with log[0] = 2(q-1), so a*b = exp[log[a] + log[b]] needs no
    branch for zero.  a+b sums base-p digits mod p, which is a ^ b when p = 2.
    """

    p: int
    k: int
    modulus: tuple[int, ...]  # length k+1, little-endian, monic
    exp: object = field(compare=False, repr=False)  # numpy array
    log: object = field(compare=False, repr=False)  # numpy array, dtype holds 4(q-1)

    @property
    def q(self) -> int:
        return self.p**self.k

    def _check(self, a, b) -> bool:
        """Raise FieldError unless a and b are elements; True if either is an array."""
        q = len(self.log)
        for x in (a, b):
            if type(x) is int:
                ok = 0 <= x < q
            else:
                import numpy as np  # imported on first use, as in mcwc.clique

                ok = isinstance(x, np.ndarray) and x.dtype.kind in "ui" and (
                    not x.size or (x.max() < q and (x.dtype.kind == "u" or x.min() >= 0))
                )
            if not ok:
                raise FieldError(f"{x!r} is not an element of GF({self.p}^{self.k})")
        return not type(a) is type(b) is int

    def add(self, a, b):
        array = self._check(a, b)
        p = self.p
        # An array is cast to a dtype that holds every element, and for odd p
        # a digit sum of 2(p-1), which log's dtype does.
        dtype = self.exp.dtype if p == 2 else self.log.dtype
        a, b = (x if type(x) is int else x.astype(dtype, copy=False) for x in (a, b))
        if p == 2:
            out = a ^ b
        else:
            out = sum((a // p**i % p + b // p**i % p) % p * p**i for i in range(self.k))
        return out.astype(self.exp.dtype, copy=False) if array else out

    def mul(self, a, b):
        array = self._check(a, b)
        out = self.exp[self.log[a] + self.log[b]]
        return out if array else int(out)


def _exp_log(p: int, k: int, modulus: tuple[int, ...]):
    """(exp, log) over the smallest primitive element of GF(p^k), as Field keeps them."""
    import numpy as np

    q = p**k

    def mul(a: int, b: int) -> int:
        prod = _poly_mod(_poly_mul(_digits(a, p, k), _digits(b, p, k), p), modulus, p)
        return sum(c * p**i for i, c in enumerate(prod))

    for g in range(1, q):
        powers = [1]
        x = g
        while x != 1:
            powers.append(x)
            x = mul(x, g)
        if len(powers) == q - 1:
            break
    exp = np.array(powers * 2 + [0] * (2 * q - 1), dtype=np.min_scalar_type(q - 1))
    log = np.full(q, 2 * (q - 1), dtype=np.min_scalar_type(4 * (q - 1)))
    log[powers] = np.arange(q - 1)
    exp.flags.writeable = log.flags.writeable = False
    return exp, log


@lru_cache(maxsize=None)
def field_make(p: int, k: int) -> Field:
    """Build GF(p^k) with the lexicographically smallest monic irreducible modulus.

    Candidate moduli x^k + c_{k-1} x^{k-1} + ... + c_0 are scanned in increasing
    order of the integer sum(c_i p^i), so the result is deterministic.
    """
    if not is_prime(p):
        raise FieldError(f"{p} is not prime")
    if k < 1:
        raise FieldError(f"extension degree must be >= 1, got {k}")
    if p**k > DEFAULT_ORDER_CAP:
        raise FieldError(f"field order {p**k} exceeds cap {DEFAULT_ORDER_CAP}")
    for idx in range(p**k):
        poly = _digits(idx, p, k) + (1,)
        if _is_irreducible(poly, p):
            return Field(p, k, poly, *_exp_log(p, k, poly))
    raise AssertionError("no irreducible polynomial found")  # unreachable


def field_for_order(q: int) -> Field:
    """GF(q) for a prime-power q."""
    pk = prime_power(q)
    if pk is None:
        raise FieldError(f"{q} is not a prime power")
    return field_make(pk[0], pk[1])
