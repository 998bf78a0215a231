"""Finite-field arithmetic over GF(p^k) at desk scale.

Elements are the ints 0..q-1, whose base-p digits are the coefficients of a
polynomial in the root of the modulus.  Fields are constructed with the
lexicographically smallest monic irreducible modulus, so every run of the
toolkit agrees on element order and on Reed-Solomon evaluation points.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

DEFAULT_ORDER_CAP = 4096


class FieldError(ValueError):
    pass


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    f = 2
    while f * f <= p:
        if p % f == 0:
            return False
        f += 1
    return True


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
    out = []
    for _ in range(k):
        out.append(idx % p)
        idx //= p
    return tuple(out)


@dataclass(frozen=True)
class Field:
    """GF(p^k) with a fixed monic irreducible modulus of degree k.

    Arithmetic on the ints 0..q-1 is table lookup over the smallest primitive
    element g (Zech logarithms): exp[i] = g^i for i < 2(q-1), so a sum of two
    logs needs no reduction; log[g^i] = i and log[0] = -1; zech[i] = log[1 + g^i].
    """

    p: int
    k: int
    modulus: tuple[int, ...]  # length k+1, little-endian, monic
    exp: tuple[int, ...] = field(compare=False, repr=False)
    log: tuple[int, ...] = field(compare=False, repr=False)
    zech: tuple[int, ...] = field(compare=False, repr=False)

    @property
    def q(self) -> int:
        return self.p**self.k

    def _check(self, a: int, b: int) -> None:
        q = len(self.log)
        if not (type(a) is type(b) is int and 0 <= a < q and 0 <= b < q):
            bad = b if type(a) is int and 0 <= a < q else a
            raise FieldError(f"{bad!r} is not an element of GF({self.p}^{self.k})")

    def add(self, a: int, b: int) -> int:
        self._check(a, b)
        if a == 0 or b == 0:
            return a + b
        # a + b = g^la (1 + g^(lb-la)); a negative index wraps modulo q-1.
        la = self.log[a]
        z = self.zech[self.log[b] - la]
        return 0 if z < 0 else self.exp[la + z]

    def mul(self, a: int, b: int) -> int:
        self._check(a, b)
        if a == 0 or b == 0:
            return 0
        return self.exp[self.log[a] + self.log[b]]

    def tables(self):
        """(add, mul): q-by-q numpy arrays with add[a, b] = a + b and mul[a, b] = a * b.

        Built from the same log, exp and Zech tables as add and mul, in the
        narrowest unsigned dtype that holds an element.
        """
        import numpy as np  # imported on first use, as in mcwc.clique

        q = len(self.log)
        exp, log, zech = (np.array(t) for t in (self.exp, self.log, self.zech))
        la, lb = log[1:, None], log[None, 1:]
        z = zech[lb - la]  # a negative index wraps modulo q-1, as in add
        dtype = np.min_scalar_type(q - 1)
        add = np.empty((q, q), dtype=dtype)
        add[0, :] = add[:, 0] = np.arange(q)
        add[1:, 1:] = np.where(z < 0, 0, exp[la + z])
        mul = np.zeros((q, q), dtype=dtype)
        mul[1:, 1:] = exp[la + lb]
        return add, mul


def _log_tables(p: int, k: int, modulus: tuple[int, ...]):
    """(exp, log, zech) over the smallest primitive element of GF(p^k)."""
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
    log = [-1] * q
    for i, x in enumerate(powers):
        log[x] = i
    # Adding one changes only the constant coefficient, the lowest base-p digit.
    one_plus = [x - x % p + (x + 1) % p for x in powers]
    zech = tuple(log[y] for y in one_plus)
    return tuple(powers + powers), tuple(log), zech


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
            return Field(p, k, poly, *_log_tables(p, k, poly))
    raise AssertionError("no irreducible polynomial found")  # unreachable


def field_for_order(q: int) -> Field:
    """GF(q) for a prime-power q."""
    pk = prime_power(q)
    if pk is None:
        raise FieldError(f"{q} is not a prime power")
    return field_make(pk[0], pk[1])
