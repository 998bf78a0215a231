"""Asymptotic rate curves for constant-row-weight matrix codes at relative weight 1/2.

Rates are bits per symbol (base-2 logarithms throughout).  The best possible
rate exponent of constant-row-weight matrix codes equals that of plain
constant-weight codes of the same length and total weight: the matrix shape
costs nothing asymptotically (the finite-length version of that statement is
the size-transfer inequality in the bounds module).  No closed form for the
common exponent is known, so this module evaluates the standard bounds on it:
concatenation with algebraic-geometry outer codes, the pseudo-product
construction and the Gilbert-Varshamov argument from below, and the MRRW
linear-programming bound from above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .bounds import default_references


class DomainError(ValueError):
    pass


def entropy(x: float) -> float:
    """Binary entropy H(x) in bits, with H(0) = H(1) = 0."""
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"entropy argument {x} outside [0, 1]")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def mrrw_upper(delta: float, omega: float) -> float:
    """MRRW upper bound on the rate of constant-weight codes.

    g(u^2) with g(x) = H((1 - sqrt(1-x))/2) and
    u = -delta + sqrt(delta^2 - 2*delta + 4*omega*(1-omega)).
    For omega = 1/2 this collapses to H(1/2 - sqrt(delta*(1-delta))).
    """
    if not (0.0 < delta < 1.0 and 0.0 < omega < 1.0):
        raise DomainError(f"(delta, omega) = ({delta}, {omega}) outside (0,1)^2")
    radicand = delta * delta - 2.0 * delta + 4.0 * omega * (1.0 - omega)
    if radicand < 0.0:
        raise DomainError(f"negative radicand at (delta, omega) = ({delta}, {omega})")
    u = -delta + math.sqrt(radicand)
    x = u * u
    if x > 1.0:
        raise DomainError(f"bound argument {x} > 1 at (delta, omega) = ({delta}, {omega})")
    return entropy((1.0 - math.sqrt(1.0 - x)) / 2.0)


def mrrw_upper_half(delta: float) -> float:
    """The omega = 1/2 special form H(1/2 - sqrt(delta*(1-delta)))."""
    if not 0.0 < delta < 1.0:
        raise DomainError(f"delta {delta} outside (0, 1)")
    return entropy(0.5 - math.sqrt(delta * (1.0 - delta)))


@dataclass(frozen=True)
class InnerCode:
    """A half-weight constant-weight inner code assumed to exist at the quoted size."""

    n: int
    d: int
    w: int
    q: int
    label: str

    def validate(self) -> None:
        if self.w * 2 != self.n:
            raise DomainError(f"{self.label}: weight must be n/2")
        ref = default_references().cwc(self.n, self.d, self.w)
        if ref is None or ref.lower is None or self.q > ref.lower:
            raise DomainError(
                f"{self.label}: size {self.q} not supported by ingested A({self.n},{self.d},{self.w})"
            )

    @property
    def cutoff(self) -> float:
        """Largest relative distance the concatenation can reach."""
        return (self.d / self.n) * (1.0 - 1.0 / (math.sqrt(self.q) - 1.0))


INNER_CODES = (
    InnerCode(12, 4, 6, 11**2, "cwc-12-4-6"),
    InnerCode(28, 14, 14, 7**2, "cwc-28-14-14"),
    InnerCode(28, 4, 14, 1237**2, "cwc-28-4-14"),
)


def concat_rate(inner: InnerCode, delta: float) -> float:
    """Concatenation lower bound (log2(q)/d) * (cutoff - delta), clamped at 0.

    The outer codes are algebraic-geometry codes over GF(q) (q a square of a
    prime power) at the Tsfasman-Vladut-Zink rate; only the rate enters here.
    """
    if delta < 0.0:
        raise DomainError(f"delta {delta} negative")
    if delta >= inner.cutoff:
        return 0.0
    return (math.log2(inner.q) / inner.d) * (inner.cutoff - delta)


def pseudo_product_rate(delta: float) -> float:
    """(1 - H(sqrt(delta)))^2 / 2 for delta <= 1/4."""
    if not 0.0 <= delta <= 0.25:
        raise DomainError(f"delta {delta} outside [0, 1/4]")
    return (1.0 - entropy(math.sqrt(delta))) ** 2 / 2.0


def gv_rate(delta: float) -> float:
    """Gilbert-Varshamov lower bound 1 - H(delta) for delta <= 1/2."""
    if not 0.0 <= delta <= 0.5:
        raise DomainError(f"delta {delta} outside [0, 1/2]")
    return 1.0 - entropy(delta)


# Registered curves: name -> (kind, domain predicate, evaluator).
def _curve_registry():
    curves = {
        "mrrw-upper": ("upper", lambda t: 0.0 < t < 1.0, lambda t: mrrw_upper(t, 0.5)),
        "gv": ("lower", lambda t: 0.0 <= t <= 0.5, gv_rate),
        "pseudo-product": ("lower", lambda t: 0.0 <= t <= 0.25, pseudo_product_rate),
    }
    for inner in INNER_CODES:
        curves[f"concat-{inner.n}-{inner.d}-{inner.w}"] = (
            "lower",
            lambda t: 0.0 <= t < 1.0,
            (lambda ic: lambda t: concat_rate(ic, t))(inner),
        )
    return curves


CURVES = _curve_registry()


def curve_names() -> list[str]:
    return sorted(CURVES)


def emit_curves(
    deltas: Iterable[float], curves: Sequence[str] | None = None
) -> list[tuple[str, float, float]]:
    """Evaluate the named curves on a delta grid; rows sorted by (curve, delta).

    Inner-code sizes are checked against the ingested reference values before
    any concatenation curve is emitted.
    """
    names = sorted(curves) if curves is not None else curve_names()
    for name in names:
        if name not in CURVES:
            raise DomainError(f"unknown curve {name!r}; available: {curve_names()}")
    if any(name.startswith("concat-") for name in names):
        for inner in INNER_CODES:
            inner.validate()
    grid = sorted(set(float(t) for t in deltas))
    rows = []
    for name in names:
        _, in_domain, fn = CURVES[name]
        for t in grid:
            if in_domain(t):
                rows.append((name, t, fn(t)))
    return rows


def write_curves_csv(f, rows) -> None:
    f.write("curve,delta,rate\n")
    for name, t, rate in rows:
        f.write(f"{name},{t:.6g},{rate:.6g}\n")
