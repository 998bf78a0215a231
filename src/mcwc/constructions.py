"""Lower-bound constructions for multiply constant-weight codes.

Every constructor returns a ConstructionResult whose code has been verified
exhaustively, once, against its guaranteed distance and weight profile.
Ingredients are not verified up front: the output's distance and profile are
what the construction promises, so the output check covers them.  Only when
the output fails are the ingredients checked, to tell a false ingredient claim
(ConstructionError, naming the ingredient) from a bug here (AssertionError).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import lru_cache

from .codes import (
    MAX_INDICATOR_BITS,
    BinaryCode,
    CodeError,
    QaryCode,
    VerificationReport,
    WeightProfile,
    find_systematic_set,
    indicator_words,
    pack_tiles,
    verify_code,
)
from .gf import DEFAULT_ORDER_CAP, Field, field_for_order, prime_power


# Largest code the table's construction providers build and verify exhaustively.
CONSTRUCTION_SIZE_CAP = 512
# Most words of a Reed-Solomon code (q^k), catalog code or pseudo-product;
# rs_mcwc's witnesses, verified pairwise after expansion, stay under it too.
RS_SIZE_CAP = 64 * CONSTRUCTION_SIZE_CAP
# Most symbols (words x length) of the same codes.  It is above RS(182, 2)
# over GF(181), 5,962,502 symbols, the largest code rs_mcwc_params accepts.
RS_SYMBOL_CAP = 1 << 23


class ConstructionError(ValueError):
    pass


def check_code_size(what: str, words: int, length: int) -> None:
    """Refuse a code of more than RS_SIZE_CAP words or RS_SYMBOL_CAP symbols (words x length)."""
    if words > RS_SIZE_CAP:  # a count past the cap may be huge: it is not printed
        raise ConstructionError(f"{what} has a word count over the cap of {RS_SIZE_CAP}")
    if words * length > RS_SYMBOL_CAP:
        raise ConstructionError(f"{what} has {words} x {length} = {words * length} symbols, "
                                f"over the cap of {RS_SYMBOL_CAP}")


@dataclass(frozen=True)
class ConstructionResult:
    code: BinaryCode
    guaranteed_distance: int
    provenance: str
    report: VerificationReport

    @property
    def size(self) -> int:
        return len(self.code.words)


def _finish(
    words, length, guaranteed, profile, provenance, expected_size, ingredients=()
) -> ConstructionResult:
    """Verify the built code; `ingredients` are (label, code) pairs blamed on failure."""
    if words.shape[1]:  # sort the construction's own rows in place: one copy of the code
        words.view(f"S{words.shape[1]}").sort(axis=0)
    code = BinaryCode(length, words, guaranteed, profile)
    if len(code.words) != expected_size:
        raise AssertionError(
            f"{provenance}: built {len(code.words)} words, expected {expected_size}"
        )
    report = verify_code(code)
    if not report.passed:
        for what, ingredient in ingredients:
            ingredient_report = verify_code(ingredient)
            if not ingredient_report.passed:
                raise ConstructionError(
                    f"{what} fails verification: {ingredient_report.summary()}"
                )
        raise AssertionError(f"{provenance}: verification failed: {report.summary()}")
    return ConstructionResult(code, guaranteed, provenance, report)


def _cwc_params(code: BinaryCode, what: str) -> tuple[int, int]:
    """(n, w) of a constant-weight ingredient; its profile must be a single block."""
    if code.profile is None or code.profile.m != 1:
        raise ConstructionError(f"{what} must carry a single-block weight profile")
    return code.profile.parts[0]


# ---------- concatenation ----------

def concatenate(outer: QaryCode, inner: BinaryCode) -> ConstructionResult:
    """Map outer symbols through an injection into inner codewords.

    The injection is fixed: symbol i goes to the i-th smallest inner word.
    Output distance is guaranteed >= d_inner * d_outer.
    """
    import numpy as np

    n, w = _cwc_params(inner, "inner code")
    if len(inner.words) < outer.q:
        raise ConstructionError(
            f"inner code has {len(inner.words)} words, need >= q = {outer.q}"
        )
    m = outer.length
    guaranteed = inner.claimed_distance * outer.claimed_distance
    inner_bits = np.unpackbits(inner.words, axis=1, count=n)
    words = pack_tiles(len(outer.words), m * n, lambda rows: inner_bits[outer.words[rows]])
    profile = WeightProfile.homogeneous(m, n, w)
    prov = f"concatenation(outer=({m},{outer.claimed_distance})_{outer.q}, inner=cwc({n},{inner.claimed_distance},{w}))"
    ingredients = (("outer code", outer), ("inner code", inner))
    return _finish(words, m * n, guaranteed, profile, prov, len(outer.words), ingredients)


# ---------- pseudo-product ----------

@lru_cache(maxsize=None)
def _systematic_encoder(code: BinaryCode, what: str):
    """(weights, table): table[p @ weights] is the 0/1 codeword reading p on the systematic set.

    Cached per code object and label (codes hash by identity), so an
    ingredient that meets many others is searched for its systematic set
    once; both arrays are read-only, as every later call shares them.
    """
    import numpy as np

    coords = find_systematic_set(code)
    if coords is None:
        raise ConstructionError(f"{what} is not systematic")
    bits = np.unpackbits(code.words, axis=1, count=code.length)
    weights = 1 << np.arange(len(coords))
    table = np.empty_like(bits)
    table[bits[:, coords] @ weights] = bits
    weights.flags.writeable = table.flags.writeable = False
    return weights, table


def pseudo_product(cwc: BinaryCode, sys: BinaryCode) -> ConstructionResult:
    """Row/column systematic encoding of all k2-by-k1 information matrices.

    Columns of the information matrix are encoded through `sys` (length m),
    then each of the m resulting rows is encoded through `cwc` (length n,
    weight w), giving an m-by-n matrix of constant row weight w.  Produces
    2^(k1*k2) codewords at distance >= d1*d2, size-checked before any is built.
    """
    import numpy as np

    n, w = _cwc_params(cwc, "constant-weight ingredient")
    row_weights, row_table = _systematic_encoder(cwc, "constant-weight ingredient")
    col_weights, col_table = _systematic_encoder(sys, "systematic ingredient")
    k1, k2, m = len(row_weights), len(col_weights), sys.length
    guaranteed = cwc.claimed_distance * sys.claimed_distance
    size = 1 << (k1 * k2)
    check_code_size("pseudo-product", size, m * n)

    # Every choice of k1 information columns, each encoded through `sys`; then
    # each of the m rows, read as a k1-bit pattern, is encoded through `cwc`.
    cols = col_table[np.indices((1 << k2,) * k1).reshape(k1, size).T]
    patterns = cols.transpose(0, 2, 1).reshape(size * m, k1) @ row_weights
    words = np.packbits(row_table[patterns].reshape(size, m * n), axis=1)
    profile = WeightProfile.homogeneous(m, n, w)
    prov = f"pseudo-product(cwc({n},{cwc.claimed_distance},{w})^2^{k1} x sys({m},{sys.claimed_distance})^2^{k2})"
    ingredients = (("constant-weight ingredient", cwc), ("systematic ingredient", sys))
    return _finish(words, m * n, guaranteed, profile, prov, size, ingredients)


# ---------- complement extension ----------

def complement_extend(code: BinaryCode) -> ConstructionResult:
    """{(x, complement(x))}: doubles length and distance, weight becomes n."""
    import numpy as np

    if find_systematic_set(code) is None:
        raise ConstructionError("ingredient is not systematic")
    n = code.length
    bits = np.unpackbits(code.words, axis=1, count=n)
    words = np.packbits(np.hstack([bits, 1 - bits]), axis=1)
    profile = WeightProfile.homogeneous(1, 2 * n, n)
    prov = f"complement-extend(({n},{code.claimed_distance}) systematic)"
    return _finish(
        words, 2 * n, 2 * code.claimed_distance, profile, prov, len(code.words),
        (("ingredient", code),),
    )


# ---------- append extension ----------

def append_extend(k: int, cwc: BinaryCode) -> ConstructionResult:
    """{(x, complement(x), phi(x))} over all k-bit x, phi injective into cwc.

    phi maps the i-th k-bit pattern to the i-th smallest cwc word.  The result
    is a systematic constant-weight code with information set the first k
    coordinates, length n+2k, weight w+k, distance d+2.
    """
    import numpy as np

    if k < 0:
        raise ConstructionError("k must be >= 0")
    n, w = _cwc_params(cwc, "constant-weight ingredient")
    if len(cwc.words) < (1 << k):
        raise ConstructionError(f"need at least 2^{k} codewords, have {len(cwc.words)}")
    x = np.indices((2,) * k, dtype=np.uint8).reshape(k, 1 << k).T  # k-bit patterns in order
    words = np.packbits(np.hstack([x, 1 - x, np.unpackbits(cwc.words[:1 << k], axis=1, count=n)]), axis=1)
    profile = WeightProfile.homogeneous(1, n + 2 * k, w + k)
    prov = f"append-extend(k={k}, cwc({n},{cwc.claimed_distance},{w}))"
    return _finish(
        words, n + 2 * k, cwc.claimed_distance + 2, profile, prov, 1 << k,
        (("constant-weight ingredient", cwc),),
    )


# ---------- q-ary expansion ----------

def qary_expand(code: QaryCode, w: int) -> ConstructionResult:
    """Replace each symbol by its length-q indicator; group w symbols per block.

    An (L, d)_q code with L = m*w becomes an m-block binary code with blocks of
    length q*w and weight w, at distance >= 2d.
    """
    if w < 1 or code.length % w:
        raise ConstructionError(f"length {code.length} not divisible by block weight {w}")
    q = code.q
    m = code.length // w
    profile = WeightProfile.homogeneous(m, q * w, w)
    prov = f"qary-expand(({code.length},{code.claimed_distance})_{q}, w={w})"
    return _finish(
        indicator_words(code), m * w * q, 2 * code.claimed_distance, profile, prov,
        len(code.words), (("q-ary code", code),),
    )


def qary_collapse(result_code: BinaryCode) -> QaryCode:
    """Inverse of qary_expand for w=1: read each block as one symbol indicator."""
    import numpy as np

    if result_code.profile is None:
        raise ConstructionError("need a weight profile to collapse")
    parts = result_code.profile.parts
    if any(w_i != 1 for _, w_i in parts):
        raise ConstructionError("collapse requires block weight 1")
    q = parts[0][0]
    if any(n_i != q for n_i, _ in parts):
        raise ConstructionError("collapse requires equal block lengths")
    # The one in the indicator block of symbol s is its column s.
    bits = np.unpackbits(result_code.words, axis=1, count=len(parts) * q).reshape(-1, len(parts), q)
    if (bits.sum(axis=2) != 1).any():
        raise ConstructionError("a block does not hold exactly one 1")
    symbols = bits.argmax(axis=2)
    return QaryCode.from_words(symbols, q, len(parts), result_code.claimed_distance // 2)


# ---------- Reed-Solomon ----------

def reed_solomon(field: Field, length: int, d: int) -> QaryCode:
    """Evaluation code of all polynomials of degree < length-d+1 over GF(q).

    Evaluation points are the first `length` elements in canonical field order;
    length q+1 is allowed, adding the coefficient of x^(k-1) as an extra
    coordinate (singly-extended code).  The code is MDS: minimum distance is
    verified to be exactly d via the minimum weight of the (linear) code.
    A code of more than RS_SIZE_CAP words, or RS_SYMBOL_CAP symbols, is
    refused before any word is built.
    """
    import numpy as np  # imported on first use, as in mcwc.clique

    q = field.q
    if not 1 <= d <= length:
        raise ConstructionError(f"need 1 <= d <= length, got d={d}, length={length}")
    if length > q + 1:
        raise ConstructionError(f"length {length} exceeds q+1 = {q + 1}")
    k = length - d + 1
    check_code_size(f"RS({length},{k})_{q}", q**k, length)
    extended = length == q + 1

    # Row j holds the coefficient of x^j of every message, messages in
    # product(range(q), repeat=k) order.
    coeffs = np.indices((q,) * k, dtype=np.min_scalar_type(q - 1)).reshape(k, -1)
    columns = []
    for x in range(min(length, q)):
        acc = coeffs[k - 1]  # Horner, from the leading coefficient
        for j in range(k - 2, -1, -1):
            acc = field.add(field.mul(acc, x), coeffs[j])
        columns.append(acc)
    if extended:
        columns.append(coeffs[k - 1])
    words = np.stack(columns, axis=1)

    # Linear code: min distance == min weight of a nonzero codeword.
    weights = np.count_nonzero(words, axis=1)
    min_wt = int(weights[weights > 0].min()) if weights.any() else math.inf
    if min_wt != d:
        raise AssertionError(f"RS({length},{k})_{q}: min weight {min_wt} != {d}")
    return QaryCode.from_words(words, q, length, d)


def rs_mcwc_params(m: int, n: int, d: int, w: int) -> tuple[int, int]:
    """(q, s) of the code rs_mcwc builds for the cell, which has q^s words.

    Needs even d, w | n, q = n/w a prime power with m*w - 1 <= q <=
    DEFAULT_ORDER_CAP, and s = m*w - d/2 + 1 with 1 <= s <= m*w; the code
    must stay within RS_SIZE_CAP words and MAX_INDICATOR_BITS bits.  Raises
    ConstructionError otherwise, before any field or word is built.
    """
    if d % 2:
        raise ConstructionError("target distance must be even")
    if w < 1 or n % w:
        raise ConstructionError(f"block weight {w} must divide block length {n}")
    q = n // w
    mw = m * w
    if q > DEFAULT_ORDER_CAP:
        raise ConstructionError(f"field order {q} exceeds cap {DEFAULT_ORDER_CAP}")
    if q < 2 or prime_power(q) is None:
        raise ConstructionError(f"n/w = {q} is not a prime power")
    if q < mw - 1:
        raise ConstructionError(f"alphabet q={q} too small for length {mw}")
    if not 1 <= d // 2 <= mw:
        raise ConstructionError(f"no Reed-Solomon code of length {mw} and distance {d // 2}")
    s = mw - d // 2 + 1
    if q**s > RS_SIZE_CAP:
        raise ConstructionError(f"{q}^{s} words exceed the cap of {RS_SIZE_CAP}")
    if q**s * m * n > MAX_INDICATOR_BITS:
        raise ConstructionError(f"{q}^{s} words of {m * n} bits exceed {MAX_INDICATOR_BITS}")
    return q, s


def rs_mcwc(m: int, n: int, d: int, w: int) -> ConstructionResult:
    """Reed-Solomon + q-ary expansion targeting an m x n, distance-d, weight-w cell.

    Yields q^s codewords; rs_mcwc_params gives (q, s) or refuses the cell.
    """
    q, _ = rs_mcwc_params(m, n, d, w)
    result = qary_expand(reed_solomon(field_for_order(q), m * w, d // 2), w)
    prov = f"rs-expand(q={q}, len={m * w}, d={d // 2}, w={w})"
    return ConstructionResult(result.code, d, prov, result.report)


# ---------- builtin ingredient catalog ----------

def _rm1(r: int) -> BinaryCode:
    """First-order Reed-Muller code [2^r, r+1, 2^(r-1)] as a word set."""
    import numpy as np

    n = 1 << r
    # Generator rows: all ones, then bit i of each coordinate's index.
    gens = np.vstack([np.ones(n, dtype=np.uint8), np.indices((2,) * r, dtype=np.uint8).reshape(r, n)])
    messages = np.indices((2,) * (r + 1), dtype=np.uint8).reshape(r + 1, 2 * n).T
    return BinaryCode.from_words(np.packbits(messages @ gens % 2, axis=1), n, n // 2)


_FIXED_CATALOG = {
    # Systematic constant-weight code of distance 2 on 4 coordinates.
    "cwc-4-2-2": lambda: BinaryCode.from_words(
        ["0011", "0101", "1010", "1100"], 4, 2, WeightProfile.homogeneous(1, 4, 2)
    ),
    "cwc-2-2-1": lambda: BinaryCode.from_words(
        ["01", "10"], 2, 2, WeightProfile.homogeneous(1, 2, 1)
    ),
    # Dimension-2 distance-4 linear code of length 6.
    "lin-6-2-4": lambda: BinaryCode.from_words(
        ["000000", "111100", "001111", "110011"], 6, 4
    ),
}

# (name pattern, (word count, length), builder).  Parameters have at most 7
# digits: every code with a longer one is over RS_SIZE_CAP or RS_SYMBOL_CAP.
_PARAM_CATALOG = (
    (re.compile(r"rep-(\d{1,7})$"), lambda n: (2, n),
     lambda n: BinaryCode.from_words(["0" * n, "1" * n], n, n)),
    (re.compile(r"parity-(\d{1,7})$"), lambda n: (1 << (n - 1), n),
     lambda n: BinaryCode.from_words([x for x in range(1 << n) if x.bit_count() % 2 == 0], n, 2)),
    (re.compile(r"full-(\d{1,7})$"), lambda n: (1 << n, n),
     lambda n: BinaryCode.from_words(range(1 << n), n, 1)),
    (re.compile(r"rm1-(\d{1,7})$"), lambda r: (2 << r, 1 << r), _rm1),
)

_ALIASES = {"lin-4-3-2": "rm1-2", "lin-8-4-4": "rm1-3"}


def builtin_code(name: str) -> BinaryCode:
    """Look up a catalog ingredient by name (e.g. cwc-4-2-2, rep-3, rm1-3), size-checked first."""
    name = _ALIASES.get(name, name)
    if name in _FIXED_CATALOG:
        return _FIXED_CATALOG[name]()
    for pattern, size, make in _PARAM_CATALOG:
        match = pattern.match(name)
        if match:
            arg = int(match.group(1))
            if arg < 1:
                break
            check_code_size(f"builtin code {name}", *size(arg))
            return make(arg)
    raise CodeError(f"unknown builtin code {name!r}")


def builtin_names() -> list[str]:
    return sorted(_FIXED_CATALOG) + ["rep-N", "parity-N", "full-N", "rm1-R"] + sorted(_ALIASES)


# ---------- ingredient pools for bound tables ----------

def systematic_binary_pool(m: int) -> list[BinaryCode]:
    """Systematic (m, d) catalog codes of length m, of at most CONSTRUCTION_SIZE_CAP words."""
    top = CONSTRUCTION_SIZE_CAP.bit_length() - 1  # log2 of the most words
    out = [builtin_code(f"full-{m}")] if m <= top else []
    out.append(builtin_code(f"rep-{m}"))
    if 2 <= m <= top + 1:
        out.append(builtin_code(f"parity-{m}"))
    if m >= 2 and m & (m - 1) == 0 and m.bit_length() <= top:
        out.append(builtin_code(f"rm1-{m.bit_length() - 1}"))
    if m == 6:
        out.append(builtin_code("lin-6-2-4"))
    return out


def systematic_cwc_pool(n: int, w: int) -> list[BinaryCode]:
    """Systematic constant-weight (n, d, w) codes: catalog entries and verified extensions."""
    out = []
    if (n, w) == (4, 2):
        out.append(builtin_code("cwc-4-2-2"))
    if (n, w) == (2, 1):
        out.append(builtin_code("cwc-2-2-1"))
    if n == 2 * w and w >= 1:
        for base in systematic_binary_pool(w):
            out.append(complement_extend(base).code)
    # Append extension of the small fixed constant-weight ingredients.
    for base_name in ("cwc-2-2-1", "cwc-4-2-2"):
        base = _FIXED_CATALOG[base_name]()
        bn, bw = base.profile.parts[0]
        k = w - bw
        if k >= 0 and n == bn + 2 * k and len(base.words) >= (1 << k):
            out.append(append_extend(k, base).code)
    return out
