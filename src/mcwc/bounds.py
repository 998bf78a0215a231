"""Upper bounds, exact clique search and best-known tables for M(m,n,d,w).

M(m,n,d,w) is the largest number of m-by-n binary matrices with constant row
weight w and pairwise Hamming distance at least d.  T(w1,n1;...;wm,nm;d) is
the heterogeneous analogue; A(n,d,w) = M(1,n,d,w) is the classical
constant-weight quantity.

All bound arithmetic is exact (integers and fractions); floating point never
enters this module.  Distances between words of a common weight profile are
even, so odd target distances are lifted to the next even value, with the
lift noted in the record provenance.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from itertools import combinations
from math import comb
from typing import Iterable, TextIO

from . import designs as designs_mod
from . import workers
from .clique import max_clique, pack_rows
from .codes import BinaryCode, WeightProfile, distance_tiles
from .constructions import (
    CONSTRUCTION_SIZE_CAP,
    ConstructionError,
    concatenate,
    pseudo_product,
    reed_solomon,
    rs_mcwc,
    rs_mcwc_params,
    systematic_binary_pool,
    systematic_cwc_pool,
)
from .gf import field_for_order, prime_power

INF = math.inf

DEFAULT_NODE_BUDGET = 10_000_000
DEFAULT_VERTEX_CAP = 5000
# Table sweeps search many cells; a tighter per-cell budget keeps a full
# desk-scale grid in the minutes range.  Incomplete searches degrade to
# lower bounds, never to wrong answers.
TABLE_NODE_BUDGET = 200_000
TABLE_VERTEX_CAP = 4000


class ConsistencyError(RuntimeError):
    """A lower bound exceeded an upper bound: an implementation bug, not news."""


class SearchSpaceError(ValueError):
    pass


class ReferenceFormatError(ValueError):
    """Reference-value CSV text that does not parse, or rows that contradict each other."""


@dataclass(frozen=True)
class BoundRecord:
    profile: WeightProfile
    d: int
    kind: str  # "lower" | "upper" | "exact"
    value: float  # integer, or math.inf for a vacuous upper bound
    provenance: str

    def __post_init__(self):
        if self.kind not in ("lower", "upper", "exact"):
            raise ValueError(f"bad record kind {self.kind!r}")
        if self.value != INF and (self.value < 0 or self.value != int(self.value)):
            raise ValueError(f"bad bound value {self.value!r}")

    @property
    def cell(self) -> tuple[int, int, int, int]:
        if not self.profile.is_homogeneous():
            raise ValueError("heterogeneous record has no (m,n,d,w) cell")
        n, w = self.profile.parts[0]
        return (self.profile.m, n, self.d, w)


def _record(m, n, d, w, kind, value, provenance) -> BoundRecord:
    return BoundRecord(WeightProfile.homogeneous(m, n, w), d, kind, value, provenance)


def _lift(d: int) -> tuple[int, str]:
    """Equal-profile words sit at even distances, so odd d behaves like d+1."""
    if d % 2:
        return d + 1, f" (odd d={d} lifted to {d + 1})"
    return d, ""


# ---------- recursive Johnson-style bounds ----------
#
# T(profile; d = 2u) is at most the least of an average-intersection closed form
# and, for each block (n_i, w_i), shrink-weight: n_i/w_i times T with that block
# made (n_i - 1, w_i - 1), and shrink-length: n_i/(n_i - w_i) times T with it
# made (n_i - 1, w_i).  Every shrink step lowers the profile's total length by
# one, so the engine works one length (a level) at a time and never recurses: a
# top-down pass lists every level's profiles, and a bottom-up pass works out a
# whole level's rows from the rows of the level below it.

# The most weight profiles one batch may list; a batch past it is refused
# before any row is worked out.
JOHNSON_PROFILE_CAP = 1 << 19


def johnson_homogeneous(m: int, n: int, d: int, w: int) -> BoundRecord:
    """Minimum over the shrink-weight / shrink-length recursions and the closed form.

    Each shrink step takes all m blocks; the provenance names the normalised child cell.
    """
    d_eff, note = _lift(d)
    root = _normalize_profile(((n, w),))
    # One batch for the root and both children its provenance may name.
    children = [_normalize_profile((_step_tag(root, step)[2],)) for step in (1, 2) if root]
    _johnson_solve([root, *children], d_eff // 2, m)
    value, (rule, _, shrunk) = _johnson_bound(root, d_eff // 2, m)
    if shrunk is not None:
        inner = _johnson_bound(_normalize_profile((shrunk,)), d_eff // 2, m)[0]
        rule = f"{rule} via ({m},{shrunk[0]},{d_eff},{shrunk[1]})<={inner}"
    return _record(m, n, d, w, "upper", value, f"johnson[{rule}]{note}")


def _normalize_profile(parts: tuple[tuple[int, int], ...]) -> tuple[tuple[int, int], ...]:
    # Complementing a block preserves all pairwise distances, so w and n-w are
    # interchangeable; empty blocks contribute nothing.
    out = [(n_i, min(w_i, n_i - w_i)) for n_i, w_i in parts if n_i > 0]
    return tuple(sorted(out))


Profile = tuple[tuple[int, int], ...]
# (rule, block index, shrunk block) of a recursion step; no block for the rest.
Tag = tuple[str, int | None, tuple[int, int] | None]

# (copies, normalised root) -> (lo, values, steps): values[u - lo] bounds the
# root at d = 2u for lo <= u <= W, its total weight, and steps[u - lo] numbers
# the step that gives it (see _step_tag); every larger u reads 1.  The values
# depend on the key and u alone, so rows from any batch serve every caller.
_JOHNSON_ROOTS: dict[tuple[int, Profile], tuple[int, list[int], list[int]]] = {}


def _johnson_rows(
    roots: Iterable[Profile], lo: int, copies: int
) -> dict[Profile, tuple[list[int], list[int]]]:
    """(values, steps) for u = lo..W of each normalised root, as _JOHNSON_ROOTS keeps them.

    Each block of a profile stands for `copies` equal blocks, and a shrink step
    takes all of them, with multiplier n_i^copies and divisor w_i^copies or
    (n_i - w_i)^copies: copies is 1 in the heterogeneous recursion and m in the
    homogeneous one, whose profile is then its one block.  Steps are numbered
    in tie-break order, 0 for the closed form, 1 + 2i for shrink-weight of
    block i and 2 + 2i for its shrink-length, and the first least value wins.
    A block equal to the one before it gives the same children, so it is
    skipped.  A child whose total weight is below lo reads 1 for every u >= lo
    and is not listed.  Needs 2 <= lo <= W for every root; raises
    SearchSpaceError once the batch lists more than JOHNSON_PROFILE_CAP profiles.
    """
    import numpy as np  # imported on first use, as in mcwc.clique

    roots = sorted(set(roots))
    k = max(map(len, roots))
    # A block is the code n * radix + w, and a profile the number whose k digits
    # in `base` are its codes, sorted, zero blocks first; no step raises n or w.
    # Keys and values pass to object (Python int) arrays past int64.
    radix = 1 + max(w_i for parts in roots for _, w_i in parts)
    base = (1 + max(n_i for parts in roots for n_i, _ in parts)) * radix
    key_type = np.int64 if base**k < 2**63 else object
    # No value, product or closed-form term passes `peak`: a child's binomials
    # and lengths are at most its root's.
    top = max(copies * sum(w_i for _, w_i in parts) for parts in roots)
    peak = max(
        max(parts)[0] ** copies * math.prod(comb(n_i, w_i) for n_i, w_i in parts) ** copies
        + 3 * top * math.prod(n_i for n_i, _ in parts)
        for parts in roots
    )
    value_type = np.int64 if peak < 2**63 else object

    def encode(codes):
        keys = np.zeros(len(codes), key_type)
        for j in range(k):
            keys = keys * base + codes[:, j].astype(key_type)
        return keys

    def blocks(keys):
        codes = np.empty((len(keys), k), np.int64)
        for j in range(k - 1, -1, -1):
            codes[:, j] = keys % base
            keys = keys // base
        return codes // radix, codes % radix, codes

    def steps(n, w):
        """(number, block, where the step applies, child's new w) of each shrink step."""
        for j in range(k):
            first = n[:, j] > 0
            if j:
                first &= (n[:, j] != n[:, j - 1]) | (w[:, j] != w[:, j - 1])
            yield 1 + 2 * j, j, first & (w[:, j] > 0), w[:, j] - 1
            yield 2 + 2 * j, j, first, np.minimum(w[:, j], n[:, j] - 1 - w[:, j])

    by_length = defaultdict(list)
    for parts in roots:
        by_length[sum(n_i for n_i, _ in parts)].append(parts)
    # Top-down: per length, the sorted keys, each step's child row in the level
    # below (-1 for a child that reads 1) and the roots' rows.
    levels = []
    pending = []  # (step, parent rows, child keys) of the level above
    listed = 0
    for length in range(max(by_length), 0, -1):
        fresh = by_length.get(length, [])
        codes = [[0] * (k - len(p)) + [n_i * radix + w_i for n_i, w_i in p] for p in fresh]
        keys, where = np.unique(
            np.concatenate([encode(np.array(codes, np.int64).reshape(-1, k)),
                            *(child for _, _, child in pending)]),
            return_inverse=True,
        )
        at = len(fresh)
        for step, rows, child in pending:
            levels[-1][1][rows, step] = where[at:at + len(child)]
            at += len(child)
        if not len(keys) and length < min(by_length):
            break
        listed += len(keys)
        if listed > JOHNSON_PROFILE_CAP:
            raise SearchSpaceError(
                f"the Johnson bound lists over {listed} weight profiles, "
                f"past the cap of {JOHNSON_PROFILE_CAP}"
            )
        n, w, codes = blocks(keys)
        weight = copies * w.sum(axis=1)
        pending = []
        for step, j, valid, w_new in steps(n, w):
            rows = np.flatnonzero(valid & (weight + copies * (w_new - w[:, j]) >= lo))
            child = codes[rows]
            child[:, j] = (n[rows, j] - 1) * radix + w_new[rows]
            child.sort(axis=1)
            pending.append((step, rows, encode(child)))
        children = np.full((len(keys), 2 * k + 1), -1, np.int32)
        levels.append((keys, children, list(zip(fresh, where[:len(fresh)]))))

    # Bottom-up: each level from the rows of the one below, whose last row reads
    # 1.  A level works out only the columns u up to its heaviest profile: every
    # later column reads 1, in the level below as here.
    below = np.ones((1, 0), value_type)
    out = {}
    for keys, children, here in reversed(levels):
        n, w, _ = blocks(keys)
        weight = copies * w.sum(axis=1)
        u = np.arange(lo, weight.max(initial=lo - 1) + 1).astype(value_type)
        if below.shape[1] < len(u):
            below = np.hstack([below, np.ones((len(below), len(u) - below.shape[1]), value_type)])
        below = below[:, :len(u)]
        nv, wv = n.astype(value_type), w.astype(value_type)
        lengths = np.where(n > 0, nv, 1)
        # u / (copies * sum w_i^2/n_i - (W - u)), numerator and divisor scaled
        # by the product of the n_i.
        total = lengths.prod(axis=1)
        shift = copies * (wv * wv * (total[:, None] // lengths)).sum(axis=1) - weight * total
        den = shift[:, None] + u * total[:, None]
        have = den > 0
        best = u * total[:, None] // np.where(have, den, 1)
        tag = np.zeros(best.shape, np.intp)
        for step, j, valid, _ in steps(n, w):
            divisor = np.where(valid, wv[:, j] if step % 2 else nv[:, j] - wv[:, j], 1) ** copies
            value = (nv[:, j] ** copies)[:, None] * below[children[:, step]] // divisor[:, None]
            take = valid[:, None] & (~have | (value < best))
            best = np.where(take, value, best)
            tag[take] = step
            have |= valid[:, None]
        best[u > weight[:, None]] = 1
        below = np.vstack([best, np.ones((1, len(u)), value_type)])
        for parts, row in here:
            end = copies * sum(w_i for _, w_i in parts) - lo + 1
            pad = 2 * (k - len(parts))  # step numbers count the zero blocks
            out[parts] = best[row, :end].tolist(), [s and s - pad for s in tag[row, :end].tolist()]
    return out


def _johnson_solve(roots: Iterable[Profile], lo: int, copies: int) -> None:
    """Work out in one batch into _JOHNSON_ROOTS those roots with 2 <= lo <= W
    whose rows from lo it does not hold yet."""
    cold = [
        parts for parts in roots
        if 2 <= lo <= copies * sum(w_i for _, w_i in parts)
        and _JOHNSON_ROOTS.get((copies, parts), (lo + 1,))[0] > lo
    ]
    if cold:
        for parts, (values, steps) in _johnson_rows(cold, lo, copies).items():
            _JOHNSON_ROOTS[copies, parts] = lo, values, steps


def _step_tag(parts: Profile, step: int) -> Tag:
    if step == 0:
        return "average-intersection closed form", None, None
    i, length = divmod(step - 1, 2)
    n_i, w_i = parts[i]
    if length:
        return "shrink-length", i, (n_i - 1, min(w_i, n_i - 1 - w_i))
    return "shrink-weight", i, (n_i - 1, w_i - 1)


def _johnson_bound(parts: Profile, u: int, copies: int) -> tuple[int, Tag]:
    """(bound, tag of the deciding rule) at d = 2u; parts normalized."""
    weights = copies * sum(w_i for _, w_i in parts)
    if weights == 0:  # normalised blocks have w_i <= n_i/2: one word iff W = 0
        return 1, ("single-word cell", None, None)
    if u <= 1:
        count = math.prod(comb(n_i, w_i) for n_i, w_i in parts) ** copies
        return count, ("membership count", None, None)
    if u > weights:
        return 1, ("distance exceeds diameter", None, None)
    _johnson_solve([parts], u, copies)
    lo, values, steps = _JOHNSON_ROOTS[copies, parts]
    return values[u - lo], _step_tag(parts, steps[u - lo])


def johnson_general(profile: WeightProfile, d: int) -> BoundRecord:
    """Recursive bound for an arbitrary (possibly heterogeneous) weight profile.

    Each shrink step takes one block.  A profile not yet worked out for this d
    is solved as a batch of one, for every d from this one upward, in integer
    arithmetic; table_build solves all of its profiles in one batch first.
    """
    d_eff, note = _lift(d)
    value, (rule, block, _) = _johnson_bound(_normalize_profile(profile.parts), d_eff // 2, 1)
    if block is not None:
        rule = f"{rule} block {block}"
    return BoundRecord(profile, d, "upper", value, f"johnson-general[{rule}]{note}")


# ---------- power-type bounds ----------

def singleton_like(m: int, n: int, d: int, w: int) -> BoundRecord | None:
    """(n/w)^s with s = m*w - d/2 + 1, valid when 1 <= s <= m; None otherwise."""
    d_eff, note = _lift(d)
    if w < 1:
        return None
    s = m * w - d_eff // 2 + 1
    if not 1 <= s <= m:
        return None
    value = math.floor(Fraction(n, w) ** s)
    return _record(m, n, d, w, "upper", value, f"power-bound[s={s}]{note}")


def johnson_closed_form(m: int, n: int, d: int, w: int) -> BoundRecord | None:
    """Iterated shrink-weight steps collapsed into a nested-floor product.

    i is the smallest shift making the remaining exponent t = m*(w-i) - d/2 + 1
    at most m; the nested form is the recorded bound and the looser pure power
    n^s/(w-i)^s is kept in the provenance.
    """
    d_eff, note = _lift(d)
    if w < 1:
        return None
    u = d_eff // 2
    i = 0
    while m * (w - i) - u + 1 > m:
        i += 1
    t = m * (w - i) - u + 1
    if t < 0 or w - i < 1:
        return None
    value = ((n - i) ** t) // ((w - i) ** t)
    for j in range(i - 1, -1, -1):
        value = ((n - j) ** m * value) // ((w - j) ** m)
    s = m * w - u + 1
    loose = math.floor(Fraction(n, w - i) ** s)
    prov = f"nested-floor[i={i}, t={t}; loose-power={loose}]{note}"
    return _record(m, n, d, w, "upper", value, prov)


def _rs_exponent(m: int, n: int, d: int, w: int) -> int:
    """s of the (n/w)^s-word code rs_mcwc builds for the cell (d even); 0 if it builds none."""
    try:
        return rs_mcwc_params(m, n, d, w)[1]
    except ConstructionError:
        return 0


def tightness_exact(m: int, n: int, d: int, w: int) -> BoundRecord | None:
    """Exact value (n/w)^s when the power bound is met by Reed-Solomon expansion.

    The power bound holds for s = m*w - d/2 + 1 in [1, m]; rs_mcwc_params
    decides whether rs_mcwc builds its q^s-word witness, q = n/w, which is
    then built and verified (a size mismatch would be an internal bug).
    None when s > m or rs_mcwc_params refuses the cell.
    """
    d_eff, note = _lift(d)
    s = _rs_exponent(m, n, d_eff, w)
    if not 1 <= s <= m:
        return None
    q = n // w
    witness = rs_mcwc(m, n, d_eff, w)
    if witness.size != q**s:
        raise AssertionError(f"power-exact witness has size {witness.size}, expected {q**s}")
    prov = f"power-exact[q={q}, s={s}; witness {witness.provenance}]{note}"
    return _record(m, n, d, w, "exact", q**s, prov)


def eb_transfer(m: int, n: int, d: int, w: int, a_lower: int, source: str = "") -> BoundRecord:
    """Lower bound ceil(a_lower * C(n,w)^m / C(mn, mw)) from a lower bound on A(mn,d,mw).

    The transfer inequality bounds the constant-weight universe by the
    matrix-shaped one; exact integer arithmetic throughout.
    """
    num = a_lower * comb(n, w) ** m
    den = comb(m * n, m * w)
    value = -(-num // den)
    src = f", {source}" if source else ""
    prov = f"size-transfer[A({m * n},{d},{m * w})>={a_lower}{src}]"
    return _record(m, n, d, w, "lower", value, prov)


# ---------- exact search ----------

def _profile_vertices(m: int, n: int, w: int):
    """Packed rows of all C(n,w)^m profile words, in product(combinations(range(n), w)) order."""
    import numpy as np

    supports = np.array(list(combinations(range(n), w)), dtype=np.intp)
    rows = np.zeros((len(supports), n), dtype=np.uint8)
    np.put_along_axis(rows, supports, 1, axis=1)
    choices = np.indices((len(rows),) * m).reshape(m, len(rows) ** m).T
    return np.packbits(rows[choices].reshape(len(choices), m * n), axis=1)


def exact_search(
    m: int,
    n: int,
    d: int,
    w: int,
    *,
    node_budget: int = DEFAULT_NODE_BUDGET,
    vertex_cap: int = DEFAULT_VERTEX_CAP,
    upper: float = INF,
    with_witness: bool = False,
):
    """Exact M(m,n,d,w) by maximum-clique search over all profile words.

    Vertices are the C(n,w)^m profile-satisfying matrices, edges join pairs at
    distance >= d.  Complete searches produce an exact record; budget-exhausted
    searches degrade to a lower bound.  The compatibility graph is vertex
    transitive (blocks and columns within blocks can be permuted), so the
    search fixes the lexicographically smallest matrix as a clique member and
    recurses on its neighborhood.

    ``upper`` is a proven upper bound on the cell.  The search stops once it
    finds a code of that size and returns it as a lower record ("met upper
    bound"); the bound's own record then makes the cell exact.
    """
    import numpy as np

    if not 0 <= w <= n or m < 1:
        raise SearchSpaceError(f"no words for cell ({m},{n},{d},{w})")
    total = comb(n, w) ** m
    if total > vertex_cap:
        raise SearchSpaceError(f"{total} vertices exceed cap {vertex_cap}")
    d_eff, note = _lift(d)

    def finish(kind, value, why, witness_words):
        record = _record(m, n, d, w, kind, value, f"clique-search[{why}]{note}")
        if with_witness:
            profile = WeightProfile.homogeneous(m, n, w)
            code = BinaryCode.from_words(witness_words, m * n, d, profile)
            return record, code
        return record

    vertices = _profile_vertices(m, n, w)
    if d_eff <= 2:
        return finish("exact", total, "all profile words qualify", vertices)
    if d_eff > 2 * m * min(w, n - w):
        return finish("exact", 1, "distance exceeds diameter", vertices[:1])

    neighbours = vertices[np.bitwise_count(vertices ^ vertices[0]).sum(axis=1) >= d_eff]
    # The base word is fixed, so the neighbourhood needs one word fewer.
    result = max_clique(_adjacency(neighbours, d_eff), node_budget, target=upper - 1)
    value = 1 + result.size
    witness = np.vstack([vertices[:1], neighbours[list(result.members)]])

    if result.stop_reason == "done":
        return finish("exact", value, f"complete, nodes={result.nodes}", witness)
    if result.stop_reason == "target":
        return finish("lower", value, f"met upper bound, nodes={result.nodes}", witness)
    return finish(
        "lower", value, f"incomplete, node budget {node_budget} exhausted", witness
    )


def _adjacency(words, d: int) -> list[int]:
    """Bitmask rows of the graph joining distinct words, packed rows, at distance >= d."""
    import numpy as np  # imported on first use, as in mcwc.clique

    adj: list[int] = []
    for start, dist in distance_tiles(words):
        near = dist >= d
        rows = np.arange(len(near))
        near[rows, start + rows] = False
        adj.extend(pack_rows(near))
    return adj


# ---------- reference values ----------

@dataclass(frozen=True)
class ReferenceValue:
    n: int  # bounds on the binary constant-weight quantity A(n, d, w)
    d: int
    w: int
    lower: int | None
    upper: int | None
    source: str

    def __post_init__(self):
        known = [x for x in (self.lower, self.upper) if x is not None]
        if min(known, default=0) < 0 or known != sorted(known):
            raise ReferenceFormatError(f"reference {self.source}: A({self.n},{self.d},{self.w}) has "
                                       f"lower {self.lower}, upper {self.upper}, not 0 <= lower <= upper")


# Small embedded baseline.  The exhaustive-search rows are re-derived by the
# test suite; the published-table rows record inner-code sizes quoted from the
# standard constant-weight tables and are far beyond desk-scale search.
DEFAULT_REFERENCE_CSV = """\
kind,q,n,d,w,lower,upper,source
A,2,4,2,2,6,6,exhaustive-search
A,2,4,4,2,2,2,exhaustive-search
A,2,6,4,2,3,3,exhaustive-search
A,2,6,4,3,4,4,exhaustive-search
A,2,8,4,4,14,14,exhaustive-search
A,2,12,4,6,121,,published-table
A,2,28,14,14,49,,published-table
A,2,28,4,14,1530169,,published-table
"""


class ReferenceStore:
    """Ingested best-known values for A(n,d,w)."""

    def __init__(self, rows: Iterable[ReferenceValue] = ()):
        self._rows: dict[tuple, ReferenceValue] = {}
        for row in rows:
            self.add(row)

    def add(self, row: ReferenceValue) -> None:
        key = (row.n, row.d, row.w)
        old = self._rows.get(key)
        if old is not None:
            lowers = [x for x in (old.lower, row.lower) if x is not None]
            uppers = [x for x in (old.upper, row.upper) if x is not None]
            row = ReferenceValue(*key, max(lowers, default=None), min(uppers, default=None),
                                 f"{old.source}+{row.source}")
        self._rows[key] = row

    def cwc(self, n: int, d: int, w: int) -> ReferenceValue | None:
        return self._rows.get((n, d, w))

    @classmethod
    def from_csv(cls, text: str) -> "ReferenceStore":
        rows = []
        lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
        header = lines[0].strip() if lines else ""
        if header != "kind,q,n,d,w,lower,upper,source":
            raise ReferenceFormatError(f"unexpected reference header {header!r}")
        for ln in lines[1:]:
            try:
                kind, q, n, d, w, lower, upper, source = (x.strip() for x in ln.split(","))
                if kind != "A" or int(q) != 2:
                    raise ReferenceFormatError(f"reference row {ln!r} is not of kind A with q=2")
                bounds = (int(x) if x else None for x in (lower, upper))
                rows.append(ReferenceValue(int(n), int(d), int(w), *bounds, source))
            except ReferenceFormatError:
                raise
            except ValueError as exc:
                raise ReferenceFormatError(f"bad reference row {ln!r}") from exc
        return cls(rows)


@lru_cache(maxsize=1)
def default_references() -> ReferenceStore:
    return ReferenceStore.from_csv(DEFAULT_REFERENCE_CSV)


def trivial_upper(m: int, n: int, d: int, w: int, table: "BoundTable") -> BoundRecord:
    """Every cell embeds in the constant-weight universe: M(m,n,d,w) <= A(mn,d,mw).

    Uses the ingested reference value, or a previously computed upper for the
    (1, mn, d, mw) cell; records an infinite sentinel when neither is known.
    """
    value: float = INF
    prov = f"constant-weight embedding[A({m * n},{d},{m * w}) unknown]"
    ref = table.references.cwc(m * n, d, m * w)
    if ref is not None and ref.upper is not None:
        value = ref.upper
        prov = f"constant-weight embedding[A({m * n},{d},{m * w})<={ref.upper}, {ref.source}]"
    if m > 1:
        computed, computed_prov = table.best_upper((1, m * n, d, m * w))
        if computed < value:
            value = computed
            prov = f"constant-weight embedding[computed {computed_prov}]"
    return _record(m, n, d, w, "upper", value, prov)


# ---------- the table ----------

class BoundTable:
    """Best-known bounds per homogeneous cell, with consistency enforcement."""

    def __init__(self, references: ReferenceStore | None = None):
        self.references = references if references is not None else default_references()
        self.records: dict[tuple[int, int, int, int], list[BoundRecord]] = {}
        # cell -> (value, provenance) of its best lower / upper record; the first of equals stands
        self._lower: dict[tuple[int, int, int, int], tuple[float, str]] = {}
        self._upper: dict[tuple[int, int, int, int], tuple[float, str]] = {}

    def insert(self, record: BoundRecord) -> None:
        cell = record.cell
        self.records.setdefault(cell, []).append(record)
        if record.kind != "upper" and record.value > self.best_lower(cell)[0]:
            self._lower[cell] = record.value, record.provenance
        if record.kind != "lower" and record.value < self.best_upper(cell)[0]:
            self._upper[cell] = record.value, record.provenance
        (lo, lo_prov), (hi, hi_prov) = self.best_lower(cell), self.best_upper(cell)
        if lo > hi:
            raise ConsistencyError(
                f"cell {cell}: lower {lo} ({lo_prov}) exceeds upper {hi} ({hi_prov})"
            )

    def best_lower(self, cell) -> tuple[float, str]:
        return self._lower.get(cell, (0, "none"))

    def best_upper(self, cell) -> tuple[float, str]:
        return self._upper.get(cell, (INF, "none"))

    def exact_value(self, cell) -> int | None:
        lo, hi = self.best_lower(cell)[0], self.best_upper(cell)[0]
        return int(lo) if lo == hi != INF else None

    def cells(self) -> list[tuple[int, int, int, int]]:
        return sorted(self.records)

    def write_csv(self, f: TextIO) -> None:
        f.write("m,n,d,w,lower,upper,exact_flag,lower_provenance,upper_provenance\n")
        for cell in self.cells():
            m, n, d, w = cell
            lo, lo_prov = self.best_lower(cell)
            hi, hi_prov = self.best_upper(cell)
            exact = 1 if self.exact_value(cell) is not None else 0
            hi_txt = "inf" if hi == INF else str(int(hi))
            f.write(
                f"{m},{n},{d},{w},{int(lo)},{hi_txt},{exact},"
                f"\"{lo_prov}\",\"{hi_prov}\"\n"
            )


# ---------- construction providers for table cells ----------

@lru_cache(maxsize=None)
def _cwc_pool(n: int, w: int) -> tuple[BinaryCode, ...]:
    return tuple(systematic_cwc_pool(n, w))


@lru_cache(maxsize=None)
def _binary_pool(m: int) -> tuple[BinaryCode, ...]:
    return tuple(systematic_binary_pool(m))


@lru_cache(maxsize=None)
def _rs_outer(q: int, length: int, d: int):
    return reed_solomon(field_for_order(q), length, d)


@lru_cache(maxsize=None)
def _construction_candidates(m: int, n: int, w: int) -> tuple[tuple[int, int, str], ...]:
    """(size, guarantee, provenance) of the shape's design, pseudo-product, concatenation codes.

    The ingredients are built once per process and shared by every shape:
    the constant-weight pool per (n, w), the systematic pool per m, each
    Reed-Solomon outer code per (q, m, d2), and (in mcwc.constructions) each
    ingredient's systematic encoder.  A pseudo-product or concatenation whose
    guaranteed distance is at most 2 is not built, as evaluate_cell decides
    every cell with d_eff <= 2 before it reads a construction; its key is not
    entered in `built`, so the first of equal records still stands.
    """
    results = []
    if w == m and n == m * m and prime_power(m) is not None:
        results.append(designs_mod.design_to_mcwc(designs_mod.affine_plane(m)))
    if w == 2 and n == 2 * m and n >= 4:
        results.append(designs_mod.design_to_mcwc(designs_mod.one_factorization(n)))
    built = set()  # ingredient distances and sizes fix a record: the first success stands
    pool = _cwc_pool(n, w)
    for cwc in pool:
        k1 = len(cwc.words).bit_length() - 1
        for sysc in _binary_pool(m):
            k2 = len(sysc.words).bit_length() - 1
            key = (cwc.claimed_distance, k1, sysc.claimed_distance, k2)
            if (k1 * k2 <= 0 or (1 << (k1 * k2)) > CONSTRUCTION_SIZE_CAP or key in built
                    or cwc.claimed_distance * sysc.claimed_distance <= 2):
                continue
            try:
                results.append(pseudo_product(cwc, sysc))
            except ConstructionError:
                continue
            built.add(key)
    for inner in pool:
        q = max(
            (x for x in range(2, len(inner.words) + 1) if prime_power(x) is not None),
            default=None,
        )
        if q is None or m > q + 1:
            continue
        for d2 in range(1, m + 1):
            key = (q, d2, inner.claimed_distance)
            if (q ** (m - d2 + 1) <= CONSTRUCTION_SIZE_CAP and key not in built
                    and inner.claimed_distance * d2 > 2):
                results.append(concatenate(_rs_outer(q, m, d2), inner))
                built.add(key)
    return tuple((r.size, r.guaranteed_distance, r.provenance) for r in results)


def evaluate_cell(
    table: BoundTable,
    m: int,
    n: int,
    d: int,
    w: int,
    *,
    vertex_cap: int = TABLE_VERTEX_CAP,
) -> bool:
    """Apply the bound rules and constructions that can decide one cell, inserting records.

    True when the cell is still open and its C(n,w)^m words are within
    `vertex_cap`, so that an exact search (search_cells) may decide it.
    """
    cell_profile_count = comb(n, w) ** m

    # Upper bounds first (they include the exact power rule).  johnson_general is
    # never above johnson_homogeneous, singleton_like or johnson_closed_form.
    table.insert(johnson_general(WeightProfile.homogeneous(m, n, w), d))
    d_eff, _ = _lift(d)
    if d_eff <= 2:
        # Distinct words of a common profile are always at distance >= 2, which
        # meets the Johnson bound's membership count: no witness is needed.
        table.insert(
            _record(m, n, d, w, "lower", cell_profile_count, "all profile words")
        )
        return False
    power_exact = tightness_exact(m, n, d, w)
    if power_exact is not None:
        table.insert(power_exact)
    triv = trivial_upper(m, n, d, w, table)
    if triv.value != INF:
        table.insert(triv)

    # Constructions.
    table.insert(_record(m, n, d, w, "lower", 1, "single word"))
    if _rs_exponent(m, n, d_eff, w) > m:
        # With s <= m the power-exact record above carries this witness.
        witness = rs_mcwc(m, n, d_eff, w)
        table.insert(_record(m, n, d, w, "lower", witness.size, witness.provenance))
    for size, guarantee, prov in _construction_candidates(m, n, w):
        if guarantee >= d:
            table.insert(_record(m, n, d, w, "lower", size, prov))
    ref = table.references.cwc(m * n, d, m * w)
    if ref is not None and ref.lower is not None:
        if m == 1:
            # The one-block cell is the constant-weight quantity itself.
            table.insert(
                _record(m, n, d, w, "lower", ref.lower,
                        f"cwc-reference[A({n},{d},{w})>={ref.lower}, {ref.source}]")
            )
        else:
            table.insert(eb_transfer(m, n, d, w, ref.lower, ref.source))

    # Exact search, budget permitting, unless the rules above pinned the cell.
    return cell_profile_count <= vertex_cap and table.exact_value((m, n, d, w)) is None


def search_cells(
    table: BoundTable,
    cells: Iterable[tuple[int, int, int, int]],
    pool=None,
    *,
    node_budget: int = TABLE_NODE_BUDGET,
    vertex_cap: int = TABLE_VERTEX_CAP,
) -> None:
    """Run each cell's exact search, bounded by its best upper bound when the cell
    arrives, on a worker of `pool` (an Executor, as workers.fork_pool makes) or,
    with no pool, in this process; insert the records in cell order once every
    cell has arrived.  So `cells` may be a generator that evaluates the later
    cells' rules while the searches run: its errors come before any search's,
    and the searches' errors come in cell order.
    """
    results = []
    for cell in cells:
        search = partial(_worker_exact_search, *cell, node_budget=node_budget,
                         vertex_cap=vertex_cap, upper=table.best_upper(cell)[0])
        results.append(search if pool is None else pool.submit(search).result)
    for result in results:
        table.insert(result())


def _worker_exact_search(*args, **kwargs):
    """exact_search as this module names it when it is called, so a worker
    runs a function put in its place (a tracing wrapper, say) as the parent would."""
    return exact_search(*args, **kwargs)


def table_build(
    m_values: Iterable[int],
    n_values: Iterable[int],
    w_values: Iterable[int],
    d_values: Iterable[int] | None = None,
    *,
    references: ReferenceStore | None = None,
    node_budget: int = TABLE_NODE_BUDGET,
    vertex_cap: int = TABLE_VERTEX_CAP,
) -> BoundTable:
    """Evaluate every cell in the given ranges once, in ascending m, n, w and d; d
    defaults to all even d <= m*n.

    Only an m > 1 cell reads another, the m = 1 cell it embeds in, so the m = 1
    cells are one phase and the rest a second.  search_cells runs a phase's
    searches on a workers.fork_pool, one forked worker per usable CPU, while
    the phase's later cells are evaluated, and inserts their records in cell
    order before the next phase: the records are those of a run with every
    search in this process.  Errors come in the same order on one CPU as on
    many: a rule's error before the phase's searches are read, and then the
    searches' errors in cell order.  The cells' Johnson profiles are worked
    out first, in one batch under one JOHNSON_PROFILE_CAP, so a table past
    the cap raises SearchSpaceError before any cell is evaluated.
    """
    table = BoundTable(references)
    ms, ns, ws = (sorted(set(values)) for values in (m_values, n_values, w_values))
    ds = sorted(set(d_values)) if d_values is not None else None
    cells = [
        (m, n, d, w)
        for m in ms for n in ns for w in ws if w <= n
        for d in (ds if ds is not None else range(2, m * n + 1, 2))
    ]
    # The johnson_general rows of every cell, in one batch from the smallest d asked.
    asked = {
        (_normalize_profile(((n, w),) * m), _lift(d)[0] // 2)
        for m, n, d, w in cells
        if 2 <= _lift(d)[0] // 2 <= m * min(w, n - w)
    }
    if asked:
        _johnson_solve({parts for parts, _ in asked}, min(u for _, u in asked), 1)
    pool = None
    if any(comb(n, w) ** m <= vertex_cap for m, n, _, w in cells):  # a cell may search
        pool = workers.fork_pool(workers.usable_cpus())
    try:
        for phase in ([c for c in cells if c[0] == 1], [c for c in cells if c[0] > 1]):
            open_cells = (c for c in phase if evaluate_cell(table, *c, vertex_cap=vertex_cap))
            search_cells(table, open_cells, pool, node_budget=node_budget, vertex_cap=vertex_cap)
    finally:
        if pool is not None:
            workers.stop(pool)
    return table
