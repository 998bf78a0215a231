"""Resolvable block designs and their conversion to constant-row-weight codes.

Implemented families: affine planes over GF(q) (strength 2, block size q) and
one-factorizations of complete graphs via the circle method (block size 2).
Externally found designs can be loaded from file and verified before use.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations
from math import comb
from typing import TextIO

from .codes import WeightProfile, pack_tiles
from .constructions import ConstructionResult, _finish
from .gf import field_for_order


class DesignError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class ResolvableDesign:
    """A resolvable t-(v, k, 1) design given as parallel classes of blocks.

    classes is a read-only int64 array of shape (class count, v / k, k), made
    from any integer array or nested sequences of that shape, in canonical
    order: points within a block, blocks within a class, and classes sorted.
    """

    v: int
    k: int
    t: int
    classes: object  # numpy array of shape (class count, v / k, k)

    def __post_init__(self):
        import numpy as np  # imported on first use, as in mcwc.clique

        v, k, t = self.v, self.k, self.t
        if t < 1 or k < t or v < k or v % k:
            raise DesignError(f"inconsistent parameters v={v} k={k} t={t}")
        blocks = v // k
        try:  # ragged classes, and points that are not integers or past int64, fail too
            classes = np.asarray(self.classes) if len(self.classes) else np.empty((0, blocks, k), int)
            classes = np.sort(classes.astype(np.int64, casting="safe", copy=False), axis=2)
            if classes.shape[1:] != (blocks, k):
                raise ValueError
        except (TypeError, ValueError):
            raise DesignError(f"classes are not arrays of {blocks} blocks of {k} integer points") from None
        if len(classes):  # blocks in order within each class, then the classes in order
            order = np.lexsort(classes.transpose(2, 0, 1)[::-1], axis=-1)
            classes = np.take_along_axis(classes, order[..., None], axis=1)
            classes = classes[np.lexsort(classes.reshape(len(classes), -1).T[::-1])]
        classes.flags.writeable = False
        object.__setattr__(self, "classes", classes)

    def expected_class_count(self) -> int | None:
        """k*C(v,t) / (v*C(k,t)) -- the class count of a full resolvable design --
        or None when a full design would cover more than MAX_COVERAGE_ENTRIES t-subsets."""
        if capped_comb(self.v, self.t) > MAX_COVERAGE_ENTRIES:
            return None
        return self.k * comb(self.v, self.t) // (self.v * comb(self.k, self.t))


# Most t-subset coverage entries (blocks x C(k, t)) a design may ask to count.
MAX_COVERAGE_ENTRIES = 1 << 19


def capped_comb(v: int, t: int) -> int:
    """C(v, t) for 0 <= t <= v, or MAX_COVERAGE_ENTRIES + 1 once the count passes the cap.

    C(v, i) grows with i up to i = v/2, so the product stops within a few
    dozen steps for any v and t.
    """
    count = 1
    for i in range(min(t, v - t)):
        count = count * (v - i) // (i + 1)
        if count > MAX_COVERAGE_ENTRIES:
            return MAX_COVERAGE_ENTRIES + 1
    return count


def check_coverage(blocks: int, k: int, t: int) -> None:
    """Refuse a design whose blocks cover more than MAX_COVERAGE_ENTRIES t-subsets."""
    entries = blocks * comb(k, t)
    if entries > MAX_COVERAGE_ENTRIES:
        raise DesignError(
            f"{blocks} blocks of {k} points cover {entries} {t}-subsets, over the cap of "
            f"{MAX_COVERAGE_ENTRIES}"
        )


def verify_design(design: ResolvableDesign, *, require_complete: bool = True) -> None:
    """Exhaustively check the design invariants; raises DesignError on failure.

    With require_complete=False, t-subsets may be covered at most once instead
    of exactly once.  That accepts a partial resolution (for example, a file
    holding only some parallel classes); the block-intersection property that
    drives the code distance survives, and downstream bounds then reflect the
    ingested object's actual class count rather than the full-design formula.

    The sorted points of each class must be 0..v-1.  Distinct blocks then
    share at most t-1 points, which drives the code distance, unless a
    t-subset is covered twice, which is refused in both modes.  After
    check_coverage the t-subsets of all blocks are sorted once; the error
    names the lexicographically first t-subset that fails.
    """
    import numpy as np

    v, k, t, classes = design.v, design.k, design.t, design.classes
    subsets = np.empty((0, t), dtype=np.int64)
    if len(classes):
        wrong = (np.sort(classes.reshape(len(classes), v), axis=1) != np.arange(v)).any(axis=1)
        if wrong.any():
            raise DesignError(f"class {wrong.argmax()} does not partition the point set")
        check_coverage(len(classes) * (v // k), k, t)
        subsets = classes.reshape(-1, k)[:, list(combinations(range(k), t))].reshape(-1, t)
        subsets = subsets[np.lexsort(subsets.T[::-1])]
    repeats = np.flatnonzero((subsets[1:] == subsets[:-1]).all(axis=1)) + 1  # each as the row before
    first = subsets[repeats[:1]]  # the first repeated t-subset, if any, and its count
    bad = [(tuple(sub.tolist()), int((subsets == sub).all(axis=1).sum())) for sub in first]
    covered = np.delete(subsets, repeats, axis=0)
    if require_complete and not len(covered):  # no block, so no repeat: t comes from the header alone
        bad.append((range(t), 0))
    elif require_complete and len(covered) < capped_comb(v, t):  # check_coverage caps len(covered)
        # At most len(covered) + 1 steps: all t-subsets before the first uncovered one are covered.
        covered = chain(map(tuple, covered.tolist()), [None])
        bad.append((next(sub for sub, got in zip(combinations(range(v), t), covered) if sub != got), 0))
    if bad:
        sub, count = min(bad)
        raise DesignError(f"{t}-subset {_subset_text(sub)} covered {count} times")


def _subset_text(sub) -> str:
    """A t-subset as its tuple's text, with the middle of one over 8 points elided: (0, 1, 2, …, 199999)."""
    points = list(sub) if len(sub) <= 8 else [*sub[:3], "…", sub[-1]]
    return "(" + ", ".join(map(str, points)) + ("," if len(sub) == 1 else "") + ")"


def affine_plane(q: int) -> ResolvableDesign:
    """The affine plane of prime-power order q: a resolvable 2-(q^2, q, 1) design.

    Points are pairs (x, y) over GF(q), numbered x*q + y; there is one parallel
    class of lines per slope plus the vertical class, q+1 classes in total.
    """
    import numpy as np

    field = field_for_order(q)
    check_coverage(q * (q + 1), q, 2)
    points = np.arange(q)
    a, b, x = np.ix_(points, points, points)  # slope, intercept, abscissa
    lines = x * q + field.add(field.mul(a, x), b)  # class a, line y = a*x + b
    vertical = points[:, None] * q + points  # one class: line x = c
    design = ResolvableDesign(q * q, q, 2, np.concatenate([lines, vertical[None]]))
    verify_design(design)
    return design


def one_factorization(v: int) -> ResolvableDesign:
    """Circle-method one-factorization of K_v: a resolvable 2-(v, 2, 1) design."""
    import numpy as np

    if v < 2 or v % 2:
        raise DesignError(f"need an even number of points, got {v}")
    check_coverage(v * (v - 1) // 2, 2, 2)
    # Block i of class r pairs r - i with r + i (mod v - 1), or with point v - 1 when i = 0.
    r, i = np.ix_(np.arange(v - 1), np.arange(v // 2))
    ends = np.where(i == 0, v - 1, (r + i) % (v - 1)), (r - i) % (v - 1)
    design = ResolvableDesign(v, 2, 2, np.stack(ends, axis=2))
    verify_design(design)
    return design


def design_to_mcwc(design: ResolvableDesign) -> ConstructionResult:
    """One codeword per parallel class: row r is the indicator of the r-th block.

    Blocks within a class are taken in canonical order (sorted by smallest
    point), so the output is reproducible.  Distinct blocks share at most t-1
    points, which yields distance >= 2*(k-t+1)*(v/k).  Partial resolutions are
    accepted; the code size is then the supplied class count.
    """
    import numpy as np

    verify_design(design, require_complete=False)
    v, k, t = design.v, design.k, design.t
    m = v // k
    guaranteed = 2 * (k - t + 1) * m

    def tile(rows):  # row r of a class's word marks the points of its block r
        bits = np.zeros((rows.stop - rows.start, m, v), dtype=np.uint8)
        np.put_along_axis(bits, design.classes[rows], 1, axis=2)
        return bits

    words = pack_tiles(len(design.classes), m * v, tile)
    profile = WeightProfile.homogeneous(m, v, k)
    prov = f"design({t}-({v},{k},1) resolvable, {len(design.classes)} classes)"
    return _finish(words, m * v, guaranteed, profile, prov, len(design.classes))


# ---------- file format ----------
#
#   # design v=<v> k=<k> t=<t>
#   one parallel class per line, blocks separated by '|', points by ','

def design_write(f: TextIO, design: ResolvableDesign) -> None:
    v, k = design.v, design.k
    f.write(f"# design v={v} k={k} t={design.t}\n")
    line = "|".join([",".join(["%d"] * k)] * (v // k)) + "\n"
    f.write(line * len(design.classes) % tuple(design.classes.ravel().tolist()))


def design_read(f: TextIO) -> ResolvableDesign:
    import numpy as np

    lines = [raw.strip() for raw in f]
    rows = [line for line in lines if line and not line.startswith("#")]
    comments = [line[1:].strip() for line in lines if line.startswith("#")]
    header = next((text[7:] for text in comments if text.startswith("design ")), None)
    if header is None:
        raise DesignError("missing '# design ...' header line")
    try:
        fields = dict(chunk.split("=") for chunk in header.split())
        v, k, t = int(fields["v"]), int(fields["k"]), int(fields["t"])
    except (KeyError, ValueError) as exc:
        raise DesignError(f"malformed header {header!r}") from exc
    classes = []
    for line in rows:  # each line one (blocks, points) array; ragged ones are refused
        try:
            classes.append(np.array([block.split(",") for block in line.split("|")], dtype=np.int64))
        except (ValueError, OverflowError) as exc:
            raise DesignError(f"bad class line {line!r}") from exc
    return ResolvableDesign(v, k, t, classes)


def design_read_path(path) -> ResolvableDesign:
    with open(path) as f:
        return design_read(f)
