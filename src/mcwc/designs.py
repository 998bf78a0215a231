"""Resolvable block designs and their conversion to constant-row-weight codes.

Implemented families: affine planes over GF(q) (strength 2, block size q) and
one-factorizations of complete graphs via the circle method (block size 2).
Externally found designs can be loaded from file and verified before use.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Sequence, TextIO

from .codes import WeightProfile, pack_words
from .constructions import ConstructionResult, _finish
from .gf import field_for_order


class DesignError(ValueError):
    pass


Block = tuple[int, ...]
ParallelClass = tuple[Block, ...]


@dataclass(frozen=True)
class ResolvableDesign:
    """A resolvable t-(v, k, 1) design given as parallel classes of blocks.

    Canonical form: points are 0..v-1, blocks are sorted tuples, blocks within
    a class are sorted, classes are sorted lexicographically.
    """

    v: int
    k: int
    t: int
    classes: tuple[ParallelClass, ...]

    def expected_class_count(self) -> int:
        """k*C(v,t) / (v*C(k,t)) -- the class count of a full resolvable design."""
        return self.k * comb(self.v, self.t) // (self.v * comb(self.k, self.t))


def canonical_classes(classes: Sequence[Sequence[Sequence[int]]]) -> tuple[ParallelClass, ...]:
    normalized = [
        tuple(sorted(tuple(sorted(block)) for block in cls)) for cls in classes
    ]
    return tuple(sorted(normalized))


# Most t-subset coverage entries (blocks x C(k, t)) a design may ask to count.
MAX_COVERAGE_ENTRIES = 1 << 19


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

    Distinct blocks share at most t-1 points, which is what drives the code
    distance, and needs no pairwise pass: two blocks sharing t points would
    cover one t-subset twice, which the coverage check refuses in both modes.
    Only covered t-subsets are counted, after check_coverage; the error names
    the lexicographically first t-subset that fails.
    """
    v, k, t = design.v, design.k, design.t
    if t < 1 or k < t or v < k or v % k:
        raise DesignError(f"inconsistent parameters v={v} k={k} t={t}")
    points = set(range(v))
    for ci, cls in enumerate(design.classes):
        if len(cls) != v // k:
            raise DesignError(f"class {ci} has {len(cls)} blocks, expected {v // k}")
        covered: set[int] = set()
        for block in cls:
            if len(block) != k or len(set(block)) != k:
                raise DesignError(f"block {block} in class {ci} is not a {k}-subset")
            covered.update(block)
        if covered != points:
            raise DesignError(f"class {ci} does not partition the point set")

    check_coverage(len(design.classes) * (v // k), k, t)
    coverage: dict[tuple[int, ...], int] = {}
    for cls in design.classes:
        for block in cls:
            for sub in combinations(sorted(block), t):
                coverage[sub] = coverage.get(sub, 0) + 1
    bad = [sub for sub, count in coverage.items() if count > 1]
    if require_complete and len(coverage) < comb(v, t):
        # Every t-subset before the first uncovered one is covered, so this
        # scan takes at most len(coverage) + 1 steps.
        bad.append(next(sub for sub in combinations(range(v), t) if sub not in coverage))
    if bad:
        sub = min(bad)
        raise DesignError(f"{t}-subset {sub} covered {coverage.get(sub, 0)} times")


def affine_plane(q: int) -> ResolvableDesign:
    """The affine plane of prime-power order q: a resolvable 2-(q^2, q, 1) design.

    Points are pairs (x, y) over GF(q), numbered x*q + y; there is one parallel
    class of lines per slope plus the vertical class, q+1 classes in total.
    """
    import numpy as np  # imported on first use, as in mcwc.clique

    field = field_for_order(q)
    check_coverage(q * (q + 1), q, 2)
    points = np.arange(q)
    a, b, x = np.ix_(points, points, points)  # slope, intercept, abscissa
    lines = x * q + field.add(field.mul(a, x), b)  # class a, line y = a*x + b
    vertical = points[:, None] * q + points  # one class: line x = c
    classes = lines.tolist() + [vertical.tolist()]

    design = ResolvableDesign(q * q, q, 2, canonical_classes(classes))
    verify_design(design)
    return design


def one_factorization(v: int) -> ResolvableDesign:
    """Circle-method one-factorization of K_v: a resolvable 2-(v, 2, 1) design."""
    if v < 2 or v % 2:
        raise DesignError(f"need an even number of points, got {v}")
    check_coverage(v * (v - 1) // 2, 2, 2)
    classes = []
    for r in range(v - 1):
        cls = [[v - 1, r]]
        for i in range(1, v // 2):
            cls.append([(r + i) % (v - 1), (r - i) % (v - 1)])
        classes.append(cls)
    design = ResolvableDesign(v, 2, 2, canonical_classes(classes))
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
    words = []
    for cls in design.classes:  # one class at a time: a word's 0/1 rows are m*v bytes
        bits = np.zeros((m, v), dtype=np.uint8)
        np.put_along_axis(bits, np.array(cls, dtype=np.intp), 1, axis=1)
        words += pack_words(bits.reshape(1, m * v))
    profile = WeightProfile.homogeneous(m, v, k)
    prov = f"design({t}-({v},{k},1) resolvable, {len(design.classes)} classes)"
    return _finish(words, m * v, guaranteed, profile, prov, len(design.classes))


# ---------- file format ----------
#
#   # design v=<v> k=<k> t=<t>
#   one parallel class per line, blocks separated by '|', points by ','

def design_write(f: TextIO, design: ResolvableDesign, extra_comments: Sequence[str] = ()) -> None:
    for line in extra_comments:
        f.write(f"# {line}\n")
    f.write(f"# design v={design.v} k={design.k} t={design.t}\n")
    for cls in design.classes:
        f.write("|".join(",".join(str(p) for p in block) for block in cls) + "\n")


def design_read(f: TextIO) -> ResolvableDesign:
    header = None
    rows = []
    for raw in f:
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            stripped = line[1:].strip()
            if stripped.startswith("design ") and header is None:
                header = stripped[7:]
            continue
        rows.append(line)
    if header is None:
        raise DesignError("missing '# design ...' header line")
    try:
        fields = dict(chunk.split("=") for chunk in header.split())
        v, k, t = int(fields["v"]), int(fields["k"]), int(fields["t"])
    except (KeyError, ValueError) as exc:
        raise DesignError(f"malformed header {header!r}") from exc
    classes = []
    for line in rows:
        try:
            classes.append(
                [[int(p) for p in block.split(",")] for block in line.split("|")]
            )
        except ValueError as exc:
            raise DesignError(f"bad class line {line!r}") from exc
    return ResolvableDesign(v, k, t, canonical_classes(classes))


def design_read_path(path) -> ResolvableDesign:
    with open(path) as f:
        return design_read(f)
