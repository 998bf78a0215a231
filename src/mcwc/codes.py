"""Codeword and code types, distance/weight verification, systematic sets, file I/O.

Both alphabets keep their words as one 2-D numpy array of sorted, distinct
rows, from every builder through the file to the verifier.  A binary row is
np.packbits bytes: coordinate j (0-based, left to right) is bit 7 - j % 8 of
byte j // 8, the pad bits are zero, and byte order is the order of the words
read as binary numbers.  Builders pack 0/1 rows, blocks left to right, and
readers np.unpackbits(..., count=length) them; ints and "0101" strings are
only an edge format (from_words, word_strings).  A q-ary row holds symbols
in the narrowest unsigned dtype that holds q-1.  One kernel verifies both
alphabets over row tiles of a bounded byte size: binary rows differ by XOR
popcount, q-ary rows symbol by symbol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator, Sequence, TextIO, Union


class CodeError(ValueError):
    pass


# ---------- weight profiles ----------

@dataclass(frozen=True)
class WeightProfile:
    """Per-block (length, weight) constraints; block i must hold exactly w_i ones."""

    parts: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not self.parts:
            raise CodeError("profile needs at least one block")
        for n_i, w_i in self.parts:
            if n_i < 0 or not 0 <= w_i <= n_i:
                raise CodeError(f"invalid profile block ({n_i},{w_i})")

    @classmethod
    def homogeneous(cls, m: int, n: int, w: int) -> "WeightProfile":
        if m < 1:
            raise CodeError("profile needs at least one block")
        return cls(((n, w),) * m)

    @property
    def m(self) -> int:
        return len(self.parts)

    @property
    def length(self) -> int:
        return sum(n_i for n_i, _ in self.parts)

    def is_homogeneous(self) -> bool:
        return len(set(self.parts)) == 1

    def describe(self) -> str:
        return ",".join(f"{n_i}:{w_i}" for n_i, w_i in self.parts)

    @classmethod
    def parse(cls, text: str) -> "WeightProfile":
        try:
            parts = tuple(
                (int(n_i), int(w_i))
                for n_i, w_i in (chunk.split(":") for chunk in text.split(","))
            )
        except ValueError as exc:
            raise CodeError(f"bad profile spec {text!r}") from exc
        return cls(parts)


def word_from_str(text: str) -> int:
    if not text or set(text) - {"0", "1"}:
        raise CodeError(f"bad binary word {text!r}")
    return int(text, 2)


# ---------- distance ----------

Wordlike = Union[str, Sequence[int]]


def hamming_distance(u: Wordlike, v: Wordlike) -> int:
    """Number of differing positions; raises on length mismatch."""
    if len(u) != len(v):
        raise CodeError(f"length mismatch: {len(u)} vs {len(v)}")
    return sum(a != b for a, b in zip(u, v))


# ---------- codes ----------

def _row_keys(words):
    """One bytes key per row of a 2-D unsigned array (a view for uint8): keys compare as rows do,
    as big-endian bytes compare in the order of the values they hold."""
    import numpy as np

    big = np.ascontiguousarray(words, dtype=words.dtype.newbyteorder(">"))
    return big.view(np.dtype(("S", big.itemsize * big.shape[1]))).ravel()


def _sorted_rows(words):
    """The rows of a 2-D unsigned array in lexicographic order."""
    return words[_row_keys(words).argsort(kind="stable")] if words.size else words


def _check_rows(words, show) -> None:
    """Raise CodeError unless the rows of `words` are sorted and distinct; show(row) names a row."""
    if len(words) < 2:
        return
    if not words.shape[1]:  # rows of no bytes have no keys
        raise CodeError(f"duplicate word {show(words[0])}")
    keys = _row_keys(words)
    same = (keys[1:] == keys[:-1]).nonzero()[0]
    if len(same):
        raise CodeError(f"duplicate word {show(words[same[0]])}")
    if (keys[1:] < keys[:-1]).any():
        raise CodeError("words must be sorted")


@dataclass(frozen=True, eq=False)
class BinaryCode:
    """A set of equal-length binary words with a claimed minimum distance.

    words is a 2-D uint8 array of np.packbits rows, ceil(length / 8) bytes
    each, with zero pad bits; its rows are sorted and distinct.
    """

    length: int
    words: object  # numpy array of shape (word count, ceil(length / 8))
    claimed_distance: int = 0
    profile: WeightProfile | None = None

    def __post_init__(self):
        if self.length < 0:
            raise CodeError("negative length")
        words, width, pad = self.words, -(-self.length // 8), -self.length % 8
        if words.dtype != "uint8" or words.shape[1:] != (width,):
            raise CodeError(f"words must be a 2-D uint8 array of {width} packed bytes per row")
        if pad and (words[:, -1] & ((1 << pad) - 1)).any():
            raise CodeError(f"a word has nonzero pad bits past length {self.length}")
        _check_rows(words, lambda row: next(_word_strings(row[None], self.length)))
        if self.profile is not None and self.profile.length != self.length:
            raise CodeError("profile length does not match code length")

    @classmethod
    def from_words(
        cls,
        words,
        length: int | None = None,
        claimed_distance: int = 0,
        profile: WeightProfile | None = None,
    ) -> "BinaryCode":
        """The code of `words` in any order: ints (coordinate j is bit length-1-j),
        "0101" strings, or the packed rows of a 2-D uint8 array."""
        import numpy as np

        if not (isinstance(words, np.ndarray) and words.ndim == 2):
            ints = []
            for wd in words:
                if isinstance(wd, str):
                    length = len(wd) if length is None else length
                    if len(wd) != length:
                        raise CodeError(f"word {wd!r} does not have length {length}")
                    wd = word_from_str(wd)
                ints.append(int(wd))
            if length is None:
                raise CodeError("length required when words are not strings")
            width, pad = -(-length // 8), -length % 8
            try:
                raw = b"".join((wd << pad).to_bytes(width, "big") for wd in ints)
            except OverflowError as exc:
                raise CodeError(f"a word is out of range for length {length}") from exc
            words = np.frombuffer(raw, dtype=np.uint8).reshape(len(ints), width)
        return cls(length, _sorted_rows(words), claimed_distance, profile)

    def word_strings(self) -> list[str]:
        return list(_word_strings(self.words, self.length))


def _word_strings(words, length: int) -> Iterator[str]:
    """Each packed row as a "0101" string, unpacked about TILE_BYTES bits at a time."""
    import numpy as np

    for rows in _tiles(len(words), length):
        for row in np.unpackbits(words[rows], axis=1, count=length) + ord("0"):
            yield row.tobytes().decode()


def _symbol_dtype(q: int):
    """The narrowest unsigned numpy dtype that holds the symbols 0..q-1."""
    import numpy as np

    if not 2 <= q <= 1 << 64:
        raise CodeError(f"alphabet size {q} is not in 2..2^64")
    return np.min_scalar_type(q - 1)


@dataclass(frozen=True, eq=False)
class QaryCode:
    """A set of equal-length words over the alphabet {0, ..., q-1}.

    words is a 2-D numpy array, one row per word, in the narrowest unsigned
    dtype that holds q-1; its rows are sorted and distinct.
    """

    q: int
    length: int
    words: object  # numpy array of shape (word count, length)
    claimed_distance: int = 0

    def __post_init__(self):
        words, dtype = self.words, _symbol_dtype(self.q)
        if words.dtype != dtype or words.shape[1:] != (self.length,) or self.length < 1:
            raise CodeError(f"words must be a 2-D {dtype} array of {self.length} >= 1 columns")
        if words.size and words.max() >= self.q:
            raise CodeError(f"symbol {words.max()} out of range for q={self.q}")
        _check_rows(words, lambda row: row.tolist())

    @classmethod
    def from_words(
        cls, words: Iterable[Sequence[int]], q: int, length: int | None = None,
        claimed_distance: int = 0,
    ) -> "QaryCode":
        """The code of `words` (sequences of ints, or rows of an int array) in any order."""
        import numpy as np

        if not isinstance(words, np.ndarray):
            words = list(words)
            try:
                words = np.array(words, dtype=np.uint64).reshape(len(words), length or -1)
            except (ValueError, OverflowError) as exc:
                raise CodeError(f"words are not rows of symbols in 0..2^64-1: {exc}") from exc
        if words.size and words.max() >= q:
            raise CodeError(f"symbol out of range for q={q}")
        words = words.astype(_symbol_dtype(q), copy=False)
        return cls(q, words.shape[1], _sorted_rows(words), claimed_distance)


Code = Union[BinaryCode, QaryCode]


# ---------- verification ----------

@dataclass(frozen=True)
class VerificationReport:
    min_distance: float  # exact minimum pairwise distance; +inf if < 2 words
    claimed_distance: int
    profile_violations: tuple[tuple[int, int, int, int], ...]  # (word, block, got, want)
    closest_pair: tuple[int, int] | None
    passed: bool

    def summary(self) -> str:
        md = "inf" if math.isinf(self.min_distance) else str(int(self.min_distance))
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status} min_distance={md} claimed={self.claimed_distance} "
            f"profile_violations={len(self.profile_violations)}"
        )


# Bytes of one comparison temporary in a distance tile (one limb or symbol
# position of a tile's rows against its columns): a tile's row count follows
# from the word count and element width alone, so its temporaries stay near
# this for any word length.  Unpacked 0/1 rows are built and read about this
# many bytes at a time too.
TILE_BYTES = 1 << 18


# numpy is imported inside the functions that use it, as in mcwc.clique.

def _tiles(count: int, row_bytes: int) -> list[slice]:
    """Consecutive slices of `count` rows of row_bytes bytes, about TILE_BYTES each."""
    rows = max(1, TILE_BYTES // max(1, row_bytes))
    return [slice(start, min(start + rows, count)) for start in range(0, count, rows)]


def distance_tiles(words, later: bool = False, symbols: bool = False) -> Iterator[tuple[int, object]]:
    """Yield (start, dist) over consecutive tiles of a code's word array.

    words holds packed binary rows or, with `symbols`, q-ary symbol rows.
    Binary rows are zero-padded to uint64 limbs; an XOR popcount does not
    depend on the bit order inside a limb.  dist[r, c] is the distance
    between words start + r and c, summed over limbs or symbol positions in
    the narrowest unsigned dtype that holds the word width: the XOR popcount
    of limbs, or the count of unequal symbols.  With `later` each tile is set
    against the words after its first word only: dist[r, c] pairs words
    start + r and start + 1 + c, entries with c < r hold the dtype's maximum
    (which no distance exceeds, and row 0 has no such entry), and the last
    word, which has no later word, starts no tile.
    """
    import numpy as np

    if symbols:
        parts = np.ascontiguousarray(words.T)
    else:  # row l holds limb l, bytes 8l to 8l+7 zero-padded, of every word
        count, width = words.shape
        parts = np.zeros((max(1, -(-width // 8)), count), dtype=np.uint64)
        limbs, full = parts.view(np.uint8).reshape(len(parts), count, 8), width // 8
        limbs[:full] = words[:, :8 * full].reshape(count, full, 8).transpose(1, 0, 2)
        limbs[full:, :, :width % 8] = words[:, 8 * full:]
    width, count = parts.shape
    dtype = np.min_scalar_type(width if symbols else 64 * width)
    differ = np.not_equal if symbols else lambda a, b: np.bitwise_count(a ^ b)
    rows = max(1, min(count, TILE_BYTES // (parts.itemsize * max(1, count))))
    index = np.arange(rows)
    below = index[:, None] > index  # c < r within a later tile
    stop = count - 1 if later else count
    for start in range(0, stop, rows):
        end = min(start + rows, stop)
        columns = start + 1 if later else 0
        dist = np.zeros((end - start, count - columns), dtype=dtype)
        for part in parts:
            dist += differ(part[start:end, None], part[None, columns:])
        if later:
            n = end - start
            dist[:, :n][below[:n, :n]] = np.iinfo(dtype).max
        yield start, dist


def pack_tiles(count: int, length: int, tile):
    """Packed rows of `count` words; tile(rows) gives the 0/1 rows of slice `rows` in any shape."""
    import numpy as np

    words = np.empty((count, -(-length // 8)), dtype=np.uint8)
    for rows in _tiles(count, length):
        words[rows] = np.packbits(tile(rows).reshape(rows.stop - rows.start, length), axis=1)
    return words


# Most indicator bits (words x q x length) indicator_words builds: 256 MiB.
MAX_INDICATOR_BITS = 1 << 31


def indicator_words(code: QaryCode):
    """Each word as packed q-bit symbol indicators, position 0 leftmost: symbol s sets column s.

    A code of more than MAX_INDICATOR_BITS bits in all is refused before any
    word is built.
    """
    import numpy as np

    q, length = code.q, code.length
    bits = len(code.words) * q * length
    if bits > MAX_INDICATOR_BITS:
        raise CodeError(f"{bits} indicator bits exceed the cap of {MAX_INDICATOR_BITS}")
    symbols = np.arange(q, dtype=code.words.dtype)
    return pack_tiles(len(code.words), q * length, lambda rows: code.words[rows, :, None] == symbols)


def verify_code(code: Code) -> VerificationReport:
    """Exhaustively verify distance claim and (for binary codes) profile weights.

    closest_pair is the lexicographically first pair (i, j), i < j, at the
    minimum distance.
    """
    import numpy as np

    if len(code.words) == 0:
        raise CodeError("cannot verify an empty code")

    binary = isinstance(code, BinaryCode)
    violations: list[tuple[int, int, int, int]] = []
    if binary and code.profile is not None:
        want = [w_i for _, w_i in code.profile.parts]
        ends = np.cumsum([0] + [n_i for n_i, _ in code.profile.parts])
        got = np.empty((len(code.words), len(want)), dtype=np.int64)
        for rows in _tiles(len(code.words), code.length):  # ones[:, j]: a word's ones before column j
            bits = np.pad(np.unpackbits(code.words[rows], axis=1, count=code.length), ((0, 0), (1, 0)))
            ones = np.cumsum(bits, axis=1, dtype=np.min_scalar_type(code.length))
            got[rows] = np.diff(ones[:, ends], axis=1)
        # nonzero lists the (word, block) entries in row-major order.
        bad_words, bad_blocks = np.nonzero(got != want)
        violations = [
            (wi, bi, int(got[wi, bi]), want[bi])
            for wi, bi in zip(bad_words.tolist(), bad_blocks.tolist())
        ]

    min_dist: float = math.inf
    closest = None
    for start, dist in distance_tiles(code.words, later=True, symbols=not binary):
        # argmin takes the first minimum in row-major order, so with tiles in
        # row order and a strict improvement test the first pair wins a tie.
        r, c = divmod(int(dist.argmin()), dist.shape[1])
        if dist[r, c] < min_dist:
            min_dist, closest = int(dist[r, c]), (start + r, start + 1 + c)

    passed = min_dist >= code.claimed_distance and not violations
    return VerificationReport(min_dist, code.claimed_distance, tuple(violations), closest, passed)


# ---------- systematic sets ----------

def find_systematic_set(code: BinaryCode) -> tuple[int, ...] | None:
    """Lexicographically first k-subset of coordinates on which the code hits all 2^k patterns.

    Requires |code| = 2^k.  Returns 0-based coordinate indices, or None.
    Coordinates that are constant across the code are pruned up front: they can
    never appear in a systematic set.
    """
    import numpy as np

    size = len(code.words)
    if size == 0 or size & (size - 1):
        raise CodeError(f"code size {size} is not a power of two")
    k = size.bit_length() - 1
    if k == 0:
        return ()
    bits = np.unpackbits(code.words, axis=1, count=code.length)
    varying = np.flatnonzero(bits.min(axis=0) != bits.max(axis=0)).tolist()
    if len(varying) < k:
        return None

    for coords in combinations(varying, k):
        if len(set((bits[:, coords] @ (1 << np.arange(k))).tolist())) == size:  # patterns as ints
            return coords
    return None


# ---------- file format ----------
#
#   # code q=<q> len=<N> d=<d> profile=<n1:w1,...|none>
#   <word per line: binary digits for q=2, comma-separated symbols otherwise>
#
# Extra comment lines (provenance, manifest) may precede or follow the header.

def code_write(f: TextIO, code: Code, extra_comments: Sequence[str] = ()) -> None:
    for line in extra_comments:
        f.write(f"# {line}\n")
    if isinstance(code, BinaryCode):
        prof = code.profile.describe() if code.profile is not None else "none"
        f.write(f"# code q=2 len={code.length} d={code.claimed_distance} profile={prof}\n")
        f.writelines(text + "\n" for text in _word_strings(code.words, code.length))
    else:
        f.write(f"# code q={code.q} len={code.length} d={code.claimed_distance} profile=none\n")
        sep = "" if code.q == 2 else ","
        for row in code.words:
            f.write(sep.join(map(str, row.tolist())) + "\n")


def code_read(f: TextIO) -> Code:
    import numpy as np

    header = None
    body: list[str] = []
    for raw in f:
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            stripped = line[1:].strip()
            if stripped.startswith("code ") and header is None:
                header = stripped[5:]
            continue
        body.append(line)
    if header is None:
        raise CodeError("missing '# code ...' header line")

    fields = {}
    for chunk in header.split():
        key, _, val = chunk.partition("=")
        if not val:
            raise CodeError(f"malformed header field {chunk!r}")
        fields[key] = val
    try:
        q, length, d = (int(fields[key]) for key in ("q", "len", "d"))
    except (KeyError, ValueError) as exc:
        raise CodeError(f"malformed header {header!r}") from exc
    if length < 0:
        raise CodeError(f"malformed header {header!r}")
    profile = fields.get("profile", "none")
    profile = None if profile == "none" else WeightProfile.parse(profile)

    if q == 2:
        return BinaryCode.from_words(body, length, d, profile)
    words = np.empty((len(body), length), dtype=_symbol_dtype(q))
    for i, line in enumerate(body):
        try:
            row = np.array(line.split(","), dtype=np.uint64)
        except (ValueError, OverflowError) as exc:
            raise CodeError(f"bad symbol line {line!r}") from exc
        if len(row) != length or row.max() >= q:
            raise CodeError(f"word {line!r} is not {length} symbols below q={q}")
        words[i] = row
    return QaryCode.from_words(words, q, length, d)


def code_read_path(path) -> Code:
    with open(path) as f:
        return code_read(f)
