"""Codeword and code types, distance/weight verification, systematic sets, file I/O.

Binary words are packed into Python ints: coordinate j (0-based, reading the
word left to right) is bit (length-1-j), so ``format(word, f"0{n}b")`` prints
the word in natural order.  pack_words and unpack_words convert packed words
to and from (count, length) 0/1 numpy rows, all words in one call.  Outside
this module they are the only code that knows the bit order: constructions,
designs, search vertices, PUF control matrices and q=2 symbol rows are built
or read as 0/1 rows through them, blocks left to right.  A q-ary code holds
its words as one 2-D numpy array, one row per word in the narrowest unsigned
dtype that holds q-1, from the encoder through the file to the verifier.  One
kernel verifies both alphabets in numpy over row tiles of a bounded byte
size: binary words split into uint64 limbs and differ by XOR popcount, q-ary
words are compared symbol by symbol, in memory of words x length x dtype
bytes.  Only q-ary expansion builds the symbol-indicator layout
(indicator_words).
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

    def masks(self) -> tuple[int, ...]:
        """Each block's bits within a packed word, leftmost block first."""
        out = []
        remaining = self.length
        for n_i, _ in self.parts:
            remaining -= n_i
            out.append(((1 << n_i) - 1) << remaining)
        return tuple(out)

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


def pack_words(bits) -> list[int]:
    """Rows of a (count, length) 0/1 array as packed words: column j is bit length-1-j.

    Nonzero entries count as 1.  unpack_words is the inverse.  Words of up to
    64 bits pass through one big-endian uint64 each, so numpy makes the ints.
    """
    import numpy as np

    count, length = np.shape(bits)
    width, pad = -(-length // 8), -length % 8
    packed = np.packbits(bits, axis=1)
    if width <= 8:
        limbs = np.zeros((count, 8), dtype=np.uint8)
        limbs[:, 8 - width:] = packed
        return (limbs.view(">u8")[:, 0] >> pad).tolist()
    raw = packed.tobytes()
    return [int.from_bytes(raw[i:i + width], "big") >> pad for i in range(0, count * width, width)]


def unpack_words(words: Sequence[int], length: int):
    """The (count, length) uint8 0/1 array whose rows pack_words packs into `words`."""
    import numpy as np

    width = -(-length // 8)
    if width <= 8:
        width, raw = 8, np.array(words, dtype=">u8").view(np.uint8)
    else:
        raw = np.frombuffer(b"".join(word.to_bytes(width, "big") for word in words), np.uint8)
    return np.unpackbits(raw.reshape(len(words), width), axis=1)[:, 8 * width - length:]


def word_to_str(word: int, length: int) -> str:
    return format(word, f"0{length}b") if length else ""


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

@dataclass(frozen=True)
class BinaryCode:
    """A set of equal-length binary words with a claimed minimum distance.

    Words are stored sorted and deduplicated, giving canonical equality.
    """

    length: int
    words: tuple[int, ...]
    claimed_distance: int = 0
    profile: WeightProfile | None = None

    def __post_init__(self):
        if self.length < 0:
            raise CodeError("negative length")
        prev = -1
        for wd in self.words:
            if not 0 <= wd < (1 << self.length):
                raise CodeError(f"word {wd} out of range for length {self.length}")
            if wd <= prev:
                raise CodeError("words must be strictly increasing (sorted, distinct)")
            prev = wd
        if self.profile is not None and self.profile.length != self.length:
            raise CodeError("profile length does not match code length")

    @classmethod
    def from_words(
        cls,
        words: Iterable[int | str],
        length: int | None = None,
        claimed_distance: int = 0,
        profile: WeightProfile | None = None,
    ) -> "BinaryCode":
        packed = []
        for wd in words:
            if isinstance(wd, str):
                if length is None:
                    length = len(wd)
                elif len(wd) != length:
                    raise CodeError("mixed word lengths")
                packed.append(word_from_str(wd))
            else:
                packed.append(int(wd))
        if length is None:
            raise CodeError("length required when words are given as ints")
        packed.sort()
        for a, b in zip(packed, packed[1:]):
            if a == b:
                raise CodeError(f"duplicate word {word_to_str(a, length)}")
        return cls(length, tuple(packed), claimed_distance, profile)

    def word_strings(self) -> list[str]:
        return [word_to_str(wd, self.length) for wd in self.words]


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
        import numpy as np

        words, dtype = self.words, _symbol_dtype(self.q)
        if words.dtype != dtype or words.shape[1:] != (self.length,) or self.length < 1:
            raise CodeError(f"words must be a 2-D {dtype} array of {self.length} >= 1 columns")
        if words.size and words.max() >= self.q:
            raise CodeError(f"symbol {words.max()} out of range for q={self.q}")
        # Each word against the next, at the first position where they differ.
        differ = words[:-1] != words[1:]
        rows, first = np.arange(len(differ)), differ.argmax(axis=1)
        if not differ[rows, first].all():
            raise CodeError(f"duplicate word {words[differ[rows, first].argmin()].tolist()}")
        if (words[rows, first] > words[rows + 1, first]).any():
            raise CodeError("words must be sorted")

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
        if words.shape[1]:  # lexsort needs a key
            words = words[np.lexsort(words.T[::-1])]
        return cls(q, words.shape[1], words, claimed_distance)


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
# this for any word length.
TILE_BYTES = 1 << 18


# numpy is imported inside the functions that use it, as in mcwc.clique.

def word_limbs(words: Sequence[int], bits: int):
    """Words of at most `bits` bits split into uint64 limbs, limb-major.

    Row l holds limb l (bits 64l to 64l+63) of every word, so each limb of all
    words is one contiguous numpy array.
    """
    import numpy as np

    width = max(1, -(-bits // 64))
    raw = b"".join(word.to_bytes(8 * width, "little") for word in words)
    return np.ascontiguousarray(np.frombuffer(raw, dtype="<u8").reshape(len(words), width).T)


def distance_tiles(parts, later: bool = False, symbols: bool = False) -> Iterator[tuple[int, object]]:
    """Yield (start, dist) over consecutive tiles of the words whose parts are given.

    Row l of `parts` holds part l of every word: its uint64 limb l from
    word_limbs or, with `symbols`, its q-ary symbol at position l.  dist[r, c]
    is the distance between words start + r and c, summed over the parts in the
    narrowest unsigned dtype that holds the word width: the XOR popcount of
    limbs, or the count of unequal symbols.  With `later` each tile is set
    against the words after its first word only: dist[r, c] pairs words
    start + r and start + 1 + c, entries with c < r hold the dtype's maximum
    (which no distance exceeds, and row 0 has no such entry), and the last
    word, which has no later word, starts no tile.
    """
    import numpy as np

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


# Most indicator bits (words x q x length) indicator_words builds: 256 MiB.
MAX_INDICATOR_BITS = 1 << 31


def indicator_words(code: QaryCode) -> list[int]:
    """Each word as q-bit symbol indicators, position 0 leftmost: symbol s sets bit q-1-s.

    A code of more than MAX_INDICATOR_BITS bits in all is refused before any
    word is built.  The 0/1 rows are built about TILE_BYTES at a time.
    """
    import numpy as np

    q, length = code.q, code.length
    bits = len(code.words) * q * length
    if bits > MAX_INDICATOR_BITS:
        raise CodeError(f"{bits} indicator bits exceed the cap of {MAX_INDICATOR_BITS}")
    rows = max(1, TILE_BYTES // (q * length))
    words = []
    for start in range(0, len(code.words), rows):
        indicators = code.words[start:start + rows, :, None] == np.arange(q, dtype=code.words.dtype)
        words += pack_words(indicators.reshape(-1, q * length))
    return words


def verify_code(code: Code) -> VerificationReport:
    """Exhaustively verify distance claim and (for binary codes) profile weights.

    closest_pair is the lexicographically first pair (i, j), i < j, at the
    minimum distance.
    """
    import numpy as np

    if len(code.words) == 0:
        raise CodeError("cannot verify an empty code")

    binary = isinstance(code, BinaryCode)
    parts = word_limbs(code.words, code.length) if binary else np.ascontiguousarray(code.words.T)
    violations: list[tuple[int, int, int, int]] = []
    if binary and code.profile is not None:
        masks = word_limbs(code.profile.masks(), code.length).T
        want = [w_i for _, w_i in code.profile.parts]
        got = np.empty((len(code.words), len(want)), dtype=np.int64)
        for bi, mask in enumerate(masks):
            got[:, bi] = np.bitwise_count(parts & mask[:, None]).sum(axis=0)
        # nonzero lists the (word, block) entries in row-major order.
        bad_words, bad_blocks = np.nonzero(got != want)
        violations = [
            (wi, bi, int(got[wi, bi]), want[bi])
            for wi, bi in zip(bad_words.tolist(), bad_blocks.tolist())
        ]

    min_dist: float = math.inf
    closest = None
    for start, dist in distance_tiles(parts, later=True, symbols=not binary):
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
    bits = unpack_words(code.words, code.length)
    varying = np.flatnonzero(bits.min(axis=0) != bits.max(axis=0)).tolist()
    if len(varying) < k:
        return None

    for coords in combinations(varying, k):
        if len(set(pack_words(bits[:, coords]))) == size:
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
        for wd in code.words:
            f.write(word_to_str(wd, code.length) + "\n")
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
        q = int(fields["q"])
        length = int(fields["len"])
        d = int(fields["d"])
    except (KeyError, ValueError) as exc:
        raise CodeError(f"malformed header {header!r}") from exc
    if length < 0:
        raise CodeError(f"malformed header {header!r}")
    profile = None
    if fields.get("profile", "none") != "none":
        profile = WeightProfile.parse(fields["profile"])

    if q == 2:
        for line in body:
            if len(line) != length:
                raise CodeError(f"word {line!r} does not have length {length}")
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
