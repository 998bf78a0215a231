"""Code-core tests: distances, verification, systematic sets, file round trips."""

import io
import math
import random
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mcwc.codes as codes_mod
from mcwc.codes import (
    BinaryCode,
    CodeError,
    QaryCode,
    WeightProfile,
    code_read,
    code_write,
    find_systematic_set,
    hamming_distance,
    indicator_words,
    VerificationReport,
    verify_code,
    word_from_str,
)


def word_to_str(word, length):
    return format(word, f"0{length}b") if length else ""


def row_ints(words, length):
    """Packed rows as ints, coordinate j as bit length-1-j: the form the loop oracles read."""
    bits = np.unpackbits(words, axis=1, count=length)
    return [int("".join(map(str, row)) or "0", 2) for row in bits.tolist()]


def word_blocks(word, profile):
    """A packed word's per-block ints, leftmost block first, read off its text form."""
    text = word_to_str(word, profile.length)
    ends = [sum(n_i for n_i, _ in profile.parts[: i + 1]) for i in range(profile.m)]
    return tuple(int(text[end - n_i:end] or "0", 2) for (n_i, _), end in zip(profile.parts, ends))


def test_hamming_examples():
    assert hamming_distance("0000", "0000") == 0
    assert hamming_distance("1100", "0011") == 4
    assert hamming_distance("1010", "1100") == 2
    with pytest.raises(CodeError):
        hamming_distance("10", "100")


words_st = st.integers(min_value=0, max_value=2**16 - 1)


@settings(max_examples=200, deadline=None)
@given(words_st, words_st, words_st)
def test_hamming_is_a_metric(u, v, t):
    du_v = (u ^ v).bit_count()
    assert du_v == (v ^ u).bit_count()
    assert (du_v == 0) == (u == v)
    assert du_v <= (u ^ t).bit_count() + (t ^ v).bit_count()


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 14), st.data())
def test_equal_weight_words_have_even_distance(n, data):
    w = data.draw(st.integers(0, n))
    support_u = data.draw(st.sets(st.integers(0, n - 1), min_size=w, max_size=w))
    support_v = data.draw(st.sets(st.integers(0, n - 1), min_size=w, max_size=w))
    u = sum(1 << j for j in support_u)
    v = sum(1 << j for j in support_v)
    d = (u ^ v).bit_count()
    assert d % 2 == 0
    if u != v:
        assert d >= 2


def test_word_str_round_trip():
    assert word_to_str(word_from_str("01101"), 5) == "01101"
    with pytest.raises(CodeError):
        word_from_str("01a1")
    with pytest.raises(CodeError):
        word_from_str("")


@pytest.mark.parametrize("length", [0, 1, 7, 8, 9, 63, 64, 65, 130, 200])
def test_pack_unpack_match_word_to_str(length):
    # ints -> code -> file -> code -> strings, in the order of the ints.
    rng = random.Random(length)
    words = {rng.getrandbits(length) for _ in range(20)} | {0, (1 << length) - 1}
    code = BinaryCode.from_words(list(words)[::-1], length, 1)
    assert code.words.dtype == np.uint8 and code.words.shape == (len(words), -(-length // 8))
    bits = np.unpackbits(code.words, axis=1)
    assert not bits[:, length:].any()  # zero pad bits
    strings = [word_to_str(w, length) for w in sorted(words)]
    buf = io.StringIO()
    code_write(buf, code)
    back = code_read(io.StringIO(buf.getvalue()))
    assert np.array_equal(back.words, code.words) and back.length == length
    assert BinaryCode.from_words(strings[::-1]).word_strings() == strings
    assert back.word_strings() == strings
    assert row_ints(back.words, length) == sorted(words)
    assert len(BinaryCode.from_words([], length).words) == 0


def test_packed_rows_must_be_canonical():
    for words, match in (
        (np.array([[0b1100_0001]], dtype=np.uint8), "pad bits"),
        (np.array([[0b1000_0000], [0b0100_0000]], dtype=np.uint8), "sorted"),
        (np.array([[0b0100_0000], [0b0100_0000]], dtype=np.uint8), "duplicate word 01000"),
        (np.array([[0b0100_0000]], dtype=np.uint16), "uint8"),
        (np.array([[0, 0]], dtype=np.uint8), "uint8 array of 1 packed bytes"),
        (np.array([0b0100_0000], dtype=np.uint8), "2-D"),
    ):
        with pytest.raises(CodeError, match=match):
            BinaryCode(5, words)
    with pytest.raises(CodeError, match="duplicate word"):
        BinaryCode(0, np.zeros((2, 0), dtype=np.uint8))
    for ints, length in (([-1], 3), ([8], 3), ([1], 0)):
        with pytest.raises(CodeError, match="out of range"):
            BinaryCode.from_words(ints, length)
    # from_words sorts packed rows, as it sorts ints.
    rows = np.array([[0b1000_0000], [0b0100_0000]], dtype=np.uint8)
    assert BinaryCode.from_words(rows, 5).word_strings() == ["01000", "10000"]


def test_profile_basics():
    p = WeightProfile.homogeneous(2, 4, 2)
    assert p.m == 2 and p.length == 8 and p.is_homogeneous()
    assert p.describe() == "4:2,4:2"
    assert WeightProfile.parse("4:2,4:2") == p
    het = WeightProfile(((3, 1), (4, 2)))
    assert not het.is_homogeneous()
    assert word_blocks(word_from_str("0101100"), het) == (0b010, 0b1100)
    with pytest.raises(CodeError):
        WeightProfile(((3, 4),))
    with pytest.raises(CodeError):
        WeightProfile.parse("4:x")


def test_verify_mixed_weight_code_fails_profile():
    # Systematic and distance 2, but 1111 has weight 4, so the constant-weight
    # claim must fail with the offending word reported.
    code = BinaryCode.from_words(
        ["0011", "0101", "1010", "1111"], 4, 2, WeightProfile.homogeneous(1, 4, 2)
    )
    report = verify_code(code)
    assert not report.passed
    assert report.min_distance == 2
    bad_words = {code.word_strings()[wi] for wi, _, _, _ in report.profile_violations}
    assert bad_words == {"1111"}
    got = {(got_w, want) for _, _, got_w, want in report.profile_violations}
    assert got == {(4, 2)}


def test_verify_matrix_code_passes():
    code = BinaryCode.from_words(
        ["11000011", "10100101", "10010110"], 8, 4, WeightProfile.homogeneous(2, 4, 2)
    )
    report = verify_code(code)
    assert report.passed and report.min_distance == 4


def test_verify_singleton_inf_sentinel():
    code = BinaryCode.from_words(["0110"], 4, 99)
    report = verify_code(code)
    assert report.passed
    assert math.isinf(report.min_distance)


def test_verify_qary():
    code = QaryCode.from_words([(0, 0), (1, 1), (2, 2)], q=3, claimed_distance=2)
    assert verify_code(code).passed
    bad = QaryCode.from_words([(0, 0), (0, 1)], q=3, claimed_distance=2)
    assert not verify_code(bad).passed


def test_indicator_words_layout():
    # Position 0 is the leftmost q-bit chunk; symbol s sets bit q-1-s of it.
    code = QaryCode.from_words([(0, 1), (2, 0)], q=3)
    assert row_ints(indicator_words(code), 6) == [0b100_010, 0b001_100]


def _pairwise_oracle(words, claimed):
    """(min distance, first closest pair, passed) from hamming_distance on every pair."""
    best, closest = math.inf, None
    for i, j in combinations(range(len(words)), 2):
        d = hamming_distance(words[i], words[j])
        if d < best:
            best, closest = d, (i, j)
    return best, closest, best >= claimed


@pytest.mark.parametrize("seed", range(25))
def test_verify_matches_pairwise_oracle(seed):
    rng = random.Random(seed)
    length = rng.randint(1, 10)
    words = rng.sample(range(1 << length), rng.randint(1, min(40, 1 << length)))
    binary = BinaryCode.from_words(words, length, rng.randint(0, length))
    q = rng.randint(2, 9)
    qlength = rng.randint(1, 5)
    symbols = {tuple(rng.randrange(q) for _ in range(qlength)) for _ in range(rng.randint(1, 40))}
    qary = QaryCode.from_words(symbols, q, qlength, rng.randint(0, qlength))
    for code, as_sequences in ((binary, binary.word_strings()), (qary, qary.words.tolist())):
        report = verify_code(code)
        oracle = _pairwise_oracle(as_sequences, code.claimed_distance)
        assert (report.min_distance, report.closest_pair, report.passed) == oracle


def reference_verify(code):
    """verify_code as a pairwise loop over Python words: the oracle for the numpy kernel."""
    violations = []
    if isinstance(code, BinaryCode) and code.profile is not None:
        for wi, wd in enumerate(row_ints(code.words, code.length)):
            for bi, (block, (_, want)) in enumerate(
                zip(word_blocks(wd, code.profile), code.profile.parts)
            ):
                if block.bit_count() != want:
                    violations.append((wi, bi, block.bit_count(), want))

    if isinstance(code, BinaryCode):
        words, distance = row_ints(code.words, code.length), lambda u, v: (u ^ v).bit_count()
    else:
        words, distance = code.words.tolist(), hamming_distance
    min_dist = math.inf
    closest = None
    for i in range(len(words)):
        for j in range(i + 1, len(words)):
            d = distance(words[i], words[j])
            if d < min_dist:
                min_dist, closest = d, (i, j)

    passed = min_dist >= code.claimed_distance and not violations
    return VerificationReport(min_dist, code.claimed_distance, tuple(violations), closest, passed)


def assert_matches_reference(code):
    report = verify_code(code)
    assert report == reference_verify(code)
    # Python ints, not numpy scalars: they go into JSON and file headers.
    numbers = [report.min_distance, *(report.closest_pair or ())]
    numbers += [x for violation in report.profile_violations for x in violation]
    assert all(type(x) is int or x == math.inf for x in numbers)
    assert type(report.passed) is bool


def _random_binary(rng, length, count, profile=None):
    words = {rng.getrandbits(length) for _ in range(count)}
    return BinaryCode.from_words(words, length, rng.randint(0, length), profile)


@pytest.mark.parametrize("tile_bytes", [None, 64])
@pytest.mark.parametrize("length", [1, 6, 64, 65, 128, 200])
def test_verify_matches_reference_loop(length, tile_bytes, monkeypatch):
    # 64 bytes gives one row per tile, so a tie can span tiles.
    if tile_bytes is not None:
        monkeypatch.setattr(codes_mod, "TILE_BYTES", tile_bytes)
    rng = random.Random(length)
    # Blocks cross the 64-bit limb boundaries at these lengths.
    profile = WeightProfile(((length // 3, length // 6), (length - length // 3, length // 3)))
    for count in (1, 2, 3, 40, 150):
        assert_matches_reference(_random_binary(rng, length, count))
        assert_matches_reference(_random_binary(rng, length, count, profile))


def test_verify_distances_past_255():
    # Distances 300, 300 and 600: a uint8 sum would wrap them.
    ones = (1 << 300) - 1
    code = BinaryCode.from_words([0, ones, ones << 300], 600, 300)
    assert verify_code(code).min_distance == 300
    assert_matches_reference(code)


def test_verify_spans_many_default_tiles():
    rng = random.Random(7)
    code = _random_binary(rng, 200, 600, WeightProfile(((100, 50), (100, 50))))
    # Rows per tile as distance_tiles works them out: from the word count alone.
    rows = codes_mod.TILE_BYTES // (8 * len(code.words))
    assert len(code.words) - 1 > 10 * rows
    assert_matches_reference(code)


def _verify_peak_bytes(code):
    verify_code(code)  # imports numpy first, outside the measurement
    tracemalloc.start()
    try:
        verify_code(code)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("count, length", [(2, 33), (40, 33), (1331, 33), (600, 1024)])
def test_verify_temporaries_stay_near_tile_bytes(count, length):
    rng = random.Random(count)
    assert _verify_peak_bytes(_random_binary(rng, length, count)) < 4 * codes_mod.TILE_BYTES


def test_verify_ties_keep_first_pair(monkeypatch):
    monkeypatch.setattr(codes_mod, "TILE_BYTES", 64)
    # Every pair of these weight-1 words is at distance 2.
    assert_matches_reference(BinaryCode.from_words([1 << j for j in range(70)], 70, 2))
    # (1, 2) and (2, 3) tie at distance 1, later than the distance-2 pair (0, 1).
    code = BinaryCode.from_words(["0000", "0011", "0111", "1111"], 4, 1)
    assert verify_code(code).closest_pair == (1, 2)
    assert_matches_reference(code)


def test_verify_single_word_matches_reference():
    for code in (
        BinaryCode.from_words(["0110"], 4, 99),
        BinaryCode.from_words([0], 0, 1),
        BinaryCode.from_words([5], 200, 3, WeightProfile(((100, 1), (100, 1)))),
        QaryCode.from_words([(3, 1, 4)], q=64, claimed_distance=2),
    ):
        report = verify_code(code)
        assert math.isinf(report.min_distance) and report.closest_pair is None
        assert_matches_reference(code)


@pytest.mark.parametrize("tile_bytes", [None, 64])
@pytest.mark.parametrize("q, length", [(3, 4), (11, 7), (16, 5), (64, 3), (64, 17)])
def test_verify_qary_matches_reference_loop(q, length, tile_bytes, monkeypatch):
    if tile_bytes is not None:
        monkeypatch.setattr(codes_mod, "TILE_BYTES", tile_bytes)
    rng = random.Random(q * 100 + length)
    for count in (2, 30, 120):
        words = {tuple(rng.randrange(q) for _ in range(length)) for _ in range(count)}
        assert_matches_reference(QaryCode.from_words(words, q, length, rng.randint(0, length)))


def test_verify_qary_compares_symbols(monkeypatch):
    # No indicator layout is built: words are compared symbol by symbol.
    def no_indicators(code):
        raise AssertionError("built indicator words")

    monkeypatch.setattr(codes_mod, "indicator_words", no_indicators)
    rng = random.Random(5)
    for q, length in ((3, 4), (181, 300), (70000, 5)):
        words = {tuple(rng.randrange(q) for _ in range(length)) for _ in range(60)}
        assert_matches_reference(QaryCode.from_words(words, q, length, rng.randint(0, length)))


def test_verify_qary_temporaries_stay_near_tile_bytes():
    rng = random.Random(11)
    words = {tuple(rng.randrange(11) for _ in range(33)) for _ in range(1331)}
    assert _verify_peak_bytes(QaryCode.from_words(words, 11, 33, 2)) < 4 * codes_mod.TILE_BYTES


def test_qary_code_checks_its_array():
    import numpy as np

    code = QaryCode.from_words([(2, 0), (0, 1), (1, 2)], q=3)
    assert code.words.dtype == np.uint8 and code.words.tolist() == [[0, 1], [1, 2], [2, 0]]
    assert QaryCode.from_words([(0,), (256,)], q=257).words.dtype == np.uint16
    for words, match in (
        (np.array([[1, 2], [0, 1]], dtype=np.uint8), "sorted"),
        (np.array([[0, 1], [0, 1]], dtype=np.uint8), r"duplicate word \[0, 1\]"),
        (np.array([[0, 1], [0, 3]], dtype=np.uint8), "out of range"),
        (np.array([[0, 1]], dtype=np.uint16), "uint8"),
        (np.array([0, 1], dtype=np.uint8), "2-D"),
    ):
        with pytest.raises(CodeError, match=match):
            QaryCode(3, 2, words)
    for words in ([(0, -1)], [(0, 1), (2,)], [(2**64,)], [()]):
        with pytest.raises(CodeError):
            QaryCode.from_words(words, q=3)
    with pytest.raises(CodeError, match=r"not in 2..2\^64"):
        QaryCode.from_words([(0,)], q=2**64 + 1)


def test_systematic_set_examples():
    code = BinaryCode.from_words(["0011", "0101", "1010", "1111"], 4)
    assert find_systematic_set(code) == (0, 1)
    assert find_systematic_set(BinaryCode.from_words(["01", "10"], 2)) == (0,)
    assert find_systematic_set(BinaryCode.from_words(["0011", "1100"], 4)) == (0,)
    with pytest.raises(CodeError):
        find_systematic_set(BinaryCode.from_words(["001", "010", "100"], 3))


def test_systematic_set_is_bijective():
    code = BinaryCode.from_words(["0011", "0101", "1010", "1111"], 4)
    coords = find_systematic_set(code)
    patterns = {"".join(word[j] for j in coords) for word in code.word_strings()}
    assert len(patterns) == len(code.words) == 4


def test_systematic_set_absent():
    # Constant first coordinate prunes it; the remaining single coordinate
    # cannot separate four words.
    code = BinaryCode.from_words(["00", "01"], 2)
    assert find_systematic_set(code) == (1,)
    code = BinaryCode.from_words(["000", "001", "010", "011"], 3)
    assert find_systematic_set(code) == (1, 2)


def test_code_round_trip_binary():
    code = BinaryCode.from_words(
        ["11000011", "10100101", "10010110"], 8, 4, WeightProfile.homogeneous(2, 4, 2)
    )
    buf = io.StringIO()
    code_write(buf, code, extra_comments=["provenance: test"])
    back = code_read(io.StringIO(buf.getvalue()))
    assert (back.length, back.claimed_distance, back.profile) == (8, 4, code.profile)
    assert np.array_equal(back.words, code.words)


def test_code_round_trip_qary():
    code = QaryCode.from_words([(2, 1, 0), (0, 1, 2)], q=3, claimed_distance=2)
    buf = io.StringIO()
    code_write(buf, code)
    assert buf.getvalue() == "# code q=3 len=3 d=2 profile=none\n0,1,2\n2,1,0\n"
    back = code_read(io.StringIO(buf.getvalue()))
    assert (back.q, back.length, back.claimed_distance) == (3, 3, 2)
    assert back.words.dtype == code.words.dtype and back.words.tolist() == [[0, 1, 2], [2, 1, 0]]


def test_qary_code_over_gf2_is_written_as_binary():
    code = QaryCode.from_words([(1, 1, 0), (0, 1, 1)], q=2, claimed_distance=2)
    buf = io.StringIO()
    code_write(buf, code)
    assert buf.getvalue() == "# code q=2 len=3 d=2 profile=none\n011\n110\n"
    back = code_read(io.StringIO(buf.getvalue()))
    assert isinstance(back, BinaryCode) and back.word_strings() == ["011", "110"]
    assert (back.length, back.claimed_distance, back.profile) == (3, 2, None)


@pytest.mark.parametrize(
    "text",
    [
        "0011\n0101\n",  # no header
        "# code q=2 len=4 d=2 profile=none\n0011\n0011\n",  # duplicate
        "# code q=2 len=4 d=2 profile=none\n0011\n01011\n",  # mixed lengths
        "# code q=2 len=four d=2 profile=none\n0011\n",  # malformed header
        "# code q=3 len=2 d=1 profile=none\n0,3\n",  # symbol out of range
        "# code q=3 len=2 d=1 profile=none\n0,-1\n",  # negative symbol
        "# code q=3 len=2 d=1 profile=none\n0,1\n0,1,2\n",  # ragged rows
        "# code q=3 len=2 d=1 profile=none\n0,1\n0,1\n",  # duplicate
        f"# code q={2**65} len=1 d=1 profile=none\n{2**64}\n",  # no fixed-width symbol
        "# code q=3 len=-1 d=1 profile=none\n",  # negative length
        "# code q=3 len=0 d=1 profile=none\n",  # q-ary words need a symbol
    ],
)
def test_code_read_errors(text):
    with pytest.raises(CodeError):
        code_read(io.StringIO(text))


def test_from_words_rejects_duplicates_and_mixed_lengths():
    with pytest.raises(CodeError):
        BinaryCode.from_words(["01", "01"], 2)
    with pytest.raises(CodeError):
        BinaryCode.from_words(["01", "011"])
    with pytest.raises(CodeError):
        QaryCode.from_words([(0, 1), (0, 1)], q=2)
