"""Code-core tests: distances, verification, systematic sets, file round trips."""

import io
import math
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcwc.codes import (
    BinaryCode,
    CodeError,
    QaryCode,
    WeightProfile,
    block_weights,
    code_read,
    code_write,
    find_systematic_set,
    hamming,
    hamming_distance,
    restriction,
    verify_code,
    word_from_str,
    word_to_str,
)


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
    du_v = hamming(u, v)
    assert du_v == hamming(v, u)
    assert (du_v == 0) == (u == v)
    assert du_v <= hamming(u, t) + hamming(t, v)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 14), st.data())
def test_equal_weight_words_have_even_distance(n, data):
    w = data.draw(st.integers(0, n))
    support_u = data.draw(st.sets(st.integers(0, n - 1), min_size=w, max_size=w))
    support_v = data.draw(st.sets(st.integers(0, n - 1), min_size=w, max_size=w))
    u = sum(1 << j for j in support_u)
    v = sum(1 << j for j in support_v)
    d = hamming(u, v)
    assert d % 2 == 0
    if u != v:
        assert d >= 2


def test_word_str_round_trip():
    assert word_to_str(word_from_str("01101"), 5) == "01101"
    with pytest.raises(CodeError):
        word_from_str("01a1")
    with pytest.raises(CodeError):
        word_from_str("")


def test_profile_basics():
    p = WeightProfile.homogeneous(2, 4, 2)
    assert p.m == 2 and p.length == 8 and p.is_homogeneous()
    assert p.describe() == "4:2,4:2"
    assert WeightProfile.parse("4:2,4:2") == p
    het = WeightProfile(((3, 1), (4, 2)))
    assert not het.is_homogeneous()
    assert block_weights(word_from_str("0101100"), het) == (1, 2)
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
    for code, as_sequences in ((binary, binary.word_strings()), (qary, qary.words)):
        report = verify_code(code)
        oracle = _pairwise_oracle(as_sequences, code.claimed_distance)
        assert (report.min_distance, report.closest_pair, report.passed) == oracle


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
    patterns = {restriction(w, code.length, coords) for w in code.words}
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
    assert back == code


def test_code_round_trip_qary():
    code = QaryCode.from_words([(0, 1, 2), (2, 1, 0)], q=3, claimed_distance=2)
    buf = io.StringIO()
    code_write(buf, code)
    assert code_read(io.StringIO(buf.getvalue())) == code


@pytest.mark.parametrize(
    "text",
    [
        "0011\n0101\n",  # no header
        "# code q=2 len=4 d=2 profile=none\n0011\n0011\n",  # duplicate
        "# code q=2 len=4 d=2 profile=none\n0011\n01011\n",  # mixed lengths
        "# code q=2 len=four d=2 profile=none\n0011\n",  # malformed header
        "# code q=3 len=2 d=1 profile=none\n0,3\n",  # symbol out of range
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
