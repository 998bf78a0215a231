"""Construction tests; expected codes are expanded by hand or via independent checks."""

import math
import re
from itertools import product

import numpy as np
import pytest

import mcwc.codes as codes_mod
import mcwc.constructions as constructions_mod
from mcwc.codes import (
    BinaryCode,
    CodeError,
    QaryCode,
    WeightProfile,
    find_systematic_set,
    indicator_words,
    verify_code,
)
from mcwc.constructions import (
    MAX_INDICATOR_BITS,
    RS_SIZE_CAP,
    RS_SYMBOL_CAP,
    ConstructionError,
    append_extend,
    builtin_code,
    complement_extend,
    concatenate,
    pseudo_product,
    qary_collapse,
    qary_expand,
    reed_solomon,
    rs_mcwc,
    rs_mcwc_params,
)
from mcwc.gf import DEFAULT_ORDER_CAP, field_for_order, field_make
from test_gf import schoolbook


def cwc(words, n, d, w):
    return BinaryCode.from_words(words, n, d, WeightProfile.homogeneous(1, n, w))


def qary_fields(code):
    """A q-ary code as plain values, for comparing two codes."""
    return code.q, code.length, code.claimed_distance, str(code.words.dtype), code.words.tolist()


# ---------- catalog ----------

def test_builtin_codes_verify():
    for name in ("cwc-4-2-2", "cwc-2-2-1", "lin-6-2-4", "rep-3", "parity-4", "full-2",
                 "rm1-2", "rm1-3", "lin-4-3-2", "lin-8-4-4"):
        code = builtin_code(name)
        assert verify_code(code).passed, name


def test_builtin_parameters():
    rm3 = builtin_code("rm1-3")
    assert (rm3.length, len(rm3.words), rm3.claimed_distance) == (8, 16, 4)
    assert verify_code(rm3).min_distance == 4
    lin = builtin_code("lin-6-2-4")
    assert sorted(lin.word_strings()) == ["000000", "001111", "110011", "111100"]
    with pytest.raises(CodeError):
        builtin_code("nope-1-2")


def test_builtin_size_caps():
    # Both sides of RS_SIZE_CAP (2^15 words) and RS_SYMBOL_CAP (2^23 bits),
    # refused before any word is built.
    for name, size, length in (("full-15", 2**15, 15), ("parity-16", 2**15, 16),
                               ("rm1-11", 2**12, 2**11), ("rep-4194304", 2, 2**22)):
        code = builtin_code(name)
        assert (len(code.words), code.length) == (size, length), name
    for name, message in (
        ("full-16", "full-16 has a word count over the cap of 32768"),
        ("parity-17", "parity-17 has a word count over the cap of 32768"),
        ("rm1-12", "rm1-12 has 8192 x 4096 = 33554432 symbols, over the cap of 8388608"),
        ("rep-4194305", "rep-4194305 has 2 x 4194305 = 8388610 symbols, over the cap of 8388608"),
        ("full-40", "full-40 has a word count over the cap of 32768"),
        ("rm1-9999999", "rm1-9999999 has a word count over the cap of 32768"),
    ):
        with pytest.raises(ConstructionError, match=re.escape(message)):
            builtin_code(name)
    # A parameter of 8 or more digits names no catalog code.
    for name in ("full-10000000", "rep-10000000", "rep-" + "9" * 5000):
        with pytest.raises(CodeError, match="unknown builtin code"):
            builtin_code(name)


def test_pseudo_product_size_caps(monkeypatch):
    cwc = builtin_code("cwc-4-2-2")
    # 4 words of 4 x 524288 bits = RS_SYMBOL_CAP are built; one more row is refused.
    assert pseudo_product(cwc, builtin_code("rep-524288")).size == 4
    with pytest.raises(ConstructionError, match=re.escape("4 x 2097156 = 8388624 symbols, over")):
        pseudo_product(cwc, builtin_code("rep-524289"))
    with pytest.raises(ConstructionError, match="word count over the cap of 32768"):
        pseudo_product(cwc, builtin_code("full-8"))
    # 2^(2 k2) words: at a cap of 16 words, k2 = 2 is built and k2 = 3 refused.
    monkeypatch.setattr(constructions_mod, "RS_SIZE_CAP", 16)
    assert pseudo_product(cwc, builtin_code("full-2")).size == 16
    with pytest.raises(ConstructionError, match="word count over the cap of 16"):
        pseudo_product(cwc, builtin_code("full-3"))


# ---------- concatenation ----------

def test_concatenate_repetition_example():
    inner = cwc(["10", "01"], 2, 2, 1)
    outer = QaryCode.from_words([(0, 0), (1, 1)], q=2, claimed_distance=2)
    result = concatenate(outer, inner)
    # symbol 0 -> 01 (smallest word), symbol 1 -> 10
    assert sorted(result.code.word_strings()) == ["0101", "1010"]
    assert result.guaranteed_distance == 4
    assert result.code.profile == WeightProfile.homogeneous(2, 2, 1)
    assert result.report.min_distance == 4


def test_concatenate_single_word_outer():
    inner = cwc(["10", "01"], 2, 2, 1)
    outer = QaryCode.from_words([(1, 0, 1)], q=2, claimed_distance=1)
    result = concatenate(outer, inner)
    assert result.size == 1


def test_concatenate_inner_too_small():
    inner = cwc(["10", "01"], 2, 2, 1)
    outer = QaryCode.from_words([(0,), (1,), (2,)], q=3, claimed_distance=1)
    with pytest.raises(ConstructionError):
        concatenate(outer, inner)


def test_concatenate_rejects_failing_ingredient():
    inner = cwc(["10", "01"], 2, 4, 1)  # inflated distance claim
    outer = QaryCode.from_words([(0, 0), (1, 1)], q=2, claimed_distance=2)
    with pytest.raises(ConstructionError, match="inner code fails verification"):
        concatenate(outer, inner)


# ---------- pseudo-product ----------

def test_pseudo_product_headline_example():
    result = pseudo_product(builtin_code("cwc-4-2-2"), builtin_code("lin-6-2-4"))
    assert result.size == 16
    assert result.guaranteed_distance == 8
    assert result.code.profile == WeightProfile.homogeneous(6, 4, 2)
    assert result.report.passed and result.report.min_distance >= 8


def test_pseudo_product_repetition_expansion():
    # sys = length-2 repetition: each column duplicates, so the words are
    # (c, c) over the four cwc words.
    result = pseudo_product(builtin_code("cwc-4-2-2"), builtin_code("rep-2"))
    expected = {s + s for s in builtin_code("cwc-4-2-2").word_strings()}
    assert set(result.code.word_strings()) == expected
    assert result.guaranteed_distance == 4
    assert result.report.min_distance >= 4


def test_pseudo_product_identity_sized():
    result = pseudo_product(builtin_code("cwc-2-2-1"), builtin_code("full-1"))
    assert set(result.code.word_strings()) == {"01", "10"}
    assert result.code.profile == WeightProfile.homogeneous(1, 2, 1)


def test_pseudo_product_requires_power_of_two():
    three = cwc(["0011", "0101", "1010"], 4, 2, 2)
    with pytest.raises(CodeError):
        pseudo_product(three, builtin_code("rep-2"))


# ---------- complement extension ----------

def test_complement_extend_tiny():
    result = complement_extend(builtin_code("full-1"))
    assert set(result.code.word_strings()) == {"01", "10"}
    assert result.code.profile == WeightProfile.homogeneous(1, 2, 1)


def test_complement_extend_repetition():
    result = complement_extend(builtin_code("rep-2"))
    assert set(result.code.word_strings()) == {"0011", "1100"}
    assert result.guaranteed_distance == 4


def test_complement_extend_rm():
    # 8-word [4,3,2] ingredient gives a systematic CWC(8,4,4) of size 8.
    result = complement_extend(builtin_code("rm1-2"))
    assert result.size == 8
    assert result.code.profile == WeightProfile.homogeneous(1, 8, 4)
    assert result.guaranteed_distance == 4
    assert result.report.min_distance >= 4
    assert find_systematic_set(result.code) is not None


# ---------- append extension ----------

def test_append_extend_k1():
    result = append_extend(1, builtin_code("cwc-2-2-1"))
    # phi maps pattern 0 -> 01, pattern 1 -> 10 (both sides sorted).
    assert set(result.code.word_strings()) == {"0101", "1010"}
    assert result.code.profile == WeightProfile.homogeneous(1, 4, 2)
    assert result.guaranteed_distance == 4
    assert result.report.min_distance == 4
    info = find_systematic_set(result.code)
    assert info is not None and set(info) <= {0}


def test_append_extend_weight_3():
    base = cwc(["111000", "000111"], 6, 6, 3)
    result = append_extend(1, base)
    assert set(result.code.word_strings()) == {"01000111", "10111000"}
    assert result.code.profile == WeightProfile.homogeneous(1, 8, 4)
    assert verify_code(result.code).min_distance == 8


def test_append_extend_k0():
    result = append_extend(0, builtin_code("cwc-4-2-2"))
    assert result.size == 1


def test_append_extend_too_small():
    with pytest.raises(ConstructionError):
        append_extend(2, builtin_code("cwc-2-2-1"))


# ---------- q-ary expansion ----------

def test_qary_expand_ternary_repetition():
    rs = reed_solomon(field_make(3, 1), 2, 2)
    assert rs.words.tolist() == [[0, 0], [1, 1], [2, 2]]
    result = qary_expand(rs, 1)
    assert set(result.code.word_strings()) == {"100100", "010010", "001001"}
    assert result.guaranteed_distance == 4
    assert result.code.profile == WeightProfile.homogeneous(2, 3, 1)
    assert result.report.min_distance == 4


def test_qary_expand_collapse_inverse():
    code = QaryCode.from_words(
        [(0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 0, 0)], q=3, claimed_distance=2
    )
    result = qary_expand(code, 1)
    assert qary_fields(qary_collapse(result.code)) == qary_fields(code)
    profile = WeightProfile.homogeneous(2, 3, 1)
    for words in (["100000", "010001"], ["110001"]):  # a block with no one, one with two
        with pytest.raises(ConstructionError, match="exactly one 1"):
            qary_collapse(BinaryCode.from_words(words, 6, 2, profile))


def test_qary_expand_single_word():
    code = QaryCode.from_words([(1, 0)], q=3, claimed_distance=1)
    assert qary_expand(code, 1).size == 1


def test_qary_expand_bad_width():
    code = QaryCode.from_words([(0, 1, 2)], q=3, claimed_distance=1)
    with pytest.raises(ConstructionError):
        qary_expand(code, 2)


def test_qary_expand_words_are_indicator_words():
    code = QaryCode.from_words([(0, 1, 2), (2, 0, 1), (1, 1, 0)], q=3, claimed_distance=2)
    for w in (1, 3):
        expanded = qary_expand(code, w).code
        assert np.array_equal(expanded.words, BinaryCode.from_words(indicator_words(code), 9).words)


def test_qary_expand_indicator_cap(monkeypatch):
    # 3 words of 2 ternary symbols are 18 indicator bits.
    code = QaryCode.from_words([(0, 0), (1, 1), (2, 2)], q=3, claimed_distance=2)
    monkeypatch.setattr(codes_mod, "MAX_INDICATOR_BITS", 18)
    assert qary_expand(code, 1).size == 3
    monkeypatch.setattr(codes_mod, "MAX_INDICATOR_BITS", 17)
    with pytest.raises(CodeError, match="18 indicator bits exceed the cap of 17"):
        qary_expand(code, 1)


# ---------- Reed-Solomon ----------

def test_rs_all_words_when_d1():
    rs = reed_solomon(field_make(2, 1), 2, 1)
    assert len(rs.words) == 4


def test_rs_gf4_len3_d2():
    rs = reed_solomon(field_for_order(4), 3, 2)
    assert len(rs.words) == 16
    # independent exhaustive pairwise check
    words = rs.words.tolist()
    dmin = min(
        sum(a != b for a, b in zip(u, v))
        for i, u in enumerate(words)
        for v in words[i + 1 :]
    )
    assert dmin == 2


def test_rs_extended_length():
    # length q+1 = 3 over GF(2), d=2: the even-weight code
    rs = reed_solomon(field_make(2, 1), 3, 2)
    assert rs.words.tolist() == [[0, 0, 0], [0, 1, 1], [1, 0, 1], [1, 1, 0]]
    with pytest.raises(ConstructionError):
        reed_solomon(field_make(2, 1), 4, 2)


def test_rs_size_identity():
    for q, length, d in ((3, 2, 2), (4, 3, 2), (5, 4, 3), (7, 3, 3)):
        rs = reed_solomon(field_for_order(q), length, d)
        assert len(rs.words) == q ** (length - d + 1)


def reference_reed_solomon(field, length, d, tables):
    """reed_solomon as a per-symbol Horner loop over the field's schoolbook
    (add, mul) tables: the oracle."""
    add, mul = tables
    q = field.q
    k = length - d + 1
    words = []
    for coeffs in product(range(q), repeat=k):  # little-endian polynomial
        symbols = []
        for x in range(min(length, q)):
            acc = 0
            for c in reversed(coeffs):  # Horner
                acc = add[mul[acc][x]][c]
            symbols.append(acc)
        if length == q + 1:
            symbols.append(coeffs[-1])
        words.append(tuple(symbols))
    code = QaryCode.from_words(words, q, length, d)
    min_wt = min(
        (sum(s != 0 for s in wd) for wd in code.words.tolist() if any(wd)), default=math.inf
    )
    assert min_wt == d
    return code


def _rs_cases():
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16):
        for length in range(1, q + 2):
            for d in range(1, length + 1):
                if q ** (length - d + 1) <= 4096:
                    yield q, length, d
    for length in (1, 2, 3, 16, 63, 64, 65):
        for d in (length - 1, length):
            if d >= 1:
                yield 64, length, d


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 64])
def test_rs_matches_reference_horner(q):
    field = field_for_order(q)
    tables = schoolbook(field)
    for q_case, length, d in _rs_cases():
        if q_case == q:
            rs = reed_solomon(field, length, d)
            reference = reference_reed_solomon(field, length, d, tables)
            assert qary_fields(rs) == qary_fields(reference), (length, d)


def test_rs_size_cap():
    # 8^5 = 32^3 = RS_SIZE_CAP words are built; one more message symbol is refused.
    assert RS_SIZE_CAP == 8**5 == 32**3
    assert len(reed_solomon(field_for_order(8), 5, 1).words) == RS_SIZE_CAP
    assert len(reed_solomon(field_for_order(32), 33, 31).words) == RS_SIZE_CAP
    for q, length, d in ((8, 6, 1), (32, 4, 1), (64, 16, 10), (4096, 3, 1)):
        with pytest.raises(ConstructionError, match="over the cap"):
            reed_solomon(field_for_order(q), length, d)


def test_rs_symbol_cap(monkeypatch):
    # RS(5, 2) over GF(4): 16 words x 5 symbols, built at a cap of 80, refused at 79.
    monkeypatch.setattr(constructions_mod, "RS_SYMBOL_CAP", 80)
    assert len(reed_solomon(field_for_order(4), 5, 4).words) == 16
    monkeypatch.setattr(constructions_mod, "RS_SYMBOL_CAP", 79)
    with pytest.raises(ConstructionError, match="16 x 5 = 80 symbols, over the cap of 79"):
        reed_solomon(field_for_order(4), 5, 4)


def test_rs_symbol_cap_admits_every_rs_mcwc_code():
    # rs_mcwc builds RS(m*w, d/2) over GF(n/w), so cells (L, q, d, 1) reach every
    # code it accepts; for each q and s = L - d/2 + 1, acceptance falls as L grows.
    def accepted(q, s, length):
        try:
            return rs_mcwc_params(length, q, 2 * (length - s + 1), 1) == (q, s)
        except ConstructionError:
            return False

    largest = 0
    for q in range(2, DEFAULT_ORDER_CAP + 1):
        s = 1
        while accepted(q, s, s):
            lo, hi = s, q + 1
            while lo < hi:
                mid = (lo + hi + 1) // 2
                lo, hi = (mid, hi) if accepted(q, s, mid) else (lo, mid - 1)
            largest = max(largest, q**s * lo)
            s += 1
    assert largest == 181**2 * 182 <= RS_SYMBOL_CAP


def test_rs_mcwc_cells():
    result = rs_mcwc(2, 3, 2, 1)
    assert result.size == 9
    assert result.code.profile == WeightProfile.homogeneous(2, 3, 1)
    result = rs_mcwc(3, 3, 4, 1)
    assert result.size == 9
    with pytest.raises(ConstructionError):
        rs_mcwc(2, 4, 4, 2)  # q = 2 < m*w - 1 = 3
    with pytest.raises(ConstructionError):
        rs_mcwc(2, 6, 4, 4)  # w does not divide n
    with pytest.raises(ConstructionError):
        rs_mcwc(3, 6, 4, 1)  # q = 6 is not a prime power


@pytest.mark.parametrize("m, n, d, w", [(2, 3, 2, 1), (3, 3, 4, 1), (2, 4, 4, 1), (1, 6, 4, 3)])
def test_rs_mcwc_params_give_witness_size(m, n, d, w):
    q, s = rs_mcwc_params(m, n, d, w)
    assert rs_mcwc(m, n, d, w).size == q**s


def test_rs_mcwc_params_caps():
    # 8^5 = RS_SIZE_CAP words pass; 8^6 do not.
    assert rs_mcwc_params(1, 48, 4, 6) == (8, 5)
    with pytest.raises(ConstructionError, match="exceed the cap of 32768"):
        rs_mcwc_params(1, 56, 4, 7)
    # RS(182, 2) over GF(181) expands to 32,761 words of 181 x 182 bits,
    # 1.08e9 in all; RS(4097, 1) over GF(4096) would be 6.9e10 bits.
    assert 181**2 * 181 * 182 <= MAX_INDICATOR_BITS < 4096 * 4096 * 4097
    assert rs_mcwc_params(1, 181 * 182, 2 * 181, 182) == (181, 2)
    with pytest.raises(ConstructionError, match="bits exceed"):
        rs_mcwc_params(1, 4096 * 4097, 2 * 4097, 4097)


def test_rs_mcwc_declines_past_field_cap(monkeypatch):
    # 4099 is prime, but over the largest field GF(q) builds.
    def no_field(q):
        raise AssertionError(f"built GF({q})")

    monkeypatch.setattr(constructions_mod, "field_for_order", no_field)
    with pytest.raises(ConstructionError, match="field order 4099 exceeds cap 4096"):
        rs_mcwc(2, 4099, 4, 1)


def test_construction_size_identities():
    assert pseudo_product(builtin_code("cwc-4-2-2"), builtin_code("lin-6-2-4")).size == 2 ** (2 * 2)
    assert complement_extend(builtin_code("rm1-2")).size == 8
    assert append_extend(2, builtin_code("cwc-4-2-2")).size == 4
    inner = builtin_code("cwc-4-2-2")
    outer = reed_solomon(field_for_order(4), 3, 2)
    assert concatenate(outer, inner).size == len(outer.words)


def test_append_extend_information_set_leads():
    result = append_extend(2, builtin_code("cwc-4-2-2"))
    info = find_systematic_set(result.code)
    assert info is not None and set(info) <= {0, 1}


# ---------- one verification per built code ----------

def _inflated(code: BinaryCode, d: int) -> BinaryCode:
    return BinaryCode(code.length, code.words, d, code.profile)


@pytest.mark.parametrize(
    "build, ingredient",
    [
        (lambda: concatenate(
            QaryCode.from_words([(0, 0), (1, 1)], q=2, claimed_distance=3),
            cwc(["10", "01"], 2, 2, 1)), "outer code"),
        (lambda: pseudo_product(
            _inflated(builtin_code("cwc-4-2-2"), 4), builtin_code("lin-6-2-4")),
         "constant-weight ingredient"),
        (lambda: pseudo_product(
            cwc(["0011", "0101", "1010", "1111"], 4, 2, 2), builtin_code("lin-6-2-4")),
         "constant-weight ingredient"),
        (lambda: pseudo_product(
            builtin_code("cwc-4-2-2"), _inflated(builtin_code("lin-6-2-4"), 6)),
         "systematic ingredient"),
        (lambda: complement_extend(_inflated(builtin_code("full-2"), 2)), "ingredient"),
        (lambda: append_extend(2, _inflated(builtin_code("cwc-4-2-2"), 4)),
         "constant-weight ingredient"),
        (lambda: qary_expand(
            QaryCode.from_words([(0, 0), (0, 1)], q=3, claimed_distance=2), 1), "q-ary code"),
    ],
    ids=["concat-outer", "pp-cwc-distance", "pp-cwc-profile", "pp-sys",
         "complement", "append", "qary-expand"],
)
def test_false_ingredient_claim_is_named(build, ingredient):
    with pytest.raises(ConstructionError, match=f"^{ingredient} fails verification"):
        build()


def test_failed_output_with_sound_ingredients_is_a_bug():
    sound = cwc(["10", "01"], 2, 2, 1)
    with pytest.raises(AssertionError, match="verification failed"):
        words = np.packbits(np.array([[0, 1], [1, 1]], dtype=np.uint8), axis=1)  # 01 and 11
        constructions_mod._finish(words, 2, 2, None, "unit", 2, (("inner code", sound),))


@pytest.mark.parametrize(
    "build",
    [
        lambda: rs_mcwc(2, 3, 2, 1),
        lambda: pseudo_product(builtin_code("cwc-4-2-2"), builtin_code("lin-6-2-4")),
    ],
    ids=["rs_mcwc", "pseudo_product"],
)
def test_success_verifies_once(build, monkeypatch):
    calls = []

    def counting(code):
        calls.append(code)
        return verify_code(code)

    monkeypatch.setattr(constructions_mod, "verify_code", counting)
    result = build()
    assert calls == [result.code]
