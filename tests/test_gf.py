"""Field arithmetic tests, including exhaustive axiom checks for small orders."""

import numpy as np
import pytest

from mcwc.gf import FieldError, field_for_order, field_make, is_prime, prime_power


def brute_force_smallest_irreducible(p, k):
    """Independent modulus oracle: scan candidates and test by root/factor search."""

    def poly_eval(coeffs, x):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * x + c) % p
        return acc

    def divides(div, poly):
        # polynomial long division, little-endian, monic divisor
        r = list(poly)
        while len(r) >= len(div) and any(r):
            while r and r[-1] == 0:
                r.pop()
            if len(r) < len(div):
                break
            lead = r[-1]
            shift = len(r) - len(div)
            for i, c in enumerate(div):
                r[shift + i] = (r[shift + i] - lead * c) % p
        return not any(r)

    def irreducible(poly):
        deg = len(poly) - 1
        for ddeg in range(1, deg // 2 + 1):
            for idx in range(p**ddeg):
                div = []
                t = idx
                for _ in range(ddeg):
                    div.append(t % p)
                    t //= p
                div.append(1)
                if divides(div, poly):
                    return False
        return True

    for idx in range(p**k):
        coeffs = []
        t = idx
        for _ in range(k):
            coeffs.append(t % p)
            t //= p
        poly = tuple(coeffs) + (1,)
        if irreducible(poly):
            return poly
    raise AssertionError


def test_modulus_gf2():
    assert field_make(2, 1).modulus == (0, 1)  # x


def test_modulus_gf4():
    # the only monic irreducible quadratic over GF(2) is x^2 + x + 1
    assert field_make(2, 2).modulus == (1, 1, 1)
    assert brute_force_smallest_irreducible(2, 2) == (1, 1, 1)


def test_modulus_gf9():
    expected = brute_force_smallest_irreducible(3, 2)
    assert expected == (1, 0, 1)  # x^2 + 1
    assert field_make(3, 2).modulus == expected


@pytest.mark.parametrize("p,k", [(2, 3), (2, 4), (3, 3), (5, 2), (7, 2)])
def test_modulus_matches_oracle(p, k):
    assert field_make(p, k).modulus == brute_force_smallest_irreducible(p, k)


def test_prime_field_mul():
    f = field_make(5, 1)
    assert f.mul(3, 4) == 2


def test_gf4_generator_square():
    f = field_make(2, 2)
    x = 2  # digits (0, 1): the root of the modulus
    assert f.mul(x, x) == 3  # x^2 = x + 1


def test_inverse_property():
    # Each nonzero element has exactly one multiplicative inverse.
    for q in (2, 3, 4, 5, 7, 8, 9):
        f = field_for_order(q)
        for a in range(1, q):
            assert sum(f.mul(a, b) == 1 for b in range(q)) == 1, (q, a)


def test_inverse_of_zero():
    f = field_make(3, 1)
    assert all(f.mul(0, b) == 0 for b in range(3))


def test_mixed_field_operand():
    f = field_make(2, 2)
    for bad in (4, -1, (0, 1), 1.0, True):
        with pytest.raises(FieldError):
            f.add(bad, 1)
        with pytest.raises(FieldError):
            f.mul(1, bad)


SMALL_ORDERS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32, 37, 41, 43, 47, 49, 53, 59, 61, 64]


def schoolbook(field):
    """Oracle add and mul tables, q-by-q nested lists: digit-wise sums and
    polynomial products of coefficient tuples reduced mod field.modulus,
    mapped back to ints."""
    p, k, modulus = field.p, field.k, field.modulus
    elements = range(field.q)
    digits = [[(a // p**i) % p for i in range(k)] for a in elements]

    def to_int(coeffs):
        return sum(c * p**i for i, c in enumerate(coeffs))

    def add(a, b):
        return to_int((x + y) % p for x, y in zip(digits[a], digits[b]))

    def mul(a, b):
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(digits[a]):
            if x:
                for j, y in enumerate(digits[b]):
                    prod[i + j] = (prod[i + j] + x * y) % p
        for top in range(2 * k - 2, k - 1, -1):  # cancel x^top with the monic modulus
            lead = prod[top]
            if lead:
                for j, c in enumerate(modulus):
                    prod[top - k + j] = (prod[top - k + j] - lead * c) % p
        return to_int(prod[:k])

    return (
        [[add(a, b) for b in elements] for a in elements],
        [[mul(a, b) for b in elements] for a in elements],
    )


def all_pairs(q, dtype=None):
    """Column and row of the q elements in `dtype` (default: the narrowest one)."""
    elements = np.arange(q, dtype=dtype or np.min_scalar_type(q - 1))
    return elements[:, None], elements[None, :]


def check_arrays_match_schoolbook(q):
    f = field_for_order(q)
    add, mul = schoolbook(f)
    a, b = all_pairs(q)
    sums, products = f.add(a, b), f.mul(a, b)
    assert sums.dtype == products.dtype == a.dtype
    assert sums.tolist() == add
    assert products.tolist() == mul


@pytest.mark.parametrize("q", SMALL_ORDERS)
def test_tables_match_schoolbook(q):
    check_arrays_match_schoolbook(q)


@pytest.mark.parametrize("q", [181, 243, 256, 257])
def test_numpy_tables_match_add_and_mul(q):
    # 181 is the largest order a capped Reed-Solomon build takes, and its
    # digit sums (up to 360) overflow uint8; 243 = 3^5 sums five digits in
    # uint8; 256 and 257 sit on either side of the uint8 / uint16 boundary.
    check_arrays_match_schoolbook(q)


def test_array_operands():
    f = field_for_order(9)
    a, b = all_pairs(9, np.int64)  # signed and wide: results still come back narrow
    assert f.mul(a, b).dtype == f.add(a, b).dtype == np.uint8
    assert f.mul(a, 3).tolist() == [[f.mul(x, 3)] for x in range(9)]
    assert f.add(4, b).tolist() == [[f.add(4, y) for y in range(9)]]
    # An int8 array with an int that int8 cannot hold.
    for q in (256, 243):
        f = field_for_order(q)
        assert f.add(np.array([1], dtype=np.int8), q - 1).tolist() == [f.add(1, q - 1)]
        assert f.mul(np.array([1], dtype=np.int8), q - 1).tolist() == [q - 1]
    empty = np.zeros(0, dtype=np.uint8)
    assert f.add(empty, 1).shape == f.mul(1, empty).shape == (0,)


def test_bad_array_operands():
    f = field_for_order(9)
    for bad in (
        np.ones(3),  # float
        np.ones(3, dtype=bool),
        np.array([1, 9], dtype=np.uint8),  # out of range
        np.array([1, -1], dtype=np.int8),
    ):
        for op in (f.add, f.mul):
            with pytest.raises(FieldError):
                op(bad, 1)
            with pytest.raises(FieldError):
                op(np.zeros(3, dtype=np.uint8), bad)


def test_tables_are_read_only():
    f = field_for_order(8)
    for table in (f.exp, f.log):
        with pytest.raises(ValueError):
            table[0] = 1


@pytest.mark.parametrize("q", SMALL_ORDERS)
def test_field_axioms_exhaustive(q):
    f = field_for_order(q)
    add = [[f.add(a, b) for b in range(q)] for a in range(q)]
    mul = [[f.mul(a, b) for b in range(q)] for a in range(q)]
    a, b = all_pairs(q)
    assert add == f.add(a, b).tolist() and mul == f.mul(a, b).tolist()  # ints as arrays

    for a in range(q):
        for b in range(q):
            assert add[a][b] == add[b][a]
            assert mul[a][b] == mul[b][a]
    for a in range(q):
        for b in range(q):
            for c in range(q):
                assert mul[mul[a][b]][c] == mul[a][mul[b][c]]
                assert add[add[a][b]][c] == add[a][add[b][c]]
                assert mul[a][add[b][c]] == add[mul[a][b]][mul[a][c]]
    for a in range(q):
        assert add[0][a] == a and mul[1][a] == a
    for a in range(1, q):
        assert any(mul[a][b] == 1 for b in range(1, q))


@pytest.mark.parametrize("q", SMALL_ORDERS)
def test_multiplicative_group_cyclic(q):
    f = field_for_order(q)
    found = False
    for a in range(1, q):
        order = 1
        acc = a
        while acc != 1:
            acc = f.mul(acc, a)
            order += 1
        if order == q - 1:
            found = True
            break
    assert found, f"GF({q}) has no element of order {q - 1}"


def test_errors():
    with pytest.raises(FieldError):
        field_make(4, 1)  # not prime
    with pytest.raises(FieldError):
        field_make(2, 0)
    with pytest.raises(FieldError):
        field_make(2, 13)  # exceeds default order cap
    with pytest.raises(FieldError):
        field_for_order(6)
    with pytest.raises(FieldError):
        field_for_order(12)


def test_prime_power_helper():
    assert prime_power(8) == (2, 3)
    assert prime_power(9) == (3, 2)
    assert prime_power(7) == (7, 1)
    assert prime_power(6) is None
    assert prime_power(1) is None
    assert is_prime(2) and is_prime(97) and not is_prime(91)


def test_canonical_element_order():
    # The base-p digits of i are its coefficients: in GF(9) = GF(3)[x]/(x^2+1),
    # 3 is x and 4 is x+1, so 3*3 = x^2 = -1 = 2 and 3*4 = x^2+x = x-1 = 5.
    f = field_make(3, 2)
    assert f.q == 9
    assert f.add(1, 3) == 4
    assert f.add(2, 1) == 0  # 2 + 1 = 3 = 0 in the prime subfield
    assert f.mul(3, 3) == 2
    assert f.mul(3, 4) == 5
