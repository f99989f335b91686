"""Field arithmetic: examples, exhaustive axioms, and error reporting."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossflats import field as field_module
from crossflats.field import (
    MAX_ORDER,
    Field,
    _digits,
    _poly_field_mul,
    _undigits,
    is_prime,
    make_field,
    smallest_irreducible,
)

SMALL_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]
# Every field with q <= 32; GF(9), GF(25) and GF(27) add through Zech logs.
TABLE_FIELDS = [(p, k) for p in range(2, 33) if is_prime(p)
                for k in range(1, 6) if p ** k <= 32]
LARGE_FIELDS = [(2, 16), (3, 10), (65521, 1)]


# Reference arithmetic straight from the polynomial definition.

def ref_mul(f, a, b):
    return _poly_field_mul(f.p, f.k, f.modulus, a, b)


def ref_add(f, a, b):
    digits = zip(_digits(a, f.p, f.k), _digits(b, f.p, f.k))
    return _undigits([(x + y) % f.p for x, y in digits], f.p)


def ref_neg(f, a):
    return _undigits([-x % f.p for x in _digits(a, f.p, f.k)], f.p)


def test_prime_fields():
    f = make_field(2)
    assert f.q == 2 and list(f.elements()) == [0, 1] and f.modulus == ()
    assert make_field(3).q == 3


def test_gf4_modulus_is_the_unique_irreducible_quadratic():
    # Oracle: scan the monic quadratics over GF(2) for the ones with no root.
    candidates = []
    for c0, c1 in itertools.product(range(2), repeat=2):
        has_root = any((x * x + c1 * x + c0) % 2 == 0 for x in range(2))
        if not has_root:
            candidates.append((c0, c1, 1))
    assert candidates == [(1, 1, 1)]
    assert make_field(2, 2).modulus == (1, 1, 1)


@pytest.mark.parametrize("p,k", [(2, 3), (3, 2), (2, 4), (5, 2)])
def test_modulus_is_smallest_irreducible_by_scan(p, k):
    # Oracle: first monic degree-k polynomial (ascending encoding) with no
    # monic divisor of smaller degree, divisors checked by coefficient math.
    def poly_of(enc, deg):
        coeffs = []
        for _ in range(deg):
            coeffs.append(enc % p)
            enc //= p
        return coeffs + [1]

    def divides(d, f):
        f = list(f)
        while len(f) >= len(d):
            c = f[-1]
            if c:
                off = len(f) - len(d)
                for i, dc in enumerate(d):
                    f[off + i] = (f[off + i] - c * dc) % p
            f.pop()
        return not any(f)

    def irreducible(f):
        deg = len(f) - 1
        for d in range(1, deg):
            for enc in range(p ** d):
                if divides(poly_of(enc, d), f):
                    return False
        return True

    expected = next(tuple(poly_of(enc, k)) for enc in range(p ** k)
                    if irreducible(poly_of(enc, k)))
    assert smallest_irreducible(p, k) == expected
    assert Field(p, k).modulus == expected


def test_arithmetic_examples():
    gf3 = make_field(3)
    assert gf3.add(2, 2) == 1
    gf4 = make_field(2, 2)
    assert gf4.mul(2, 3) == 1
    assert gf4.inv(2) == 3


@pytest.mark.parametrize("p,k", SMALL_FIELDS)
def test_multiplicative_identity(p, k):
    f = Field(p, k)
    for a in f.elements():
        assert f.mul(a, 1) == a
        assert f.mul(1, a) == a


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)])
def test_field_axioms_exhaustive(p, k):
    f = Field(p, k)
    q = f.q
    elements = list(f.elements())
    for a, b in itertools.product(elements, repeat=2):
        assert f.add(a, b) == f.add(b, a)
        assert f.mul(a, b) == f.mul(b, a)
        assert 0 <= f.add(a, b) < q and 0 <= f.mul(a, b) < q
    for a, b, c in itertools.product(elements, repeat=3):
        assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    for a in elements:
        assert f.add(a, f.neg(a)) == 0
        assert f.sub(a, a) == 0
        if a:
            assert f.mul(a, f.inv(a)) == 1


@pytest.mark.parametrize("p,k", SMALL_FIELDS)
def test_multiplicative_group_order(p, k):
    f = Field(p, k)
    for a in range(1, f.q):
        assert f.pow(a, f.q - 1) == 1


def test_pow_handles_negative_exponents():
    f = Field(3, 2)
    for a in range(1, f.q):
        assert f.pow(a, -1) == f.inv(a)
        assert f.mul(f.pow(a, 3), f.pow(a, -3)) == 1
    assert f.pow(5, 0) == 1


def test_errors():
    with pytest.raises(ValueError):
        make_field(4)
    with pytest.raises(ValueError):
        make_field(1)
    with pytest.raises(ValueError):
        make_field(2, 0)
    with pytest.raises(ValueError):
        Field(2, 17)  # over the 16-bit order cap
    with pytest.raises(ZeroDivisionError):
        make_field(5).inv(0)
    with pytest.raises(ValueError):
        make_field(2).add(0, 2)


def test_non_canonical_modulus_rejected():
    # x^2 + x + 2 is irreducible over GF(3) but not the canonical pick.
    with pytest.raises(ValueError):
        Field(3, 2, (2, 1, 1))
    assert Field(3, 2).modulus == (1, 0, 1)
    with pytest.raises(ValueError):
        Field(2, 1, (1, 1))


def test_is_prime():
    primes = [2, 3, 5, 7, 11, 13]
    assert [n for n in range(2, 14) if is_prime(n)] == primes
    assert not is_prime(1) and not is_prime(0) and not is_prime(-7)
    for n in range(1000):
        assert is_prime(n) == (n >= 2 and all(n % d for d in range(2, n)))
    # 65521 is the largest prime below MAX_ORDER
    assert [is_prime(n) for n in (65519, 65521, 65535, 65536)] == [True, True, False, False]


def test_table_fields_cover_the_zech_path():
    assert {(3, 2), (5, 2), (3, 3)} <= set(TABLE_FIELDS)
    assert len(TABLE_FIELDS) == 18


@pytest.mark.parametrize("p,k", TABLE_FIELDS)
def test_tables_match_the_polynomial_definition(p, k):
    f = Field(p, k)
    elements = list(f.elements())
    products = {(a, b): ref_mul(f, a, b) for a in elements for b in elements}
    for a, b in itertools.product(elements, repeat=2):
        assert f.mul(a, b) == products[a, b]
        assert f.add(a, b) == ref_add(f, a, b)
        assert f.sub(a, b) == ref_add(f, a, ref_neg(f, b))
    for a in elements:
        assert f.neg(a) == ref_neg(f, a)
        if a:
            # the unique b with a * b = 1 under the polynomial product
            assert [b for b in elements if products[a, b] == 1] == [f.inv(a)]


@pytest.mark.parametrize("p,k", TABLE_FIELDS)
def test_row_operations_match_scalar_ops(p, k):
    f = Field(p, k)
    ops = f.unchecked
    row = list(f.elements())
    other = row[::-1]
    for c in f.elements():
        assert ops.scale(c, row) == [f.mul(c, y) for y in row]
        assert ops.sub_scaled(row, c, other) == \
            [f.sub(x, f.mul(c, y)) for x, y in zip(row, other)]


@pytest.mark.parametrize("p,k", LARGE_FIELDS)
@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_large_field_tables_match_the_polynomial_definition(p, k, data):
    f = Field(p, k)
    element = st.integers(0, f.q - 1)
    a, b = data.draw(element), data.draw(element)
    assert f.mul(a, b) == ref_mul(f, a, b)
    assert f.add(a, b) == ref_add(f, a, b)
    assert f.neg(a) == ref_neg(f, a)
    if a:
        assert ref_mul(f, a, f.inv(a)) == 1


def test_equal_fields_share_their_tables():
    assert Field(2, 3).unchecked is make_field(2, 3).unchecked
    assert Field(2, 3) == Field(2, 3, (1, 1, 0, 1))
    assert "unchecked" not in repr(Field(2, 3))


def test_order_is_bounded_before_any_primality_test(monkeypatch):
    def no_prime_test(n):
        raise AssertionError(f"is_prime({n}) ran on an unbounded order")

    monkeypatch.setattr(field_module, "is_prime", no_prime_test)
    for p, k in [(1000000000000000003, 1), (2, 10 ** 9), (MAX_ORDER + 1, 1), (2, 17)]:
        with pytest.raises(ValueError, match="exceeds"):
            Field(p, k)
