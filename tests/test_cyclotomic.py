"""Cyclotomic field arithmetic: contract examples and algebraic laws."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tatek.cyclotomic import (Cyclotomic, _from_dense_fractions, cyc_make,
                              cyclotomic_polynomial)

ORDERS = [1, 2, 3, 4, 5, 6, 8, 9, 12]


@st.composite
def cyclotomics(draw):
    order = draw(st.sampled_from(ORDERS))
    n_terms = draw(st.integers(0, 3))
    terms = {}
    for _ in range(n_terms):
        e = draw(st.integers(0, order - 1))
        num = draw(st.integers(-4, 4))
        den = draw(st.integers(1, 3))
        terms[e] = terms.get(e, Fraction(0)) + Fraction(num, den)
    return Cyclotomic(order, terms)


def test_polynomials_match_known_values():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    assert cyclotomic_polynomial(105)[7] == -2  # first coefficient outside {0,+-1}


def test_zeta_two_is_minus_one():
    assert cyc_make(2, 1) == -1


def test_cube_roots_sum_to_zero():
    total = cyc_make(3, 0) + cyc_make(3, 1) + cyc_make(3, 2)
    assert total.is_zero()


def test_order_six_reduces_to_order_three_canonical_form():
    z6 = cyc_make(6, 1)
    z3 = cyc_make(3, 1)
    expected = -(z3 * z3)
    # same value and literally the same canonical form
    assert z6 == expected
    assert z6.order == expected.order
    assert z6.terms == expected.terms


@given(st.sampled_from(ORDERS), st.integers(-20, 20), st.integers(-20, 20))
def test_roots_multiply_by_adding_exponents(order, a, b):
    assert cyc_make(order, a) * cyc_make(order, b) == cyc_make(order, a + b)


@given(cyclotomics(), cyclotomics())
@settings(max_examples=60, deadline=None)
def test_addition_and_multiplication_commute(x, y):
    assert x + y == y + x
    assert x * y == y * x


@given(cyclotomics(), cyclotomics(), cyclotomics())
@settings(max_examples=40, deadline=None)
def test_associativity_and_distributivity(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z


@given(cyclotomics())
@settings(max_examples=60, deadline=None)
def test_embedding_then_reducing_is_identity(x):
    for m in (2, 3, 4):
        big = x.embedded(x.order * m)
        assert big.reduce_to(x.order) == x
        assert big == x


@given(cyclotomics())
@settings(max_examples=40, deadline=None)
def test_inverse(x):
    if x.is_zero():
        with pytest.raises(ZeroDivisionError):
            x.inverse()
    else:
        assert x * x.inverse() == Cyclotomic.one()


def _trim(p):
    while p and not p[-1]:
        p.pop()
    return p


def _poly_divmod(a, b):
    a = list(a)
    db = len(b) - 1
    q = [Fraction(0)] * max(len(a) - db, 0)
    while len(a) - 1 >= db and a:
        t = a[-1] / b[-1]
        q[len(a) - 1 - db] = t
        for i in range(db + 1):
            a[len(a) - 1 - db + i] -= t * b[i]
        _trim(a)
    return q, a


def _euclid_inverse(x):
    """Reference inverse: the extended Euclidean algorithm against the
    defining polynomial, with the result re-normalized."""
    if x.order == 1:
        return Cyclotomic.from_rational(1 / x.as_fraction())
    nums, den = x._dense()
    g = [Fraction(c) for c in cyclotomic_polynomial(x.order)]
    r0, r1 = g, _trim([Fraction(n, den) for n in nums])
    s0, s1 = [], [Fraction(1)]
    while r1:
        q, r = _poly_divmod(r0, r1)
        r0, r1 = r1, r
        qs = [Fraction(0)] * (len(q) + len(s1) - 1) if q and s1 else []
        for i, qi in enumerate(q):
            for j, sj in enumerate(s1):
                qs[i + j] += qi * sj
        new_s = [Fraction(0)] * max(len(s0), len(qs))
        for i, c in enumerate(s0):
            new_s[i] += c
        for i, c in enumerate(qs):
            new_s[i] -= c
        s0, s1 = s1, _trim(new_s)
    assert len(r0) == 1
    _, inv = _poly_divmod([c / r0[0] for c in s0], g)
    return _from_dense_fractions(x.order, inv + [Fraction(0)] * (len(g) - 1 - len(inv)))


def test_inverse_matches_euclid_reference():
    # the norm form must reproduce the Euclid result verbatim, including
    # on raw embedded values whose stored order exceeds their field's
    rng = random.Random(5)
    checked = 0
    for order in range(1, 25):
        for trial in range(8):
            terms = {rng.randrange(order): Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                     for _ in range(rng.randint(1, 4))}
            x = Cyclotomic(order, terms)
            if trial % 2:
                x = x.embedded(x.order * rng.randint(2, 5))
            if x.is_zero():
                continue
            assert repr(x.inverse()) == repr(_euclid_inverse(x)), x
            checked += 1
    assert checked > 150


@given(st.sampled_from(ORDERS), st.integers(-12, 12))
def test_conjugate_inverts_roots(order, a):
    z = cyc_make(order, a)
    assert z.conjugate() == cyc_make(order, -a)
    assert z * z.conjugate() == 1


def test_exactness_no_rounding():
    x = Cyclotomic(5, {1: Fraction(1, 3), 2: Fraction(2, 7)})
    y = (x * 21) - (7 * cyc_make(5, 1) + 6 * cyc_make(5, 2))
    assert y.is_zero()


def test_order_must_be_positive():
    # a negative order used to fail with IndexError, and order 0 with a
    # modulo by zero
    for order in (0, -3):
        for make in (lambda: Cyclotomic(order, {1: 1}), lambda: cyc_make(order, 1)):
            with pytest.raises(ValueError, match="order must be positive"):
                make()


def test_reduce_to_rejects_values_outside_subfield():
    with pytest.raises(ValueError):
        cyc_make(4, 1).reduce_to(1)


def test_galois_requires_unit_exponent():
    with pytest.raises(ValueError):
        cyc_make(12, 1).galois(2)


def test_rational_values_normalize_to_order_one():
    z = cyc_make(5, 1)
    total = sum((cyc_make(5, k) for k in range(1, 5)), Cyclotomic.zero())
    assert total == -1 and total.order == 1
    assert (z ** 5).order == 1


def test_equality_crosses_stored_orders():
    # zeta_3 * zeta_4 * zeta_3^2 is zeta_4, but arithmetic leaves it stored
    # at order 12; equality still holds through the lcm embedding
    x = cyc_make(3, 1) * cyc_make(4, 1) * cyc_make(3, 2)
    i = cyc_make(4, 1)
    assert x == i and i == x
    assert (x.order, i.order) == (12, 4)
    assert x - i == 0
