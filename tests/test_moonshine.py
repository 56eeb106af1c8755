"""Moonshine layer: the j oracle, Faber polynomials, replicability, and
the product identities."""

import random
from fractions import Fraction

import pytest

from tatek.moonshine import (InsufficientTruncation, McKayThompson, _delta, _times_binomial,
                             adams, borcherds_product, denominator_check, dmvv_check,
                             evaluate_poly, faber, faber_normal_form_check, jseries,
                             jseries_consistency, replicability_check)
from tatek.groups import cyclic_group
from tatek.series import BivariateSeries, PuiseuxSeries


def test_jseries_first_coefficients_from_both_routes():
    j = jseries(3)
    assert j.coefficient(0) == 0
    assert j.coefficient(1) == 196884
    assert j.coefficient(2) == 21493760
    assert j.coefficient(3) == 864299970
    assert jseries_consistency(6).ok


def test_jseries_coefficients_are_integers():
    j = jseries(12)
    for e in j.series.exponents():
        c = j.series.coefficient(e)
        assert c.is_rational() and c.as_fraction().denominator == 1


def test_mckay_thompson_validation():
    with pytest.raises(ValueError):
        McKayThompson(PuiseuxSeries({0: 1, 1: 1}, 4))
    with pytest.raises(ValueError):
        McKayThompson(PuiseuxSeries({-1: 2, 1: 1}, 4))
    with pytest.raises(ValueError):
        McKayThompson(PuiseuxSeries({Fraction(-1, 2): 1}, 4))


def test_faber_contract_examples():
    F = jseries(6)
    assert faber(F, 1) == [0, 1]
    a1, a2 = int(F.coefficient(1)), int(F.coefficient(2))
    assert faber(F, 2) == [-2 * a1, 0, 1]
    assert faber(F, 3) == [-3 * a2, -3 * a1, 0, 1]


def test_faber_requires_enough_coefficients():
    with pytest.raises(InsufficientTruncation):
        faber(jseries(2), 5)


def test_faber_normal_form():
    assert faber_normal_form_check(jseries(5), 4).ok


def test_replicability_of_pole_series():
    qinv = McKayThompson(PuiseuxSeries.monomial(1, -1, truncation=60))
    report = replicability_check(qinv, 6, 8)
    assert report.ok
    # Phi_n is w^n here, so the Faber route gives exactly q^-n
    for n in (2, 3):
        assert faber(qinv, n) == [0] * n + [1]


def test_replicability_of_j():
    report = replicability_check(jseries(16), 2, 8)
    assert report.ok and all(ok for _, ok, _ in report.lines)


def test_replicability_enforces_truncation_requirement():
    with pytest.raises(InsufficientTruncation) as err:
        replicability_check(jseries(8), 4, 8)
    assert err.value.required == 32


def test_replicability_failure_carries_witness():
    # q^-1 + q + q^2 breaks at n = 2: Phi_2(F) has 2q^3 where 2 T_2(F)
    # has none
    bad = McKayThompson(PuiseuxSeries({-1: 1, 1: 1, 2: 1}, 20))
    report = replicability_check(bad, 2, 4)
    n2 = report.lines[1]
    assert not report.ok and n2[0] == 2 and not n2[1] and "q^3" in n2[2]


def test_two_sided_identity_for_simple_replicable_series():
    # q^-1 + q is replicable (hand check: both sides equal q^-2 + q^2 at
    # n = 2), so no failure may be reported
    F = McKayThompson(PuiseuxSeries({-1: 1, 1: 1}, 30))
    assert replicability_check(F, 3, 6).ok


def test_adams_examples():
    s = PuiseuxSeries({-1: 1, 2: 5}, 6)
    assert adams(s, 3) is s
    Z2 = cyclic_group(2)
    e = Z2.identity
    g = next(x for x in Z2.elements if x != e)
    table = {e: PuiseuxSeries({0: 1}, 4), g: PuiseuxSeries({0: -1}, 4)}
    moved = adams(table, 2, group=Z2)
    assert moved[g] == table[e] and moved[e] == table[e]
    assert adams(table, 1, group=Z2) == table
    with pytest.raises(ValueError):
        adams(table, 2)


def test_borcherds_product_examples():
    only_qt = borcherds_product({1: 1}, 4, 4)
    geo = BivariateSeries({0: PuiseuxSeries.one(4),
                           1: PuiseuxSeries.monomial(-1, 1, 4)}, 4).inv()
    assert only_qt.agrees_with(geo, q_order=4)
    assert borcherds_product({}, 3, 3).agrees_with(BivariateSeries.one(3), q_order=3)
    parts = borcherds_product({0: 1}, 5, 2)
    partition = [1, 1, 2, 3, 5, 7]
    for n, p in enumerate(partition):
        assert parts.coefficient(n).coefficient(0).as_fraction() == p


def _generic_borcherds(c, t_order, q_order):
    """The Borcherds product by bivariate series products, one factor
    (1 - q^i t^j) or its t-adic inverse at a time: the oracle for the
    integer grid of borcherds_product."""
    out = BivariateSeries.one(t_order) * PuiseuxSeries.one(Fraction(q_order))
    for j in range(1, t_order + 1):
        for i in range(0, q_order + 1):
            e = c.get(i * j, 0)
            if not e:
                continue
            base = BivariateSeries({0: PuiseuxSeries.one(Fraction(q_order)),
                                    j: PuiseuxSeries.monomial(-1, i, Fraction(q_order))},
                                   t_order)
            factor = base.inv() if e > 0 else base
            for _ in range(abs(e)):
                out = out * factor
    return out


def _generic_delta(T):
    """q prod_{n<=T} (1 - q^n)^24 by 24-fold repeated series products."""
    delta = PuiseuxSeries.one(T)
    for n in range(1, T + 1):
        f = PuiseuxSeries({0: 1, n: -1}, T)
        p = PuiseuxSeries.one(T)
        for _ in range(24):
            p = p * f
        delta = delta * p
    return delta * PuiseuxSeries.monomial(1, 1)


def _all_fractions(s):
    return all(type(v) is Fraction for c in s.terms.values() for v in c.terms.values())


def test_borcherds_grid_matches_generic_product():
    rng = random.Random(5)
    for _ in range(60):
        t_order, q_order = rng.randint(1, 6), rng.randint(1, 10)
        c = {i: rng.randint(-2, 2) for i in range(t_order * q_order + 1)}
        fast, slow = borcherds_product(c, t_order, q_order), _generic_borcherds(c, t_order, q_order)
        assert fast.t_truncation == t_order and sorted(fast.terms) == list(range(t_order + 1))
        for n in range(t_order + 1):
            x = fast.coefficient(n)
            assert x.truncation == q_order and _all_fractions(x)
            assert x.agrees_with(slow.coefficient(n), up_to=q_order), (c, t_order, q_order, n)


def test_integer_delta_equals_generic_product():
    for T in range(1, 31):
        delta = _delta(T)
        assert delta == _generic_delta(T), T
        assert _all_fractions(delta)


def test_binomial_update_inverts():
    rng = random.Random(8)
    grid = [[rng.randint(-9, 9) for _ in range(7)] for _ in range(4)]
    for i, j, e in ((0, 1, 2), (2, 0, 3), (1, 2, -1), (3, 0, -2), (0, 3, 1)):
        before = [row[:] for row in grid]
        _times_binomial(grid, i, j, e)
        _times_binomial(grid, i, j, -e)
        assert grid == before, (i, j, e)


def test_borcherds_log_linearity():
    rng = random.Random(3)
    c = {i: rng.randint(-2, 2) for i in range(5)}
    prod = borcherds_product(c, 3, 4)
    expected = BivariateSeries.zero(3)
    for j in range(1, 4):
        for i in range(0, 5):
            cij = c.get(i * j, 0)
            if cij:
                base = BivariateSeries({0: PuiseuxSeries.one(4),
                                        j: PuiseuxSeries.monomial(-1, i, 4)}, 3)
                expected = expected - base.log() * cij
    assert prod.log().agrees_with(expected, q_order=4)


def test_dmvv_examples_and_additivity():
    assert dmvv_check({1: 1}, 4, 6).ok
    assert dmvv_check({}, 3, 3).ok
    rng = random.Random(9)
    c = {i: rng.randint(-2, 2) for i in range(7)}
    c2 = {i: rng.randint(-2, 2) for i in range(7)}
    csum = {i: c[i] + c2[i] for i in c}
    assert dmvv_check(c, 4, 6).ok and dmvv_check(c2, 4, 6).ok and dmvv_check(csum, 4, 6).ok
    lhs = borcherds_product(csum, 3, 4)
    rhs = borcherds_product(c, 3, 4) * borcherds_product(c2, 3, 4)
    assert lhs.agrees_with(rhs, q_order=4)


def test_denominator_check_small_orders():
    assert denominator_check(2).ok
    report = denominator_check(3)
    assert report.ok, report.witness


def test_evaluate_poly_horner():
    s = PuiseuxSeries({-1: 1, 1: 3}, 6)
    v = evaluate_poly([2, 0, 1], s)  # s^2 + 2
    assert v.agrees_with(s * s + 2)


def test_replicability_of_exactly_known_series():
    # an untruncated (exact) series is known to every order
    qinv = McKayThompson(PuiseuxSeries.monomial(1, -1))
    assert qinv.series.truncation is None
    assert replicability_check(qinv, 4, 6).ok
