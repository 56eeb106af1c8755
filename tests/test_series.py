"""Puiseux/bivariate series: contract examples, truncation bookkeeping,
and the substitution homomorphism."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tatek.cyclotomic import Cyclotomic, root_of_unity
from tatek.devoto import random_devoto_element
from tatek.groups import cyclic_group, symmetric_group, trivial_group
from tatek.moonshine import borcherds_product
from tatek.powerops import hecke_T
from tatek.serialize import bivariate_to_json, dumps, series_to_json
from tatek.series import BivariateSeries, PuiseuxSeries, hecke_substitute, scale_exponents

q = PuiseuxSeries.monomial(1, 1)
half = Fraction(1, 2)


@st.composite
def series(draw, min_exp=-2, max_exp=4, dens=(1, 2, 3), trunc=4):
    n_terms = draw(st.integers(0, 4))
    terms = {}
    for _ in range(n_terms):
        den = draw(st.sampled_from(dens))
        num = draw(st.integers(min_exp * den, max_exp * den))
        c = draw(st.integers(-3, 3))
        e = Fraction(num, den)
        terms[e] = terms.get(e, 0) + c
    return PuiseuxSeries(terms, trunc)


def test_difference_of_squares():
    a = PuiseuxSeries({0: 1, half: -1})
    b = PuiseuxSeries({0: 1, half: 1})
    assert a * b == PuiseuxSeries({0: 1, 1: -1})


def test_laurent_cancellation():
    assert PuiseuxSeries.monomial(1, -1) * q == PuiseuxSeries.one()


def test_geometric_series_identity():
    T = 10
    geo = PuiseuxSeries({i: 1 for i in range(T + 1)}, T)
    assert (geo * PuiseuxSeries({0: 1, 1: -1})).agrees_with(PuiseuxSeries.one(T))


def test_product_truncation_respects_valuations():
    a = PuiseuxSeries({-1: 1}, 3)  # known through q^3
    b = PuiseuxSeries({2: 1}, 3)
    assert (a * b).truncation == Fraction(2)  # 3 + (-1)
    assert (a * a).truncation == Fraction(2)


def test_unbounded_inputs_stay_exact():
    a = PuiseuxSeries({0: 1, 2: 5})
    assert (a * a).truncation is None


# -- substitution -------------------------------------------------------


def test_substitution_contract_examples():
    assert hecke_substitute(q, 2, 1, 0) == PuiseuxSeries.monomial(1, 2)
    assert hecke_substitute(q, 1, 2, 1) == PuiseuxSeries.monomial(-1, half)
    s = PuiseuxSeries({half: root_of_unity(3, 1), 2: -4}, 5)
    assert hecke_substitute(s, 1, 1, 0) == s


def test_substitution_on_negative_exponents():
    f = PuiseuxSeries.monomial(1, -1)
    out = hecke_substitute(f, 1, 2, 1)
    assert out == PuiseuxSeries.monomial(root_of_unity(2, 1), -half)


@given(series(), series(), st.integers(1, 3), st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_substitution_is_a_ring_homomorphism(a, b, n, k):
    for m in range(k):
        fa, fb = hecke_substitute(a, n, k, m), hecke_substitute(b, n, k, m)
        assert hecke_substitute(a + b, n, k, m) == fa + fb
        assert hecke_substitute(a * b, n, k, m).agrees_with(fa * fb)


@given(series(), st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_substitution_composes(a, n1, k1, n2, k2):
    one_then_two = hecke_substitute(hecke_substitute(a, n1, k1, 0), n2, k2, 0)
    assert one_then_two == hecke_substitute(a, n1 * n2, k1 * k2, 0)


def test_scale_exponents_is_the_cycle_rescaling():
    s = PuiseuxSeries({half: 1, 2: 3}, 4)
    assert scale_exponents(s, 3) == PuiseuxSeries({Fraction(3, 2): 1, 6: 3}, 12)


# -- exp / log / inverse ------------------------------------------------


def test_exp_of_zero():
    assert PuiseuxSeries.zero(5).exp() == PuiseuxSeries.one(5)


def test_exp_log_roundtrip():
    x = PuiseuxSeries({half: 2, 1: -1, 3: Fraction(1, 5)}, 6)
    assert x.exp().log().agrees_with(x)
    u = PuiseuxSeries({0: 1, 1: 3, 2: -2}, 6)
    assert u.log().exp().agrees_with(u)


def test_log_of_geometric_series():
    T = 6
    inv = PuiseuxSeries({0: 1, 1: -1}, T).inv()
    expect = PuiseuxSeries({m: Fraction(1, m) for m in range(1, T + 1)}, T)
    assert inv.log() == expect


@given(series(min_exp=1, max_exp=3, trunc=5), series(min_exp=1, max_exp=3, trunc=5))
@settings(max_examples=30, deadline=None)
def test_exp_turns_sums_into_products(a, b):
    assert (a + b).exp().agrees_with(a.exp() * b.exp())


def test_exp_rejects_constant_terms():
    with pytest.raises(ValueError):
        PuiseuxSeries({0: 1, 1: 1}, 4).exp()
    with pytest.raises(ValueError):
        PuiseuxSeries({-1: 1}, 4).exp()


def test_log_rejects_non_unit_constant():
    with pytest.raises(ValueError):
        PuiseuxSeries({0: 2, 1: 1}, 4).log()


def test_inverse_rejects_nonzero_valuation():
    with pytest.raises(ValueError):
        PuiseuxSeries({1: 1}, 4).inv()
    with pytest.raises(ValueError):
        PuiseuxSeries({-1: 1, 0: 1}, 4).inv()


def test_inverse_with_cyclotomic_unit_constant():
    c = root_of_unity(5, 2) + 1
    s = PuiseuxSeries({0: c, 1: 1}, 4)
    assert (s * s.inv()).agrees_with(PuiseuxSeries.one(4))


# -- differential oracle: the recurrences against geometric series --------
#
# The oracle is the earlier implementation of exp/log/inverse: one full
# series product per degree, summing the exponential, logarithmic and
# geometric series term by term.


def geometric_exp(s):
    if s.is_zero():
        return PuiseuxSeries.one(s.truncation)
    v = s.valuation()
    out = PuiseuxSeries.one(s.truncation)
    term = PuiseuxSeries.one(s.truncation)
    k = 0
    while term.valuation() is not None and k * v <= s.truncation:
        k += 1
        term = (term * s) * Fraction(1, k)
        out = out + term
    return out


def geometric_log(s):
    u = s - 1
    if u.is_zero():
        return PuiseuxSeries.zero(s.truncation)
    v = u.valuation()
    out = PuiseuxSeries.zero(s.truncation)
    term = PuiseuxSeries.one(s.truncation)
    k = 0
    while term.valuation() is not None and k * v <= s.truncation:
        k += 1
        term = term * u
        out = out + term * Fraction((-1) ** (k - 1), k)
    return out


def geometric_inv(s):
    c0_inv = s.coefficient(0).inverse()
    u = s * c0_inv - 1
    if u.is_zero():
        return PuiseuxSeries({0: c0_inv}, s.truncation)
    v = u.valuation()
    out = PuiseuxSeries.one(s.truncation)
    term = PuiseuxSeries.one(s.truncation)
    k = 0
    while term.valuation() is not None and k * v <= s.truncation:
        k += 1
        term = term * u
        out = out + term * Fraction((-1) ** k)
    return out * c0_inv


ANALYTIC = {"exp": (PuiseuxSeries.exp, geometric_exp),
            "log": (PuiseuxSeries.log, geometric_log),
            "inv": (PuiseuxSeries.inv, geometric_inv)}

rationals = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


@st.composite
def cyclotomics(draw, orders):
    order = draw(st.sampled_from(orders))
    terms = {draw(st.integers(0, order - 1)): draw(rationals) for _ in range(draw(st.integers(1, 2)))}
    return Cyclotomic(order, terms)


@st.composite
def analytic_input(draw, op, kind):
    """A truncated series fit for op: positive exponents with
    denominators up to 3, plus a constant term (1 for log, a nonzero
    value for inv); the truncation need not lie on the exponent lattice.
    kind picks the coefficients: rational, one cyclotomic order, or a
    mix of orders."""
    if kind == "rational":
        coeffs = rationals
    elif kind == "cyclotomic":
        coeffs = cyclotomics((draw(st.sampled_from((3, 4, 5, 8, 12))),))
    else:
        coeffs = cyclotomics((1, 3, 4, 6))
    den = draw(st.integers(1, 3))
    terms = {}
    for _ in range(draw(st.integers(1, 5))):
        e = Fraction(draw(st.integers(1, 4 * den)), den)
        terms[e] = draw(coeffs)
    if op == "log":
        terms[0] = 1
    elif op == "inv":
        terms[0] = draw(coeffs.filter(bool))
    trunc = Fraction(draw(st.integers(1, 12)), draw(st.integers(2, 4)))
    return PuiseuxSeries(terms, trunc)


@pytest.mark.parametrize("op", sorted(ANALYTIC))
@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_recurrences_match_geometric_series(op, data):
    s = data.draw(analytic_input(op, data.draw(st.sampled_from(("rational", "cyclotomic")))))
    fast, slow = ANALYTIC[op]
    got, want = fast(s), slow(s)
    assert got == want
    assert dumps(series_to_json(got)) == dumps(series_to_json(want))


@pytest.mark.parametrize("op", sorted(ANALYTIC))
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_recurrences_match_geometric_series_across_orders(op, data):
    # values are equal; the stored cyclotomic order of a coefficient may
    # differ with the order of operations, so bytes are not compared
    s = data.draw(analytic_input(op, "mixed"))
    fast, slow = ANALYTIC[op]
    assert fast(s) == slow(s)


@pytest.mark.parametrize("op", sorted(ANALYTIC))
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_analytic_truncation_is_sound(op, data):
    s = data.draw(analytic_input(op, "rational"))
    top = s.truncation + data.draw(st.integers(1, 3))
    above = {s.truncation + Fraction(data.draw(st.integers(1, 12)), 4): data.draw(rationals)
             for _ in range(data.draw(st.integers(1, 4)))}
    extended = PuiseuxSeries({**s.terms, **above}, top)
    fast = ANALYTIC[op][0]
    result = fast(s)
    assert fast(extended).agrees_with(result, up_to=result.truncation)


def test_exp_log_inverse_shortcuts_keep_truncation():
    assert PuiseuxSeries.one(Fraction(7, 3)).log() == PuiseuxSeries.zero(Fraction(7, 3))
    assert PuiseuxSeries({0: 2}, 3).inv() == PuiseuxSeries({0: Fraction(1, 2)}, 3)
    assert PuiseuxSeries({0: 2}).inv() == PuiseuxSeries({0: Fraction(1, 2)})
    with pytest.raises(ValueError, match="untruncated"):
        PuiseuxSeries({0: 1, 1: 1}).inv()
    with pytest.raises(ValueError, match="untruncated"):
        PuiseuxSeries({1: 1}).exp()
    with pytest.raises(ValueError, match="untruncated"):
        PuiseuxSeries({0: 1, 1: 1}).log()


# -- bivariate ----------------------------------------------------------


def test_bivariate_exp_generates_partitions():
    sigma = lambda m: sum(d for d in range(1, m + 1) if m % d == 0)
    T = 8
    src = BivariateSeries({m: PuiseuxSeries({0: Fraction(sigma(m), m)}) for m in range(1, T + 1)}, T)
    parts = [1, 1, 2, 3, 5, 7, 11, 15, 22]
    out = src.exp()
    for n, p in enumerate(parts):
        assert out.coefficient(n).coefficient(0).as_fraction() == p


def test_bivariate_log_of_geometric():
    T = 6
    g = BivariateSeries({0: PuiseuxSeries.one(), 1: -PuiseuxSeries.one()}, T).inv()
    L = g.log()
    for m in range(1, T + 1):
        assert L.coefficient(m).coefficient(0).as_fraction() == Fraction(1, m)


def test_bivariate_inverse_roundtrip():
    x = BivariateSeries({0: PuiseuxSeries.one(), 1: q, 2: q * q - 1}, 5)
    assert (x * x.inv()).agrees_with(BivariateSeries.one(5))


def test_bivariate_exp_log_requirements():
    with pytest.raises(ValueError):
        BivariateSeries({0: PuiseuxSeries.one()}, 3).exp()
    with pytest.raises(ValueError):
        BivariateSeries({0: q}, 3).log()


def test_bivariate_exp_is_exponential():
    a = BivariateSeries({1: q}, 4)
    b = BivariateSeries({2: PuiseuxSeries({half: 1})}, 4)
    assert (a + b).exp().agrees_with(a.exp() * b.exp())


# -- differential oracle: the bivariate recurrences against geometric series
#
# The oracle is the earlier implementation of BivariateSeries exp/log/
# inverse: one full bivariate product per t-degree.


def geometric_bivariate_exp(s):
    out = BivariateSeries.one(s.t_truncation)
    term = BivariateSeries.one(s.t_truncation)
    for k in range(1, s.t_truncation + 1):
        term = (term * s) * Fraction(1, k)
        out = out + term
    return out


def geometric_bivariate_log(s):
    c0 = s.coefficient(0)
    u = s - BivariateSeries({0: c0}, s.t_truncation)
    out = BivariateSeries.zero(s.t_truncation)
    term = BivariateSeries.one(s.t_truncation)
    for k in range(1, s.t_truncation + 1):
        term = term * u
        out = out + term * Fraction((-1) ** (k - 1), k)
    return out


def geometric_bivariate_inv(s):
    c0 = s.coefficient(0)
    c0_inv = c0.inv()
    u = (s - BivariateSeries({0: c0}, s.t_truncation)) * c0_inv
    out = BivariateSeries.one(s.t_truncation)
    term = BivariateSeries.one(s.t_truncation)
    for k in range(1, s.t_truncation + 1):
        term = term * u
        out = out + term * Fraction((-1) ** k)
    return out * c0_inv


BIVARIATE = {"exp": (BivariateSeries.exp, geometric_bivariate_exp),
             "log": (BivariateSeries.log, geometric_bivariate_log),
             "inv": (BivariateSeries.inv, geometric_bivariate_inv)}


def assert_same_bivariate(op, s):
    fast, slow = BIVARIATE[op]
    got, want = fast(s), slow(s)
    assert got == want
    assert dumps(bivariate_to_json(got)) == dumps(bivariate_to_json(want))
    return got


@pytest.mark.parametrize("group_maker", [trivial_group, lambda: cyclic_group(2),
                                         lambda: cyclic_group(3), lambda: symmetric_group(3),
                                         lambda: cyclic_group(4)],
                         ids=["1", "Z2", "Z3", "S3", "Z4"])
def test_bivariate_recurrences_match_geometric_on_hecke_series(group_maker):
    # the shapes of sym_total and lambda_str_total: exp of the Hecke
    # generating series of an element, then the inverse of that total
    G = group_maker()
    rng = random.Random(len(G))
    for t_order in range(2, 7):
        x = random_devoto_element(G, rng, truncation=rng.choice([1, Fraction(3, 2), 2]))
        hecke = [hecke_T(x, m) for m in range(1, t_order + 1)]
        for pair in G.commuting_pair_classes():
            gen = BivariateSeries({m: hecke[m - 1].table[pair] for m in range(1, t_order + 1)},
                                  t_order)
            assert_same_bivariate("inv", assert_same_bivariate("exp", gen))


def test_bivariate_recurrences_refine_geometric_on_borcherds_products():
    # the shapes of the moonshine checks, with a t^0 coefficient 1 + O(q^T)
    # and every t-degree known to exactly q^T; the recurrences and the
    # loops agree byte for byte on all of them
    rng = random.Random(11)
    same = 0
    for t_order in range(1, 5):
        for q_order in range(1, 6):
            for _ in range(3):
                c = {i: rng.randint(-2, 2) for i in range(5)}
                prod = borcherds_product(c, t_order, q_order)
                for op in ("log", "inv"):
                    fast, slow = BIVARIATE[op]
                    got, want = fast(prod), slow(prod)
                    same += dumps(bivariate_to_json(got)) == dumps(bivariate_to_json(want))
                    for n in range(t_order + 1):
                        x, y = got.coefficient(n), want.coefficient(n)
                        assert x.agrees_with(y, up_to=y.truncation)
                        if y.truncation is None:
                            assert y.is_zero() and x.is_zero() and x.truncation == q_order
                        else:
                            assert x.truncation >= y.truncation
                    if op == "log":
                        assert got.terms[0] == PuiseuxSeries.zero(q_order)
    assert same == 120  # of 120


@st.composite
def truncated_coefficient(draw):
    """A truncated q-series, possibly zero, with exponents in (1/2)Z from
    -1/2 up."""
    trunc = Fraction(draw(st.integers(1, 8)), 2)
    terms = {Fraction(draw(st.integers(-1, 8)), 2): draw(rationals)
             for _ in range(draw(st.integers(0, 3)))}
    return PuiseuxSeries(terms, trunc)


@st.composite
def bivariate_input(draw, op):
    """A bivariate series fit for op whose coefficients are truncated,
    absent, or zero but truncated; the t^0 coefficient is absent or
    O(q^T) for exp, 1 or 1 + O(q^T) for log, and a truncated unit for inv."""
    t_trunc = draw(st.integers(1, 4))
    terms = {}
    for n in range(1, t_trunc + 1):
        if draw(st.booleans()) or n == 1:
            terms[n] = draw(truncated_coefficient())
    trunc = draw(st.one_of(st.none(), st.integers(1, 4)))
    if op == "exp" and trunc is not None:
        terms[0] = PuiseuxSeries.zero(trunc)
    elif op == "log":
        terms[0] = PuiseuxSeries.one(trunc)
    elif op == "inv":
        c0 = draw(truncated_coefficient())
        terms[0] = PuiseuxSeries({**{e: c for e, c in c0.terms.items() if e > 0},
                                  0: draw(rationals.filter(bool))}, c0.truncation)
    return BivariateSeries(terms, t_trunc)


@pytest.mark.parametrize("op", sorted(BIVARIATE))
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_bivariate_truncation_is_sound(op, data):
    # a coefficient is unknown above its truncation, a zero one included:
    # whatever is put there, every result coefficient keeps its value up
    # to the truncation it records
    s = data.draw(bivariate_input(op))
    extended = {}
    for n, c in s.terms.items():
        if n == 0 and op != "inv":
            extended[n] = c
            continue
        above = {c.truncation + Fraction(data.draw(st.integers(1, 4)), 2): data.draw(rationals)
                 for _ in range(data.draw(st.integers(1, 3)))}
        extended[n] = PuiseuxSeries({**c.terms, **above}, c.truncation + 2)
    fast = BIVARIATE[op][0]
    result, wider = fast(s), fast(BivariateSeries(extended, s.t_truncation))
    for n in range(s.t_truncation + 1):
        r = result.coefficient(n)
        assert wider.coefficient(n).agrees_with(r, up_to=r.truncation), n


def _sparse_product(a, b):
    out = {}
    for ea, ca in a.terms.items():
        for eb, cb in b.terms.items():
            out[ea + eb] = out.get(ea + eb, Cyclotomic.zero()) + ca * cb
    return out


def test_dense_product_path_matches_sparse_loop():
    # operands spanning up to ~2000 exponents, term gaps of 1-100 and
    # negative valuations, cut at no truncation, inside the operands or
    # below both valuations
    from tatek.series import _dense_rational_product

    def bytes_of(s):
        return dumps(series_to_json(s))

    def draw(rng):
        e, terms = rng.randint(-300, 40), {}
        gap = rng.choice([1, 3, 10, 40, 100])
        for _ in range(rng.randint(2, 40)):
            terms[e] = Fraction(rng.choice([-9, -2, -1, 1, 3, 7]), rng.choice([1, 1, 2, 3]))
            e += rng.randint(1, gap)
        return terms

    rng = random.Random(17)
    dense_past_old_cap = 0
    for _ in range(80):
        a_terms, b_terms = draw(rng), draw(rng)
        exps = sorted([*a_terms, *b_terms])
        ta, tb = (rng.choice([None, rng.randint(exps[0], exps[-1])]) for _ in "ab")
        a, b = PuiseuxSeries(a_terms, ta), PuiseuxSeries(b_terms, tb)
        exact = _sparse_product(a, b)
        results = [(a * b, a._product_truncation(b))]  # a * b may take either path
        if a and b:
            va, vb = int(a.valuation()), int(b.valuation())
            top = int(max(a.terms) + max(b.terms))
            for cut in (results[0][1], None, rng.randint(va + vb, top) + rng.choice([0, half]),
                        min(va, vb) - rng.randint(1, 50)):
                dense = _dense_rational_product(a, b, cut)
                if dense is not None:
                    results.append((dense, cut))
                    dense_past_old_cap += cut is None and top - va - vb > 512
        for got, cut in results:
            want = PuiseuxSeries(exact, cut)
            assert got == want and bytes_of(got) == bytes_of(want)
    assert dense_past_old_cap > 0
    # a dense pass over these would allocate millions of slots
    wide = PuiseuxSeries({0: 1, 10**6: 2, 2 * 10**6: 3})
    assert _dense_rational_product(wide, wide, None) is None
    assert wide * wide == PuiseuxSeries(_sparse_product(wide, wide))
