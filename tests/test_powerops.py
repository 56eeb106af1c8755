"""Power operations: contract examples, the generating identity, and the
operation axioms on small groups."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tatek.cyclotomic import Cyclotomic, root_of_unity
from tatek.devoto import (DevotoElement, check_devoto, external_product,
                          random_devoto_element, restrict_along)
from tatek.groups import cyclic_group, direct_product, symmetric_group, trivial_group
from tatek.powerops import (compare_class_functions, hecke_T, hecke_scalar,
                            lambda_str_total, p_str, p_top_eval, s_top_total, sym_str,
                            sym_total, transitive_classes, verify_iterated)
from tatek.serialize import devoto_to_json, dumps, series_to_json
from tatek.series import BivariateSeries, PuiseuxSeries, hecke_substitute
from tatek.wreath import (OrbitConvention, WreathElement, block_sum_hom, orbit_data,
                          unzip_hom, wreath)

T1 = trivial_group()
E = T1.identity


def q_series(trunc=8):
    return PuiseuxSeries.monomial(1, 1, truncation=trunc)


def test_transitive_class_enumeration():
    for n in range(1, 8):
        classes = transitive_classes(n)
        assert len(set(classes)) == len(classes)
        sigma = sum(d for d in range(1, n + 1) if n % d == 0)
        assert len(classes) == sigma
        for N, k, m in classes:
            assert N * k == n and 0 <= m < k


def test_p_top_contract_examples():
    x = q_series()
    w1 = WreathElement((E,), (0,))
    assert p_top_eval(T1, x, w1) == x
    swap = WreathElement((E, E), (1, 0))
    assert p_top_eval(T1, x, swap) == PuiseuxSeries.monomial(1, 2, truncation=16)
    par = WreathElement((E, E), (0, 1))
    assert p_top_eval(T1, x, par).terms == {Fraction(2): Cyclotomic.one()}
    with pytest.raises(ValueError):
        p_top_eval(T1, x, WreathElement((E,), (1, 0)))


def test_p_top_on_class_functions():
    S3 = symmetric_group(3)
    table = {g: PuiseuxSeries({0: sum(1 for i, im in enumerate(g) if im == i)}, 4)
             for g in S3.elements}
    w = WreathElement(((0, 2, 1), (1, 0, 2)), (1, 0))
    # single 2-cycle: value of the cycle product with doubled exponents
    prod = S3.mul((0, 2, 1), (1, 0, 2))
    expected = hecke_substitute(table[prod], 2, 1, 0)
    assert p_top_eval(S3, table, w) == expected


def test_s_top_geometric_example():
    # single power of q: the total power is 1/(1 - t q^j)
    for j in (0, 1, 3):
        x = PuiseuxSeries.monomial(1, j, truncation=12)
        total = s_top_total(x, 4)
        geo = BivariateSeries({0: PuiseuxSeries.one(12),
                               1: PuiseuxSeries.monomial(-1, j, 12)}, 4).inv()
        assert total.agrees_with(geo, q_order=12)
    assert s_top_total(PuiseuxSeries.zero(4), 3).agrees_with(BivariateSeries.one(3))


def test_s_top_is_exponential_and_matches_product():
    rng = random.Random(23)
    c = {j: rng.randint(-2, 2) for j in range(7)}
    x = PuiseuxSeries(dict(c), 6)
    total = s_top_total(x, 4)
    product = BivariateSeries.one(4) * PuiseuxSeries.one(Fraction(6))
    for j, cj in c.items():
        base = BivariateSeries({0: PuiseuxSeries.one(6),
                                1: PuiseuxSeries.monomial(-1, j, 6)}, 4)
        factor = base.inv() if cj > 0 else base
        for _ in range(abs(cj)):
            product = product * factor
    assert total.agrees_with(product, q_order=6)


def test_s_top_rejects_fractional_or_negative():
    with pytest.raises(ValueError):
        s_top_total(PuiseuxSeries.monomial(1, Fraction(1, 2), 4), 2)
    with pytest.raises(ValueError):
        s_top_total(PuiseuxSeries.monomial(1, -1, 4), 2)
    with pytest.raises(ValueError, match="non-negative"):
        s_top_total(PuiseuxSeries.one(4), -1)


# -- stringy operation ----------------------------------------------------


def test_p_str_degree_one_is_identity():
    x = DevotoElement.constant(T1, q_series())
    out = p_str(x, 1)
    w = WreathElement((E,), (0,))
    assert out.eval(w, w) == q_series()


def test_p_str_trivial_group_signed_square_root():
    x = DevotoElement.constant(T1, q_series())
    W = wreath(T1, 2)
    w = WreathElement((E, E), (1, 0))
    value = p_str(x, 2, W).eval(w, w)
    assert value.terms == {Fraction(1, 2): -Cyclotomic.one()}


def test_p_str_diagonal_matches_substitution_formula():
    Z3 = cyclic_group(3)
    rng = random.Random(31)
    x = random_devoto_element(Z3, rng, truncation=2)
    W = wreath(Z3, 2)
    for g in Z3.elements:
        for h in Z3.elements:
            # sigma = two fixed points, tau = swap: one orbit (k=1, N=2, m=0)
            lhs = p_str(x, 2, W).eval(WreathElement((g, g), (0, 1)),
                                      WreathElement((h, h), (1, 0)))
            rhs = hecke_substitute(x.eval(g, Z3.mul(h, h)), 2, 1, 0)
            assert lhs.agrees_with(rhs)


def test_p_str_outputs_are_valid_with_bounded_denominators():
    Z2 = cyclic_group(2)
    x = random_devoto_element(Z2, random.Random(37), truncation=2)
    for n in (2, 3):
        W = wreath(Z2, n)
        out = p_str(x, n, W)
        assert check_devoto(out)[0]
        for (w, _), s in out.table.items():
            assert W.order_of(w) % s.denominator == 0


def test_p_str_choice_independence_is_bitwise():
    Z2 = cyclic_group(2)
    x = random_devoto_element(Z2, random.Random(41), truncation=2)
    W = wreath(Z2, 3)
    reference = dumps(devoto_to_json(p_str(x, 3, W)))
    for seed in range(3):
        r = random.Random(seed)
        convention = OrbitConvention(cycle_start=lambda c: r.randrange(len(c)),
                                     orbit_start=lambda cs: r.randrange(len(cs)))
        assert dumps(devoto_to_json(p_str(x, 3, W, convention=convention))) == reference


# -- Hecke ----------------------------------------------------------------


def test_hecke_degree_one_is_identity():
    x = DevotoElement.constant(T1, q_series())
    assert hecke_T(x, 1).agrees_with(x)


def test_hecke_trivial_group_examples():
    one = DevotoElement.constant(T1, PuiseuxSeries.one(8))
    assert hecke_T(one, 2).eval(E, E).terms == {Fraction(0): Cyclotomic.from_rational(Fraction(3, 2))}
    xq = DevotoElement.constant(T1, q_series())
    assert hecke_T(xq, 2).eval(E, E).terms == {Fraction(2): Cyclotomic.from_rational(Fraction(1, 2))}


def test_hecke_leading_term_on_pole():
    s = PuiseuxSeries.monomial(1, -1, truncation=8)
    for n in (2, 3, 4, 5):
        v = hecke_scalar(s, n) * n
        low = {e: c for e, c in v.terms.items() if e <= 0}
        assert low == {Fraction(-n): Cyclotomic.one()}


def _hecke_by_substitution(s, n):
    """The substitution sum that the closed form of hecke_scalar replaces."""
    total = PuiseuxSeries.zero()
    for N, k, m in transitive_classes(n):
        total = total + hecke_substitute(s, N, k, m)
    return total * Fraction(1, n)


def _same_bytes(a, b):
    return repr(a) == repr(b) and dumps(series_to_json(a)) == dumps(series_to_json(b))


@st.composite
def integral_series(draw):
    """Integral exponents (negatives too), rational coefficients, and a
    truncation that may be None, negative or fractional; often zero."""
    terms = draw(st.dictionaries(st.integers(-6, 24),
                                 st.fractions(min_value=-5, max_value=5, max_denominator=4),
                                 max_size=6))
    trunc = draw(st.none() | st.fractions(min_value=-8, max_value=30, max_denominator=3))
    return PuiseuxSeries(terms, trunc)


@settings(max_examples=300, deadline=None)
@given(integral_series(), st.integers(1, 12))
def test_hecke_closed_form_matches_substitution_sum(s, n):
    assert _same_bytes(hecke_scalar(s, n), _hecke_by_substitution(s, n))


def test_hecke_closed_form_edge_cases():
    for s in (PuiseuxSeries.zero(), PuiseuxSeries.zero(Fraction(-7, 2)),
              PuiseuxSeries({-1: 1, 3: Fraction(2, 3)}), PuiseuxSeries({-4: 1, 6: -2}, -3)):
        for n in range(1, 13):
            assert _same_bytes(hecke_scalar(s, n), _hecke_by_substitution(s, n))
    with pytest.raises(ValueError):
        hecke_scalar(PuiseuxSeries.one(4), 0)


def test_hecke_outside_the_closed_form_keeps_the_substitution_sum():
    # a fractional exponent, or a cyclotomic coefficient (whose sum may be
    # stored at a larger order), takes the substitution sum unchanged
    for s in (PuiseuxSeries({Fraction(1, 2): 1, 2: 3}, 6),
              PuiseuxSeries({-1: 1, 1: root_of_unity(3, 1), 4: 2}, 9),
              PuiseuxSeries({2: root_of_unity(4, 1)}, 8)):
        for n in range(1, 9):
            assert _same_bytes(hecke_scalar(s, n), _hecke_by_substitution(s, n))


def test_hecke_closed_form_coefficients_are_fractions():
    s = PuiseuxSeries({-1: 1, 0: Fraction(-1, 3), 2: 5, 6: Fraction(7, 2)}, 20)
    for n in range(1, 9):
        for c in hecke_scalar(s, n).terms.values():
            assert c.order == 1 and all(type(v) is Fraction for v in c.terms.values())


# -- symmetric powers -------------------------------------------------------


def test_sym_contract_examples():
    xq = DevotoElement.constant(T1, q_series())
    assert sym_str(xq, 0, "brute").eval(E, E).coefficient(0) == Cyclotomic.one()
    for method in ("brute", "exp"):
        assert sym_str(xq, 2, method).eval(E, E).terms == {Fraction(2): Cyclotomic.one()}


@pytest.mark.parametrize("method", ["exp", "brute"])
@pytest.mark.parametrize("c", [1, 2, 3])
def test_sym_of_constants_gives_partition_products(c, method):
    # for brute at c = 1 this is the count of n! p(n) commuting pairs in S_n
    # (Bryan-Fulman), read without any Hecke operator
    x = DevotoElement.constant(T1, PuiseuxSeries({0: c}, 10))
    t_order = 5
    total = sym_total(x, t_order, method=method)
    rhs = BivariateSeries.one(t_order)
    for k in range(1, t_order + 1):
        base = BivariateSeries({0: PuiseuxSeries.one(), k: -PuiseuxSeries.one()}, t_order)
        for _ in range(c):
            rhs = rhs * base.inv()
    for n in range(t_order + 1):
        assert total[n].eval(E, E).agrees_with(rhs.coefficient(n))


def test_sym_brute_equals_exp():
    rng = random.Random(43)
    for G in (T1, cyclic_group(2)):
        for _ in range(2):
            x = random_devoto_element(G, rng, truncation=2)
            for n in range(5):
                assert sym_str(x, n, "brute").agrees_with(sym_str(x, n, "exp"))


def _sym_brute_over_all_of_sn(x, n):
    """Oracle for sym_str brute: the same average, walked over every
    sigma in S_n and every tau in S_n commuting with it."""
    G = x.group
    if n == 0:
        return DevotoElement.constant(G, PuiseuxSeries.one(x.truncation()))
    Sn = symmetric_group(n)
    profiles: dict = {}
    for sigma in Sn.elements:
        for tau in Sn.centralizer(sigma):
            e = G.identity
            data = orbit_data(G, (e,) * n, sigma, (e,) * n, tau, check=False)
            key = tuple(sorted((d.cycle_length, d.orbit_size, d.shift) for d in data))
            profiles[key] = profiles.get(key, 0) + 1
    table = {}
    for (g, h) in G.commuting_pair_classes():
        total = PuiseuxSeries.zero()
        for profile, count in profiles.items():
            value = PuiseuxSeries.one()
            for (k, N, m) in profile:
                pair = (G.power(g, k), G.mul(G.power(G.inv(g), m), G.power(h, N)))
                value = value * hecke_substitute(x.eval(*pair), N, k, m)
            total = total + value * count
        table[(g, h)] = total * Fraction(1, len(Sn))
    return DevotoElement(G, table, level=1)


@pytest.mark.parametrize("name, make", [
    ("1", trivial_group), ("Z2", lambda: cyclic_group(2)), ("Z3", lambda: cyclic_group(3)),
    ("S3", lambda: symmetric_group(3)),
])
def test_sym_brute_by_cycle_type_matches_walk_over_all_pairs(name, make):
    # byte-identical, so the profile counts and their order both match
    x = random_devoto_element(make(), random.Random(f"brute:{name}"), truncation=2)
    for n in range(6):
        new = dumps(devoto_to_json(sym_str(x, n, "brute")))
        assert new == dumps(devoto_to_json(_sym_brute_over_all_of_sn(x, n))), n


def test_sym_outputs_are_valid_with_integral_trivial_part():
    from tatek.devoto import trivial_part

    rng = random.Random(47)
    for G in (cyclic_group(2), cyclic_group(3)):
        x = random_devoto_element(G, rng, truncation=2)
        for n in (2, 3):
            out = sym_str(x, n, "exp")
            assert check_devoto(out)[0]
            for g in G.class_representatives():
                assert trivial_part(out, g).is_integral()


def test_lambda_total_inverts_sym_total():
    rng = random.Random(53)
    Z2 = cyclic_group(2)
    x = random_devoto_element(Z2, rng, truncation=2)
    t_order = 3
    sym = sym_total(x, t_order)
    lam = lambda_str_total(x, t_order)
    for pair in Z2.commuting_pair_classes():
        s = BivariateSeries({d: sym[d].table[pair] for d in range(t_order + 1)}, t_order)
        l = BivariateSeries({d: lam[d].table[pair] for d in range(t_order + 1)}, t_order)
        assert (s * l).agrees_with(BivariateSeries.one(t_order))


def test_lambda_total_examples():
    zero = DevotoElement.constant(T1, PuiseuxSeries.zero(6))
    lam = lambda_str_total(zero, 3)
    assert lam[0].eval(E, E).coefficient(0) == Cyclotomic.one()
    assert all(lam[d].eval(E, E).is_zero() for d in (1, 2, 3))
    xq = DevotoElement.constant(T1, q_series())
    lam = lambda_str_total(xq, 2)
    assert lam[1].eval(E, E).terms == {Fraction(1): -Cyclotomic.one()}


# -- axioms -----------------------------------------------------------------


def test_axiom_b_restriction_splits():
    Z2 = cyclic_group(2)
    x = random_devoto_element(Z2, random.Random(59), truncation=2)
    for (n, m) in [(1, 1), (1, 2), (2, 2)]:
        Wn, Wm, Wnm = wreath(Z2, n), wreath(Z2, m), wreath(Z2, n + m)
        prod = direct_product(Wn, Wm)
        lhs = restrict_along(p_str(x, n + m, Wnm), block_sum_hom(prod, Wn, Wm, Wnm))
        rhs = external_product(p_str(x, n, Wn), p_str(x, m, Wm), product_group=prod)
        report = compare_class_functions(lhs, rhs, label=f"(b) {n}+{m}")
        assert report.ok, report.failures[:2]


def test_axiom_c_iterated():
    assert verify_iterated(random_devoto_element(T1, random.Random(61), truncation=2), 1, 1).ok
    x = random_devoto_element(T1, random.Random(61), truncation=2)
    assert verify_iterated(x, 2, 2).ok
    z = random_devoto_element(cyclic_group(2), random.Random(67), truncation=2)
    assert verify_iterated(z, 2, 2).ok


def test_axiom_d_external_products():
    Z2 = cyclic_group(2)
    rng = random.Random(71)
    x = random_devoto_element(Z2, rng, truncation=2)
    y = random_devoto_element(Z2, rng, truncation=2)
    GH = direct_product(Z2, Z2)
    WGH = wreath(GH, 2, size_cap=2000)
    Wn = wreath(Z2, 2)
    prodW = direct_product(Wn, Wn, size_cap=4000)
    lhs = p_str(external_product(x, y, product_group=GH), 2, WGH)
    rhs = restrict_along(external_product(p_str(x, 2, Wn), p_str(y, 2, Wn),
                                          product_group=prodW),
                         unzip_hom(WGH, prodW))
    assert compare_class_functions(lhs, rhs).ok


def test_power_operations_require_level_one():
    x = DevotoElement.constant(T1, PuiseuxSeries.one(2), level=2)
    with pytest.raises(ValueError):
        p_str(x, 2)
    with pytest.raises(ValueError):
        hecke_T(x, 2)
    # sym and lambda also need a non-negative degree
    x = DevotoElement.constant(T1, PuiseuxSeries.one(2))
    for call in (lambda: sym_str(x, -1, "brute"), lambda: sym_str(x, -1, "exp"),
                 lambda: sym_total(x, -1), lambda: sym_total(x, -1, "brute"),
                 lambda: lambda_str_total(x, -1)):
        with pytest.raises(ValueError, match="non-negative"):
            call()


def test_p_top_accepts_class_rep_keyed_mappings():
    S3 = symmetric_group(3)
    table = {g: PuiseuxSeries({0: sum(1 for i, im in enumerate(g) if im == i)}, 4)
             for g in S3.class_representatives()}
    w = WreathElement(((0, 2, 1), (1, 0, 2)), (1, 0))
    value = p_top_eval(S3, table, w)
    prod = S3.mul((0, 2, 1), (1, 0, 2))
    assert value == hecke_substitute(table[S3.class_rep(prod)], 2, 1, 0)
    with pytest.raises(ValueError):
        p_top_eval(S3, {S3.identity: PuiseuxSeries.one(4)}, w)


def test_orbifold_sum_of_power_operation_is_symmetric_power():
    # for the trivial group the pair average over the wreath product
    # collapses to the symmetric power
    from tatek.devoto import epsilon

    x = random_devoto_element(T1, random.Random(73), truncation=3)
    for n in (2, 3):
        lhs = epsilon(p_str(x, n))
        rhs = sym_str(x, n, "brute").eval(E, E)
        assert lhs.agrees_with(rhs)


def test_p_str_general_diagonal_normal_form():
    # sigma = N blocks of k-cycles, tau transitive with wrap offset m:
    # the value is the (N, k, m)-substituted value at (g^k, g^-m h^N)
    Z3 = cyclic_group(3)
    x = random_devoto_element(Z3, random.Random(79), truncation=2)
    n = 3
    W = wreath(Z3, n)
    out = p_str(x, n, W)
    for (N, k, m) in transitive_classes(n):
        sigma, tau = [0] * n, [0] * n
        for j in range(N):
            for r in range(k):
                sigma[j * k + r] = j * k + (r + 1) % k
                tau[j * k + r] = (j + 1) * k + r if j < N - 1 else (r + m) % k
        for g in Z3.elements:
            for h in Z3.elements:
                lhs = out.eval(WreathElement((g,) * n, tuple(sigma)),
                               WreathElement((h,) * n, tuple(tau)))
                pair = (Z3.power(g, k), Z3.mul(Z3.power(Z3.inv(g), m), Z3.power(h, N)))
                rhs = hecke_substitute(x.eval(*pair), N, k, m)
                assert lhs.agrees_with(rhs), (N, k, m, g, h)
