"""Characters, eigenspace bookkeeping, and stringy Euler classes."""

import random
from fractions import Fraction

import pytest

from tatek.characters import (RepCharacter, age, eigen_cycle_check, eigen_multiplicity,
                              euler_str, lambda_sym_char, verify_hinfty,
                              wreath_sum_character)
from tatek.cyclotomic import Cyclotomic, root_of_unity
from tatek.devoto import check_devoto
from tatek.groups import cyclic_group, trivial_group
from tatek.series import PuiseuxSeries
from tatek.wreath import WreathElement, wreath

Z2 = cyclic_group(2)
Z3 = cyclic_group(3)
E2 = Z2.identity
S = next(g for g in Z2.elements if g != E2)
G3 = next(g for g in Z3.elements if g != Z3.identity)

faithful = RepCharacter(Z3, {Z3.identity: 1, G3: root_of_unity(3, 1),
                             Z3.mul(G3, G3): root_of_unity(3, 2)})
sign = RepCharacter(Z2, {E2: 1, S: -1})


def test_character_construction_and_genuineness():
    assert faithful.dim() == 1
    assert RepCharacter.regular(Z3).dim() == 3
    with pytest.raises(ValueError):
        RepCharacter(Z3, {Z3.identity: 1, G3: root_of_unity(3, 1),
                          Z3.mul(G3, G3): root_of_unity(3, 1)}, check_genuine=True)


def test_eigen_multiplicity_examples():
    triv = RepCharacter.trivial(Z3)
    assert eigen_multiplicity(triv, G3, 0) == 1
    assert eigen_multiplicity(triv, G3, 1) == 0
    reg = RepCharacter.regular(Z3)
    assert [eigen_multiplicity(reg, G3, j) for j in range(3)] == [1, 1, 1]
    assert eigen_multiplicity(faithful, G3, 1) == 1
    for chi in (triv, reg, faithful, sign):
        for g in chi.group.class_representatives():
            l = chi.group.order_of(g)
            assert sum(eigen_multiplicity(chi, g, j) for j in range(l)) == chi.dim()


def test_eigen_multiplicity_rejects_non_genuine():
    # a class function that is not a character has fractional projections
    fake = RepCharacter(Z3, {Z3.identity: 1, G3: 1, Z3.mul(G3, G3): 0})
    with pytest.raises(ValueError):
        eigen_multiplicity(fake, G3, 0)


def test_age_examples():
    assert age(RepCharacter.trivial(Z3), G3) == 0
    assert age(faithful, G3) == Fraction(1, 3)
    assert age(RepCharacter.regular(Z3), G3) == 1
    assert age(faithful, G3, doubled=True) == Fraction(2, 3)


def test_lambda_sym_examples():
    triv = RepCharacter.trivial(Z3)
    assert lambda_sym_char(triv, G3, "lambda", 2) == [Cyclotomic.one(), Cyclotomic.one(),
                                                      Cyclotomic.zero()]
    lam = lambda_sym_char(faithful, G3, "lambda", 2)
    assert lam[1] == root_of_unity(3, 1) and lam[2].is_zero()
    perm2 = RepCharacter(Z2, {E2: 2, S: 0})
    sym = lambda_sym_char(perm2, S, "sym", 2)
    assert sym == [Cyclotomic.one(), Cyclotomic.zero(), Cyclotomic.one()]
    with pytest.raises(ValueError):
        lambda_sym_char(triv, G3, "adams", 2)


def test_lambda_sym_inverse_identity():
    for chi in (faithful, sign, RepCharacter.regular(Z3), RepCharacter.trivial(Z2, 2)):
        G = chi.group
        for h in G.elements:
            lam = lambda_sym_char(chi, h, "lambda", 5)
            sym = lambda_sym_char(chi, h, "sym", 5)
            for r in range(6):
                acc = Cyclotomic.zero()
                for i in range(r + 1):
                    term = lam[i] * sym[r - i]
                    acc = acc + (-term if i % 2 else term)
                assert acc == (Cyclotomic.one() if r == 0 else Cyclotomic.zero())


def newton_loop(chi, h, kind, t_order):
    """The earlier implementation of lambda_sym_char: Newton's identities
    as their own loop."""
    G = chi.group
    powers = [G.identity]
    for _ in range(t_order):
        powers.append(G.mul(powers[-1], h))
    coeffs = [Cyclotomic.one()]
    for r in range(1, t_order + 1):
        acc = Cyclotomic.zero()
        for i in range(1, r + 1):
            term = chi.value(powers[i]) * coeffs[r - i]
            if kind == "lambda" and i % 2 == 0:
                term = -term
            acc = acc + term
        coeffs.append(acc * Fraction(1, r))
    return coeffs


def test_lambda_sym_char_matches_newton_loop():
    from tatek.groups import symmetric_group

    S3 = symmetric_group(3)
    Z4 = cyclic_group(4)
    g4 = next(x for x in Z4.elements if Z4.order_of(x) == 4)
    chars = [RepCharacter.trivial(Z3), RepCharacter.regular(Z3), faithful, sign,
             RepCharacter(Z2, {E2: 2, S: 0}), RepCharacter(Z3, {}),
             faithful + RepCharacter.regular(Z3),
             RepCharacter(S3, {S3.identity: 2, (1, 0, 2): 0, (1, 2, 0): -1}),
             RepCharacter(Z4, {Z4.power(g4, k): root_of_unity(4, k) for k in range(4)})]
    for chi in chars:
        for h in chi.group.elements:
            for kind in ("lambda", "sym"):
                got, want = lambda_sym_char(chi, h, kind, 6), newton_loop(chi, h, kind, 6)
                # stored forms, not only values
                assert [repr(c) for c in got] == [repr(c) for c in want]


def test_wreath_sum_character_examples():
    W = wreath(Z3, 2)
    chi2 = wreath_sum_character(faithful, 2, W)
    assert chi2.value(WreathElement((G3, Z3.mul(G3, G3)), (1, 0))).is_zero()
    assert chi2.value(WreathElement((G3, G3), (0, 1))) == 2 * root_of_unity(3, 1)
    one_copy = wreath_sum_character(faithful, 1, wreath(Z3, 1))
    assert one_copy.value(WreathElement((G3,), (0,))) == faithful.value(G3)


def test_eigen_cycle_check_examples():
    T = trivial_group()
    triv = RepCharacter.trivial(T)
    equal, lhs, rhs = eigen_cycle_check(triv, (T.identity,) * 2, (1, 0), root_of_unity(2, 1))
    assert equal and lhs == rhs == 1
    equal, lhs, rhs = eigen_cycle_check(faithful, (G3, Z3.mul(G3, G3)), (1, 0),
                                        root_of_unity(2, 1))
    assert equal and lhs == 1
    equal, lhs, rhs = eigen_cycle_check(faithful, (G3, G3), (0, 1), root_of_unity(3, 1))
    assert equal and lhs == 2


def test_eigen_cycle_check_randomized():
    rng = random.Random(5)
    chi = faithful + RepCharacter.regular(Z3)
    for _ in range(30):
        base = tuple(rng.choice(Z3.elements) for _ in range(2))
        perm = rng.choice([(0, 1), (1, 0)])
        order = rng.choice([1, 2, 3, 6, 12])
        zeta = root_of_unity(order, rng.randrange(order))
        equal, _, _ = eigen_cycle_check(chi, base, perm, zeta)
        assert equal


def test_euler_str_contract_examples():
    zero = RepCharacter(Z3, {})
    e0 = euler_str(zero, 2)
    assert all(s == PuiseuxSeries.one(2) for s in e0.table.values())

    triv = RepCharacter.trivial(Z3)
    assert euler_str(triv, 3).eval(Z3.identity, Z3.identity).is_zero()

    ef = euler_str(faithful, 1)
    v = ef.eval(G3, G3)
    z3 = root_of_unity(3, 1)
    assert v.coefficient(0) == Cyclotomic.one()
    assert v.coefficient(Fraction(1, 3)) == -z3
    assert v.coefficient(Fraction(2, 3)) == -(z3 ** -1)


def test_euler_str_is_multiplicative_and_valid():
    a = euler_str(faithful, 2)
    b = euler_str(RepCharacter.regular(Z3), 2)
    both = euler_str(faithful + RepCharacter.regular(Z3), 2)
    assert both.agrees_with(a * b)
    for x in (a, b, both):
        assert check_devoto(x)[0]


def test_verify_hinfty_degree_one():
    assert verify_hinfty(faithful, 1, 2).ok


def test_verify_hinfty_acceptance_shapes():
    assert verify_hinfty(faithful, 2, 2).ok
    assert verify_hinfty(sign, 3, 1).ok


def test_verify_hinfty_higher_dimension_and_nonabelian():
    # multiplicity > 1 in the eigenspaces
    assert verify_hinfty(RepCharacter.regular(Z2), 2, 1).ok
    # nonabelian base group with the 2-dimensional character
    from tatek.groups import symmetric_group

    S3 = symmetric_group(3)
    std = RepCharacter(S3, {S3.identity: 2, (1, 0, 2): 0, (1, 2, 0): -1})
    report = verify_hinfty(std, 2, 1)
    assert report.ok, report.failures[:2]


def test_euler_and_hinfty_over_z4():
    # fourth roots of unity in the eigenspace projections
    from tatek.groups import cyclic_group

    Z4 = cyclic_group(4)
    g = next(x for x in Z4.elements if Z4.order_of(x) == 4)
    i_char = RepCharacter(Z4, {Z4.power(g, k): root_of_unity(4, k) for k in range(4)},
                          check_genuine=True)
    assert check_devoto(euler_str(i_char, 2))[0]
    assert verify_hinfty(i_char, 2, 1).ok
