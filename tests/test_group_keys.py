"""Wreath and direct products classify conjugacy and commuting pairs by
key; the conjugacy walk of a plain FiniteGroup over the same elements is
the oracle, and the count of wreath pair classes has a closed form."""

import pytest

from tatek.groups import FiniteGroup, cyclic_group, direct_product, symmetric_group, trivial_group
from tatek.wreath import WreathElement, wreath


def _z2xz2():
    return direct_product(cyclic_group(2), cyclic_group(2))


KEYED = {
    "Z2wrS2": lambda: wreath(cyclic_group(2), 2),
    "Z2wrS3": lambda: wreath(cyclic_group(2), 3),
    "Z2wrS4": lambda: wreath(cyclic_group(2), 4),
    "Z3wrS2": lambda: wreath(cyclic_group(3), 2),
    "Z3wrS3": lambda: wreath(cyclic_group(3), 3),
    "S3wrS2": lambda: wreath(symmetric_group(3), 2),
    "S3wrS3": lambda: wreath(symmetric_group(3), 3),
    "(Z2wrS2)wrS2": lambda: wreath(wreath(cyclic_group(2), 2), 2),
    "(Z2xZ2)wrS2": lambda: wreath(_z2xz2(), 2),
    "Z2wrS1xZ2wrS2": lambda: direct_product(wreath(cyclic_group(2), 1),
                                            wreath(cyclic_group(2), 2)),
    "(Z2wrS2)x(Z2wrS2)": lambda: direct_product(wreath(cyclic_group(2), 2),
                                                wreath(cyclic_group(2), 2)),
    "Z2xS3": lambda: direct_product(cyclic_group(2), symmetric_group(3)),
}


def _outside(W):
    """An element of the same shape that is not in W."""
    e = W.identity
    if isinstance(e, WreathElement):
        return WreathElement(e.base, tuple(reversed(e.perm)) + (len(e.perm),))
    return (e, e)


@pytest.mark.parametrize("name", list(KEYED))
def test_keyed_tables_match_the_conjugacy_walk(name):
    W = KEYED[name]()
    assert W._class_key is not None and W._pair_key is not None
    walk = FiniteGroup(W.elements, W.mul, W.inv, W.identity, check=False)

    assert W.class_representatives() == walk.class_representatives()
    for g in W.elements:
        assert W.class_rep(g) == walk.class_rep(g)
    for r in walk.class_representatives():
        assert set(W.conjugacy_class(r)) == set(walk.conjugacy_class(r))
        assert W.centralizer(r) == walk.centralizer(r)
    for g in W.elements[::max(1, len(W) // 40)]:
        assert W.conjugator_to_rep(g) == walk.conjugator_to_rep(g)

    assert W.commuting_pair_classes() == walk.commuting_pair_classes()
    for pair in walk.commuting_pair_classes():
        assert W.pair_class_size(*pair) == walk.pair_class_size(*pair)
    # the walk's pair table holds exactly the commuting pairs
    for (g, h), rep in walk._pair_rep_map.items():
        assert W.pair_class_rep(g, h) == rep

    non_commuting = next(((g, h) for g in W.elements for h in W.elements
                          if W.mul(g, h) != W.mul(h, g)), None)
    if non_commuting is not None:
        with pytest.raises(ValueError):
            W.pair_class_rep(*non_commuting)
    with pytest.raises(ValueError):
        W.pair_class_rep(W.identity, _outside(W))
    with pytest.raises(ValueError):
        W.pair_class_rep(_outside(W), W.identity)


def _closed_form_counts(c: int, nmax: int) -> list[int]:
    """Coefficients of prod_d (1 - t^d)^(-c * sigma_1(d)) up to t^nmax."""
    coeffs = [1] + [0] * nmax
    for d in range(1, nmax + 1):
        exponent = c * sum(k for k in range(1, d + 1) if d % k == 0)
        for _ in range(exponent):
            # multiply by 1 / (1 - t^d)
            for i in range(d, nmax + 1):
                coeffs[i] += coeffs[i - d]
    return coeffs


@pytest.mark.parametrize("make, nmax", [(trivial_group, 6), (lambda: cyclic_group(2), 5),
                                        (lambda: cyclic_group(3), 4),
                                        (lambda: symmetric_group(3), 3)],
                         ids=["1", "Z2", "Z3", "S3"])
def test_wreath_pair_class_counts_match_the_product_formula(make, nmax):
    # every n with |G wr S_n| <= 4000
    G = make()
    expected = _closed_form_counts(len(G.commuting_pair_classes()), nmax)
    counts = [1] + [len(wreath(G, n).commuting_pair_classes()) for n in range(1, nmax + 1)]
    assert counts == expected
