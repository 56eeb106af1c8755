"""Enumerated groups: generation, conjugacy, commuting pairs."""

import pytest

from tatek.groups import (Homomorphism, SizeCapExceeded, cyclic_group, direct_product,
                          identity_perm, perm_from_cycles, perm_inv, perm_mul,
                          permutation_group, symmetric_group, trivial_group)
from tatek.wreath import wreath


def brute_pair_classes(G):
    """Independent oracle: partition all commuting pairs into orbits under
    simultaneous conjugation by direct orbit expansion. Returns the
    representatives (the least pair of each orbit by enumeration index, in
    that order), the map from every commuting pair to its representative,
    and the orbit size of each representative."""
    reps, rep_of, sizes = [], {}, {}
    for g in G.elements:
        for h in G.elements:
            if G.mul(g, h) != G.mul(h, g) or (g, h) in rep_of:
                continue
            orbit = {(G.conjugate(a, g), G.conjugate(a, h)) for a in G.elements}
            reps.append((g, h))
            sizes[(g, h)] = len(orbit)
            for p in orbit:
                rep_of[p] = (g, h)
    return reps, rep_of, sizes


def test_generation_examples():
    G = permutation_group(3, [perm_from_cycles(3, [(0, 1)]), perm_from_cycles(3, [(0, 1, 2)])])
    assert len(G) == 6
    assert len(trivial_group()) == 1
    Z2 = permutation_group(2, [(1, 0)])
    assert len(Z2) == 2


def test_generation_rejects_malformed_and_oversize():
    with pytest.raises(ValueError):
        permutation_group(3, [(0, 0, 1)])
    with pytest.raises(SizeCapExceeded):
        symmetric_group(8, size_cap=1000)
    assert len(symmetric_group(0)) == 1 and len(cyclic_group(1)) == 1
    for make in (lambda: cyclic_group(0), lambda: cyclic_group(-2),
                 lambda: symmetric_group(-1)):
        with pytest.raises(ValueError):
            make()


def test_constructed_groups_satisfy_the_axioms():
    # the constructors skip the runtime axiom check, so their output is
    # checked here
    nested = wreath(wreath(cyclic_group(2), 1), 2)
    groups = [cyclic_group(1), cyclic_group(4), symmetric_group(3), trivial_group(),
              permutation_group(4, [(1, 0, 2, 3), (0, 1, 3, 2)]), wreath(cyclic_group(2), 2),
              wreath(trivial_group(), 3), nested, wreath(symmetric_group(3), 2),
              direct_product(cyclic_group(2), symmetric_group(3))]
    assert len(nested) == 8
    for G in groups:
        G._check_axioms()


def test_conjugacy_data_s3():
    S3 = symmetric_group(3)
    reps = S3.class_representatives()
    assert len(reps) == 3
    for r in reps:
        assert len(S3.conjugacy_class(r)) * len(S3.centralizer(r)) == 6


def test_abelian_classes_are_singletons():
    Z4 = cyclic_group(4)
    assert len(Z4.class_representatives()) == 4
    for g in Z4.elements:
        assert Z4.conjugacy_class(g) == (g,)
        assert Z4.centralizer(g) == Z4.elements


def test_element_orders():
    Z3 = cyclic_group(3)
    g = next(x for x in Z3.elements if x != Z3.identity)
    assert Z3.order_of(g) == 3
    assert Z3.order_of(Z3.identity) == 1


def test_commuting_pair_class_counts():
    S3 = symmetric_group(3)
    assert len(S3.commuting_pair_classes()) == 8 == len(brute_pair_classes(S3)[0])
    assert len(trivial_group().commuting_pair_classes()) == 1
    Z2 = cyclic_group(2)
    assert len(Z2.commuting_pair_classes()) == 4
    for G in (cyclic_group(4), symmetric_group(4)):
        assert len(G.commuting_pair_classes()) == len(brute_pair_classes(G)[0])


def test_pair_rep_is_constant_on_orbits():
    S3 = symmetric_group(3)
    for g in S3.elements:
        for h in S3.centralizer(g):
            rep = S3.pair_class_rep(g, h)
            for a in S3.elements:
                moved = (S3.conjugate(a, g), S3.conjugate(a, h))
                assert S3.pair_class_rep(*moved) == rep
    with pytest.raises(ValueError):
        S3.pair_class_rep((1, 0, 2), (0, 2, 1))


@pytest.mark.parametrize("make", [
    trivial_group, lambda: cyclic_group(4), lambda: symmetric_group(4),
    lambda: direct_product(cyclic_group(2), symmetric_group(3)),
    lambda: wreath(cyclic_group(2), 3), lambda: wreath(cyclic_group(3), 2),
    lambda: wreath(symmetric_group(3), 2)],
    ids=["1", "Z4", "S4", "Z2xS3", "Z2wrS3", "Z3wrS2", "S3wrS2"])
def test_pair_tables_match_brute_force_partition(make):
    G = make()
    reps, rep_of, sizes = brute_pair_classes(G)
    assert G.commuting_pair_classes() == tuple(reps)
    for (g, h), rep in rep_of.items():
        assert G.pair_class_rep(g, h) == rep
    for g, h in reps:
        assert G.pair_class_size(g, h) == sizes[(g, h)]
    non_commuting = next(((g, h) for g in G.elements for h in G.elements
                          if G.mul(g, h) != G.mul(h, g)), None)
    if non_commuting is not None:
        with pytest.raises(ValueError):
            G.pair_class_rep(*non_commuting)


def test_pair_class_sizes_sum_to_pair_count():
    for G in (symmetric_group(3), cyclic_group(4)):
        total = sum(G.pair_class_size(g, h) for (g, h) in G.commuting_pair_classes())
        n_pairs = sum(1 for g in G.elements for h in G.elements
                      if G.mul(g, h) == G.mul(h, g))
        assert total == n_pairs == len(G) * len(G.class_representatives())


def test_direct_product_structure():
    P = direct_product(cyclic_group(2), symmetric_group(3))
    assert len(P) == 12
    assert P.order_of((P.identity[0], P.identity[1])) == 1
    a = P.elements[3]
    assert P.mul(a, P.inv(a)) == P.identity


def test_homomorphism_verification():
    Z2 = cyclic_group(2)
    S3 = symmetric_group(3)
    s = (1, 0)
    swap = perm_from_cycles(3, [(0, 1)])
    ok = Homomorphism(Z2, S3, {Z2.identity: S3.identity, s: swap})
    assert ok(s) == swap
    with pytest.raises(ValueError):
        Homomorphism(Z2, S3, {Z2.identity: S3.identity, s: perm_from_cycles(3, [(0, 1, 2)])})


def test_perm_helpers():
    p = perm_from_cycles(4, [(0, 1, 2)])
    assert perm_mul(p, perm_inv(p)) == identity_perm(4)
    with pytest.raises(ValueError):
        perm_from_cycles(3, [(0, 1), (1, 2)])
