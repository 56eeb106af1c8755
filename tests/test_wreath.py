"""Wreath products and the string-orbit traversal."""

import random
from collections import Counter

import pytest

from tatek.groups import (SizeCapExceeded, cyclic_group, cycles_of, identity_perm,
                          perm_mul, symmetric_group, trivial_group)
from tatek.wreath import (OrbitConvention, WreathElement, action_tokens,
                          centralizer_condition, compose_tokens, cycle_product, iota,
                          iota_hom, orbit_data, orbit_data_for, wreath, wreath_ops)


def nontrivial(G):
    return next(g for g in G.elements if g != G.identity)


def diagonal_pair_perms(N, k, m):
    """Normal form: N consecutive k-cycle blocks, tau shifting block j to
    block j+1 and wrapping into block 0 with offset m."""
    n = N * k
    sigma, tau = [0] * n, [0] * n
    for j in range(N):
        for r in range(k):
            sigma[j * k + r] = j * k + (r + 1) % k
            tau[j * k + r] = (j + 1) * k + r if j < N - 1 else (r + m) % k
    return tuple(sigma), tuple(tau)


def test_wreath_sizes():
    assert len(wreath(cyclic_group(2), 2)) == 8
    assert len(wreath(symmetric_group(3), 2)) == 72
    with pytest.raises(SizeCapExceeded):
        wreath(symmetric_group(3), 4)
    assert len(wreath(cyclic_group(2), 0)) == 1
    with pytest.raises(ValueError, match="non-negative"):
        wreath(cyclic_group(2), -1)


def test_order_of_cycle_element():
    Z2 = cyclic_group(2)
    W = wreath(Z2, 2)
    s = nontrivial(Z2)
    assert W.order_of(WreathElement((s, Z2.identity), (1, 0))) == 4
    # order of (g, n-cycle) is n * |product|
    W3 = wreath(cyclic_group(4), 3)
    g = nontrivial(cyclic_group(4))
    w = WreathElement((g, cyclic_group(4).identity, cyclic_group(4).identity), (1, 2, 0))
    assert W3.order_of(w) == 3 * 4


def test_centralizer_condition_matches_membership():
    G = cyclic_group(2)
    W = wreath(G, 3)
    for w in W.elements[:64]:
        for x in W.elements:
            direct = W.mul(w, x) == W.mul(x, w)
            assert centralizer_condition(G, w, x) == direct


def test_iota_contract_examples():
    e2 = identity_perm(2)
    assert iota(WreathElement((e2, e2), identity_perm(2)), 2) == identity_perm(4)
    swap = iota(WreathElement((e2, e2), (1, 0)), 2)
    assert swap == (1, 0, 3, 2)  # exchanges the two blocks under (i,j) -> i + j*n


def test_iota_homomorphism_and_injectivity():
    S2 = symmetric_group(2)
    W = wreath(S2, 2)
    images = {w: iota(w, 2) for w in W.elements}
    assert len(set(images.values())) == len(W)
    for a in W.elements:
        for b in W.elements:
            assert images[W.mul(a, b)] == perm_mul(images[a], images[b])


def test_iota_cycle_correspondence():
    # a k-cycle of tau = tau_n ... tau_1 with sigma an n-cycle gives an
    # nk-cycle of the flattened permutation
    rng = random.Random(5)
    for m, n in [(2, 2), (3, 2), (2, 3), (3, 3)]:
        Sm = symmetric_group(m)
        for _ in range(12):
            taus = tuple(rng.choice(Sm.elements) for _ in range(n))
            sigma = tuple(list(range(1, n)) + [0])  # n-cycle
            w = WreathElement(taus, sigma)
            prod = Sm.identity
            for t in taus:
                prod = Sm.mul(t, prod)
            flat = iota(w, m)
            # cycle lengths of the flattening = n * (cycle lengths of the product)
            def cycle_lengths(p):
                seen, out = set(), []
                for s in range(len(p)):
                    if s in seen:
                        continue
                    c, x = 1, p[s]
                    seen.add(s)
                    while x != s:
                        seen.add(x)
                        x = p[x]
                        c += 1
                    out.append(c)
                return sorted(out)
            assert cycle_lengths(flat) == sorted(n * k for k in cycle_lengths(prod))


def test_iota_hom_flattens_iterated_wreath():
    Z2 = cyclic_group(2)
    inner = wreath(Z2, 2)
    nested = wreath(inner, 2, size_cap=200)
    flat = wreath(Z2, 4, size_cap=500)
    emb = iota_hom(nested, flat)
    assert emb.is_injective()


# -- orbit traversal -----------------------------------------------------


def test_orbit_data_trivial_group_examples():
    T = trivial_group()
    e = T.identity
    data = orbit_data(T, (e, e), (1, 0), (e, e), (0, 1))
    assert data == [(2, 1, 0, e, e)]
    data = orbit_data(T, (e, e), (1, 0), (e, e), (1, 0))
    assert data == [(2, 1, 1, e, e)]


def test_orbit_data_diagonal_single_cycle():
    Z3 = cyclic_group(3)
    g = nontrivial(Z3)
    h = Z3.mul(g, g)
    data = orbit_data(Z3, (g, g), (0, 1), (h, h), (1, 0))
    assert len(data) == 1
    d = data[0]
    assert (d.cycle_length, d.orbit_size, d.shift) == (1, 2, 0)
    assert d.holonomy == g and d.multiplier == Z3.mul(h, h)


def test_orbit_data_rejects_noncentralizing_input():
    T = trivial_group()
    e = T.identity
    with pytest.raises(ValueError):
        orbit_data(T, (e, e, e), (1, 0, 2), (e, e, e), (1, 2, 0))
    # unchecked, tau sends cycle (0 1) into a loop through (3 4) and (2)
    # that never returns to it
    with pytest.raises(ValueError, match="does not centralize"):
        orbit_data(T, (e,) * 5, (1, 0, 2, 4, 3), (e,) * 5, (3, 0, 4, 2, 1), check=False)


@pytest.mark.parametrize("group_maker", [lambda: cyclic_group(4), lambda: symmetric_group(3)])
def test_orbit_data_reproduces_hecke_closed_form(group_maker):
    G = group_maker()
    for n in range(1, 7):
        for k in (d for d in range(1, n + 1) if n % d == 0):
            N = n // k
            for m in range(k):
                sigma, tau = diagonal_pair_perms(N, k, m)
                for g in G.elements:
                    for h in G.centralizer(g):
                        data = orbit_data(G, (g,) * n, sigma, (h,) * n, tau)
                        assert len(data) == 1
                        d = data[0]
                        assert d == (k, N, m, G.power(g, k),
                                     G.mul(G.power(G.inv(g), m), G.power(h, N)))


def test_multiplier_commutes_and_sizes_cover():
    G = symmetric_group(3)
    W = wreath(G, 3, size_cap=2000)
    rng = random.Random(1)
    for _ in range(60):
        w = rng.choice(W.elements)
        cent = [x for x in W.elements if W.mul(w, x) == W.mul(x, w)]
        x = rng.choice(cent)
        data = orbit_data_for(G, w, x)
        assert sum(d.cycle_length * d.orbit_size for d in data) == 3
        for d in data:
            assert G.mul(d.multiplier, d.holonomy) == G.mul(d.holonomy, d.multiplier)


def random_convention(seed):
    r = random.Random(seed)
    return OrbitConvention(cycle_start=lambda cyc: r.randrange(len(cyc)),
                           orbit_start=lambda cycs: r.randrange(len(cycs)))


def test_choice_independence():
    G = symmetric_group(3)
    W = wreath(G, 2)
    rng = random.Random(9)
    for trial in range(40):
        w = rng.choice(W.elements)
        cent = [x for x in W.elements if W.mul(w, x) == W.mul(x, w)]
        x = rng.choice(cent)
        base = orbit_data_for(G, w, x)
        other = orbit_data_for(G, w, x, convention=random_convention(trial))
        assert sorted(d[:3] for d in base) == sorted(d[:3] for d in other)
        for da in base:
            assert any(
                db[:3] == da[:3] and any(
                    G.conjugate(a, da.holonomy) == db.holonomy
                    and G.conjugate(a, da.multiplier) == db.multiplier
                    for a in G.elements)
                for db in other)


def test_token_action_composition_law():
    rng = random.Random(3)
    for G in (cyclic_group(2), symmetric_group(3)):
        W = wreath(G, 3 if len(G) == 2 else 2)
        for _ in range(80):
            w = rng.choice(W.elements)
            cent = [x for x in W.elements if W.mul(w, x) == W.mul(x, w)]
            x1, x2 = rng.choice(cent), rng.choice(cent)
            combined = action_tokens(G, w, W.mul(x1, x2))
            composed = compose_tokens(G, w, action_tokens(G, w, x1), action_tokens(G, w, x2))
            assert combined == composed


def test_orbit_data_validates_lengths():
    T = trivial_group()
    e = T.identity
    with pytest.raises(ValueError):
        orbit_data(T, (e,), (0, 1), (e, e), (0, 1))


def _act(G, x, point):
    """(g, sigma) acting on G x [n]: (a, i) -> (g_{sigma(i)} a, sigma(i))."""
    a, i = point
    j = x.perm[i]
    return G.mul(x.base[j], a), j


@pytest.mark.parametrize("G, n", [(cyclic_group(2), 3), (symmetric_group(3), 2)],
                         ids=["Z2wrS3", "S3wrS2"])
def test_wreath_ops_match_group_and_action(G, n):
    W = wreath(G, n)
    mul, inv = wreath_ops(G, n)
    points = [(a, i) for a in G.elements for i in range(n)]
    for x in W.elements:
        assert inv(x) == W.inv(x)
        assert mul(x, inv(x)) == W.identity
        for y in W.elements:
            xy = mul(x, y)
            assert xy == W.mul(x, y)
            # independent oracle: the product acts as the composite action
            assert all(_act(G, xy, p) == _act(G, x, _act(G, y, p)) for p in points)


def _point_orbits(sigma, tau):
    left, out = set(range(len(sigma))), []
    while left:
        todo, orbit = [min(left)], set()
        while todo:
            p = todo.pop()
            if p not in orbit:
                orbit.add(p)
                todo += [sigma[p], tau[p]]
        left -= orbit
        out.append(orbit)
    return out


def test_cycle_product_is_the_orbit_holonomy():
    rng = random.Random(11)
    for G, n in ((cyclic_group(3), 3), (symmetric_group(3), 2), (cyclic_group(2), 4)):
        W = wreath(G, n)
        for _ in range(40):
            w = rng.choice(W.elements)
            x = rng.choice(W.centralizer(w))
            # the minimal convention bases each orbit at its least point
            expected = Counter()
            for orbit in _point_orbits(w.perm, x.perm):
                cycle = next(c for c in cycles_of(w.perm) if c[0] == min(orbit))
                expected[len(cycle), len(orbit) // len(cycle),
                         cycle_product(G, w.base, cycle)] += 1
            got = Counter((d.cycle_length, d.orbit_size, d.holonomy)
                          for d in orbit_data_for(G, w, x))
            assert got == expected
