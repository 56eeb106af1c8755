"""Wreath products G wr S_n and the string-orbit traversal.

Elements stay structured as (base tuple, permutation); the multiplication
twists the base tuple by the permutation. `orbit_data` extracts, for a
commuting pair of wreath elements, the combinatorial shadow of the closed
strings: for every orbit of the second element on the cycles of the
first, the cycle length k, orbit size N, accumulated rotation shift M,
cycle-product holonomy, and the return multiplier (an element commuting
with the holonomy). These five numbers drive the power-operation and
Hecke-operator character formulas.

Base-point choices (which element starts a cycle, which cycle starts an
orbit) are configurable; changing them moves (holonomy, multiplier) by
simultaneous conjugation and never changes (k, N, M).

The same data classify the group. An element is conjugate to another
exactly when both have the same cycle lengths with the same classes of
cycle products, and a commuting pair is simultaneously conjugate to
another exactly when both have the same multiset of (k, N, M, pair class
of holonomy and multiplier): the pair is a G-bundle over a finite
Z^2-set. `WreathGroup` hands these keys to the table builder of
`FiniteGroup`, so its conjugacy and pair tables need no conjugacy walk;
the elements are still enumerated, and representatives are still the
first members in enumeration order.
"""

from __future__ import annotations

import itertools
from typing import Callable, NamedTuple, Sequence

from .groups import (DEFAULT_SIZE_CAP, FiniteGroup, Homomorphism, Perm,
                     SizeCapExceeded, cycles_of, identity_perm, perm_inv,
                     perm_mul)


class WreathElement(NamedTuple):
    base: tuple
    perm: Perm


def wreath_ops(G: FiniteGroup, n: int):
    """Multiplication and inversion of G wr S_n as two closures over
    (base tuple, permutation) pairs; the product twists the second base
    tuple by the first permutation."""

    def mul(x: WreathElement, y: WreathElement) -> WreathElement:
        sig_inv = perm_inv(x.perm)
        return WreathElement(
            tuple(G.mul(x.base[i], y.base[sig_inv[i]]) for i in range(n)),
            perm_mul(x.perm, y.perm),
        )

    def inv(x: WreathElement) -> WreathElement:
        return WreathElement(
            tuple(G.inv(x.base[x.perm[j]]) for j in range(n)),
            perm_inv(x.perm),
        )

    return mul, inv


class WreathGroup(FiniteGroup):
    """Fully enumerated wreath product of a base group by S_n, with its
    classes and pair classes grouped by cycle type and orbit data."""

    def __init__(self, base_group: FiniteGroup, copies: int,
                 size_cap: int = DEFAULT_SIZE_CAP):
        if copies < 0:
            raise ValueError(f"wreath copies must be non-negative, got {copies}")
        self.base_group = base_group
        self.copies = copies
        # |G|^n n! as a running product, so an oversize n is rejected
        # before the full product is formed
        size = 1
        for i in range(1, copies + 1):
            size *= len(base_group) * i
            if size > size_cap:
                raise SizeCapExceeded(f"wreath product {base_group.name} wr S{copies} "
                                      f"exceeds the size cap {size_cap}")
        perms = sorted(itertools.permutations(range(copies)))
        elements = [
            WreathElement(base, perm)
            for base in itertools.product(base_group.elements, repeat=copies)
            for perm in perms
        ]
        G = base_group
        mul, inv = wreath_ops(G, copies)
        e = WreathElement((G.identity,) * copies, identity_perm(copies))
        self._base_keys = None
        super().__init__(elements, mul, inv, e, name=f"{G.name} wr S{copies}", check=False)

    def _base_key_functions(self):
        """Keys of base-group classes and pair classes as element indices.
        The classes of an abelian base are its single elements and pairs,
        so it needs no tables of its own."""
        if self._base_keys is None:
            G = self.base_group
            index = G.index
            if len(G.class_representatives()) == len(G):
                self._base_keys = (index, lambda g, h: (index(g), index(h)))
            else:
                self._base_keys = (lambda g: index(G.class_rep(g)),
                                   lambda g, h: tuple(map(index, G.pair_class_rep(g, h))))
        return self._base_keys

    def _class_key(self, w):
        # conjugacy classes of G wr S_n: the cycle type of the permutation,
        # each cycle labelled by the class of its cycle product
        G = self.base_group
        base_class = self._base_key_functions()[0]
        return tuple(sorted((len(cyc), base_class(cycle_product(G, w.base, cyc)))
                            for cyc in cycles_of(w.perm)))

    def _pair_key(self, w, x, check):
        # a commuting pair is a G-bundle over a finite Z^2-set: one orbit
        # per transitive piece (k, N, M), labelled by the pair class of its
        # holonomy and return multiplier
        base_pair = self._base_key_functions()[1]
        return tuple(sorted(
            (d.cycle_length, d.orbit_size, d.shift, *base_pair(d.holonomy, d.multiplier))
            for d in orbit_data(self.base_group, w.base, w.perm, x.base, x.perm,
                                check=check)))

    def _centralizer_elements(self, w) -> tuple:
        # only an element whose permutation commutes with w's can commute with w
        G, sigma = self.base_group, w.perm
        perms = {p for p in itertools.permutations(sigma)
                 if perm_mul(p, sigma) == perm_mul(sigma, p)}
        return tuple(x for x in self.elements
                     if x.perm in perms and centralizer_condition(G, w, x))


def wreath(base_group: FiniteGroup, copies: int,
           size_cap: int = DEFAULT_SIZE_CAP) -> WreathGroup:
    return WreathGroup(base_group, copies, size_cap)


def centralizer_condition(G: FiniteGroup, w: WreathElement, x: WreathElement) -> bool:
    """The explicit membership test for x in the centralizer of w: the
    permutation parts commute and g_{sigma(tau(i))} h_{tau(i)} equals
    h_{tau(sigma(i))} g_{sigma(i)} for every i."""
    sigma, tau = w.perm, x.perm
    if perm_mul(sigma, tau) != perm_mul(tau, sigma):
        return False
    g, h = w.base, x.base
    for i in range(len(sigma)):
        if G.mul(g[sigma[tau[i]]], h[tau[i]]) != G.mul(h[tau[sigma[i]]], g[sigma[i]]):
            return False
    return True


# -- iterated wreath products -----------------------------------------


def iota(w: WreathElement, inner_degree: int) -> Perm:
    """Flatten an element of S_m wr S_n to a permutation of m*n points,
    identifying (i, j) with i + j*n (0-based). An injective homomorphism."""
    m, n = inner_degree, len(w.perm)
    out = [0] * (m * n)
    for p in range(m * n):
        i, j = p % n, p // n
        i2 = w.perm[i]
        j2 = w.base[i2][j]
        out[p] = i2 + j2 * n
    return tuple(out)


def iota_hom(nested: WreathGroup, flat: WreathGroup) -> Homomorphism:
    """The embedding (G wr S_m) wr S_n -> G wr S_{mn} that flattens both
    the index pairs and the base entries."""
    inner = nested.base_group
    if not isinstance(inner, WreathGroup):
        raise ValueError("source must be an iterated wreath product")
    m, n = inner.copies, nested.copies
    if not (flat.base_group is inner.base_group and flat.copies == m * n):
        raise ValueError("target does not match the flattened shape")
    mapping = {}
    for w in nested.elements:
        base = [None] * (m * n)
        for i in range(n):
            for j in range(m):
                base[i + j * n] = w.base[i].base[j]
        perm_part = WreathElement(tuple(x.perm for x in w.base), w.perm)
        mapping[w] = WreathElement(tuple(base), iota(perm_part, m))
    return Homomorphism(nested, flat, mapping)


def block_sum_hom(product_group: FiniteGroup, left: WreathGroup, right: WreathGroup,
                  target: WreathGroup) -> Homomorphism:
    """(G wr S_n) x (G wr S_m) -> G wr S_{n+m}, juxtaposing base tuples
    and permuting the two blocks separately."""
    n = left.copies
    mapping = {}
    for (a, b) in product_group.elements:
        base = a.base + b.base
        perm = a.perm + tuple(n + i for i in b.perm)
        mapping[(a, b)] = WreathElement(base, perm)
    return Homomorphism(product_group, target, mapping)


def unzip_hom(source: WreathGroup, target_product: FiniteGroup) -> Homomorphism:
    """(G x H) wr S_n -> (G wr S_n) x (H wr S_n), splitting each base pair
    into its two coordinates (the permutation goes to both sides)."""
    mapping = {}
    for w in source.elements:
        firsts = tuple(p[0] for p in w.base)
        seconds = tuple(p[1] for p in w.base)
        mapping[w] = (WreathElement(firsts, w.perm), WreathElement(seconds, w.perm))
    return Homomorphism(source, target_product, mapping)


# -- orbit traversal ---------------------------------------------------


class OrbitDatum(NamedTuple):
    cycle_length: int      # k
    orbit_size: int        # N
    shift: int             # M, in [0, k)
    holonomy: object       # cycle product at the base cycle
    multiplier: object     # return element, commutes with the holonomy


class OrbitConvention(NamedTuple):
    """Base-point choices for the traversal; both callables pick one
    entry of their argument."""
    cycle_start: Callable[[tuple], int]
    orbit_start: Callable[[list], int]


MINIMAL_CONVENTION = OrbitConvention(
    cycle_start=lambda cycle: cycle.index(min(cycle)),
    orbit_start=lambda cycles: min(range(len(cycles)), key=lambda i: min(cycles[i])),
)


def cycle_product(G: FiniteGroup, base: Sequence, cycle: Sequence[int]):
    """Product of the base entries along a cycle, each later point
    multiplied on the left: g_{c[-1]} ... g_{c[1]} g_{c[0]}."""
    prod = G.identity
    for point in cycle:
        prod = G.mul(base[point], prod)
    return prod


def _based_cycles(sigma: Perm, convention: OrbitConvention):
    """The cycles of sigma, each rotated to start at the convention's base
    point, and the index of the cycle through each point."""
    cycles = []
    cycle_at = [0] * len(sigma)
    for cyc in cycles_of(sigma):
        start = convention.cycle_start(cyc)
        for point in cyc:
            cycle_at[point] = len(cycles)
        cycles.append(cyc[start:] + cyc[:start])
    return cycles, cycle_at


def _step(G: FiniteGroup, g_base: Sequence, h_base: Sequence, tau: Perm,
          i_cyc: tuple, j_cyc: tuple):
    """Shift and multiplier of the step that reads the loop over the
    cycle j_cyc = tau(i_cyc)."""
    m = j_cyc.index(tau[i_cyc[0]])
    s = G.identity
    for r in range(m):
        s = G.mul(s, G.inv(g_base[j_cyc[r]]))
    return m, G.mul(s, h_base[j_cyc[m - 1]])


def orbit_data(G: FiniteGroup, g_base: Sequence, sigma: Perm, h_base: Sequence,
               tau: Perm, convention: OrbitConvention = MINIMAL_CONVENTION,
               check: bool = True) -> list[OrbitDatum]:
    """Traverse the orbits of (h, tau) on the cycles of (g, sigma).

    Requires (h, tau) to centralize (g, sigma). For each orbit of tau on
    the k-cycles of sigma the traversal starts at a base cycle with cycle
    product g_c and iterates the loop-rotation step around the orbit,
    accumulating the shift and composing the step multipliers; shifts of
    a full cycle length fold into holonomy factors.
    """
    n = len(sigma)
    if not (len(g_base) == len(h_base) == len(tau) == n):
        raise ValueError("base tuples and permutations must have one length")
    noncentral = "second pair does not centralize the first"
    if check and not centralizer_condition(G, WreathElement(tuple(g_base), tuple(sigma)),
                                           WreathElement(tuple(h_base), tuple(tau))):
        raise ValueError(noncentral)

    cycles, cycle_at = _based_cycles(sigma, convention)
    seen = set()
    out = []
    for idx in range(len(cycles)):
        if idx in seen:
            continue
        orbit = [idx]
        seen.add(idx)
        cur = cycle_at[tau[cycles[idx][0]]]
        while cur != idx:
            # a centralizing tau permutes the cycles, so the walk only
            # returns to its start; unchecked input may loop elsewhere
            if cur in seen:
                raise ValueError(noncentral)
            seen.add(cur)
            orbit.append(cur)
            cur = cycle_at[tau[cycles[cur][0]]]
        start_pos = convention.orbit_start([cycles[i] for i in orbit])
        orbit = orbit[start_pos:] + orbit[:start_pos]

        k, size = len(cycles[orbit[0]]), len(orbit)
        total_shift = 0
        u = G.identity
        for r in range(size):
            m, s = _step(G, g_base, h_base, tau, cycles[orbit[r]],
                         cycles[orbit[(r + 1) % size]])
            total_shift += m
            u = G.mul(s, u)
        wraps, shift = divmod(total_shift, k)
        hol = cycle_product(G, g_base, cycles[orbit[0]])
        u = G.mul(G.power(hol, wraps), u)
        if check and G.mul(u, hol) != G.mul(hol, u):
            raise AssertionError("return multiplier fails to commute with holonomy")
        out.append(OrbitDatum(k, size, shift, hol, u))

    if check:
        assert sum(d.cycle_length * d.orbit_size for d in out) == n
    return out


def orbit_data_for(G: FiniteGroup, w: WreathElement, x: WreathElement,
                   convention: OrbitConvention = MINIMAL_CONVENTION,
                   check: bool = True) -> list[OrbitDatum]:
    return orbit_data(G, w.base, w.perm, x.base, x.perm, convention, check)


# -- the token model of the loop action --------------------------------


class StepToken(NamedTuple):
    """One factor of the loop-space action of a centralizer element: the
    factor at `target` is read from the loop over `source`, rotated by
    `shift` and right-multiplied by `multiplier`."""
    target: int
    source: int
    shift: int
    multiplier: object


def action_tokens(G: FiniteGroup, w: WreathElement, x: WreathElement,
                  convention: OrbitConvention = MINIMAL_CONVENTION) -> list[StepToken]:
    """Tokens of the action of x on the loop factors of w, one per cycle
    of w's permutation (in stored-cycle order)."""
    if not centralizer_condition(G, w, x):
        raise ValueError("second element does not centralize the first")
    cycles, cycle_at = _based_cycles(w.perm, convention)
    out = []
    for idx, i_cyc in enumerate(cycles):
        j_idx = cycle_at[x.perm[i_cyc[0]]]
        m, s = _step(G, w.base, x.base, x.perm, i_cyc, cycles[j_idx])
        out.append(StepToken(idx, j_idx, m, s))
    return out


def compose_tokens(G: FiniteGroup, w: WreathElement, first: list[StepToken],
                   second: list[StepToken],
                   convention: OrbitConvention = MINIMAL_CONVENTION) -> list[StepToken]:
    """Tokens of acting by `first` then `second`, normalized so shifts lie
    in [0, k) (full-cycle rotations fold into the source cycle product)."""
    cycles, _ = _based_cycles(w.perm, convention)
    by_target_second = {t.target: t for t in second}
    by_target_first = {t.target: t for t in first}
    out = []
    for idx in range(len(cycles)):
        t2 = by_target_second[idx]
        t1 = by_target_first[t2.source]
        shift = t2.shift + t1.shift
        mult = G.mul(t1.multiplier, t2.multiplier)
        k = len(cycles[idx])
        wraps, shift = divmod(shift, k)
        if wraps:
            mult = G.mul(G.power(cycle_product(G, w.base, cycles[t1.source]), wraps), mult)
        out.append(StepToken(idx, t1.source, shift, mult))
    return out
