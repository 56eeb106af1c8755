"""Finite groups by explicit enumeration.

Groups are given by their full element list plus multiplication and
inverse; permutation groups are generated from generator lists, and
direct products compose two groups elementwise. Conjugacy classes,
centralizers and commuting-pair classes (pairs gh = hg up to simultaneous
conjugation) are computed on demand and cached. Class and pair-class
representatives are the first members in enumeration order, which makes
every derived table deterministic.

The commuting-pair classes are the disjoint union, over the classes [r]
of G, of the conjugacy classes of the centralizer C_r: the class of
(r, c) with c in C_r is represented by (r, h), h the first member of the
C_r-class of c, and it has |[r]| * |[h]_{C_r}| members. One builder makes
the tables in two ways. By default a conjugacy walk (O(|G|^2) products)
finds the classes of G and of each C_r, and the pair table then holds
exactly the commuting pairs. A subclass that knows complete invariants
(`_class_key`, `_pair_key`) has its classes grouped by key instead, with
no walk: wreath products key by cycle type and orbit data, direct
products by the factors' classes. Its pair table then starts with the
pairs (r, c) and memoises each other pair on first lookup.

Elements must be hashable; groups are immutable once built.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, Sequence

DEFAULT_SIZE_CAP = 20000

Perm = tuple[int, ...]


class SizeCapExceeded(ValueError):
    """The requested group would exceed the configured element cap."""


# -- permutation helpers (0-based image tuples) -----------------------


def identity_perm(degree: int) -> Perm:
    return tuple(range(degree))


def perm_mul(p: Perm, q: Perm) -> Perm:
    """Composite permutation applying q first: (p*q)(i) = p(q(i))."""
    return tuple(map(p.__getitem__, q))


def perm_inv(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, image in enumerate(p):
        out[image] = i
    return tuple(out)


def perm_from_cycles(degree: int, cycles: Iterable[Sequence[int]]) -> Perm:
    """Build a permutation from 0-based cycles."""
    images = list(range(degree))
    for cycle in cycles:
        for a, b in zip(cycle, cycle[1:] + type(cycle)([cycle[0]])):
            if not 0 <= a < degree:
                raise ValueError(f"point {a} outside degree {degree}")
            images[a] = b
    seen = set()
    for cycle in cycles:
        for a in cycle:
            if a in seen:
                raise ValueError("cycles overlap")
            seen.add(a)
    return tuple(images)


def cycles_of(p: Perm) -> list[tuple[int, ...]]:
    """Cycles of p, each written minimal point first, sorted by that point."""
    seen = set()
    out = []
    for start in range(len(p)):
        if start in seen:
            continue
        cyc = [start]
        seen.add(start)
        point = p[start]
        while point != start:
            cyc.append(point)
            seen.add(point)
            point = p[point]
        out.append(tuple(cyc))
    return out


# -- the group container ----------------------------------------------


class FiniteGroup:
    """A finite group with a fixed element enumeration.

    A subclass may supply complete invariants: `_class_key(g)`, equal
    exactly on conjugate elements, and `_pair_key(g, h, check)`, equal
    exactly on simultaneously conjugate commuting pairs (with check set it
    raises ValueError on a pair that does not commute). The tables are then
    grouped by key instead of walked.
    """

    _class_key = None
    _pair_key = None

    def __init__(self, elements: Iterable, mul: Callable, inv: Callable,
                 identity, name: str | None = None, check: bool = True):
        elements = tuple(elements)
        if identity not in set(elements):
            raise ValueError("identity is not among the elements")
        self.elements = elements
        self.mul = mul
        self.inv = inv
        self.identity = identity
        self.name = name or f"group of order {len(elements)}"
        self._index = {g: i for i, g in enumerate(elements)}
        if len(self._index) != len(elements):
            raise ValueError("duplicate elements")
        self._orders: dict = {}
        self._conjugacy = None
        self._pair_classes = None
        self._pair_rep_map = None
        self._pair_class_sizes = None
        self._pair_key_reps = None
        self._centralizers: dict = {}
        if check:
            self._check_axioms()

    def _check_axioms(self):
        e = self.identity
        for g in self.elements:
            if self.mul(g, e) != g or self.mul(e, g) != g:
                raise ValueError("identity axiom fails")
            gi = self.inv(g)
            if gi not in self._index or self.mul(g, gi) != e:
                raise ValueError("inverse axiom fails")
        if len(self.elements) <= 20:
            for a, b, c in itertools.product(self.elements, repeat=3):
                if self.mul(self.mul(a, b), c) != self.mul(a, self.mul(b, c)):
                    raise ValueError("associativity fails")

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, g) -> bool:
        return g in self._index

    def __repr__(self) -> str:
        return f"<{self.name}, order {len(self.elements)}>"

    def index(self, g) -> int:
        return self._index[g]

    def power(self, g, n: int):
        if n < 0:
            return self.power(self.inv(g), -n)
        out = self.identity
        for _ in range(n):
            out = self.mul(out, g)
        return out

    def order_of(self, g) -> int:
        cached = self._orders.get(g)
        if cached is None:
            n, x = 1, g
            while x != self.identity:
                x = self.mul(x, g)
                n += 1
            cached = self._orders[g] = n
        return cached

    def conjugate(self, a, g):
        """a g a^-1."""
        return self.mul(self.mul(a, g), self.inv(a))

    # -- conjugacy ----------------------------------------------------

    def _conjugacy_data(self):
        if self._conjugacy is None:
            if self._class_key is None:
                self._conjugacy = _conjugacy_classes(self.elements, self.mul, self.inv)
            else:
                self._conjugacy = _classes_by_key(self.elements, self._class_key)
        return self._conjugacy

    def class_representatives(self) -> tuple:
        return self._conjugacy_data()[0]

    def conjugacy_class(self, g) -> tuple:
        data = self._conjugacy_data()
        return data[1][data[2][g]]

    def class_rep(self, g):
        return self._conjugacy_data()[2][g]

    def conjugator_to_rep(self, g):
        """t with t g t^-1 equal to the class representative of g."""
        _, _, rep_of, to_rep = self._conjugacy_data()
        if g not in to_rep:
            # a keyed group finds the walk's conjugator on demand: the
            # inverse of the first a with a r a^-1 = g
            r = rep_of[g]
            to_rep[g] = self.inv(next(a for a in self.elements if self.conjugate(a, r) == g))
        return to_rep[g]

    def centralizer(self, g) -> tuple:
        cent = self._centralizers.get(g)
        if cent is None:
            if g not in self._index:
                raise KeyError(g)
            cent = self._centralizers[g] = self._centralizer_elements(g)
        return cent

    def _centralizer_elements(self, g) -> tuple:
        """The elements commuting with g, in enumeration order."""
        mul = self.mul
        return tuple(a for a in self.elements if mul(a, g) == mul(g, a))

    # -- commuting pairs ----------------------------------------------

    def commuting_pair_classes(self) -> tuple:
        """Representatives (g, h) of commuting pairs up to simultaneous
        conjugation; g is a class representative and h runs over
        centralizer-conjugacy representatives inside C_g."""
        self._build_pair_tables()
        return self._pair_classes

    def pair_class_rep(self, g, h) -> tuple:
        """Canonical representative of the simultaneous-conjugacy class
        of the commuting pair (g, h); ValueError if the pair does not
        commute."""
        self._build_pair_tables()
        rep = self._pair_rep_map.get((g, h))
        if rep is None:
            if self._pair_key is None or g not in self._index or h not in self._index:
                raise ValueError(f"not a commuting pair of {self.name}: {(g, h)!r}")
            try:
                key = self._pair_key(g, h, True)
            except ValueError as exc:
                raise ValueError(f"not a commuting pair of {self.name}: {(g, h)!r}") from exc
            rep = self._pair_rep_map[(g, h)] = self._pair_key_reps[key]
        return rep

    def pair_class_size(self, g, h) -> int:
        """Orbit size of the pair class under simultaneous conjugation."""
        return self._pair_class_sizes[self.pair_class_rep(g, h)]

    def _build_pair_tables(self):
        if self._pair_classes is not None:
            return
        data = self._conjugacy_data()
        reps, members, _, to_rep = data
        mul, inv = self.mul, self.inv
        keyed = self._pair_key is not None
        pair_classes = []
        pair_rep: dict = {}
        sizes: dict = {}
        key_reps: dict = {}
        for r in reps:
            cent = self.centralizer(r)
            # the pair classes over [r] are the conjugacy classes of C_r,
            # labelled by pair key or by their first member
            if keyed:
                labels = [self._pair_key(r, c, False) for c in cent]
            else:
                h_rep = (data if len(cent) == len(self.elements)
                         else _conjugacy_classes(cent, mul, inv))[2]
                labels = [h_rep[c] for c in cent]
            first: dict = {}
            counts: dict = {}
            for c, label in zip(cent, labels):
                if label in counts:
                    counts[label] += 1
                else:
                    first[label] = (r, c)
                    counts[label] = 1
            class_size = len(members[r])
            for label, pair in first.items():
                pair_classes.append(pair)
                sizes[pair] = class_size * counts[label]
            if keyed:
                # other pairs are classified on first lookup
                key_reps.update(first)
                for c, label in zip(cent, labels):
                    pair_rep[(r, c)] = first[label]
                continue
            # the commuting partners of g = t^-1 r t are t^-1 C_r t
            for g in members[r]:
                t = to_rep[g]
                t_inv = inv(t)
                for c, label in zip(cent, labels):
                    pair_rep[(g, mul(mul(t_inv, c), t))] = first[label]
        self._pair_key_reps = key_reps
        self._pair_classes = tuple(pair_classes)
        self._pair_rep_map = pair_rep
        self._pair_class_sizes = sizes


def _conjugacy_classes(elements: tuple, mul: Callable, inv: Callable):
    """Conjugacy classes of the group with these elements, walked in
    enumeration order: (reps, members, rep_of, to_rep), where each
    representative is the first member of its class, members maps it to
    its class, rep_of maps each element to its representative and
    to_rep[g] is a t with t g t^-1 = rep_of[g]."""
    inverses = [inv(a) for a in elements]
    reps = []
    members: dict = {}
    rep_of: dict = {}
    to_rep: dict = {}
    for g in elements:
        if g in rep_of:
            continue
        reps.append(g)
        cls = []
        for a, a_inv in zip(elements, inverses):
            m = mul(mul(a, g), a_inv)
            if m not in rep_of:
                rep_of[m] = g
                to_rep[m] = a_inv
                cls.append(m)
        members[g] = tuple(cls)
    return tuple(reps), members, rep_of, to_rep


def _classes_by_key(elements: tuple, class_key: Callable):
    """The same tuple as `_conjugacy_classes`, grouped by a complete class
    invariant: representatives are again first members, members are in
    enumeration order, and to_rep starts empty (filled on demand)."""
    reps = []
    members: dict = {}
    rep_of: dict = {}
    rep_of_key: dict = {}
    for g in elements:
        key = class_key(g)
        r = rep_of_key.get(key)
        if r is None:
            r = rep_of_key[key] = g
            reps.append(g)
            members[g] = []
        members[r].append(g)
        rep_of[g] = r
    return tuple(reps), {r: tuple(m) for r, m in members.items()}, rep_of, {}


# -- constructors ------------------------------------------------------


def permutation_group(degree: int, generators: Iterable[Perm], name: str | None = None,
                      size_cap: int = DEFAULT_SIZE_CAP) -> FiniteGroup:
    """The subgroup of the symmetric group generated by the given
    permutations (0-based image tuples), fully enumerated."""
    gens = [tuple(g) for g in generators]
    for g in gens:
        if sorted(g) != list(range(degree)):
            raise ValueError(f"not a permutation of degree {degree}: {g}")
    e = identity_perm(degree)
    seen = {e}
    frontier = [e]
    order = [e]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = perm_mul(x, g)
                if y not in seen:
                    if len(seen) >= size_cap:
                        raise SizeCapExceeded(f"size cap {size_cap} exceeded")
                    seen.add(y)
                    order.append(y)
                    nxt.append(y)
        frontier = nxt
    order.sort()
    G = FiniteGroup(order, perm_mul, perm_inv, e, name=name, check=False)
    G.degree = degree
    G.generators = tuple(gens)
    return G


def symmetric_group(n: int, size_cap: int = DEFAULT_SIZE_CAP) -> FiniteGroup:
    if n < 0:
        raise ValueError(f"symmetric group degree must be non-negative, got {n}")
    gens: list[Perm] = []
    if n >= 2:
        gens.append(perm_from_cycles(n, [(0, 1)]))
    if n >= 3:
        gens.append(tuple(list(range(1, n)) + [0]))
    return permutation_group(n, gens, name=f"S{n}", size_cap=size_cap)


def cyclic_group(n: int) -> FiniteGroup:
    if n < 1:
        raise ValueError(f"cyclic group order must be positive, got {n}")
    return permutation_group(n, [tuple(range(1, n)) + (0,)], name=f"Z{n}")


def trivial_group() -> FiniteGroup:
    return permutation_group(1, [], name="1")


class DirectProduct(FiniteGroup):
    """G x H, enumerated as pairs (a, b) with a running slowest. Its
    classes and pair classes are pairs of the factors' classes, so its
    tables need no walk."""

    def __init__(self, G: FiniteGroup, H: FiniteGroup, name: str | None = None,
                 size_cap: int = DEFAULT_SIZE_CAP):
        if len(G) * len(H) > size_cap:
            raise SizeCapExceeded(f"size cap {size_cap} exceeded")
        self.factors = (G, H)
        elements = [(a, b) for a in G.elements for b in H.elements]

        def mul(x, y):
            return (G.mul(x[0], y[0]), H.mul(x[1], y[1]))

        def inv(x):
            return (G.inv(x[0]), H.inv(x[1]))

        super().__init__(elements, mul, inv, (G.identity, H.identity),
                         name=name or f"{G.name} x {H.name}", check=False)

    def _class_key(self, g):
        G, H = self.factors
        return G.class_rep(g[0]), H.class_rep(g[1])

    def _pair_key(self, g, h, check):
        # the factor lookups raise on a factor pair that does not commute
        G, H = self.factors
        return G.pair_class_rep(g[0], h[0]), H.pair_class_rep(g[1], h[1])

    def _centralizer_elements(self, g) -> tuple:
        G, H = self.factors
        return tuple(itertools.product(G.centralizer(g[0]), H.centralizer(g[1])))


def direct_product(G: FiniteGroup, H: FiniteGroup, name: str | None = None,
                   size_cap: int = DEFAULT_SIZE_CAP) -> DirectProduct:
    return DirectProduct(G, H, name, size_cap)


class Homomorphism:
    """A verified group homomorphism given by its value table."""

    def __init__(self, source: FiniteGroup, target: FiniteGroup, mapping: dict,
                 check: bool = True):
        self.source = source
        self.target = target
        self.mapping = dict(mapping)
        missing = [g for g in source.elements if g not in self.mapping]
        if missing:
            raise ValueError(f"mapping misses {len(missing)} elements")
        for g in source.elements:
            if self.mapping[g] not in target:
                raise ValueError("image outside target group")
        if check:
            for a in source.elements:
                fa = self.mapping[a]
                for b in source.elements:
                    if target.mul(fa, self.mapping[b]) != self.mapping[source.mul(a, b)]:
                        raise ValueError(f"not a homomorphism at {a!r}, {b!r}")

    def __call__(self, g):
        return self.mapping[g]

    def is_injective(self) -> bool:
        return len(set(self.mapping.values())) == len(self.source)


def identity_hom(G: FiniteGroup) -> Homomorphism:
    return Homomorphism(G, G, {g: g for g in G.elements}, check=False)
