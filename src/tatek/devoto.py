"""Class functions on commuting pairs with q-series values.

A DevotoElement over a group G at level r assigns a PuiseuxSeries to each
simultaneous-conjugacy class of commuting pairs (g, h); the summand over
a class [g] may use exponents with denominator dividing r*|g|. Evaluation
at an arbitrary commuting pair resolves through the canonical pair table,
so elements are well-defined class functions by construction.

The rotation condition relating the value at (g, g*h) to a root-of-unity
twist of the value at (g, h) is checkable (`check_devoto`), not enforced:
tests need deliberately invalid elements.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from .cyclotomic import Cyclotomic, root_of_unity
from .groups import FiniteGroup, Homomorphism, direct_product
from .series import PuiseuxSeries, hecke_substitute


def rotation_twist(s: PuiseuxSeries, level: int) -> PuiseuxSeries:
    """Multiply the coefficient at exponent e by the root of unity with
    argument 2*pi*e*level; this is what moving (g, h) to (g, g*h) must do
    to the value of a valid element."""
    out = {}
    for e, c in s.terms.items():
        arg = e * level
        out[e] = c * root_of_unity(arg.denominator, arg.numerator)
    return PuiseuxSeries(out, s.truncation)


class DevotoElement:
    """An element of the level-r Devoto ring of a finite group, stored on
    canonical commuting-pair representatives."""

    __slots__ = ("group", "level", "table")

    def __init__(self, group: FiniteGroup, table: Mapping, level: int = 1):
        if level < 1:
            raise ValueError("level must be positive")
        canonical: dict = {}
        for (g, h), s in table.items():
            rep = group.pair_class_rep(g, h)
            if not isinstance(s, PuiseuxSeries):
                s = PuiseuxSeries({0: s})
            if rep in canonical and canonical[rep] != s:
                raise ValueError(f"conflicting entries for pair class {rep!r}")
            canonical[rep] = s
        full: dict = {}
        for rep in group.commuting_pair_classes():
            s = canonical.get(rep, PuiseuxSeries.zero())
            bound = level * group.order_of(rep[0])
            for e in s.terms:
                if (e * bound).denominator != 1:
                    raise ValueError(
                        f"exponent {e} in the [{rep[0]!r}]-summand has denominator "
                        f"not dividing {bound}")
            full[rep] = s
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "table", full)

    def __setattr__(self, name, value):
        raise AttributeError("DevotoElement values are immutable")

    @staticmethod
    def constant(group: FiniteGroup, value, level: int = 1,
                 truncation=None) -> "DevotoElement":
        s = value if isinstance(value, PuiseuxSeries) else PuiseuxSeries({0: value}, truncation)
        return DevotoElement(group, {p: s for p in group.commuting_pair_classes()}, level)

    # -- evaluation ----------------------------------------------------

    def eval(self, g, h) -> PuiseuxSeries:
        return self.table[self.group.pair_class_rep(g, h)]

    def truncation(self) -> Fraction | None:
        """Finest common knowledge bound of all entries (None if every
        entry is exact)."""
        bounds = [s.truncation for s in self.table.values() if s.truncation is not None]
        return min(bounds) if bounds else None

    # -- ring structure --------------------------------------------------

    def _compatible(self, other: "DevotoElement"):
        if self.group is not other.group:
            raise ValueError("elements live over different groups")
        if self.level != other.level:
            raise ValueError("elements have different levels")

    def __add__(self, other) -> "DevotoElement":
        if isinstance(other, (int, Fraction, Cyclotomic)):
            other = DevotoElement.constant(self.group, other, self.level)
        if not isinstance(other, DevotoElement):
            return NotImplemented
        self._compatible(other)
        return DevotoElement(self.group,
                             {p: s + other.table[p] for p, s in self.table.items()},
                             self.level)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self) -> "DevotoElement":
        return DevotoElement(self.group, {p: -s for p, s in self.table.items()}, self.level)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, Cyclotomic)):
            other = DevotoElement.constant(self.group, other, self.level)
        if not isinstance(other, DevotoElement):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "DevotoElement":
        """Internal product: pointwise product of values (the external
        product pulled back along the diagonal)."""
        if isinstance(other, (int, Fraction, Cyclotomic, PuiseuxSeries)):
            return DevotoElement(self.group, {p: s * other for p, s in self.table.items()},
                                 self.level)
        if not isinstance(other, DevotoElement):
            return NotImplemented
        self._compatible(other)
        return DevotoElement(self.group,
                             {p: s * other.table[p] for p, s in self.table.items()},
                             self.level)

    def __rmul__(self, other):
        return self.__mul__(other)

    # -- comparisons -----------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, DevotoElement):
            return NotImplemented
        return (self.group is other.group and self.level == other.level
                and self.table == other.table)

    __hash__ = None

    def agrees_with(self, other: "DevotoElement", up_to=None) -> bool:
        """Class-function equality on the parts both sides know."""
        if self.group is not other.group or self.level != other.level:
            return False
        return all(s.agrees_with(other.table[p], up_to=up_to)
                   for p, s in self.table.items())

    def __repr__(self) -> str:
        return (f"DevotoElement({self.group.name}, level {self.level}, "
                f"{len(self.table)} pair classes)")


# -- the ring operations ------------------------------------------------


def restrict_along(x: DevotoElement, alpha: Homomorphism) -> DevotoElement:
    """Pull back along a homomorphism into x's group."""
    if alpha.target is not x.group:
        raise ValueError("homomorphism target does not match the element's group")
    H = alpha.source
    table = {(a, b): x.eval(alpha(a), alpha(b))
             for (a, b) in H.commuting_pair_classes()}
    return DevotoElement(H, table, x.level)


def external_product(x: DevotoElement, y: DevotoElement,
                     product_group: FiniteGroup | None = None) -> DevotoElement:
    """Product over G x H; a q^a term times a q^b term lands on q^(a+b)."""
    if x.level != y.level:
        raise ValueError("elements have different levels")
    GH = product_group if product_group is not None else direct_product(x.group, y.group)
    table = {}
    for (a, b) in GH.commuting_pair_classes():
        table[(a, b)] = x.eval(a[0], b[0]) * y.eval(a[1], b[1])
    return DevotoElement(GH, table, x.level)


def rescale(x: DevotoElement, k: int) -> DevotoElement:
    """Divide every exponent by k and multiply the level by k (the
    string-length rescaling); character data is untouched."""
    if k < 1:
        raise ValueError("k must be positive")
    if k == 1:
        return x
    return DevotoElement(x.group,
                         {p: hecke_substitute(s, 1, k, 0) for p, s in x.table.items()},
                         x.level * k)


def epsilon(x: DevotoElement) -> PuiseuxSeries:
    """Orbifold sum: the average of the values over all commuting pairs,
    computed by weighting each pair class with its orbit size."""
    G = x.group
    total = PuiseuxSeries.zero()
    for (g, h), s in x.table.items():
        total = total + s * Fraction(G.pair_class_size(g, h), len(G))
    return total


def trivial_part(x: DevotoElement, g) -> PuiseuxSeries:
    """Average of the [g]-summand over the centralizer: the multiplicity
    series of the trivial centralizer representation."""
    cent = x.group.centralizer(g)
    total = PuiseuxSeries.zero()
    for h in cent:
        total = total + x.eval(g, h)
    return total * Fraction(1, len(cent))


def check_devoto(x: DevotoElement):
    """Test the rotation condition; returns (True, None) or
    (False, (pair, exponent)) with a witness of the first failure."""
    G = x.group
    for (g, h), s in x.table.items():
        moved = x.eval(g, G.mul(g, h))
        expected = rotation_twist(s, x.level)
        if moved.agrees_with(expected):
            continue
        bound = moved.truncation
        if expected.truncation is not None:
            bound = expected.truncation if bound is None else min(bound, expected.truncation)
        diff = (moved.truncated(bound) - expected.truncated(bound)).terms
        witness_exp = min(diff) if diff else None
        return False, ((g, h), witness_exp)
    return True, None


def random_devoto_element(group: FiniteGroup, rng, truncation, level: int = 1,
                          pieces: int = 2, allow_negative: bool = False) -> DevotoElement:
    """A random element satisfying the rotation condition.

    For each class [g] the coefficient of q^(j/(r*l)) is built by
    averaging a random centralizer class function against the matching
    root-of-unity character of the cyclic rotation action, which enforces
    the condition by construction.
    """
    T = Fraction(truncation)
    table: dict = {}
    for g in group.class_representatives():
        l = group.order_of(g)
        # the pair-class representatives (g, h) in first-seen order of C_g
        reps = list(dict.fromkeys(group.pair_class_rep(g, h)[1]
                                  for h in group.centralizer(g)))
        bound = level * l
        entry: dict = {}
        lo = -bound if allow_negative else 0
        hi = int(T * bound)
        for _ in range(pieces):
            j = rng.randint(lo, max(lo, hi))
            exponent = Fraction(j, bound)
            if exponent > T:
                continue
            values = {rep: Fraction(rng.randint(-3, 3)) for rep in reps}
            twist = j % l
            for h in reps:
                acc = Cyclotomic.zero()
                power = group.identity
                for s in range(l):
                    acc = acc + values[group.pair_class_rep(g, group.mul(power, h))[1]] \
                        * root_of_unity(l, -twist * s)
                    power = group.mul(power, g)
                acc = acc * Fraction(1, l)
                if not acc.is_zero():
                    cur = entry.setdefault(h, {})
                    cur[exponent] = cur.get(exponent, Cyclotomic.zero()) + acc
        for h in reps:
            table[(g, h)] = PuiseuxSeries(entry.get(h, {}), T)
    return DevotoElement(group, table, level)
