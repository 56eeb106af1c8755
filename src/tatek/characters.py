"""Character-level representation theory for the stringy Euler classes.

Characters are class functions with cyclotomic values. Exterior and
symmetric powers are computed through power sums (Newton's identities).
One orthogonality projection gives every eigenspace quantity: the trace
of x on the zeta_l^j-eigenspace of g of order l is
(1/l) sum_s chi(g^s x) zeta_l^(-js), its dimension at x = 1. The stringy
Euler class assembles, per pair class (g, h), the Euler factor of the
dual fixed part with the exterior-power factors of the rotation
eigenspaces at fractional q powers, building each eigenspace's factor
once. The wreath-sum character and the eigenvalue bookkeeping needed to
compare Euler classes with power operations live here too.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Mapping

from .cyclotomic import Cyclotomic, root_of_unity
from .devoto import DevotoElement
from .groups import DEFAULT_SIZE_CAP, FiniteGroup, cycles_of, identity_perm
from .powerops import VerificationReport, compare_class_functions, p_str
from .series import PuiseuxSeries, _exp_coeffs
from .wreath import WreathElement, WreathGroup, cycle_product, wreath, wreath_ops


def _as_cyc(v) -> Cyclotomic:
    return v if isinstance(v, Cyclotomic) else Cyclotomic.from_rational(v)


class RepCharacter:
    """A class function on a group with cyclotomic values (the character
    of a virtual representation)."""

    __slots__ = ("group", "values")

    def __init__(self, group: FiniteGroup, values: Mapping, check_genuine: bool = False):
        table = {}
        for g, v in values.items():
            rep = group.class_rep(g)
            v = _as_cyc(v)
            if rep in table and table[rep] != v:
                raise ValueError(f"conflicting values on the class of {g!r}")
            table[rep] = v
        for rep in group.class_representatives():
            table.setdefault(rep, Cyclotomic.zero())
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "values", table)
        if check_genuine:
            for g in group.class_representatives():
                if self.value(group.inv(g)) != self.value(g).conjugate():
                    raise ValueError("value at inverses is not the conjugate; "
                                     "not a genuine character")

    def __setattr__(self, name, value):
        raise AttributeError("RepCharacter values are immutable")

    @staticmethod
    def trivial(group: FiniteGroup, dim: int = 1) -> "RepCharacter":
        return RepCharacter(group, {g: dim for g in group.class_representatives()})

    @staticmethod
    def regular(group: FiniteGroup) -> "RepCharacter":
        return RepCharacter(group, {group.identity: len(group)})

    def value(self, g) -> Cyclotomic:
        return self.values[self.group.class_rep(g)]

    def dim(self) -> Fraction:
        return self.value(self.group.identity).as_fraction()

    def __add__(self, other: "RepCharacter") -> "RepCharacter":
        if self.group is not other.group:
            raise ValueError("characters live over different groups")
        return RepCharacter(self.group, {g: v + other.values[g] for g, v in self.values.items()})

    def __mul__(self, other):
        if isinstance(other, RepCharacter):
            if self.group is not other.group:
                raise ValueError("characters live over different groups")
            return RepCharacter(self.group,
                                {g: v * other.values[g] for g, v in self.values.items()})
        return RepCharacter(self.group, {g: v * other for g, v in self.values.items()})

    def conjugate(self) -> "RepCharacter":
        return RepCharacter(self.group, {g: v.conjugate() for g, v in self.values.items()})

    def complexified(self) -> "RepCharacter":
        """Character of the underlying real form's complexification,
        chi + conj(chi)."""
        return self + self.conjugate()

    def __eq__(self, other) -> bool:
        if not isinstance(other, RepCharacter):
            return NotImplemented
        return self.group is other.group and self.values == other.values

    __hash__ = None

    def __repr__(self) -> str:
        return f"RepCharacter({self.group.name}, dim {self.values[self.group.identity]})"


# -- eigenspace projections ---------------------------------------------


def _powers(mul, identity, x) -> list:
    """identity, x, x^2, ..., up to the last power before the identity."""
    out = [identity]
    p = x
    while p != identity:
        out.append(p)
        p = mul(p, x)
    return out


def _project(values: list[Cyclotomic], j: int) -> Cyclotomic:
    """The orthogonality projection (1/l) sum_s values[s] zeta_l^(-js),
    where values[s] is a character at g^s x for g of order l = len(values)
    and x commuting with g: the trace of x on the zeta_l^j-eigenspace of
    g, its dimension when x is the identity."""
    l = len(values)
    acc = Cyclotomic.zero()
    for s, v in enumerate(values):
        acc = acc + v * root_of_unity(l, -j * s)
    return acc * Fraction(1, l)


def _eigen_count(values: list[Cyclotomic], j: int) -> int:
    """Multiplicity of zeta_l^j as an eigenvalue of g, from the character
    on the powers of g. Raises unless integral."""
    acc = _project(values, j)
    if not acc.is_rational() or acc.as_fraction().denominator != 1:
        raise ValueError(f"non-integral eigenspace multiplicity {acc}; "
                         "the character is not genuine on this cyclic group")
    return int(acc.as_fraction())


def _genuine_count(values: list[Cyclotomic], j: int) -> int:
    """As _eigen_count, and raises on a negative multiplicity."""
    m = _eigen_count(values, j)
    if m < 0:
        raise ValueError(f"negative eigenspace multiplicity {m}")
    return m


def _root_count(values: list[Cyclotomic], zeta: Cyclotomic) -> int:
    """Multiplicity of an arbitrary root of unity zeta; 0 unless zeta is
    an l-th root of unity."""
    l = len(values)
    j = next((j for j in range(l) if root_of_unity(l, j) == zeta), None)
    return 0 if j is None else _eigen_count(values, j)


def _power_values(chi: RepCharacter, g) -> list[Cyclotomic]:
    G = chi.group
    return [chi.value(x) for x in _powers(G.mul, G.identity, g)]


def eigen_multiplicity(chi: RepCharacter, g, j: int) -> int:
    """Multiplicity of the eigenvalue exp(2*pi*i*j/|g|) of g acting on
    the representation with character chi."""
    values = _power_values(chi, g)
    if not 0 <= j < len(values):
        raise ValueError(f"eigenvalue exponent {j} outside [0, {len(values)})")
    return _genuine_count(values, j)


def eigen_multiplicity_root(chi: RepCharacter, g, zeta: Cyclotomic) -> int:
    """Multiplicity of an arbitrary root of unity as an eigenvalue of g."""
    return _root_count(_power_values(chi, g), zeta)


def age(chi: RepCharacter, g, doubled: bool = False) -> Fraction:
    """Weighted sum of rotation-eigenvalue exponents, sum_j (j/l) d_j over
    nontrivial eigenvalues. `doubled` applies the real-dimension factor 2
    convention; neither convention is privileged."""
    values = _power_values(chi, g)
    l = len(values)
    total = Fraction(0)
    for j in range(1, l):
        total += Fraction(j, l) * _genuine_count(values, j)
    return 2 * total if doubled else total


# -- exterior / symmetric powers via power sums ---------------------------


def _power_series_coeffs(power_sum: Callable[[int], Cyclotomic], kind: str,
                         t_order: int) -> list[Cyclotomic]:
    """Coefficients of Lambda_t (kind='lambda') or Sym_t (kind='sym') from
    the power sums, by Newton's identities: the exp recurrence on the
    signed power sums p_i / i, with sign (-1)^(i-1) for Lambda_t."""
    sign = -1 if kind == "lambda" else 1
    logs = [power_sum(i) * Fraction(sign ** (i - 1), i) for i in range(1, t_order + 1)]
    return _exp_coeffs([Cyclotomic.zero()] + logs, Cyclotomic.zero(), Cyclotomic.one())


def lambda_sym_char(chi: RepCharacter, h, kind: str, t_order: int) -> list[Cyclotomic]:
    """Coefficient list of the total exterior (kind='lambda') or symmetric
    (kind='sym') power of chi, evaluated at h: entry r is the character of
    the r-th power at h. Lambda_{-t} times Sym_t is 1 at every h."""
    if kind not in ("lambda", "sym"):
        raise ValueError("kind must be 'lambda' or 'sym'")
    G = chi.group
    powers = [G.identity]
    for _ in range(t_order):
        powers.append(G.mul(powers[-1], h))
    return _power_series_coeffs(lambda i: chi.value(powers[i]), kind, t_order)


# -- wreath characters -----------------------------------------------------


def _wreath_value(chi: RepCharacter, w: WreathElement) -> Cyclotomic:
    acc = Cyclotomic.zero()
    for i, image in enumerate(w.perm):
        if image == i:
            acc = acc + chi.value(w.base[i])
    return acc


def wreath_sum_character(chi: RepCharacter, n: int,
                         wreath_group: WreathGroup | None = None) -> RepCharacter:
    """Character of the n-fold permutation-twisted direct sum: the value
    at (g, sigma) sums chi over the entries at fixed points of sigma."""
    W = wreath_group if wreath_group is not None else wreath(chi.group, n)
    return RepCharacter(W, {w: _wreath_value(chi, w) for w in W.class_representatives()})


def eigen_cycle_check(chi: RepCharacter, base, perm, zeta: Cyclotomic):
    """Compare the multiplicity of zeta as an eigenvalue of (base, perm)
    on the twisted sum against the sum over k-cycles of the multiplicity
    of zeta^k for the cycle product. Returns (equal, lhs, rhs)."""
    G = chi.group
    n = len(perm)
    mul, _ = wreath_ops(G, n)
    e = WreathElement((G.identity,) * n, identity_perm(n))
    powers = _powers(mul, e, WreathElement(tuple(base), tuple(perm)))
    lhs = _root_count([_wreath_value(chi, x) for x in powers], zeta)
    rhs = 0
    for cycle in cycles_of(perm):
        rhs += eigen_multiplicity_root(chi, cycle_product(G, base, cycle),
                                       zeta ** len(cycle))
    return lhs == rhs, lhs, rhs


# -- stringy Euler classes --------------------------------------------------


def euler_str(chi: RepCharacter, q_order) -> DevotoElement:
    """Stringy Euler class of a genuine character, as a level-1 element.

    The [g]-summand at h multiplies the ordinary Euler factor of the dual
    fixed subcharacter by the exterior-power factor of each rotation
    eigenspace of the complexification at q^(j/l), for all j with
    j/l within the truncation.
    """
    G = chi.group
    T = Fraction(q_order)
    chi_c = chi.complexified()
    table = {}
    for (g, h) in G.commuting_pair_classes():
        g_powers = _powers(G.mul, G.identity, g)
        h_powers = _powers(G.mul, G.identity, h)
        l, m = len(g_powers), len(h_powers)

        def signed_lambda(char: RepCharacter, j: int, step: int) -> list[Cyclotomic]:
            """(-1)^r times the r-th exterior power of the zeta_l^j
            eigenspace of g in char at h^step, by Newton's identities on
            the traces of the h^(step*i); [1] for a zero space."""
            dim = _genuine_count([char.value(gs) for gs in g_powers], j)
            if not dim:
                return [Cyclotomic.one()]
            coeffs = _power_series_coeffs(
                lambda i: _project([char.value(G.mul(gs, h_powers[step * i % m]))
                                    for gs in g_powers], j),
                "lambda", dim)
            return [c if r % 2 == 0 else -c for r, c in enumerate(coeffs)]

        value = PuiseuxSeries({0: sum(signed_lambda(chi, 0, -1), Cyclotomic.zero())}, T)
        rotations = {}
        for j in range(1, int(T * l) + 1):
            if j % l not in rotations:
                rotations[j % l] = signed_lambda(chi_c, j % l, 1)
            signed = rotations[j % l]
            if len(signed) > 1:
                value = value * PuiseuxSeries(
                    {Fraction(j, l) * r: c for r, c in enumerate(signed)}, T)
        table[(g, h)] = value
    return DevotoElement(G, table, level=1)


def verify_hinfty(chi: RepCharacter, n: int, q_order,
                  size_cap: int = DEFAULT_SIZE_CAP) -> VerificationReport:
    """Euler class of the twisted sum against the power operation of the
    Euler class; exact to the stated q-order."""
    G = chi.group
    W = wreath(G, n, size_cap)
    lhs = euler_str(wreath_sum_character(chi, n, W), q_order)
    rhs = p_str(euler_str(chi, Fraction(q_order) * n), n, wreath_group=W)
    return compare_class_functions(lhs, rhs, label=f"H-infinity n={n}",
                                   up_to=q_order, min_known=q_order)
