"""Exact arithmetic in cyclotomic fields.

An element of Q(zeta_N) is stored reduced in the power basis of
Q[x]/Phi_N(x), as a sparse map {exponent: Fraction} with exponents below
phi(N). The stored form is unique for a given order: zero coefficients
are dropped, rational values normalize to order 1, and orders congruent
to 2 mod 4 normalize to their odd half (so zeta_6 and 1 + zeta_3 coincide
verbatim). It is not unique across orders: a value of a proper subfield
that comes out of arithmetic at a larger order keeps that order (zeta_3 *
zeta_4 * zeta_3^2 is stored at order 12, zeta_4 at order 4), so equal
values can print and serialize differently. Operands of different orders
are embedded into the lcm order before arithmetic, and equality compares
through the same embedding, so it is decidable across orders. Everything
is immutable and exact; there are no floats anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Mapping, Union

from ._kernel import convolve, monic_rem

Rational = Union[int, Fraction]


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_n, ascending degree, monic."""
    if n < 1:
        raise ValueError("order must be positive")
    if n == 1:
        return (-1, 1)
    coeffs = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            coeffs = _exact_quotient(coeffs, cyclotomic_polynomial(d))
    return tuple(coeffs)


def _exact_quotient(num: list[int], den: tuple[int, ...]) -> list[int]:
    # Synthetic division by a monic divisor; remainder must vanish.
    num = list(num)
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for k in range(len(num) - 1, dd - 1, -1):
        t = num[k]
        out[k - dd] = t
        if t:
            for i in range(dd + 1):
                num[k - dd + i] -= t * den[i]
    if any(num):
        raise ArithmeticError("division was not exact")
    return out


@lru_cache(maxsize=None)
def _phi(n: int) -> int:
    return len(cyclotomic_polynomial(n)) - 1


_phi_lists: dict[int, list[int]] = {}


def _phi_list(n: int) -> list[int]:
    p = _phi_lists.get(n)
    if p is None:
        p = _phi_lists[n] = list(cyclotomic_polynomial(n))
    return p


def _reduce_exponents(order: int, pairs) -> tuple[list[int], int]:
    """Collect (exponent mod order, Fraction) pairs into a reduced dense
    integer vector plus common denominator."""
    den = 1
    for _, c in pairs:
        den = den * c.denominator // gcd(den, c.denominator)
    nums = [0] * order if order > 1 else [0]
    for e, c in pairs:
        nums[e % order] += c.numerator * (den // c.denominator)
    deg = _phi(order)
    if len(nums) > deg:
        nums = monic_rem(nums, _phi_list(order))
    else:
        nums = nums + [0] * (deg - len(nums))
    return nums, den


class Cyclotomic:
    """An exact element of the cyclotomic field of the given order."""

    __slots__ = ("order", "terms")

    def __init__(self, order: int, terms: Mapping[int, Rational]):
        if order < 1:
            raise ValueError("order must be positive")
        pairs = [(int(e), Fraction(c)) for e, c in terms.items()]
        nums, den = _reduce_exponents(order, pairs)
        obj = _from_dense(order, nums, den)
        object.__setattr__(self, "order", obj.order)
        object.__setattr__(self, "terms", obj.terms)

    def __setattr__(self, name, value):
        raise AttributeError("Cyclotomic values are immutable")

    # -- constructors ------------------------------------------------

    @staticmethod
    def from_rational(c: Rational) -> "Cyclotomic":
        c = Fraction(c)
        return _raw(1, {0: c} if c else {})

    @staticmethod
    def zero() -> "Cyclotomic":
        return _raw(1, {})

    @staticmethod
    def one() -> "Cyclotomic":
        return _raw(1, {0: Fraction(1)})

    # -- structure ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_rational(self) -> bool:
        return self.order == 1

    def as_fraction(self) -> Fraction:
        if self.order != 1:
            raise ValueError(f"not a rational value: {self}")
        return self.terms.get(0, Fraction(0))

    def _dense(self) -> tuple[list[int], int]:
        den = 1
        for c in self.terms.values():
            den = den * c.denominator // gcd(den, c.denominator)
        nums = [0] * _phi(self.order)
        for e, c in self.terms.items():
            nums[e] = c.numerator * (den // c.denominator)
        return nums, den

    def _dense_at(self, order: int) -> tuple[list[int], int]:
        """Dense vector of this value written at the given multiple order."""
        if order % self.order:
            raise ValueError(f"{self.order} does not divide {order}")
        nums, den = self._dense()
        if order == self.order:
            return nums, den
        step = order // self.order
        big = [0] * ((len(nums) - 1) * step + 1 if nums else 1)
        for e, c in enumerate(nums):
            big[e * step] = c
        if len(big) > _phi(order):
            big = monic_rem(big, _phi_list(order))
        return big + [0] * (_phi(order) - len(big)), den

    def embedded(self, order: int) -> "Cyclotomic":
        """The same value written in the field of the given larger order.

        The result is raw (not re-normalized downward), so embedding and
        then reducing back is the identity."""
        nums, den = self._dense_at(order)
        if not any(nums):
            return _raw(order, {})
        return _raw(order, {e: Fraction(c, den) for e, c in enumerate(nums) if c})

    def reduce_to(self, order: int) -> "Cyclotomic":
        """Rewrite in the subfield of the given order dividing this one.

        Raises ValueError if the value does not lie in that subfield.
        """
        if self.order % order:
            raise ValueError(f"{order} does not divide {self.order}")
        if order == self.order:
            return self
        cols = _subfield_basis(self.order, order)
        nums, den = self._dense()
        target = [Fraction(n, den) for n in nums]
        sol = _solve_columns(cols, target)
        if sol is None:
            raise ValueError(f"value is not in the order-{order} subfield")
        return _from_dense_fractions(order, sol)

    def galois(self, a: int) -> "Cyclotomic":
        """Apply the field automorphism sending each root zeta to zeta^a."""
        if gcd(a, self.order) != 1:
            raise ValueError(f"{a} is not a unit modulo {self.order}")
        return Cyclotomic(self.order, {(e * a) % self.order: c for e, c in self.terms.items()})

    def conjugate(self) -> "Cyclotomic":
        return self.galois(self.order - 1) if self.order > 1 else self

    # -- arithmetic --------------------------------------------------

    def __add__(self, other) -> "Cyclotomic":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        n = lcm(self.order, other.order)
        (an, ad) = self._dense_at(n)
        (bn, bd) = other._dense_at(n)
        d = ad * bd // gcd(ad, bd)
        ma, mb = d // ad, d // bd
        return _from_dense(n, [x * ma + y * mb for x, y in zip(an, bn)], d)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self) -> "Cyclotomic":
        return _raw(self.order, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other) -> "Cyclotomic":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.order == 1:
            c = other.terms.get(0)
            if c is None:
                return Cyclotomic.zero()
            return _raw(self.order, {e: x * c for e, x in self.terms.items()})
        if self.order == 1:
            return other * self
        n = lcm(self.order, other.order)
        (an, ad) = self._dense_at(n)
        (bn, bd) = other._dense_at(n)
        prod = monic_rem(convolve(an, bn), _phi_list(n))
        return _from_dense(n, prod, ad * bd)

    def __rmul__(self, other):
        return self.__mul__(other)

    def inverse(self) -> "Cyclotomic":
        """Multiplicative inverse: the product of the other Galois
        conjugates divided by the norm, which is rational."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        prod = Cyclotomic.one()
        for a in range(2, self.order):
            if gcd(a, self.order) == 1:
                prod = prod * self.galois(a)
        # a raw embedded value keeps its order even when the norm is
        # rational, so read the norm off the dense vector
        nums, den = (self * prod)._dense()
        return prod * Fraction(den, nums[0])

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, n: int) -> "Cyclotomic":
        if n < 0:
            return self.inverse() ** (-n)
        out, base = Cyclotomic.one(), self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- comparison --------------------------------------------------

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.order == other.order:
            return self.terms == other.terms
        n = lcm(self.order, other.order)
        (an, ad) = self._dense_at(n)
        (bn, bd) = other._dense_at(n)
        return all(x * bd == y * ad for x, y in zip(an, bn))

    __hash__ = None  # equality crosses orders; hashing is not supported

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __repr__(self) -> str:
        return f"Cyclotomic({self.order}, {dict(sorted(self.terms.items()))})"

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        bits = []
        for e, c in sorted(self.terms.items()):
            root = "1" if e == 0 else (f"z{self.order}" if e == 1 else f"z{self.order}^{e}")
            bits.append(f"{c}" if e == 0 else (f"{c}*{root}" if c != 1 else root))
        return " + ".join(bits)


def _raw(order: int, terms: dict[int, Fraction]) -> Cyclotomic:
    obj = object.__new__(Cyclotomic)
    object.__setattr__(obj, "order", order)
    object.__setattr__(obj, "terms", terms)
    return obj


def _from_dense(order: int, nums: list[int], den: int) -> Cyclotomic:
    if not any(nums):
        return _raw(1, {})
    if order % 4 == 2:
        # zeta_{2m} = -zeta_m^{(m+1)/2} for odd m: rewrite and re-reduce.
        m = order // 2
        half = (m + 1) // 2
        out = [0] * m if m > 1 else [0]
        for e, c in enumerate(nums):
            if c:
                out[(e * half) % m] += c if e % 2 == 0 else -c
        if len(out) > _phi(m):
            out = monic_rem(out, _phi_list(m))
        return _from_dense(m, out + [0] * (_phi(m) - len(out)), den)
    if all(c == 0 for c in nums[1:]):
        return _raw(1, {0: Fraction(nums[0], den)})
    return _raw(order, {e: Fraction(c, den) for e, c in enumerate(nums) if c})


def _from_dense_fractions(order: int, coeffs: list[Fraction]) -> Cyclotomic:
    den = 1
    for c in coeffs:
        den = den * c.denominator // gcd(den, c.denominator)
    return _from_dense(order, [c.numerator * (den // c.denominator) for c in coeffs], den)


def _coerce(value) -> Cyclotomic:
    if isinstance(value, Cyclotomic):
        return value
    if isinstance(value, (int, Fraction)):
        return Cyclotomic.from_rational(value)
    return NotImplemented


def root_of_unity(order: int, exponent: int) -> Cyclotomic:
    """The root of unity with argument 2*pi*exponent/order, canonicalized."""
    if order < 1:
        raise ValueError("order must be positive")
    exponent %= order
    g = gcd(exponent, order)
    order, exponent = order // g, exponent // g
    return Cyclotomic(order, {exponent: 1})


# `cyc_make` in the interface contracts.
cyc_make = root_of_unity


@lru_cache(maxsize=None)
def _subfield_basis(big: int, small: int) -> tuple[tuple[Fraction, ...], ...]:
    """Columns expressing the power basis of the small field inside the
    big one (both reduced)."""
    step = big // small
    cols = []
    for j in range(_phi(small)):
        vec = [0] * (j * step + 1)
        vec[j * step] = 1
        if len(vec) > _phi(big):
            vec = monic_rem(vec, _phi_list(big))
        vec = vec + [0] * (_phi(big) - len(vec))
        cols.append(tuple(Fraction(c) for c in vec))
    return tuple(cols)


def _solve_columns(cols, target):
    """Solve sum_j x_j cols[j] = target exactly; None if inconsistent."""
    rows = len(target)
    ncols = len(cols)
    mat = [[cols[j][i] for j in range(ncols)] + [target[i]] for i in range(rows)]
    piv_cols = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, rows) if mat[i][c]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(rows):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        piv_cols.append(c)
        r += 1
    sol = [Fraction(0)] * ncols
    for i, c in enumerate(piv_cols):
        sol[c] = mat[i][-1]
    for i in range(r, rows):
        if mat[i][-1]:
            return None
    # verify (guards against rank deficiency in the column set)
    for i in range(rows):
        if sum(sol[j] * cols[j][i] for j in range(ncols)) != target[i]:
            return None
    return sol
