"""Truncated q-series with rational exponents and cyclotomic coefficients.

A PuiseuxSeries is a finite map {exponent: coefficient} with Fraction
exponents (negatives allowed, finitely many below any bound) plus a
truncation order: terms above the truncation are unknown and dropped.
Binary operations propagate truncation conservatively, so a result is
always correct to its recorded order. A BivariateSeries layers a dummy
variable t on top, with integer t-degrees and PuiseuxSeries coefficients;
exp/log/inverse on it are t-adic.

Both classes run exp/log/inverse through the same three O(N^2)
coefficient recurrences (Knuth, TAOCP vol. 2, section 4.7), and Newton's
identities in characters.py are the exp one: with a the input and b the
result, inverse solves sum a_i b_{k-i} = [k = 0], and exp and log come
from the logarithmic derivative, k b_k = sum i a_i b_{k-i}.

All values are immutable and all operations pure, so anything here can be
shared freely across threads.
"""

from __future__ import annotations

from fractions import Fraction
from math import floor, lcm
from typing import Mapping, Union

from ._kernel import convolve
from .cyclotomic import Cyclotomic, root_of_unity

Scalar = Union[int, Fraction, Cyclotomic]
Exponent = Union[int, Fraction]

# rational products with integral exponents and this many term pairs take
# the dense convolution path when each operand, cut at the truncation, has
# fewer than this many exponent slots per term (measured break-even: 32-64)
_DENSE_MIN_TERMS = 8
_DENSE_SLOTS_PER_TERM = 32


def _as_coeff(c: Scalar) -> Cyclotomic:
    if isinstance(c, Cyclotomic):
        return c
    return Cyclotomic.from_rational(c)


def _min_trunc(a: Fraction | None, b: Fraction | None) -> Fraction | None:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _truncation_of_product(ta, va, tb, vb):
    """A factor known to ta times one of valuation vb (None: no terms,
    taken as 0) is known to ta + vb; likewise tb + va."""
    return _min_trunc(None if ta is None else ta + (vb or 0),
                      None if tb is None else tb + (va or 0))


class PuiseuxSeries:
    """A q-series known exactly up to its truncation order."""

    __slots__ = ("terms", "truncation")

    def __init__(self, terms: Mapping[Exponent, Scalar], truncation: Exponent | None = None):
        trunc = None if truncation is None else Fraction(truncation)
        tidy: dict[Fraction, Cyclotomic] = {}
        for e, c in terms.items():
            e = Fraction(e)
            if trunc is not None and e > trunc:
                continue
            c = _as_coeff(c)
            if not c.is_zero():
                tidy[e] = c
        object.__setattr__(self, "terms", tidy)
        object.__setattr__(self, "truncation", trunc)

    def __setattr__(self, name, value):
        raise AttributeError("PuiseuxSeries values are immutable")

    # -- constructors ------------------------------------------------

    @staticmethod
    def zero(truncation: Exponent | None = None) -> "PuiseuxSeries":
        return PuiseuxSeries({}, truncation)

    @staticmethod
    def one(truncation: Exponent | None = None) -> "PuiseuxSeries":
        return PuiseuxSeries({0: 1}, truncation)

    @staticmethod
    def monomial(coeff: Scalar, exponent: Exponent, truncation: Exponent | None = None) -> "PuiseuxSeries":
        return PuiseuxSeries({Fraction(exponent): coeff}, truncation)

    # -- structure ---------------------------------------------------

    @property
    def denominator(self) -> int:
        """Least common denominator of all stored exponents."""
        return lcm(*(e.denominator for e in self.terms))

    def is_zero(self) -> bool:
        return not self.terms

    def valuation(self) -> Fraction | None:
        """Lowest exponent, or None for the zero series."""
        return min(self.terms) if self.terms else None

    def coefficient(self, exponent: Exponent) -> Cyclotomic:
        return self.terms.get(Fraction(exponent), Cyclotomic.zero())

    def exponents(self) -> list[Fraction]:
        return sorted(self.terms)

    def truncated(self, truncation: Exponent | None) -> "PuiseuxSeries":
        return _series(self.terms, _min_trunc(self.truncation, None if truncation is None else Fraction(truncation)))

    def is_integral(self) -> bool:
        """True when every exponent is an integer."""
        return all(e.denominator == 1 for e in self.terms)

    # -- ring operations ---------------------------------------------

    def __add__(self, other) -> "PuiseuxSeries":
        other = _coerce_series(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e)
            out[e] = c if s is None else s + c
        return _series(out, _min_trunc(self.truncation, other.truncation))

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self) -> "PuiseuxSeries":
        return _series({e: -c for e, c in self.terms.items()}, self.truncation)

    def __sub__(self, other):
        other = _coerce_series(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other) -> "PuiseuxSeries":
        if isinstance(other, (int, Fraction, Cyclotomic)):
            c = _as_coeff(other)
            if c.is_zero():
                return _series({}, self.truncation)
            return _series({e: x * c for e, x in self.terms.items()}, self.truncation)
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        trunc = self._product_truncation(other)
        fast = _dense_rational_product(self, other, trunc)
        if fast is not None:
            return fast
        out: dict[Fraction, Cyclotomic] = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                e = ea + eb
                if trunc is not None and e > trunc:
                    continue
                c = ca * cb
                s = out.get(e)
                out[e] = c if s is None else s + c
        return _series(out, trunc)

    def __rmul__(self, other):
        return self.__mul__(other)

    def _product_truncation(self, other: "PuiseuxSeries") -> Fraction | None:
        return _truncation_of_product(self.truncation, self.valuation(),
                                      other.truncation, other.valuation())

    def __pow__(self, n: int) -> "PuiseuxSeries":
        if n < 0:
            return self.inv() ** (-n)
        out = PuiseuxSeries.one(None)
        for _ in range(n):
            out = out * self
        return out

    # -- analytic operations (truncated) -----------------------------

    def exp(self) -> "PuiseuxSeries":
        """exp of a series with strictly positive valuation."""
        if self.is_zero():
            return PuiseuxSeries.one(self.truncation)
        v = self.valuation()
        if v <= 0:
            raise ValueError("exp needs every exponent positive (zero constant term)")
        if self.truncation is None:
            raise ValueError("exp of an untruncated series does not terminate")
        d, a, zero = self._lattice()
        return _from_lattice(d, _exp_coeffs(a, zero, zero + 1), self.truncation)

    def log(self) -> "PuiseuxSeries":
        """log of a series with constant term 1 and no negative exponents."""
        v = self.valuation()
        if self.coefficient(0) != Cyclotomic.one() or v is None or v < 0:
            raise ValueError("log needs constant term 1")
        if len(self.terms) == 1:
            return PuiseuxSeries.zero(self.truncation)
        if self.truncation is None:
            raise ValueError("log of an untruncated series does not terminate")
        d, a, zero = self._lattice()
        return _from_lattice(d, _log_coeffs(a, zero, zero + 1), self.truncation)

    def inv(self) -> "PuiseuxSeries":
        """Multiplicative inverse of a series with invertible constant term
        and valuation zero."""
        c0 = self.coefficient(0)
        if c0.is_zero() or self.valuation() != 0:
            raise ValueError("inverse needs lowest exponent 0 with an invertible constant")
        if len(self.terms) == 1:
            return _series({Fraction(0): c0.inverse()}, self.truncation)
        if self.truncation is None:
            raise ValueError("inverse of an untruncated series does not terminate")
        d, a, zero = self._lattice()
        return _from_lattice(d, _inv_coeffs(a, zero, 1 / a[0]), self.truncation)

    def _lattice(self) -> tuple[int, list, Fraction | Cyclotomic]:
        """(d, a, zero) with a[k] the coefficient of q^(k/d) for
        k = 0 .. floor(truncation * d), d the exponent denominator. The
        entries are Fractions when every coefficient is rational and
        Cyclotomics otherwise; zero is the zero of that type. Exponents
        must be nonnegative."""
        d = self.denominator
        rational = all(c.order == 1 for c in self.terms.values())
        zero = Fraction(0) if rational else Cyclotomic.zero()
        a = [zero] * (floor(self.truncation * d) + 1)
        for e, c in self.terms.items():
            a[int(e * d)] = c.as_fraction() if rational else c
        return d, a, zero

    # -- comparison --------------------------------------------------

    def agrees_with(self, other: "PuiseuxSeries", up_to: Exponent | None = None) -> bool:
        """Equality of the parts both series actually know (and at most
        up_to, when given)."""
        bound = _min_trunc(self.truncation, other.truncation)
        if up_to is not None:
            bound = _min_trunc(bound, Fraction(up_to))
        return self.truncated(bound).terms == other.truncated(bound).terms

    def __eq__(self, other) -> bool:
        other = _coerce_series(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms and self.truncation == other.truncation

    __hash__ = None

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __repr__(self) -> str:
        body = " + ".join(f"({c})q^{e}" for e, c in sorted(self.terms.items())) or "0"
        tail = "" if self.truncation is None else f" + O(q^>{self.truncation})"
        return body + tail


def _coerce_series(value) -> PuiseuxSeries:
    if isinstance(value, PuiseuxSeries):
        return value
    if isinstance(value, (int, Fraction, Cyclotomic)):
        return PuiseuxSeries({0: value})
    return NotImplemented


def _series(terms: dict[Fraction, Cyclotomic], trunc: Fraction | None) -> PuiseuxSeries:
    """A series from Fraction exponents and Cyclotomic coefficients that
    need no normalisation: only zeros and terms above trunc are dropped."""
    if trunc is None:
        tidy = {e: c for e, c in terms.items() if c.terms}
    else:
        tidy = {e: c for e, c in terms.items() if c.terms and e <= trunc}
    obj = object.__new__(PuiseuxSeries)
    object.__setattr__(obj, "terms", tidy)
    object.__setattr__(obj, "truncation", trunc)
    return obj


def _dot(pairs: list, b: list, k: int, zero):
    """Sum of c * b[k - i] over the (i, c) in pairs (ascending in i) with
    i <= k."""
    acc = zero
    for i, c in pairs:
        if i > k:
            break
        acc = acc + c * b[k - i]
    return acc


# The recurrences take coefficients a_0, a_1, ... over a ring with the given
# zero. A zero series coefficient with a truncation is unknown above it, not
# zero, so `ai != zero` keeps it.


def _exp_coeffs(a: list, zero, one) -> list:
    """exp, for a_0 zero: b_0 = one + a_0, k b_k = sum_{i=1..k} i a_i b_{k-i}."""
    weighted = [(i, i * ai) for i, ai in enumerate(a) if i and ai != zero]
    b = [one + a[0]] + [zero] * (len(a) - 1)
    for k in range(1, len(a)):
        b[k] = _dot(weighted, b, k, zero) * Fraction(1, k)
    return b


def _log_coeffs(a: list, zero, one) -> list:
    """log, for a_0 one: g_0 = a_0 - one and, with 1/a_0 = one - g_0,
    k g_k = (k a_k - sum_{i=1..k-1} i g_i a_{k-i}) / a_0."""
    g0 = a[0] - one
    unit = one - g0
    higher = [(i, ai) for i, ai in enumerate(a) if i and ai != zero]
    g = [g0] + [zero] * (len(a) - 1)
    weighted = [zero] * len(a)  # weighted[i] = i g_i
    for k in range(1, len(a)):
        weighted[k] = (k * a[k] - _dot(higher, weighted, k, zero)) * unit
        g[k] = weighted[k] * Fraction(1, k)
    return g


def _inv_coeffs(a: list, zero, b0) -> list:
    """inverse, given b0 = 1/a_0: b_k = -b_0 sum_{i=1..k} a_i b_{k-i}."""
    higher = [(i, ai) for i, ai in enumerate(a) if i and ai != zero]
    b = [b0] + [zero] * (len(a) - 1)
    scale = -b0
    for k in range(1, len(a)):
        b[k] = scale * _dot(higher, b, k, zero)
    return b


def _from_lattice(d: int, values: list, trunc: Fraction) -> PuiseuxSeries:
    return _series({Fraction(k, d): _as_coeff(c) for k, c in enumerate(values) if c}, trunc)


def _dense_rational_product(a: PuiseuxSeries, b: PuiseuxSeries, trunc):
    """The product a * b known to trunc, through the integer convolution
    kernel; None when the operands are not rational series with integral
    exponents, or are too sparse for the dense path."""
    if len(a.terms) * len(b.terms) < _DENSE_MIN_TERMS:
        return None
    for s in (a, b):
        for e, c in s.terms.items():
            if e.denominator != 1 or c.order != 1:
                return None
    va, vb = int(min(a.terms)), int(min(b.terms))
    base = va + vb
    size = None if trunc is None else floor(trunc) - base + 1
    if size is not None and size <= 0:
        return _series({}, trunc)
    den, dense = 1, []
    for s, v in ((a, va), (b, vb)):
        # a term at offset size or more from its valuation lands above trunc
        terms = [(int(e) - v, c.as_fraction()) for e, c in s.terms.items()]
        if size is not None:
            terms = [t for t in terms if t[0] < size]
        slots = max(i for i, _ in terms) + 1
        if slots >= _DENSE_SLOTS_PER_TERM * len(terms):
            return None
        d = lcm(*(f.denominator for _, f in terms))
        nums = [0] * slots
        for i, f in terms:
            nums[i] = f.numerator * (d // f.denominator)
        dense.append(nums)
        den *= d
    return _series({Fraction(base + i): Cyclotomic.from_rational(Fraction(n, den))
                    for i, n in enumerate(convolve(*dense, size)) if n}, trunc)


def hecke_substitute(s: PuiseuxSeries, n: int, k: int, m: int) -> PuiseuxSeries:
    """Send each term c*q^e to c*rho*q^(e*n/k), where rho is the root of
    unity with argument 2*pi*m*e/k. This is the coefficient substitution
    behind the degree-n Hecke operators; it is a ring homomorphism on
    series, and composing (n1,k1,0) with (n2,k2,0) gives (n1*n2,k1*k2,0).
    """
    if n < 1 or k < 1:
        raise ValueError("n and k must be positive")
    if not 0 <= m < k:
        raise ValueError("m must lie in [0, k)")
    ratio = Fraction(n, k)
    out: dict[Fraction, Cyclotomic] = {}
    for e, c in s.terms.items():
        arg = Fraction(m * e.numerator, k * e.denominator)
        rho = root_of_unity(arg.denominator, arg.numerator)
        out[e * ratio] = c * rho
    trunc = None if s.truncation is None else s.truncation * ratio
    return PuiseuxSeries(out, trunc)


def scale_exponents(s: PuiseuxSeries, k: int) -> PuiseuxSeries:
    """Multiply every exponent by k (the cycle-length rescaling)."""
    return hecke_substitute(s, k, 1, 0)


class BivariateSeries:
    """Series in a dummy variable t whose coefficients are q-series.

    t-degrees are integers from 0 up to the t-truncation order.
    """

    __slots__ = ("terms", "t_truncation")

    def __init__(self, terms: Mapping[int, PuiseuxSeries], t_truncation: int):
        tidy: dict[int, PuiseuxSeries] = {}
        for n, s in terms.items():
            n = int(n)
            if n < 0:
                raise ValueError("t-degrees must be nonnegative")
            if n > t_truncation:
                continue
            if not isinstance(s, PuiseuxSeries):
                s = _coerce_series(s)
            if s.terms or s.truncation is not None:
                tidy[n] = s
        object.__setattr__(self, "terms", tidy)
        object.__setattr__(self, "t_truncation", int(t_truncation))

    def __setattr__(self, name, value):
        raise AttributeError("BivariateSeries values are immutable")

    @staticmethod
    def zero(t_truncation: int) -> "BivariateSeries":
        return BivariateSeries({}, t_truncation)

    @staticmethod
    def one(t_truncation: int) -> "BivariateSeries":
        return BivariateSeries({0: PuiseuxSeries.one()}, t_truncation)

    def coefficient(self, n: int) -> PuiseuxSeries:
        return self.terms.get(n, PuiseuxSeries.zero())

    def t_valuation(self) -> int | None:
        live = [n for n, s in self.terms.items() if s.terms]
        return min(live) if live else None

    def __add__(self, other) -> "BivariateSeries":
        other = _coerce_bivariate(other)
        if other is NotImplemented:
            return NotImplemented
        trunc = min(self.t_truncation, other.t_truncation)
        out = dict(self.terms)
        for n, s in other.terms.items():
            cur = out.get(n)
            out[n] = s if cur is None else cur + s
        return BivariateSeries(out, trunc)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self) -> "BivariateSeries":
        return BivariateSeries({n: -s for n, s in self.terms.items()}, self.t_truncation)

    def __sub__(self, other):
        other = _coerce_bivariate(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other) -> "BivariateSeries":
        if isinstance(other, (int, Fraction, Cyclotomic, PuiseuxSeries)):
            return BivariateSeries({n: s * other for n, s in self.terms.items()}, self.t_truncation)
        if not isinstance(other, BivariateSeries):
            return NotImplemented
        trunc = _truncation_of_product(self.t_truncation, self.t_valuation(),
                                       other.t_truncation, other.t_valuation())
        out: dict[int, PuiseuxSeries] = {}
        for na, sa in self.terms.items():
            for nb, sb in other.terms.items():
                n = na + nb
                if n > trunc:
                    continue
                prod = sa * sb
                cur = out.get(n)
                out[n] = prod if cur is None else cur + prod
        return BivariateSeries(out, trunc)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, n: int) -> "BivariateSeries":
        if n < 0:
            return self.inv() ** (-n)
        out = BivariateSeries.one(self.t_truncation)
        for _ in range(n):
            out = out * self
        return out

    def exp(self) -> "BivariateSeries":
        """t-adic exponential; the t^0 coefficient must vanish."""
        if self.coefficient(0).terms:
            raise ValueError("exp needs zero constant term in t")
        return self._recur(_exp_coeffs, PuiseuxSeries.one())

    def log(self) -> "BivariateSeries":
        """t-adic logarithm; the t^0 coefficient must equal 1."""
        if self.coefficient(0).terms != {Fraction(0): Cyclotomic.one()}:
            raise ValueError("log needs constant term 1 in t")
        return self._recur(_log_coeffs, PuiseuxSeries.one())

    def inv(self) -> "BivariateSeries":
        """t-adic inverse; the t^0 coefficient must be an invertible series."""
        return self._recur(_inv_coeffs, self.coefficient(0).inv())  # raises if not a unit

    def _recur(self, recurrence, arg) -> "BivariateSeries":
        a = [self.coefficient(n) for n in range(self.t_truncation + 1)]
        return BivariateSeries(dict(enumerate(recurrence(a, PuiseuxSeries.zero(), arg))),
                               self.t_truncation)

    def agrees_with(self, other: "BivariateSeries", t_order: int | None = None,
                    q_order: Exponent | None = None) -> bool:
        bound = min(self.t_truncation, other.t_truncation)
        if t_order is not None:
            bound = min(bound, t_order)
        for n in range(bound + 1):
            if not self.coefficient(n).agrees_with(other.coefficient(n), up_to=q_order):
                return False
        return True

    def __eq__(self, other) -> bool:
        other = _coerce_bivariate(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms and self.t_truncation == other.t_truncation

    __hash__ = None

    def __repr__(self) -> str:
        body = " + ".join(f"({s!r})t^{n}" for n, s in sorted(self.terms.items())) or "0"
        return body + f" + O(t^>{self.t_truncation})"


def _coerce_bivariate(value):
    if isinstance(value, BivariateSeries):
        return value
    return NotImplemented
