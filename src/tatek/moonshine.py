"""The scalar q-series layer: the j-function oracle, Faber polynomials,
replicability, and the Borcherds/DMVV product identities.

The j-coefficients are never hardcoded: `jseries` expands E4^3 over the
discriminant, and everything downstream (Faber polynomials, Hecke
comparisons, the denominator formula) consumes that expansion.

Each identity check puts two independently computed sides against each
other:
- `jseries` builds Delta/q as the exp of -24 sum sigma_1(n) q^n / n and
  inverts it by the series recurrences; `jseries_consistency` builds
  Delta = q prod (1 - q^n)^24 on an integer array, one binomial factor at
  a time, and checks Delta * j = E4^3.
- `dmvv_check` takes the t-adic exp of the Hecke generating series; the
  Borcherds product multiplies the binomials (1 - q^i t^j)^(-c(ij)) into
  an integer grid in place.
The product sides use no series exp, log or inverse and no Hecke code,
and `hecke_scalar`'s closed form shares nothing with them, so each
agreement is a genuine identity check.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, NamedTuple

from .cyclotomic import Cyclotomic
from .powerops import hecke_scalar
from .series import BivariateSeries, PuiseuxSeries


class InsufficientTruncation(ValueError):
    """The input series is not known to the order the check requires."""

    def __init__(self, message: str, required):
        super().__init__(message)
        self.required = required


class ComparisonReport(NamedTuple):
    ok: bool
    witness: str | None

    def __str__(self) -> str:
        return "PASS" if self.ok else f"FAIL: {self.witness}"


class McKayThompson:
    """A q-series of shape q^-1 + a0 + a1 q + ...: integral exponents,
    leading exponent -1 with coefficient 1."""

    __slots__ = ("series",)

    def __init__(self, series: PuiseuxSeries):
        if not series.is_integral():
            raise ValueError("exponents must be integral")
        if series.valuation() != -1 or series.coefficient(-1) != Cyclotomic.one():
            raise ValueError("leading term must be q^-1 with coefficient 1")
        object.__setattr__(self, "series", series)

    def __setattr__(self, name, value):
        raise AttributeError("McKayThompson values are immutable")

    def coefficient(self, n: int) -> Fraction:
        return self.series.coefficient(n).as_fraction()

    def truncation(self) -> Fraction:
        return self.series.truncation

    def __repr__(self) -> str:
        return f"McKayThompson({self.series!r})"


def _sigma(power: int, n: int) -> int:
    return sum(d ** power for d in range(1, n + 1) if n % d == 0)


def jseries(order: int) -> McKayThompson:
    """q-expansion of j - 744 to the given order, from E4^3 over the
    discriminant (all coefficients come out of this expansion; nothing is
    looked up).

    Delta/q = prod (1 - q^n)^24 is computed as the exp of its logarithm,
    -24 sum_n sigma_1(n) q^n / n, and inverted by the series recurrence.
    """
    if order < 1:
        raise ValueError("order must be positive")
    T = order + 1
    e4 = PuiseuxSeries({0: 1, **{n: 240 * _sigma(3, n) for n in range(1, T + 1)}}, T)
    delta_over_q = PuiseuxSeries(
        {n: Fraction(-24 * _sigma(1, n), n) for n in range(1, T + 1)}, T).exp()
    j = e4 * e4 * e4 * delta_over_q.inv() * PuiseuxSeries.monomial(1, -1) - 744
    j = j.truncated(order)
    for e, c in j.terms.items():
        if not (c.is_rational() and c.as_fraction().denominator == 1):
            raise AssertionError(f"non-integral j coefficient at q^{e}")
    return McKayThompson(j)


def jseries_consistency(order: int) -> ComparisonReport:
    """Independent cross-check of the expansion: Delta times j equals
    E4^3 exactly to the truncation. Delta here is the product
    q prod (1 - q^n)^24 by 24-fold repeated multiplication, not the exp of
    the sigma_1 series that `jseries` uses."""
    T = order + 1
    e4 = PuiseuxSeries({0: 1, **{n: 240 * _sigma(3, n) for n in range(1, T + 1)}}, T)
    lhs = _delta(T) * (jseries(order).series + 744)
    rhs = e4 * e4 * e4
    if lhs.agrees_with(rhs):
        return ComparisonReport(True, None)
    return ComparisonReport(False, "Delta * j differs from E4^3")


def _times_binomial(a: list[list[int]], i: int, j: int, e: int) -> None:
    """Multiply the grid a[n][b], the coefficient of t^n q^b, in place by
    (1 - q^i t^j)^e, for (i, j) != (0, 0); what falls outside the grid is
    dropped. Each factor (1 - q^i t^j) is a pass a[n][b] -= a[n-j][b-i] in
    descending (n, b), so every read is still old; each inverse factor, a
    geometric series, is a pass += in ascending (n, b), so every read is
    already new."""
    rows = range(j, len(a))
    for _ in range(abs(e)):
        if e > 0:
            for n in reversed(rows):
                row, src = a[n], a[n - j]
                for b in range(len(row) - 1, i - 1, -1):
                    row[b] -= src[b - i]
        else:
            for n in rows:
                row, src = a[n], a[n - j]
                for b in range(i, len(row)):
                    row[b] += src[b - i]


def _delta(T: int) -> PuiseuxSeries:
    """Delta = q prod_{n=1..T} (1 - q^n)^24, known to q^(T+1)."""
    grid = [[1] + [0] * T]
    for n in range(1, T + 1):
        _times_binomial(grid, n, 0, 24)
    return PuiseuxSeries({b + 1: c for b, c in enumerate(grid[0])}, T + 1)


# -- Faber polynomials ----------------------------------------------------


def faber(F: McKayThompson, n: int) -> list[int]:
    """Coefficients (ascending) of the degree-n Faber polynomial of F:
    the unique monic polynomial with Phi_n(F(q)) = q^-n + O(q).

    Computed as -n times the t^n coefficient of log(t(F(t) - w)); the
    inner series variable plays the role of w.
    """
    if n < 1:
        raise ValueError("n must be positive")
    trunc = F.series.truncation
    if trunc is not None and trunc < n - 1:
        raise InsufficientTruncation(
            f"Faber polynomial of degree {n} needs coefficients through q^{n - 1}", n - 1)
    # t*F(t) - t*w, with w the inner variable
    coeffs: dict[int, PuiseuxSeries] = {}
    for e, c in F.series.terms.items():
        d = int(e) + 1
        if d <= n:
            coeffs[d] = coeffs.get(d, PuiseuxSeries.zero()) + PuiseuxSeries({0: c})
    coeffs[1] = coeffs.get(1, PuiseuxSeries.zero()) + PuiseuxSeries.monomial(-1, 1)
    poly = BivariateSeries(coeffs, n).log()
    top = poly.coefficient(n) * Fraction(-n)
    out = []
    for d in range(n + 1):
        c = top.coefficient(d)
        if not (c.is_rational() and c.as_fraction().denominator == 1):
            raise ValueError(f"non-integral Faber coefficient {c} at w^{d}")
        out.append(int(c.as_fraction()))
    return out


def evaluate_poly(coeffs: list[int], s: PuiseuxSeries) -> PuiseuxSeries:
    """Evaluate a polynomial (ascending coefficients) at a series, by
    Horner's rule."""
    acc = PuiseuxSeries.zero(s.truncation)
    for c in reversed(coeffs):
        acc = acc * s + PuiseuxSeries({0: c})
    return acc


def adams(x, a: int, group=None):
    """Adams operator on series with class-function coefficients: scalar
    series are fixed; a mapping h -> series moves its argument to h^a."""
    if a < 1:
        raise ValueError("a must be positive")
    if isinstance(x, PuiseuxSeries):
        return x
    if isinstance(x, Mapping):
        if group is None:
            raise ValueError("a group is needed to raise elements to powers")
        return {h: x[group.power(h, a)] for h in x}
    raise TypeError(f"unsupported input {type(x).__name__}")


# -- replicability ---------------------------------------------------------


class ReplicabilityReport(NamedTuple):
    ok: bool
    lines: tuple[tuple[int, bool, str], ...]  # (n, passed, detail)

    def __str__(self) -> str:
        body = [f"n={n}: {'PASS' if ok else 'FAIL ' + detail}" for n, ok, detail in self.lines]
        return "\n".join(body)


def _required_replicability_order(n_max: int, order: int) -> int:
    return max(n_max * order, order + n_max - 1, n_max - 1)


def replicability_check(F: McKayThompson, n_max: int, order: int) -> ReplicabilityReport:
    """Compare Phi_n(F(q)) against n * T_n(F) for n <= n_max, exactly
    through q^order."""
    required = _required_replicability_order(n_max, order)
    trunc = F.series.truncation
    if trunc is not None and trunc < required:
        raise InsufficientTruncation(
            f"replicability to n={n_max} at order {order} needs F through "
            f"q^{required}, got q^{trunc}", required)
    lines = []
    for n in range(1, n_max + 1):
        lhs = evaluate_poly(faber(F, n), F.series)
        rhs = hecke_scalar(F.series, n) * n
        bound = Fraction(order)
        if not lhs.agrees_with(rhs, up_to=bound):
            diff = (lhs.truncated(bound) - rhs.truncated(bound)).terms
            e = min(diff)
            lines.append((n, False,
                          f"first differing coefficient at q^{e}: "
                          f"{lhs.coefficient(e)} vs {rhs.coefficient(e)}"))
        else:
            lines.append((n, True, ""))
    return ReplicabilityReport(all(ok for _, ok, _ in lines), tuple(lines))


def faber_normal_form_check(F: McKayThompson, n_max: int) -> ComparisonReport:
    """Phi_n(F(q)) must be q^-n plus O(q): unit leading coefficient and
    nothing in degrees -n+1 .. 0."""
    trunc = F.series.truncation
    if trunc is not None and trunc < n_max:
        raise InsufficientTruncation("normal-form check needs more coefficients", n_max)
    for n in range(1, n_max + 1):
        v = evaluate_poly(faber(F, n), F.series)
        if v.coefficient(-n) != Cyclotomic.one():
            return ComparisonReport(False, f"n={n}: leading coefficient is not 1")
        for e in range(-n + 1, 1):
            if not v.coefficient(e).is_zero():
                return ComparisonReport(False, f"n={n}: nonzero coefficient at q^{e}")
    return ComparisonReport(True, None)


# -- Borcherds / DMVV -------------------------------------------------------


def borcherds_product(c: Mapping[int, int], t_order: int, q_order: int) -> BivariateSeries:
    """The double product over i >= 0, j >= 1 of (1 - q^i t^j) to the
    power -c(i*j), for integer c. Every t-degree 0..t_order is present and
    known exactly to q^q_order: factors with i > q_order or j > t_order
    change nothing below those orders."""
    grid = [[0] * (q_order + 1) for _ in range(t_order + 1)]
    grid[0][0] = 1
    for j in range(1, t_order + 1):
        for i in range(0, q_order + 1):
            e = c.get(i * j, 0)
            if e:
                _times_binomial(grid, i, j, -e)
    return BivariateSeries({n: PuiseuxSeries(dict(enumerate(row)), q_order)
                            for n, row in enumerate(grid)}, t_order)


def _first_bivariate_witness(a: BivariateSeries, b: BivariateSeries, t_order: int,
                             q_order, t_label_shift: int = 0) -> str | None:
    for d in range(min(t_order, a.t_truncation, b.t_truncation) + 1):
        x, y = a.coefficient(d), b.coefficient(d)
        if not x.agrees_with(y, up_to=q_order):
            bound = Fraction(q_order)
            diff = (x.truncated(bound) - y.truncated(bound)).terms
            e = min(diff)
            return (f"t^{d + t_label_shift} q^{e}: "
                    f"{x.coefficient(e)} vs {y.coefficient(e)}")
    return None


def dmvv_check(c: Mapping[int, int], t_order: int, q_order: int) -> ComparisonReport:
    """exp of the Hecke generating series of sum c(i) q^i against the
    Borcherds product of c, coefficientwise."""
    if t_order < 1 or q_order < 1:
        raise ValueError("bi-orders must be positive")
    if any(i < 0 for i in c):
        raise ValueError("coefficient indices must be nonnegative")
    needed = t_order * q_order
    phi = PuiseuxSeries({i: ci for i, ci in c.items() if 0 <= i <= needed}, needed)
    exp_side = BivariateSeries(
        {m: hecke_scalar(phi, m) for m in range(1, t_order + 1)}, t_order).exp()
    product_side = borcherds_product(c, t_order, q_order)
    witness = _first_bivariate_witness(exp_side, product_side, t_order, q_order)
    return ComparisonReport(witness is None, witness)


def denominator_check(order: int) -> ComparisonReport:
    """F(t) - F(q) against t^-1 times the total exterior power of F(q),
    for F = j - 744, to bi-order (order, order).

    Both sides are multiplied by t, so t-degree d here reports as d-1.
    """
    if order < 1:
        raise ValueError("order must be positive")
    t_order = order + 1
    required = t_order * order
    F = jseries(required)
    # t*F(t) - t*F(q)
    coeffs: dict[int, PuiseuxSeries] = {}
    for e, cc in F.series.terms.items():
        d = int(e) + 1
        if d <= t_order:
            coeffs[d] = coeffs.get(d, PuiseuxSeries.zero(Fraction(order))) \
                + PuiseuxSeries({0: cc}, Fraction(order))
    coeffs[1] = coeffs.get(1, PuiseuxSeries.zero(Fraction(order))) - F.series
    lhs = BivariateSeries(coeffs, t_order)
    rhs = BivariateSeries(
        {m: -(hecke_scalar(F.series, m)) for m in range(1, t_order + 1)}, t_order).exp()
    witness = _first_bivariate_witness(lhs, rhs, t_order, order, t_label_shift=-1)
    return ComparisonReport(witness is None, witness)
