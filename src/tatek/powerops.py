"""Power operations on commuting-pair class functions.

The topological operation multiplies values over the cycles of a
permutation with exponents stretched by the cycle lengths. The stringy
operation refines it through the orbit traversal: the value at a
commuting wreath pair is the product, over the orbit data, of the value
at (holonomy, multiplier) pushed through the exponent/root-of-unity
substitution. Averaging over transitive pair classes gives the Hecke
operators; averaging over all commuting pairs gives the symmetric powers,
which are also reachable through exp of the Hecke generating series. Both
averages over S_n run over its cycle types, read as the conjugacy classes
of 1 wr S_n, with each class weighted by its size. The
two symmetric-power routes share nothing past the substitution primitive,
so their agreement (checked in the test suite) is a real identity, not a
tautology.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .devoto import DevotoElement, restrict_along
from .groups import DEFAULT_SIZE_CAP, FiniteGroup, trivial_group
from .series import BivariateSeries, PuiseuxSeries, hecke_substitute, scale_exponents
from .wreath import (MINIMAL_CONVENTION, OrbitConvention, WreathElement, WreathGroup,
                     cycle_product, cycles_of, iota_hom, orbit_data, wreath)


class TransitiveClass(NamedTuple):
    """A commuting pair of S_n generating a transitive subgroup, up to
    simultaneous conjugation: N cycles of length k with wrap offset m."""
    orbit_size: int    # N
    cycle_length: int  # k
    shift: int         # m in [0, k)


def transitive_classes(n: int) -> list[TransitiveClass]:
    """All transitive classes for degree n (complete and duplicate-free;
    there are sigma(n) of them)."""
    if n < 1:
        raise ValueError("degree must be positive")
    out = []
    for k in range(1, n + 1):
        if n % k == 0:
            out.extend(TransitiveClass(n // k, k, m) for m in range(k))
    return out


def p_top_eval(G: FiniteGroup, x, w: WreathElement) -> PuiseuxSeries:
    """Value of the topological power operation on the wreath element w.

    x is a class function on G valued in series: either a mapping from
    group elements to PuiseuxSeries or a single series (a constant class
    function). The value is the product over the cycles of w's
    permutation of x at the cycle product, exponents times cycle length.
    """
    base, perm = w.base, w.perm
    if len(base) != len(perm) or any(g not in G for g in base):
        raise ValueError("malformed wreath element")
    out = PuiseuxSeries.one()
    for cycle in cycles_of(perm):
        prod = cycle_product(G, base, cycle)
        if isinstance(x, PuiseuxSeries):
            value = x
        else:
            # a mapping may be given on class representatives only
            value = x.get(prod)
            if value is None:
                value = x.get(G.class_rep(prod))
            if value is None:
                raise ValueError(f"class function has no value at {prod!r}")
        out = out * scale_exponents(value, len(cycle))
    return out


def s_top_total(x: PuiseuxSeries, t_order: int) -> BivariateSeries:
    """Total topological symmetric power: sum over n of t^n times the
    average of the power-operation values over the symmetric group."""
    _check_degree(t_order)
    v = x.valuation()
    if not x.is_integral() or (v is not None and v < 0):
        raise ValueError("input must have integral exponents bounded below by 0")
    T = trivial_group()
    coeffs = {0: PuiseuxSeries.one(x.truncation)}
    for n in range(1, t_order + 1):
        # S_n is 1 wr S_n; the value depends only on the cycle type
        W = wreath(T, n)
        total = PuiseuxSeries.zero()
        for sigma in W.class_representatives():
            total = total + p_top_eval(T, x, sigma) * len(W.conjugacy_class(sigma))
        coeffs[n] = total * Fraction(1, len(W))
    return BivariateSeries(coeffs, t_order)


# -- the stringy operation ----------------------------------------------


def _substituted_value(x: DevotoElement, cache: dict, datum) -> PuiseuxSeries:
    k, N, M = datum.cycle_length, datum.orbit_size, datum.shift
    rep = x.group.pair_class_rep(datum.holonomy, datum.multiplier)
    key = (rep, N, k, M)
    got = cache.get(key)
    if got is None:
        got = cache[key] = hecke_substitute(x.table[rep], N, k, M)
    return got


def p_str(x: DevotoElement, n: int, wreath_group: WreathGroup | None = None,
          convention: OrbitConvention = MINIMAL_CONVENTION) -> DevotoElement:
    """The stringy power operation, landing over the wreath product.

    The value at a commuting pair of wreath elements is the product over
    the orbit data of the substituted values of x; x must have level 1
    (and is expected to satisfy the rotation condition, which the output
    then inherits).
    """
    if x.level != 1:
        raise ValueError("power operations take level-1 input")
    G = x.group
    W = wreath_group if wreath_group is not None else wreath(G, n)
    if not (isinstance(W, WreathGroup) and W.base_group is G and W.copies == n):
        raise ValueError("provided wreath group does not match")
    cache: dict = {}
    table = {}
    for (w, c) in W.commuting_pair_classes():
        value = PuiseuxSeries.one()
        for datum in orbit_data(G, w.base, w.perm, c.base, c.perm,
                                convention=convention, check=False):
            value = value * _substituted_value(x, cache, datum)
        table[(w, c)] = value
    return DevotoElement(W, table, level=1)


def hecke_T(x: DevotoElement, n: int) -> DevotoElement:
    """Degree-n Hecke operator: the average over transitive classes of
    the substituted values at (g^k, g^-m h^N)."""
    if x.level != 1:
        raise ValueError("Hecke operators take level-1 input")
    G = x.group
    classes = transitive_classes(n)
    table = {}
    for (g, h) in x.group.commuting_pair_classes():
        total = PuiseuxSeries.zero()
        for N, k, m in classes:
            pair = (G.power(g, k), G.mul(G.power(G.inv(g), m), G.power(h, N)))
            total = total + hecke_substitute(x.eval(*pair), N, k, m)
        table[(g, h)] = total * Fraction(1, n)
    return DevotoElement(G, table, level=1)


def hecke_scalar(s: PuiseuxSeries, n: int) -> PuiseuxSeries:
    """Hecke operator on a bare q-series (the trivial-group case): 1/n
    times the sum of the substituted series over the transitive classes
    (N, k, m) of degree n.

    When every exponent is integral and every coefficient rational, the
    sum over m collapses, since sum_{m<k} zeta_k^(m e) is k when k | e and
    0 otherwise. This gives the classical coefficient formula (Serre, A
    Course in Arithmetic, VII.5)

        T_n s = (1/n) sum_{N k = n} k sum_{k | e} c_e q^(e N / k),

    which is computed on Fractions with no root of unity. The result is
    known to the least trunc * N / k, as the substitution sum records it.
    A fractional exponent or a cyclotomic coefficient takes the
    substitution sum itself, which may store a cyclotomic result at a
    larger order than its value needs.
    """
    if s.is_integral() and all(c.order == 1 for c in s.terms.values()):
        return _hecke_integral(s, n)
    total = PuiseuxSeries.zero()
    for N, k, m in transitive_classes(n):
        total = total + hecke_substitute(s, N, k, m)
    return total * Fraction(1, n)


def _hecke_integral(s: PuiseuxSeries, n: int) -> PuiseuxSeries:
    """`hecke_scalar` by the closed form, for integral exponents and
    rational coefficients."""
    if n < 1:
        raise ValueError("degree must be positive")
    classes = [(n // k, k) for k in range(1, n + 1) if n % k == 0]
    trunc = None if s.truncation is None else min(s.truncation * N / k for N, k in classes)
    terms = [(int(e), c.as_fraction()) for e, c in s.terms.items()]
    out: dict[int, Fraction] = {}
    for N, k in classes:
        for e, c in terms:
            if e % k == 0:
                x = e // k * N
                if trunc is None or x <= trunc:
                    out[x] = out.get(x, 0) + k * c
    return PuiseuxSeries({x: c / n for x, c in out.items()}, trunc)


def sym_str(x: DevotoElement, n: int, method: str = "exp",
            size_cap: int = DEFAULT_SIZE_CAP) -> DevotoElement:
    """n-th stringy symmetric power.

    brute: average over all commuting pairs of S_n of the product of
    substituted values over the orbits of the pair (through the diagonal
    orbit traversal). The pairs are enumerated one cycle type at a time:
    a class representative sigma of S_n = 1 wr S_n with every tau in its
    centralizer, weighted by the size of sigma's class; size_cap bounds
    that wreath product. exp: coefficient of t^n in exp of the Hecke
    generating series. The two agree exactly; they share no code path
    past the substitution primitive.
    """
    _check_degree(n)
    if method == "brute":
        return _sym_brute(x, n, size_cap)
    if method == "exp":
        return _sym_exp_total(x, n)[n]
    raise ValueError(f"unknown method {method!r}")


def _check_degree(n: int):
    if n < 0:
        raise ValueError(f"degree must be non-negative, got {n}")


def _sym_brute(x: DevotoElement, n: int, size_cap: int = DEFAULT_SIZE_CAP) -> DevotoElement:
    if x.level != 1:
        raise ValueError("symmetric powers take level-1 input")
    G = x.group
    if n == 0:
        return DevotoElement.constant(G, PuiseuxSeries.one(x.truncation()))
    T = trivial_group()
    W = wreath(T, n, size_cap)
    # orbit parameter profiles (multiset of (k, N, m)) with multiplicities;
    # a pair (sigma, tau) of S_n = 1 wr S_n stands for sigma's whole class
    profiles: dict[tuple, int] = {}
    for sigma in W.class_representatives():
        weight = len(W.conjugacy_class(sigma))
        for tau in W.centralizer(sigma):
            data = orbit_data(T, *sigma, *tau, check=False)
            key = tuple(sorted((d.cycle_length, d.orbit_size, d.shift) for d in data))
            profiles[key] = profiles.get(key, 0) + weight
    table = {}
    for (g, h) in G.commuting_pair_classes():
        cache: dict = {}

        def substituted(k, N, m):
            got = cache.get((k, N, m))
            if got is None:
                pair = (G.power(g, k), G.mul(G.power(G.inv(g), m), G.power(h, N)))
                got = cache[(k, N, m)] = hecke_substitute(x.eval(*pair), N, k, m)
            return got

        total = PuiseuxSeries.zero()
        for profile, count in profiles.items():
            value = PuiseuxSeries.one()
            for (k, N, m) in profile:
                value = value * substituted(k, N, m)
            total = total + value * count
        table[(g, h)] = total * Fraction(1, len(W))
    return DevotoElement(G, table, level=1)


def _sym_exp_total(x: DevotoElement, t_order: int) -> list[DevotoElement]:
    """All symmetric powers up to t_order via exp of the Hecke series."""
    G = x.group
    hecke = [hecke_T(x, m) for m in range(1, t_order + 1)]
    out_tables: list[dict] = [dict() for _ in range(t_order + 1)]
    for pair in G.commuting_pair_classes():
        gen = BivariateSeries({m: hecke[m - 1].table[pair] for m in range(1, t_order + 1)},
                              t_order)
        total = gen.exp()
        for d in range(t_order + 1):
            out_tables[d][pair] = total.coefficient(d)
    return [DevotoElement(G, table, level=1) for table in out_tables]


def sym_total(x: DevotoElement, t_order: int, method: str = "exp") -> list[DevotoElement]:
    """Symmetric powers 0..t_order as a list (the total symmetric power,
    one Devoto element per t-degree)."""
    _check_degree(t_order)
    if method == "exp":
        return _sym_exp_total(x, t_order)
    if method == "brute":
        return [_sym_brute(x, d) for d in range(t_order + 1)]
    raise ValueError(f"unknown method {method!r}")


def lambda_str_total(x: DevotoElement, t_order: int, method: str = "exp") -> list[DevotoElement]:
    """Total stringy exterior power: the t-adic inverse of the total
    symmetric power, pointwise per pair class."""
    sym = sym_total(x, t_order, method=method)
    G = x.group
    tables: list[dict] = [dict() for _ in range(t_order + 1)]
    for pair in G.commuting_pair_classes():
        series = BivariateSeries({d: sym[d].table[pair] for d in range(t_order + 1)}, t_order)
        inverse = series.inv()
        for d in range(t_order + 1):
            tables[d][pair] = inverse.coefficient(d)
    return [DevotoElement(G, table, level=1) for table in tables]


# -- axiom verification ---------------------------------------------------


class VerificationReport(NamedTuple):
    ok: bool
    checked: int
    failures: tuple[str, ...]

    def __str__(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        body = f"{status} ({self.checked} comparisons)"
        if self.failures:
            body += "\n" + "\n".join("  " + f for f in self.failures)
        return body


def compare_class_functions(a: DevotoElement, b: DevotoElement, label: str = "",
                            up_to=None, min_known=None) -> VerificationReport:
    """Entrywise comparison of two elements over the same group, to the
    common knowledge bound. With min_known set, an entry whose recorded
    truncation falls below that bound counts as a failure (the comparison
    would otherwise silently weaken)."""
    if a.group is not b.group:
        raise ValueError("elements live over different groups")
    failures = []
    checked = 0
    for pair, s in a.table.items():
        checked += 1
        other = b.table[pair]
        if min_known is not None:
            for side, name in ((s, "left"), (other, "right")):
                if side.truncation is not None and side.truncation < min_known:
                    failures.append(f"{label} {name} side only known to "
                                    f"{side.truncation} < {min_known} at {pair!r}")
        if not s.agrees_with(other, up_to=up_to):
            failures.append(f"{label} mismatch at pair class {pair!r}: "
                            f"{s!r} vs {other!r}")
    return VerificationReport(not failures, checked, tuple(failures))


def verify_iterated(x: DevotoElement, n: int, m: int,
                    size_cap: int = DEFAULT_SIZE_CAP) -> VerificationReport:
    """Iterated powers: restricting the degree-(n*m) operation along the
    flattening embedding must equal applying degree m then degree n."""
    if n * m == 1:
        return VerificationReport(True, 0, ())
    G = x.group
    inner = wreath(G, m, size_cap)
    nested = wreath(inner, n, size_cap)
    flat = wreath(G, n * m, size_cap)
    lhs = restrict_along(p_str(x, n * m, wreath_group=flat), iota_hom(nested, flat))
    rhs = p_str(p_str(x, m, wreath_group=inner), n, wreath_group=nested)
    return compare_class_functions(lhs, rhs, label=f"iterated ({n},{m})")
