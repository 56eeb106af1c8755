"""Named verification suites: the package's algebraic laws as runnable
checks, reproducible from a seed.

Each suite returns a list of (name, ok, detail) lines; the CLI prints
them and exits nonzero if anything failed. The heavy, spec-pinned
parameterizations live in the acceptance tests; these suites use smaller
sizes so a full run stays interactive.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable, NamedTuple

from .cyclotomic import Cyclotomic, root_of_unity
from .devoto import (DevotoElement, check_devoto, epsilon, external_product,
                     random_devoto_element, rescale, restrict_along, trivial_part)
from .groups import (cycles_of, cyclic_group, direct_product, identity_hom, perm_mul,
                     symmetric_group, trivial_group)
from .moonshine import (borcherds_product, denominator_check, dmvv_check,
                        faber_normal_form_check, jseries, jseries_consistency,
                        replicability_check)
from .powerops import (compare_class_functions, hecke_T, p_str, s_top_total, sym_str,
                       verify_iterated)
from .series import BivariateSeries, PuiseuxSeries, hecke_substitute
from .serialize import devoto_to_json, dumps
from .wreath import (OrbitConvention, WreathElement, action_tokens, block_sum_hom,
                     centralizer_condition, compose_tokens, iota, orbit_data,
                     orbit_data_for, unzip_hom, wreath)
from .characters import (RepCharacter, eigen_cycle_check, eigen_multiplicity,
                         euler_str, lambda_sym_char, verify_hinfty)


class CheckResult(NamedTuple):
    name: str
    ok: bool
    detail: str = ""


def _seeded_convention(seed) -> OrbitConvention:
    """Base points drawn from their own seeded generator."""
    r = random.Random(seed)
    return OrbitConvention(cycle_start=lambda c: r.randrange(len(c)),
                           orbit_start=lambda cs: r.randrange(len(cs)))


def _random_cyclotomic(rng) -> Cyclotomic:
    order = rng.choice([1, 2, 3, 4, 6, 8, 12])
    return Cyclotomic(order, {rng.randrange(order): Fraction(rng.randint(-4, 4),
                                                             rng.randint(1, 3))
                              for _ in range(rng.randint(0, 3))})


def _random_series(rng, trunc=4) -> PuiseuxSeries:
    terms = {}
    for _ in range(rng.randint(0, 4)):
        den = rng.choice([1, 2, 3])
        num = rng.randint(-2 * den, 3 * den)
        terms[Fraction(num, den)] = _random_cyclotomic(rng)
    return PuiseuxSeries(terms, trunc)


def suite_arith(rng: random.Random) -> list[CheckResult]:
    out = []
    ok = True
    for _ in range(30):
        x, y, z = (_random_cyclotomic(rng) for _ in range(3))
        ok &= x + y == y + x and x * y == y * x
        ok &= (x + y) + z == x + (y + z) and (x * y) * z == x * (y * z)
        ok &= x * (y + z) == x * y + x * z
    out.append(CheckResult("cyclotomic ring laws", ok))

    ok = True
    for _ in range(20):
        a, b, c = (_random_series(rng) for _ in range(3))
        ok &= a + b == b + a and (a * b).agrees_with(b * a)
        ok &= ((a + b) + c) == (a + (b + c))
        ok &= ((a * b) * c).agrees_with(a * (b * c))
        ok &= (a * (b + c)).agrees_with(a * b + a * c)
    out.append(CheckResult("series ring laws", ok))

    ok = True
    for _ in range(15):
        a, b = _random_series(rng), _random_series(rng)
        n, k = rng.randint(1, 3), rng.randint(1, 3)
        m = rng.randrange(k)
        fa, fb = hecke_substitute(a, n, k, m), hecke_substitute(b, n, k, m)
        ok &= hecke_substitute(a + b, n, k, m) == fa + fb
        ok &= hecke_substitute(a * b, n, k, m).agrees_with(fa * fb)
        n2, k2 = rng.randint(1, 3), rng.randint(1, 3)
        ok &= hecke_substitute(hecke_substitute(a, n, k, 0), n2, k2, 0) \
            == hecke_substitute(a, n * n2, k * k2, 0)
    out.append(CheckResult("substitution is a composing ring homomorphism", ok))

    ok = True
    for _ in range(10):
        a = PuiseuxSeries({Fraction(rng.randint(1, 6), rng.choice([1, 2])):
                           Fraction(rng.randint(-3, 3)) for _ in range(3)}, 5)
        b = PuiseuxSeries({Fraction(rng.randint(1, 6), rng.choice([1, 2])):
                           Fraction(rng.randint(-3, 3)) for _ in range(3)}, 5)
        ok &= (a + b).exp().agrees_with(a.exp() * b.exp())
        ok &= a.exp().log().agrees_with(a)
    out.append(CheckResult("exp is exponential and inverts log", ok))
    return out


def suite_wreath(rng: random.Random) -> list[CheckResult]:
    out = []
    Z2 = cyclic_group(2)
    W = wreath(Z2, 3)
    ok = all((W.mul(w, x) == W.mul(x, w)) == centralizer_condition(Z2, w, x)
             for w in W.elements[:48] for x in W.elements)
    out.append(CheckResult("centralizer membership matches the explicit condition", ok))

    G = symmetric_group(3)
    WG = wreath(G, 2)
    ok = True
    for _ in range(40):
        w = rng.choice(WG.elements)
        cent = WG.centralizer(w)
        x1, x2 = rng.choice(cent), rng.choice(cent)
        ok &= action_tokens(G, w, WG.mul(x1, x2)) == compose_tokens(
            G, w, action_tokens(G, w, x1), action_tokens(G, w, x2))
    out.append(CheckResult("loop action tokens compose (acting by a product = acting twice)", ok))

    ok = True
    for trial in range(25):
        w = rng.choice(WG.elements)
        cent = WG.centralizer(w)
        x = rng.choice(cent)
        a = orbit_data_for(G, w, x)
        b = orbit_data_for(G, w, x, convention=_seeded_convention(trial))
        ok &= sorted(d[:3] for d in a) == sorted(d[:3] for d in b)
        for da in a:
            ok &= any(db[:3] == da[:3] and any(
                G.conjugate(t, da.holonomy) == db.holonomy
                and G.conjugate(t, da.multiplier) == db.multiplier
                for t in G.elements) for db in b)
    out.append(CheckResult("orbit data is choice-independent up to conjugacy", ok))

    ok = True
    for m, n in [(2, 2), (3, 2), (2, 3), (3, 3)]:
        Sm = symmetric_group(m)
        Wmn = wreath(Sm, n)
        sample = [rng.choice(Wmn.elements) for _ in range(10)]
        images = {w: iota(w, m) for w in sample}
        for a in sample:
            for b in sample:
                ok &= iota(Wmn.mul(a, b), m) == perm_mul(images[a], images[b])
        # cycle correspondence: n-cycle sigma turns k-cycles of the base
        # product into nk-cycles of the flattening
        sigma = tuple(list(range(1, n)) + [0])
        for _ in range(6):
            taus = tuple(rng.choice(Sm.elements) for _ in range(n))
            prod = Sm.identity
            for t in taus:
                prod = Sm.mul(t, prod)
            flat = iota(WreathElement(taus, sigma), m)
            lens = sorted(len(c) for c in cycles_of(flat))
            ok &= lens == sorted(n * len(c) for c in cycles_of(prod))
    out.append(CheckResult("flattening is a homomorphism with the cycle correspondence", ok))

    Z4 = cyclic_group(4)
    ok = True
    for n in range(1, 5):
        for k in (d for d in range(1, n + 1) if n % d == 0):
            N = n // k
            for m in range(k):
                sigma = [0] * n
                tau = [0] * n
                for j in range(N):
                    for r in range(k):
                        sigma[j * k + r] = j * k + (r + 1) % k
                        tau[j * k + r] = (j + 1) * k + r if j < N - 1 else (r + m) % k
                for g in Z4.elements:
                    for h in Z4.elements:
                        data = orbit_data(Z4, (g,) * n, tuple(sigma), (h,) * n, tuple(tau))
                        expect = (k, N, m, Z4.power(g, k),
                                  Z4.mul(Z4.power(Z4.inv(g), m), Z4.power(h, N)))
                        ok &= len(data) == 1 and tuple(data[0]) == expect
    out.append(CheckResult("diagonal traversal reproduces the Hecke closed form", ok))
    return out


def suite_devoto(rng: random.Random) -> list[CheckResult]:
    out = []
    groups = [cyclic_group(2), cyclic_group(3), symmetric_group(3)]
    ok = True
    for G in groups:
        for _ in range(4):
            x = random_devoto_element(G, rng, truncation=2)
            ok &= check_devoto(x)[0]
            ok &= epsilon(x).is_integral()
            ok &= all(trivial_part(x, g).is_integral() for g in G.class_representatives())
    out.append(CheckResult("valid elements have integral orbifold sums", ok))

    ok = True
    for G in groups[:2]:
        for _ in range(3):
            x = random_devoto_element(G, rng, truncation=2)
            y = random_devoto_element(G, rng, truncation=2)
            ok &= check_devoto(x * y)[0]
            ok &= check_devoto(external_product(x, y))[0]
    out.append(CheckResult("products of valid elements are valid", ok))

    Z2 = cyclic_group(2)
    x = random_devoto_element(Z2, rng, truncation=2)
    y = random_devoto_element(Z2, rng, truncation=2)
    alpha = identity_hom(Z2)
    ok = restrict_along(x * y, alpha).agrees_with(restrict_along(x, alpha)
                                                  * restrict_along(y, alpha))
    ok &= restrict_along(rescale(x, 2), alpha) == rescale(restrict_along(x, alpha), 2)
    out.append(CheckResult("restriction respects products and rescaling", ok))

    one = DevotoElement.constant(trivial_group(), 1)
    ok = epsilon(external_product(x, one)).agrees_with(epsilon(x))
    out.append(CheckResult("tensoring with the unit preserves the orbifold sum", ok))
    return out


def suite_powerops(rng: random.Random) -> list[CheckResult]:
    out = []
    T1, Z2 = trivial_group(), cyclic_group(2)
    ok = True
    for G in (T1, Z2):
        for _ in range(2):
            x = random_devoto_element(G, rng, truncation=2)
            for n in range(4):
                ok &= sym_str(x, n, "brute").agrees_with(sym_str(x, n, "exp"))
    out.append(CheckResult("symmetric powers: brute average equals exp of Hecke series", ok))

    x = random_devoto_element(Z2, rng, truncation=2)
    ok = True
    for (n, m) in [(1, 1), (1, 2)]:
        Wn, Wm, Wnm = wreath(Z2, n), wreath(Z2, m), wreath(Z2, n + m)
        prod = direct_product(Wn, Wm)
        lhs = restrict_along(p_str(x, n + m, Wnm), block_sum_hom(prod, Wn, Wm, Wnm))
        rhs = external_product(p_str(x, n, Wn), p_str(x, m, Wm), product_group=prod)
        ok &= compare_class_functions(lhs, rhs).ok
    out.append(CheckResult("restriction along block juxtaposition splits the operation", ok))

    xt = random_devoto_element(T1, rng, truncation=2)
    out.append(CheckResult("iterated powers flatten correctly (2,2)",
                           verify_iterated(xt, 2, 2).ok and verify_iterated(x, 2, 2).ok))

    y = random_devoto_element(Z2, rng, truncation=2)
    GH = direct_product(Z2, Z2)
    WGH = wreath(GH, 2, size_cap=2000)
    Wn = wreath(Z2, 2)
    prodW = direct_product(Wn, Wn, size_cap=4000)
    lhs = p_str(external_product(x, y, product_group=GH), 2, WGH)
    rhs = restrict_along(external_product(p_str(x, 2, Wn), p_str(y, 2, Wn),
                                          product_group=prodW),
                         unzip_hom(WGH, prodW))
    out.append(CheckResult("the operation of an external product splits",
                           compare_class_functions(lhs, rhs).ok))

    ok = True
    for n in (2, 3):
        W = wreath(Z2, n)
        px = p_str(x, n, W)
        ok &= check_devoto(px)[0]
        ok &= all(W.order_of(w) % s.denominator == 0 for (w, _), s in px.table.items())
    out.append(CheckResult("outputs keep the rotation condition and denominator bound", ok))

    W3 = wreath(Z2, 3)
    base = dumps(devoto_to_json(p_str(x, 3, W3)))
    ok = all(dumps(devoto_to_json(p_str(x, 3, W3, convention=_seeded_convention(s)))) == base
             for s in range(3))
    out.append(CheckResult("outputs are byte-identical under permuted base points", ok))

    qm1 = DevotoElement.constant(T1, PuiseuxSeries.monomial(1, -1, truncation=6))
    ok = True
    for n in (2, 3, 4):
        v = (hecke_T(qm1, n) * n).eval(T1.identity, T1.identity)
        low = {e: c for e, c in v.terms.items() if e <= 0}
        ok &= low == {Fraction(-n): Cyclotomic.one()}
    out.append(CheckResult("only the full isogeny survives below q^0 in n*T_n(1/q)", ok))

    c = {j: rng.randint(-2, 2) for j in range(5)}
    xs = PuiseuxSeries(dict(c), 4)
    lhs = s_top_total(xs, 3)
    rhs = BivariateSeries.one(3) * PuiseuxSeries.one(Fraction(4))
    for j, cj in c.items():
        b = BivariateSeries({0: PuiseuxSeries.one(4), 1: PuiseuxSeries.monomial(-1, j, 4)}, 3)
        f = b.inv() if cj > 0 else b
        for _ in range(abs(cj)):
            rhs = rhs * f
    out.append(CheckResult("total topological power matches the product formula",
                           lhs.agrees_with(rhs, q_order=4)))
    return out


def suite_hinfty(rng: random.Random) -> list[CheckResult]:
    out = []
    Z2, Z3 = cyclic_group(2), cyclic_group(3)
    g3 = next(g for g in Z3.elements if g != Z3.identity)
    s2 = next(g for g in Z2.elements if g != Z2.identity)
    faithful = RepCharacter(Z3, {Z3.identity: 1, g3: root_of_unity(3, 1),
                                 Z3.mul(g3, g3): root_of_unity(3, 2)})
    sign = RepCharacter(Z2, {Z2.identity: 1, s2: -1})
    reg = RepCharacter.regular(Z3)

    ok = True
    for chi in (faithful, sign, reg, RepCharacter.trivial(Z3, 2)):
        for g in chi.group.class_representatives():
            l = chi.group.order_of(g)
            ok &= sum(eigen_multiplicity(chi, g, j) for j in range(l)) == chi.dim()
    out.append(CheckResult("eigenspace multiplicities sum to the dimension", ok))

    ok = True
    for chi in (faithful, reg, sign):
        G = chi.group
        for h in G.elements:
            lam = lambda_sym_char(chi, h, "lambda", 4)
            sym = lambda_sym_char(chi, h, "sym", 4)
            for r in range(5):
                acc = Cyclotomic.zero()
                for i in range(r + 1):
                    term = lam[i] * sym[r - i]
                    acc = acc + (-term if i % 2 else term)
                ok &= acc == (Cyclotomic.one() if r == 0 else Cyclotomic.zero())
    out.append(CheckResult("exterior and symmetric towers are inverse", ok))

    e1 = euler_str(faithful, 2)
    e2 = euler_str(reg, 2)
    ok = euler_str(faithful + reg, 2).agrees_with(e1 * e2)
    ok &= check_devoto(e1)[0] and check_devoto(e2)[0]
    out.append(CheckResult("Euler classes multiply over sums and stay valid", ok))

    ok = True
    for _ in range(20):
        G = rng.choice([Z2, Z3])
        chi = faithful + reg if G is Z3 else sign
        base = tuple(rng.choice(G.elements) for _ in range(2))
        perm = rng.choice([(0, 1), (1, 0)])
        order = rng.choice([1, 2, 3, 4, 6])
        zeta = root_of_unity(order, rng.randrange(order))
        equal, _, _ = eigen_cycle_check(chi, base, perm, zeta)
        ok &= equal
    out.append(CheckResult("eigenvalues of twisted sums factor through cycle products", ok))

    out.append(CheckResult("Euler class of a twisted sum is the power operation (Z3, n=2)",
                           verify_hinfty(faithful, 2, 1).ok))
    out.append(CheckResult("Euler class of a twisted sum is the power operation (Z2, n=3)",
                           verify_hinfty(sign, 3, 1).ok))
    return out


def suite_moonshine(rng: random.Random) -> list[CheckResult]:
    out = []
    out.append(CheckResult("discriminant times j equals E4 cubed",
                           jseries_consistency(8).ok))
    out.append(CheckResult("Faber polynomials leave only the pole term",
                           faber_normal_form_check(jseries(5), 4).ok))

    c = {i: rng.randint(-2, 2) for i in range(5)}
    prod = borcherds_product(c, 3, 4)
    log_side = prod.log()
    direct = BivariateSeries.zero(3) * PuiseuxSeries.one(Fraction(4))
    for j in range(1, 4):
        for i in range(0, 5):
            cij = c.get(i * j, 0)
            if cij:
                base = BivariateSeries({0: PuiseuxSeries.one(4),
                                        j: PuiseuxSeries.monomial(-1, i, 4)}, 3)
                direct = direct - base.log() * cij
    out.append(CheckResult("log of the double product is the expected sum",
                           log_side.agrees_with(direct, q_order=4)))

    c2 = {i: rng.randint(-2, 2) for i in range(5)}
    csum = {i: c.get(i, 0) + c2.get(i, 0) for i in range(5)}
    ok = dmvv_check(c, 3, 4).ok and dmvv_check(c2, 3, 4).ok and dmvv_check(csum, 3, 4).ok
    ok &= borcherds_product(csum, 3, 4).agrees_with(
        borcherds_product(c, 3, 4) * borcherds_product(c2, 3, 4), q_order=4)
    out.append(CheckResult("the identity is additive in the coefficient map", ok))

    out.append(CheckResult("j - 744 is replicable (n <= 2, order 4)",
                           replicability_check(jseries(8), 2, 4).ok))
    out.append(CheckResult("denominator formula at bi-order (2, 2)",
                           denominator_check(2).ok))
    return out


SUITES: dict[str, Callable[..., list[CheckResult]]] = {
    "arith": suite_arith,
    "wreath": suite_wreath,
    "devoto": suite_devoto,
    "powerops": suite_powerops,
    "hinfty": suite_hinfty,
    "moonshine": suite_moonshine,
}


def run_suites(names: list[str], seed: int) -> list[tuple[str, list[CheckResult]]]:
    out = []
    for name in names:
        rng = random.Random(f"{seed}:{name}")
        out.append((name, SUITES[name](rng)))
    return out
