"""The three benchmark workloads as seeded request lists.

A request is a timed call into tatek plus the canonicalisation of its
output through `tatek.serialize`, and an untimed oracle that says whether
the output is right. The seed fixes every input; the mix of request kinds
and sizes is the same for every seed (sizes are drawn from narrow strata),
so runs at different seeds measure the same amount of work.

- moonshine: in-process q-series identities. Rational coefficients and
  integral exponents: the dense product path of `series`, `cyclotomic`,
  `_kernel` and `fractions`; no group is ever built.
- orbifold: in-process class-function operations on groups built during
  set-up. Groups are read (pair-class lookups), cyclotomics run at real
  roots of unity on the sparse fractional-exponent path.
- cli: one fresh `python -m tatek` process per request, inputs written as
  JSON during set-up. Interpreter start, import, parsing, cold group
  tables, compute and serialisation, every call.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple

# every library call goes through a module attribute at call time, so the
# tracer's patched bindings see it
from tatek import characters as tc
from tatek import devoto as td
from tatek import groups as tg
from tatek import moonshine as tm
from tatek import powerops as tp
from tatek import serialize as ts
from tatek.cyclotomic import root_of_unity
from tatek.series import PuiseuxSeries

tw = importlib.import_module("tatek.wreath")  # `tatek.wreath` is also a function name

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

CHILD_TIMEOUT_S = 120


class Request(NamedTuple):
    label: str
    call: Callable[[], object]        # timed: the library call
    emit: Callable[[object], str]     # timed: canonical text of the output
    check: Callable[[object], bool]   # untimed oracle


class Context:
    """Run-time state shared by the requests of one run: where the cli
    workload writes its inputs, and where traced cli children write their
    spans (None when untraced)."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.trace_dir: Path | None = None
        self.child_runs: list[dict] = []


# -- independent oracle for j - 744 -------------------------------------------


@functools.lru_cache(maxsize=None)
def _j_table(order: int) -> tuple[int, ...]:
    """Coefficients of q^-1 .. q^order of j - 744, from E4^3 / Delta in plain
    integer lists (no tatek code involved)."""
    n = order + 2
    e4 = [1] + [240 * sum(d ** 3 for d in range(1, k + 1) if k % d == 0) for k in range(1, n)]
    eta24 = [1] + [0] * (n - 1)
    for k in range(1, n):
        for _ in range(24):
            for i in range(n - 1, k - 1, -1):
                eta24[i] -= eta24[i - k]
    inv = [1] + [0] * (n - 1)
    for k in range(1, n):
        inv[k] = -sum(eta24[i] * inv[k - i] for i in range(1, k + 1))

    def mul(a, b):
        out = [0] * n
        for i, x in enumerate(a):
            if x:
                for k in range(n - i):
                    out[i + k] += x * b[k]
        return out

    qj = mul(mul(mul(e4, e4), e4), inv)
    qj[1] -= 744
    return tuple(qj)


def j_reference(order: int) -> tuple[int, ...]:
    return _j_table(max(order, 128))[:order + 2]


def _jseries_ok(series: PuiseuxSeries, order: int) -> bool:
    want = j_reference(order)
    got = [series.coefficient(e) for e in range(-1, order + 1)]
    return (series.truncation == order and len(series.terms) <= order + 2
            and all(g == w for g, w in zip(got, want)))


def _faber_ok(coeffs: list[int], n: int) -> bool:
    """Phi_n(j) = q^-n + O(q), evaluated on the oracle's integers."""
    j = j_reference(n)                      # j[k] is the coefficient of q^(k-1)
    total = [0] * (n + 1)                   # total[e + n] for exponents -n..0
    power = [1] + [0] * n                   # j^d, power[i] at q^(i - d)
    for d, a in enumerate(coeffs):
        if d:
            power = [sum(power[i - k] * j[k] for k in range(min(i + 1, len(j))))
                     for i in range(n + 1)]
        for i in range(d + 1):
            total[i - d + n] += a * power[i]
    return total[0] == 1 and not any(total[1:])


# -- shared canonicalisation ---------------------------------------------------


def _emit_report(r) -> str:
    return ts.dumps({"ok": r.ok, "witness": r.witness})


def _emit_verification(r) -> str:
    return ts.dumps({"ok": r.ok, "checked": r.checked, "failures": list(r.failures)})


def _emit_devoto(x) -> str:
    return ts.dumps(ts.devoto_to_json(x))


def _ok(r) -> bool:
    return r.ok


def _signed_ones(rng: random.Random, n: int) -> dict[int, int]:
    """A coefficient map on 0..n-1 with half +1 and half -1 entries, so the
    product side always multiplies the same number of factors."""
    signs = [1] * (n // 2) + [-1] * (n - n // 2)
    rng.shuffle(signs)
    return dict(enumerate(signs))


# -- moonshine -----------------------------------------------------------------

# Sizes are chosen so that the median and the p90 request each fall inside a
# block of requests of one shape (jseries_consistency at order 16-17, dmvv at
# (6, 10)); a percentile at the edge between two shapes would jump with the
# seed.
JSERIES_STRATA = (40, 50, 60, 110, 120)
DMVV_SHAPES = ((4, 6), (5, 8)) + ((6, 10),) * 6
DENOMINATOR_ORDERS = (3, 4, 5)
REPLICABILITY_SHAPES = ((2, 4), (3, 5), (3, 6), (4, 6), (4, 8))
CONSISTENCY_STRATA = (16,) * 8
FABER_DEGREES = (3, 5, 7, 9, 11, 12)


def moonshine(seed: int, ctx: Context, smoke: bool = False) -> list[Request]:
    rng = random.Random(f"moonshine:{seed}")
    pick = (lambda xs: xs[:2]) if smoke else (lambda xs: xs)
    reqs = []
    for base in pick(JSERIES_STRATA):
        order = base + rng.randrange(3)
        reqs.append(Request(
            f"jseries order={order}", lambda order=order: tm.jseries(order),
            lambda F: ts.dumps(ts.series_to_json(F.series)),
            lambda F, order=order: _jseries_ok(F.series, order)))
    for t, q in pick(DMVV_SHAPES):
        c = _signed_ones(rng, t * q + 1)
        reqs.append(Request(f"dmvv t={t} q={q}", lambda c=c, t=t, q=q: tm.dmvv_check(c, t, q),
                            _emit_report, _ok))
    for order in pick(DENOMINATOR_ORDERS):
        reqs.append(Request(f"denominator order={order}",
                            lambda order=order: tm.denominator_check(order), _emit_report, _ok))
    for nmax, order in pick(REPLICABILITY_SHAPES):
        def call(nmax=nmax, order=order):
            F = tm.jseries(max(nmax * order, order + nmax - 1))
            return tm.replicability_check(F, nmax, order)
        reqs.append(Request(
            f"replicable nmax={nmax} order={order}", call,
            lambda r: ts.dumps({"ok": r.ok, "lines": [list(line) for line in r.lines]}), _ok))
    for base in pick(CONSISTENCY_STRATA):
        order = base + rng.randrange(2)
        reqs.append(Request(f"jseries_consistency order={order}",
                            lambda order=order: tm.jseries_consistency(order), _emit_report, _ok))
    for n in pick(FABER_DEGREES):
        reqs.append(Request(
            f"faber n={n}", lambda n=n: tm.faber(tm.jseries(max(n - 1, 1)), n),
            lambda coeffs: ts.dumps(coeffs), lambda coeffs, n=n: _faber_ok(coeffs, n)))
    rng.shuffle(reqs)
    return reqs


# -- orbifold ------------------------------------------------------------------

P_STR_SHAPES = (("Z2", 2), ("Z2", 3), ("Z2", 4), ("Z3", 3), ("S3", 3))
SPLITS = ((1, 1), (1, 2), (2, 1))
HECKE_DEGREES = (2, 3, 4)
SYM_BRUTE_DEGREES = (4, 5)
SYM_EXP_DEGREES = (5, 6)
LAMBDA_T_ORDER = 3
TRUNCATION = 2
# each pass holds this many independently drawn copies of the mix, so that a
# pass samples many inputs and its percentiles do not hang on a few of them
ORBIFOLD_COPIES = 3


def _base_groups() -> dict:
    return {"Z2": tg.cyclic_group(2), "Z3": tg.cyclic_group(3), "S3": tg.symmetric_group(3),
            "Z4": tg.cyclic_group(4)}


def _lambda_ok(x, lam) -> bool:
    """Lambda_t times Sym_t is 1, pair class by pair class."""
    sym = tp.sym_total(x, LAMBDA_T_ORDER)
    for pair in x.group.commuting_pair_classes():
        for d in range(LAMBDA_T_ORDER + 1):
            acc = PuiseuxSeries.zero()
            for i in range(d + 1):
                acc = acc + lam[i].table[pair] * sym[d - i].table[pair]
            if not acc.agrees_with(PuiseuxSeries.one() if d == 0 else PuiseuxSeries.zero()):
                return False
    return True


def orbifold(seed: int, ctx: Context, smoke: bool = False) -> list[Request]:
    rng = random.Random(f"orbifold:{seed}")
    bases = _base_groups()
    Z2, Z3 = bases["Z2"], bases["Z3"]
    shapes = P_STR_SHAPES[:2] if smoke else P_STR_SHAPES
    splits = SPLITS[:1] if smoke else SPLITS
    wreaths = {(g, n): tw.wreath(bases[g], n) for g, n in shapes}
    for n, m in splits:
        for k in (n, m, n + m):
            wreaths.setdefault(("Z2", k), tw.wreath(Z2, k))
    split_maps = {}
    for n, m in splits:
        Wn, Wm, Wnm = wreaths[("Z2", n)], wreaths[("Z2", m)], wreaths[("Z2", n + m)]
        prod = tg.direct_product(Wn, Wm)
        split_maps[(n, m)] = (prod, tw.block_sum_hom(prod, Wn, Wm, Wnm))
    for G in [*bases.values(), *wreaths.values(), *(p for p, _ in split_maps.values())]:
        G.commuting_pair_classes()

    def element(G):
        return td.random_devoto_element(G, rng, truncation=TRUNCATION)

    reqs = []
    g3 = next(g for g in Z3.elements if g != Z3.identity)
    s2 = next(g for g in Z2.elements if g != Z2.identity)
    faithful = tc.RepCharacter(Z3, {Z3.identity: 1, g3: root_of_unity(3, 1),
                                 Z3.mul(g3, g3): root_of_unity(3, 2)})
    sign = tc.RepCharacter(Z2, {Z2.identity: 1, s2: -1})
    hinfty = ((faithful, 2), (sign, 3))[:1 if smoke else 2]
    groups = ("Z2", "S3") if smoke else tuple(bases)
    for _copy in range(1 if smoke else ORBIFOLD_COPIES):
        for g, n in shapes:
            for _ in range(2):
                x, W = element(bases[g]), wreaths[(g, n)]
                reqs.append(Request(f"p_str {g} n={n}",
                                    lambda x=x, n=n, W=W: tp.p_str(x, n, W), _emit_devoto,
                                    lambda out: td.check_devoto(out)[0]))
        for n, m in splits:
            x = element(Z2)
            prod, hom = split_maps[(n, m)]
            Wn, Wm, Wnm = wreaths[("Z2", n)], wreaths[("Z2", m)], wreaths[("Z2", n + m)]

            def call(x=x, n=n, m=m, prod=prod, hom=hom, Wn=Wn, Wm=Wm, Wnm=Wnm):
                lhs = td.restrict_along(tp.p_str(x, n + m, Wnm), hom)
                rhs = td.external_product(tp.p_str(x, n, Wn), tp.p_str(x, m, Wm),
                                          product_group=prod)
                return tp.compare_class_functions(lhs, rhs, label=f"split ({n},{m})")
            reqs.append(Request(f"split Z2 ({n},{m})", call, _emit_verification, _ok))
        for g in groups:
            for n in HECKE_DEGREES[:1] if smoke else HECKE_DEGREES:
                reqs.append(Request(f"hecke_T {g} n={n}",
                                    lambda x=element(bases[g]), n=n: tp.hecke_T(x, n),
                                    _emit_devoto, lambda out: td.check_devoto(out)[0]))
            for n in SYM_BRUTE_DEGREES[:1] if smoke else SYM_BRUTE_DEGREES:
                x = element(bases[g])
                reqs.append(Request(
                    f"sym brute {g} n={n}", lambda x=x, n=n: tp.sym_str(x, n, "brute"),
                    _emit_devoto, lambda out, x=x, n=n: out.agrees_with(tp.sym_str(x, n, "exp"))))
            for n in SYM_EXP_DEGREES[:1] if smoke else SYM_EXP_DEGREES:
                reqs.append(Request(f"sym exp {g} n={n}",
                                    lambda x=element(bases[g]), n=n: tp.sym_str(x, n, "exp"),
                                    _emit_devoto, lambda out: td.check_devoto(out)[0]))
            x = element(bases[g])
            reqs.append(Request(f"lambda_str_total {g} t={LAMBDA_T_ORDER}",
                                lambda x=x: tp.lambda_str_total(x, LAMBDA_T_ORDER),
                                lambda out: ts.dumps([ts.devoto_to_json(e) for e in out]),
                                lambda out, x=x: _lambda_ok(x, out)))
        for chi, n in hinfty:
            reqs.append(Request(f"verify_hinfty {chi.group.name} n={n}",
                                lambda chi=chi, n=n: tc.verify_hinfty(chi, n, 1),
                                _emit_verification, _ok))
    rng.shuffle(reqs)
    return reqs


# -- cli -----------------------------------------------------------------------

# Two passes of about 54 requests make a run. The p90 falls inside the block
# of jseries calls at order 44-46, just below the four heavy requests; the
# median falls among the short table operations.
CLI_JSERIES_STRATA = (20, 28, 36)
CLI_JSERIES_BLOCK = 8
CLI_ELEMENT_COPIES = 2
CLI_DMVV_SHAPES = ((3, 4), (3, 5), (4, 4), (4, 5))
CLI_SUITES_SHORT = ("arith", "wreath", "devoto", "moonshine")


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _run_child(ctx: Context, args: list[str]) -> subprocess.CompletedProcess:
    if ctx.trace_dir is None:
        cmd = [sys.executable, "-m", "tatek", *args]
        trace_file = None
    else:
        trace_file = ctx.trace_dir / f"child-{len(ctx.child_runs)}.json"
        cmd = [sys.executable, str(BENCH_DIR / "cli_child.py"), str(trace_file), *args]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), capture_output=True,
                          timeout=CHILD_TIMEOUT_S)
    wall = time.perf_counter() - start
    if trace_file is not None and trace_file.exists():
        record = json.loads(trace_file.read_text())
        record["wall_s"] = wall
        ctx.child_runs.append(record)
        trace_file.unlink()
    return proc


def _parsed(proc) -> dict | None:
    if proc.returncode != 0:
        return None
    return json.loads(proc.stdout)


def _cli_check(kind: str, extra=None) -> Callable[[object], bool]:
    def check(proc) -> bool:
        data = _parsed(proc)
        if data is None:
            return False
        if kind == "ok":
            return data["ok"] is True
        if kind == "jseries":
            return _jseries_ok(ts.series_from_json(data), extra)
        if kind == "element":
            return td.check_devoto(ts.devoto_from_json(data))[0]
        if kind == "epsilon":
            return ts.series_from_json(data).is_integral()
        if kind == "scalar_hecke":
            series, n = extra
            return ts.series_from_json(data) == tp.hecke_scalar(series, n)
        raise ValueError(kind)
    return check


def cli(seed: int, ctx: Context, smoke: bool = False) -> list[Request]:
    rng = random.Random(f"cli:{seed}")
    bases = _base_groups()
    written = []

    def write(payload) -> str:
        path = ctx.workdir / f"input-{len(written)}.json"
        path.write_text(ts.dumps(payload))
        written.append(path)
        return str(path)

    def element_file(g: str) -> str:
        return write(ts.devoto_to_json(
            td.random_devoto_element(bases[g], rng, truncation=TRUNCATION)))

    def request(label, args, check):
        return Request(label, lambda: _run_child(ctx, args),
                       lambda proc: proc.stdout.decode(), check)

    def jseries(order):
        return request(f"jseries order={order}", ["jseries", "--order", str(order)],
                       _cli_check("jseries", order))

    reqs = [jseries(base + rng.randrange(4))
            for base in (CLI_JSERIES_STRATA[:1] if smoke else CLI_JSERIES_STRATA)]
    reqs += [jseries(44 + rng.randrange(3)) for _ in range(0 if smoke else CLI_JSERIES_BLOCK)]
    groups = ("Z2", "S3") if smoke else tuple(bases)
    for _copy in range(1 if smoke else CLI_ELEMENT_COPIES):
        for i, g in enumerate(groups):
            n = (2, 3, 4, 3)[i]
            reqs.append(request(f"hecke {g} n={n}",
                                ["hecke", "--n", str(n), "--input", element_file(g)],
                                _cli_check("element")))
            reqs.append(request(f"epsilon {g}", ["epsilon", "--input", element_file(g)],
                                _cli_check("epsilon")))
            n = (4, 5, 6, 5)[i]
            reqs.append(request(f"sym exp {g} n={n}",
                                ["sym", "--n", str(n), "--method", "exp",
                                 "--input", element_file(g)],
                                _cli_check("element")))
    for n in (2, 3)[:1 if smoke else 2]:
        series = PuiseuxSeries({e: rng.choice((-2, -1, 1, 2)) for e in range(-1, 9)}, 8)
        reqs.append(request(f"hecke scalar n={n}",
                            ["hecke", "--n", str(n), "--input", write(ts.series_to_json(series))],
                            _cli_check("scalar_hecke", (series, n))))
    for g in ("Z2", "S3")[:1 if smoke else 2]:
        reqs.append(request(f"sym brute {g} n=5",
                            ["sym", "--n", "5", "--method", "brute", "--input", element_file(g)],
                            _cli_check("element")))
    for t, q in CLI_DMVV_SHAPES[:1] if smoke else CLI_DMVV_SHAPES:
        path = write(ts.coeffs_to_json(_signed_ones(rng, t * q + 1)))
        reqs.append(request(f"dmvv t={t} q={q}",
                            ["dmvv", "--coeffs", path, "--t-order", str(t), "--q-order", str(q)],
                            _cli_check("ok")))
    for order in (2, 3)[:1 if smoke else 2]:
        reqs.append(request(f"denominator order={order}",
                            ["denominator", "--order", str(order)], _cli_check("ok")))
    for suite in CLI_SUITES_SHORT[:1] if smoke else CLI_SUITES_SHORT:
        reqs.append(request(f"verify {suite}",
                            ["verify", "--suite", suite, "--seed", str(rng.randrange(1000))],
                            _cli_check("ok")))
    reqs.append(request("powerop S3 n=2", ["powerop", "--n", "2", "--input", element_file("S3")],
                        _cli_check("element")))
    if not smoke:
        # the heavy tail
        for g, n in (("Z2", 4), ("Z3", 3)):
            reqs.append(request(f"powerop {g} n={n}",
                                ["powerop", "--n", str(n), "--input", element_file(g)],
                                _cli_check("element")))
        for suite in ("hinfty", "powerops"):
            reqs.append(request(f"verify {suite}",
                                ["verify", "--suite", suite, "--seed", str(rng.randrange(1000))],
                                _cli_check("ok")))
    rng.shuffle(reqs)
    return reqs


WORKLOADS = {"moonshine": moonshine, "orbifold": orbifold, "cli": cli}
