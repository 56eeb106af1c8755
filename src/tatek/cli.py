"""Command-line front end: JSON in, JSON or text out.

Exit status: 0 on success (and on passing verifications), 1 when a
verification fails, 2 on usage or format errors, 3 on an internal error
(one `internal error:` line on stderr, never a traceback). All numbers
in the output are exact; identical inputs and seed give byte-identical
output.
"""

from __future__ import annotations

import argparse
import json
import sys

from .devoto import DevotoElement, epsilon
from .groups import DEFAULT_SIZE_CAP, trivial_group
from .moonshine import (McKayThompson, denominator_check, dmvv_check, faber, jseries,
                        replicability_check)
from .powerops import hecke_T, hecke_scalar, p_str, sym_str
from .serialize import (FormatError, coeffs_from_json, devoto_from_json, devoto_to_json,
                        dumps, group_from_json, series_from_json, series_to_json)
from .verify import SUITES, run_suites


def _at_least(value: int, low: int, flag: str) -> None:
    if value < low:
        raise ValueError(f"{flag} must be at least {low}, got {value}")


def _read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path} is not valid JSON: {exc}") from exc


def _load_series_or_element(args, size_cap: int):
    """The --input file may hold a bare series record (scalar input) or a
    full element table; --group supplies the group when the table has
    none embedded."""
    data = _read_json(args.input)
    group = None
    if getattr(args, "group", None):
        group = group_from_json(_read_json(args.group), size_cap)
    if isinstance(data, dict) and "entries" in data:
        return devoto_from_json(data, group=group, size_cap=size_cap)
    series = series_from_json(data, size_cap)
    if group is None:
        return series
    return DevotoElement.constant(group, series)


def _emit(args, payload: dict, text: str) -> None:
    if args.output == "json":
        print(dumps(payload))
    else:
        print(text)


def _devoto_text(x: DevotoElement) -> str:
    lines = [f"element over {x.group.name}, level {x.level}"]
    for (g, h), s in x.table.items():
        lines.append(f"  ({g!r}, {h!r}): {s!r}")
    return "\n".join(lines)


def cmd_jseries(args) -> int:
    F = jseries(args.order)
    _emit(args, series_to_json(F.series), repr(F.series))
    return 0


def _input_mckay(args) -> McKayThompson:
    if args.j:
        return jseries(args.j_order)
    if not args.input:
        raise FormatError("either --input or --j is required")
    return McKayThompson(series_from_json(_read_json(args.input), args.size_cap))


def cmd_faber(args) -> int:
    if args.j:
        args.j_order = max(args.n - 1, 1)
    F = _input_mckay(args)
    coeffs = faber(F, args.n)
    _emit(args, {"n": args.n, "coefficients": coeffs},
          f"Phi_{args.n}(w): coefficients (ascending) {coeffs}")
    return 0


def cmd_replicable(args) -> int:
    _at_least(args.nmax, 1, "--nmax")
    _at_least(args.order, 0, "--order")
    if args.j:
        args.j_order = max(args.nmax * args.order, args.order + args.nmax - 1, 1)
    F = _input_mckay(args)
    report = replicability_check(F, args.nmax, args.order)
    payload = {"ok": report.ok,
               "lines": [{"n": n, "ok": ok, "detail": detail}
                         for n, ok, detail in report.lines]}
    _emit(args, payload, str(report))
    return 0 if report.ok else 1


def cmd_hecke(args) -> int:
    x = _load_series_or_element(args, args.size_cap)
    if isinstance(x, DevotoElement):
        out = hecke_T(x, args.n)
        _emit(args, devoto_to_json(out), _devoto_text(out))
    else:
        out = hecke_scalar(x, args.n)
        _emit(args, series_to_json(out), repr(out))
    return 0


def cmd_sym(args) -> int:
    _at_least(args.n, 0, "--n")
    x = _load_series_or_element(args, args.size_cap)
    if not isinstance(x, DevotoElement):
        x = DevotoElement.constant(trivial_group(), x)
    out = sym_str(x, args.n, method=args.method, size_cap=args.size_cap)
    _emit(args, devoto_to_json(out), _devoto_text(out))
    return 0


def cmd_powerop(args) -> int:
    from .wreath import wreath

    _at_least(args.n, 1, "--n")
    x = _load_series_or_element(args, args.size_cap)
    if not isinstance(x, DevotoElement):
        x = DevotoElement.constant(trivial_group(), x)
    out = p_str(x, args.n, wreath_group=wreath(x.group, args.n, args.size_cap))
    _emit(args, devoto_to_json(out), _devoto_text(out))
    return 0


def cmd_epsilon(args) -> int:
    x = _load_series_or_element(args, args.size_cap)
    if not isinstance(x, DevotoElement):
        raise FormatError("epsilon needs an element table (with a group)")
    out = epsilon(x)
    _emit(args, series_to_json(out), repr(out))
    return 0


def cmd_dmvv(args) -> int:
    c = coeffs_from_json(_read_json(args.coeffs))
    report = dmvv_check(c, args.t_order, args.q_order)
    _emit(args, {"ok": report.ok, "witness": report.witness}, str(report))
    return 0 if report.ok else 1


def cmd_denominator(args) -> int:
    report = denominator_check(args.order)
    _emit(args, {"ok": report.ok, "witness": report.witness}, str(report))
    return 0 if report.ok else 1


def cmd_verify(args) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    results = run_suites(names, args.seed)
    ok = all(r.ok for _, checks in results for r in checks)
    payload = {"ok": ok,
               "suites": [{"suite": name,
                           "checks": [{"name": r.name, "ok": r.ok, "detail": r.detail}
                                      for r in checks]}
                          for name, checks in results]}
    lines = []
    for name, checks in results:
        for r in checks:
            status = "PASS" if r.ok else "FAIL"
            lines.append(f"[{name}] {status} {r.name}" + (f" ({r.detail})" if r.detail else ""))
    _emit(args, payload, "\n".join(lines))
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    # the global flags are also accepted after the subcommand; SUPPRESS
    # keeps the subparser from clobbering a value given before it
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", choices=["json", "text"], default=argparse.SUPPRESS,
                        help="output mode (default json)")
    common.add_argument("--size-cap", type=int, default=argparse.SUPPRESS,
                        help="largest group enumeration allowed")

    parser = argparse.ArgumentParser(
        prog="tatek",
        description="Exact equivariant Tate K-theory characters: power operations, "
                    "Hecke operators, Euler classes, Moonshine checks.")
    parser.add_argument("--output", choices=["json", "text"], default="json",
                        help="output mode (default json)")
    parser.add_argument("--size-cap", type=int, default=DEFAULT_SIZE_CAP,
                        help="largest group enumeration allowed")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, **kwargs):
        return sub.add_parser(name, parents=[common], **kwargs)

    p = add_parser("jseries", help="q-expansion of j - 744")
    p.add_argument("--order", type=int, required=True)
    p.set_defaults(func=cmd_jseries)

    p = add_parser("faber", help="Faber polynomial of a McKay-Thompson series")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--input", help="series record file")
    p.add_argument("--j", action="store_true", help="use j - 744")
    p.set_defaults(func=cmd_faber)

    p = add_parser("replicable", help="compare Faber values against Hecke operators")
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--input", help="series record file")
    p.add_argument("--j", action="store_true", help="use j - 744")
    p.set_defaults(func=cmd_replicable)

    p = add_parser("hecke", help="Hecke operator on a series or element table")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--group", help="group record file (when not embedded)")
    p.set_defaults(func=cmd_hecke)

    p = add_parser("sym", help="stringy symmetric power")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--method", choices=["brute", "exp"], default="exp")
    p.add_argument("--input", required=True)
    p.add_argument("--group", help="group record file (when not embedded)")
    p.set_defaults(func=cmd_sym)

    p = add_parser("powerop", help="stringy power operation (lands over the wreath product)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--group", help="group record file (when not embedded)")
    p.set_defaults(func=cmd_powerop)

    p = add_parser("epsilon", help="orbifold sum of an element table")
    p.add_argument("--input", required=True)
    p.add_argument("--group", help="group record file (when not embedded)")
    p.set_defaults(func=cmd_epsilon)

    p = add_parser("dmvv", help="exp-of-Hecke against the Borcherds product")
    p.add_argument("--coeffs", required=True)
    p.add_argument("--t-order", type=int, required=True, dest="t_order")
    p.add_argument("--q-order", type=int, required=True, dest="q_order")
    p.set_defaults(func=cmd_dmvv)

    p = add_parser("denominator", help="denominator formula for j - 744")
    p.add_argument("--order", type=int, required=True)
    p.set_defaults(func=cmd_denominator)

    p = add_parser("verify", help="run a named verification suite")
    p.add_argument("--suite", choices=sorted(SUITES) + ["all"], required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _at_least(args.size_cap, 1, "--size-cap")
        return args.func(args)
    except ValueError as exc:  # FormatError, InsufficientTruncation, SizeCapExceeded too
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:  # a JSON file, or a group record, nested past the stack
        print("error: input nests too deeply", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
