"""Interchange formats and the command-line front end."""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from tatek.cli import main as cli_main
from tatek.cyclotomic import Cyclotomic, root_of_unity
from tatek.devoto import DevotoElement, random_devoto_element
from tatek.groups import SizeCapExceeded, cyclic_group, symmetric_group
from tatek.characters import RepCharacter
from tatek.powerops import p_str
from tatek.serialize import (FormatError, bivariate_from_json, bivariate_to_json,
                             coeffs_from_json, coeffs_to_json, cyclotomic_from_json,
                             cyclotomic_to_json, devoto_from_json, devoto_to_json,
                             dumps, element_from_json, element_to_json, group_from_json,
                             group_to_json, repchar_from_json, repchar_to_json,
                             series_from_json, series_to_json)
from tatek.series import BivariateSeries, PuiseuxSeries
from tatek.wreath import wreath


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_cli(*args):
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": SRC if not path else SRC + os.pathsep + path}
    return subprocess.run([sys.executable, "-m", "tatek", *args],
                          capture_output=True, text=True, env=env)


def test_cyclotomic_roundtrip():
    x = Cyclotomic(12, {1: Fraction(3, 7), 5: -2})
    assert cyclotomic_from_json(cyclotomic_to_json(x)) == x


def test_series_roundtrip():
    s = PuiseuxSeries({Fraction(-1, 2): root_of_unity(3, 1), 2: Fraction(5, 3)}, 4)
    back = series_from_json(series_to_json(s))
    assert back == s
    exact = PuiseuxSeries({0: 1})
    assert series_from_json(series_to_json(exact)) == exact


def test_bivariate_roundtrip():
    b = BivariateSeries({0: PuiseuxSeries.one(3), 2: PuiseuxSeries.monomial(1, Fraction(1, 2), 3)}, 4)
    assert bivariate_from_json(bivariate_to_json(b)) == b


def test_group_roundtrip_plain_and_wreath():
    S3 = symmetric_group(3)
    back = group_from_json(group_to_json(S3))
    assert back.elements == S3.elements
    W = wreath(cyclic_group(2), 2)
    backW = group_from_json(group_to_json(W))
    assert backW.elements == W.elements


def test_element_roundtrip():
    S3 = symmetric_group(3)
    g = (1, 2, 0)
    assert element_from_json(element_to_json(g), S3) == g
    W = wreath(cyclic_group(2), 2)
    w = W.elements[5]
    assert element_from_json(element_to_json(w), W) == w
    with pytest.raises(FormatError):
        element_from_json([1, 2, 3, 4], S3)


def test_devoto_roundtrip_including_wreath_target():
    Z2 = cyclic_group(2)
    x = random_devoto_element(Z2, random.Random(3), truncation=2)
    back = devoto_from_json(devoto_to_json(x))
    assert back.level == x.level and back.table == x.table
    y = p_str(x, 2)
    round_tripped = devoto_from_json(devoto_to_json(y))
    assert round_tripped.table == y.table


def test_devoto_loader_rejects_bad_entries():
    S3 = symmetric_group(3)
    x = DevotoElement.constant(S3, 1)
    data = devoto_to_json(x)
    dup = json.loads(dumps(data))
    dup["entries"].append(dup["entries"][0])
    with pytest.raises(FormatError):
        devoto_from_json(dup)
    bad = json.loads(dumps(data))
    bad["entries"][0]["g"] = [2, 1, 3]
    bad["entries"][0]["h"] = [1, 3, 2]
    with pytest.raises(FormatError):
        devoto_from_json(bad)
    # JSON floats and booleans are not rounded into integer fields
    for edit in (lambda d: d.update(level=True), lambda d: d.update(level=1.0),
                 lambda d: d["group"].update(degree=2.9),
                 lambda d: d["entries"][0].update(g=[1.0, 2, 3]),
                 lambda d: d["entries"][0]["series"]["terms"][0]["coeff"].update(order=True)):
        bad = json.loads(dumps(data))
        edit(bad)
        with pytest.raises(FormatError):
            devoto_from_json(bad)


def test_repchar_roundtrip():
    Z3 = cyclic_group(3)
    g = next(x for x in Z3.elements if x != Z3.identity)
    chi = RepCharacter(Z3, {Z3.identity: 1, g: root_of_unity(3, 1),
                            Z3.mul(g, g): root_of_unity(3, 2)})
    back = repchar_from_json(repchar_to_json(chi))
    assert back.values == chi.values


def test_coeffs_roundtrip():
    c = {0: 1, 3: -2, 6: 5}
    assert coeffs_from_json(coeffs_to_json(c)) == c
    with pytest.raises(FormatError):
        coeffs_from_json({"coeffs": [{"i": 1, "c": 1}, {"i": 1, "c": 2}]})


def test_loaders_reject_repeated_keys():
    # a key given twice is an error, never a silently kept last value
    one = {"order": 1, "terms": [[0, "1"]]}
    series = series_to_json(PuiseuxSeries.one(3))
    S3 = symmetric_group(3)
    cases = [
        (series_from_json, _series_record([(1, 1), (2, 2)], one), "duplicate series exponent 1"),
        (cyclotomic_from_json, {"order": 3, "terms": [[1, "1"], [1, "2"]]},
         "duplicate cyclotomic exponent 1"),
        (bivariate_from_json, {"t_truncation": 3,
                               "coefficients": [{"t": 1, "series": series}] * 2},
         "duplicate t-degree 1"),
        (lambda d: repchar_from_json(d, S3), {"values": [{"class_rep": [1, 2, 3],
                                                          "value": one}] * 2},
         "duplicate class representative [1, 2, 3]"),
        (coeffs_from_json, {"coeffs": [{"i": 1, "c": 1}, {"i": 1, "c": 2}]},
         "duplicate coefficient index 1"),
    ]
    for load, data, message in cases:
        with pytest.raises(FormatError) as exc:
            load(data)
        assert str(exc.value) == message


def test_nested_record_errors_keep_their_message():
    # the innermost malformed record is named once, not wrapped by each
    # enclosing loader
    bad_rational = {"terms": [{"num": 1, "den": 1, "coeff": {"order": 3, "terms": [[1, "x"]]}}],
                    "truncation": None}
    table = devoto_to_json(DevotoElement.constant(symmetric_group(3), 1))
    table["entries"][0]["series"]["terms"][0]["coeff"]["order"] = -3
    bivariate = {"t_truncation": 2, "coefficients": [{"t": 0, "series": {"truncation": None}}]}
    for load, data, message in [
            (series_from_json, bad_rational, "bad rational 'x'"),
            (devoto_from_json, table, "bad cyclotomic record: order must be positive"),
            (bivariate_from_json, bivariate, "bad series record: 'terms'")]:
        with pytest.raises(FormatError) as exc:
            load(data)
        assert str(exc.value) == message
    # a group over the size cap is reported as such by every loader that embeds one
    character = {"group": group_to_json(symmetric_group(3)), "values": []}
    for load, data in [(devoto_from_json, table), (repchar_from_json, character),
                       (group_from_json, character["group"])]:
        with pytest.raises(SizeCapExceeded) as exc:
            load(data, size_cap=5)
        assert str(exc.value) == "size cap 5 exceeded"


def test_cyclotomic_order_is_capped():
    # an input order above the size cap is refused before Phi_N is built,
    # by every loader that reads a cyclotomic record
    big = {"order": 30, "terms": [[1, "1"]]}
    series = {"terms": [{"num": 1, "den": 1, "coeff": big}], "truncation": None}
    table = devoto_to_json(DevotoElement.constant(symmetric_group(3), 1))
    table["entries"][0]["series"] = series
    character = {"group": group_to_json(symmetric_group(3)),
                 "values": [{"class_rep": [1, 2, 3], "value": big}]}
    for load, data in [(cyclotomic_from_json, big), (series_from_json, series),
                       (bivariate_from_json, {"t_truncation": 1,
                                              "coefficients": [{"t": 0, "series": series}]}),
                       (devoto_from_json, table), (repchar_from_json, character)]:
        with pytest.raises(SizeCapExceeded) as exc:
            load(data, size_cap=29)
        assert str(exc.value) == "cyclotomic order 30 exceeds size cap 29"
        load(data, size_cap=30)
    with pytest.raises(SizeCapExceeded):
        cyclotomic_from_json({"order": 10 ** 8, "terms": [[1, "1"]]})


# -- CLI ------------------------------------------------------------------


def test_cli_jseries_coefficient(tmp_path):
    out = run_cli("jseries", "--order", "2")
    assert out.returncode == 0
    data = json.loads(out.stdout)
    terms = {(t["num"], t["den"]): t["coeff"]["terms"] for t in data["terms"]}
    assert terms[(1, 1)] == [[0, "196884"]]


def test_cli_hecke_degree_one_echoes(tmp_path):
    series = series_to_json(PuiseuxSeries({-1: 1, 1: 3}, 6))
    path = tmp_path / "x.json"
    path.write_text(dumps(series))
    out = run_cli("hecke", "--n", "1", "--input", str(path))
    assert out.returncode == 0
    assert series_from_json(json.loads(out.stdout)) == series_from_json(series)


def test_cli_determinism_and_roundtrip(tmp_path):
    Z2 = cyclic_group(2)
    x = random_devoto_element(Z2, random.Random(8), truncation=2)
    path = tmp_path / "x.json"
    path.write_text(dumps(devoto_to_json(x)))
    a = run_cli("sym", "--n", "2", "--input", str(path))
    b = run_cli("sym", "--n", "2", "--input", str(path))
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout
    devoto_from_json(json.loads(a.stdout))  # parses back


def test_cli_verify_suite_deterministic():
    a = run_cli("verify", "--suite", "devoto", "--seed", "7")
    b = run_cli("verify", "--suite", "devoto", "--seed", "7")
    assert a.returncode == 0 and a.stdout == b.stdout
    assert json.loads(a.stdout)["ok"] is True


def test_cli_exit_codes(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    assert run_cli("epsilon", "--input", str(bad)).returncode == 2
    assert run_cli("nonsense").returncode == 2
    assert run_cli("hecke", "--n", "1", "--input", str(tmp_path / "missing.json")).returncode == 2
    # a genuinely failing verification exits 1
    f = tmp_path / "F.json"
    f.write_text(dumps(series_to_json(PuiseuxSeries({-1: 1, 1: 1, 2: 1}, 20))))
    out = run_cli("replicable", "--nmax", "2", "--order", "4", "--input", str(f))
    assert out.returncode == 1


def test_cli_rejects_out_of_range_degrees(tmp_path):
    # bad integer arguments are usage errors: exit 2 and a one-line message
    x = tmp_path / "x.json"
    x.write_text(dumps(series_to_json(PuiseuxSeries({1: 1}, 4))))
    c = tmp_path / "c.json"
    c.write_text(dumps(coeffs_to_json({-1: 2})))
    g = tmp_path / "g.json"
    g.write_text(json.dumps({"degree": -1, "generators": []}))
    cases = [("sym", "--n", "-1", "--input", str(x)),
             ("replicable", "--nmax", "0", "--order", "3", "--j"),
             ("replicable", "--nmax", "2", "--order", "-1", "--j"),
             ("powerop", "--n", "0", "--input", str(x)),
             ("denominator", "--order", "-2"),
             ("dmvv", "--coeffs", str(c), "--t-order", "2", "--q-order", "2"),
             ("hecke", "--n", "2", "--input", str(x), "--group", str(g)),
             ("sym", "--n", "2", "--input", str(x), "--size-cap", "-1"),
             ("jseries", "--order", "5", "--size-cap", "-3"),
             ("--size-cap", "0", "jseries", "--order", "5")]
    for argv in cases:
        out = run_cli(*argv)
        assert out.returncode == 2, argv
        assert out.stdout == ""
        assert out.stderr.startswith("error: ") and out.stderr.count("\n") == 1, out.stderr


def test_cli_size_cap_error_is_not_a_format_error(tmp_path):
    # a well-formed group over the cap reports the cap, whether the group
    # comes from --group or is embedded in an element table
    x = tmp_path / "x.json"
    x.write_text(dumps(series_to_json(PuiseuxSeries({1: 1}, 4))))
    g = tmp_path / "g.json"
    g.write_text(dumps(group_to_json(symmetric_group(3))))
    out = run_cli("hecke", "--n", "2", "--input", str(x), "--group", str(g), "--size-cap", "5")
    assert out.returncode == 2 and out.stdout == ""
    assert out.stderr == "error: size cap 5 exceeded\n"
    y = tmp_path / "y.json"
    y.write_text(dumps(devoto_to_json(DevotoElement.constant(wreath(cyclic_group(2), 2),
                                                             PuiseuxSeries({1: 1}, 4)))))
    out = run_cli("epsilon", "--input", str(y), "--size-cap", "7")
    assert out.returncode == 2 and out.stdout == ""
    assert out.stderr == "error: wreath product Z2 wr S2 exceeds the size cap 7\n"
    # sym brute enumerates S_n as 1 wr S_n under the same cap
    out = run_cli("sym", "--n", "5", "--method", "brute", "--input", str(x), "--size-cap", "10")
    assert out.returncode == 2 and out.stdout == ""
    assert out.stderr == "error: wreath product 1 wr S5 exceeds the size cap 10\n"
    # a degree whose n! has more digits than int-to-str allows is rejected
    # before that product is formed
    out = run_cli("sym", "--n", "20001", "--method", "brute", "--input", str(x))
    assert out.returncode == 2 and out.stdout == ""
    assert out.stderr == "error: wreath product 1 wr S20001 exceeds the size cap 20000\n"


def test_cli_rejects_non_object_input(tmp_path):
    # a JSON value that is not an object is a format error, not a crash
    five = tmp_path / "five.json"
    five.write_text("5")
    for argv in (("hecke", "--n", "2"), ("sym", "--n", "2"), ("powerop", "--n", "2"),
                 ("epsilon",)):
        out = run_cli(*argv, "--input", str(five))
        assert out.returncode == 2, argv
        assert out.stdout == ""
        assert out.stderr.startswith("error: ") and out.stderr.count("\n") == 1, out.stderr


def test_cli_input_errors_are_usage_errors(tmp_path):
    # non-integral Faber input and a too-deeply nested file exit 2, not
    # with a traceback and the code reserved for failed verifications
    half = tmp_path / "half.json"
    half.write_text(dumps(series_to_json(PuiseuxSeries({-1: 1, 0: Fraction(1, 2)}))))
    zeta = tmp_path / "zeta.json"
    zeta.write_text(dumps(series_to_json(PuiseuxSeries({-1: 1, 0: root_of_unity(3, 1)}))))
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000)
    cases = [(*cmd, "--input", str(f)) for f in (half, zeta)
             for cmd in (("faber", "--n", "1"), ("replicable", "--nmax", "1", "--order", "1"))]
    cases.append(("hecke", "--n", "1", "--input", str(deep)))
    # JSON floats and booleans in exact fields are rejected, not rounded
    element = devoto_to_json(DevotoElement.constant(cyclic_group(2), 1))
    malformed = {
        "float_coeff": {"terms": [{"num": 0, "den": 1,
                                   "coeff": {"order": 1, "terms": [[0, 0.1]]}}],
                        "truncation": 0.1},
        "float_order": {"terms": [{"num": 0, "den": 1,
                                   "coeff": {"order": 4.5, "terms": [[1.9, "1"]]}}],
                        "truncation": None},
        "float_degree": {**element, "group": {**element["group"], "degree": 2.9}},
        "bool_level": {**element, "level": True},
    }
    for name, payload in malformed.items():
        f = tmp_path / f"{name}.json"
        f.write_text(json.dumps(payload))
        cases.append(("hecke", "--n", "1", "--input", str(f)))
    # a group name is printed in the size-cap message, so it must be one
    # printable line
    named = tmp_path / "named.json"
    named.write_text(json.dumps({"wreath": {"base_group": {"degree": 2, "generators": [[2, 1]],
                                                           "name": "a\nb"},
                                            "copies": 20001}}))
    cases.append(("hecke", "--n", "1", "--input", str(half), "--group", str(named)))
    float_c = tmp_path / "float_c.json"
    float_c.write_text(json.dumps({"coeffs": [{"i": 1, "c": 1.7}]}))
    cases.append(("dmvv", "--coeffs", str(float_c), "--t-order", "2", "--q-order", "2"))
    # a repeated exponent is not silently overwritten, and a coefficient
    # order below 1 is a bad record, not an internal error
    for name, payload in {
            "dup_exponent": _series_record([(1, 1), (2, 2)], {"order": 1, "terms": [[0, "1"]]}),
            "negative_order": _series_record([(1, 1)], {"order": -3, "terms": [[1, "1"]]})}.items():
        f = tmp_path / f"{name}.json"
        f.write_text(json.dumps(payload))
        cases += [(cmd, "--n", "2", "--input", str(f)) for cmd in ("hecke", "sym", "powerop")]
    # a coefficient order above the size cap exits 2 at once, instead of
    # building Phi_N for seconds (10^5) or running out of memory (10^8)
    for order in (100000, 10 ** 8):
        f = tmp_path / f"order{order}.json"
        f.write_text(json.dumps(_series_record([(1, 1)], {"order": order, "terms": [[1, "1"]]})))
        cases.append(("hecke", "--n", "2", "--input", str(f)))
    # a valid group record nested past the interpreter's stack, read as
    # --group; 150 levels still load
    deep_group = {"degree": 2, "generators": [[2, 1]]}
    for depth in range(1, 401):
        deep_group = {"wreath": {"base_group": deep_group, "copies": 1}}
        if depth in (150, 400):
            f = tmp_path / f"wreath{depth}.json"
            f.write_text(json.dumps(deep_group))
    cases.append(("epsilon", "--input", str(half), "--group", str(tmp_path / "wreath400.json")))
    assert run_cli("epsilon", "--input", str(half),
                   "--group", str(tmp_path / "wreath150.json")).returncode == 0
    for argv in cases:
        out = run_cli(*argv)
        assert out.returncode == 2, argv
        assert out.stdout == ""
        assert out.stderr.startswith("error: ") and out.stderr.count("\n") == 1, out.stderr


def test_cli_internal_error_exits_3(monkeypatch, capsys):
    import tatek.cli as cli

    def boom(args):
        raise RuntimeError("unexpected")

    monkeypatch.setattr(cli, "cmd_jseries", boom)
    assert cli.main(["jseries", "--order", "3"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: ") and captured.err.count("\n") == 1


# -- malformed JSON: any small value, or a record one step from valid -------

_KEYS = ["order", "terms", "num", "den", "coeff", "truncation", "degree", "generators",
         "name", "wreath", "base_group", "copies", "base", "perm", "group", "level",
         "entries", "g", "h", "series", "coeffs", "i", "c"]
_scalars = (st.integers(-5, 5) | st.sampled_from(["1/2", "1/0", "0", "-3", "2/4", "x", ""])
            | st.floats(allow_nan=False, allow_infinity=False, width=16)
            | st.booleans() | st.none())


def _nest(children):
    return (st.lists(children, max_size=3)
            | st.dictionaries(st.sampled_from(_KEYS), children, max_size=3))


_json_values = _scalars
for _ in range(3):
    _json_values = _scalars | _nest(_json_values)


def _either(*strategies):
    """One of the strategies, each drawn equally often."""
    return st.integers(0, len(strategies) - 1).flatmap(lambda i: strategies[i])


def _near(valid):
    """A record field: well-formed four times in five, else any small value."""
    return _either(valid, valid, valid, valid, _scalars)


_cyclotomic = st.fixed_dictionaries({
    "order": _near(st.integers(1, 4)),
    "terms": _near(st.lists(st.tuples(st.integers(0, 3),
                                      st.sampled_from(["1", "-2", "1/2", "1/0"])).map(list),
                            max_size=2))})
_series = st.fixed_dictionaries({
    "terms": _near(st.lists(st.fixed_dictionaries({"num": _near(st.integers(-1, 3)),
                                                   "den": _near(st.integers(1, 2)),
                                                   "coeff": _near(_cyclotomic)}),
                            max_size=3)),
    "truncation": _near(st.sampled_from(["1", "2", "3/2", None]))})
_plain_group = st.integers(1, 3).flatmap(lambda d: st.fixed_dictionaries(
    {"degree": _near(st.just(d)),
     "generators": _near(st.lists(st.permutations(range(1, d + 1))
                                  | st.lists(st.integers(0, 4), max_size=3), max_size=2))},
    optional={"name": st.sampled_from(["G", "Z2", "a\nb", 5])}))
_group = _plain_group | st.fixed_dictionaries({"wreath": st.fixed_dictionaries(
    {"base_group": _plain_group, "copies": _near(st.integers(0, 2))})})
_element = (st.lists(st.integers(1, 3), min_size=1, max_size=3)
            | st.fixed_dictionaries({"base": st.lists(st.lists(st.integers(1, 3), min_size=1,
                                                               max_size=3), max_size=2),
                                     "perm": st.permutations([1, 2])}))
_table = st.fixed_dictionaries(
    {"group": _near(_group),
     "entries": _near(st.lists(st.fixed_dictionaries({"g": _element, "h": _element,
                                                       "series": _series}), max_size=3))},
    optional={"level": st.integers(0, 2)})
_coeffs = st.fixed_dictionaries({"coeffs": _near(st.lists(st.fixed_dictionaries(
    {"i": _near(st.integers(-1, 4)), "c": _near(st.integers(-3, 3))}), max_size=3))})

_GROUP_COMMANDS = [("hecke",), ("sym", "--method", "exp"), ("sym", "--method", "brute"),
                   ("powerop",), ("epsilon",)]


@st.composite
def _cli_calls(draw):
    """A subcommand that reads JSON, as its argv without the file flags and
    a map from each file flag to the JSON value to pass through it."""
    kind = draw(st.sampled_from(["group", "faber", "replicable", "dmvv"]))
    n = str(draw(st.integers(0, 3)))
    if kind == "group":
        command = draw(st.sampled_from(_GROUP_COMMANDS))
        argv = [*command] + ([] if command == ("epsilon",) else ["--n", n])
        files = {"--input": draw(_either(_json_values, _series, _table))}
        if draw(st.booleans()):
            files["--group"] = draw(_either(_json_values, _group))
    elif kind == "dmvv":
        argv = ["dmvv", "--t-order", n, "--q-order", "2"]
        files = {"--coeffs": draw(_either(_json_values, _coeffs))}
    else:
        argv = (["faber", "--n", n] if kind == "faber"
                else ["replicable", "--nmax", n, "--order", "2"])
        files = {"--input": draw(_either(_json_values, _series))}
    return argv, files


def _series_record(exponents, coeff):
    return {"terms": [{"num": num, "den": den, "coeff": coeff} for num, den in exponents],
            "truncation": "3"}


@given(call=_cli_calls())
@example(call=(["hecke", "--n", "2"], {"--input": _series_record(
    [(1, 1)], {"order": -3, "terms": [[1, "1"]]})}))
@example(call=(["sym", "--n", "2", "--method", "exp"], {"--input": _series_record(
    [(1, 1), (2, 2)], {"order": 1, "terms": [[0, "1"]]})}))
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
def test_cli_malformed_json_exits_cleanly(call, tmp_path, capsys):
    # every subcommand that reads JSON, on malformed or near-valid input:
    # no exception escapes, and a usage error is one line on stderr
    argv, files = call
    for flag, payload in files.items():
        path = tmp_path / f"{flag[2:]}.json"
        path.write_text(json.dumps(payload))
        argv = [*argv, flag, str(path)]
    capsys.readouterr()
    code = cli_main(argv + ["--size-cap", "50"])
    out, err = capsys.readouterr()
    assert code in (0, 1, 2), (argv, files, err)
    if code == 2:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err


def test_cli_replicable_order_zero_with_j():
    out = run_cli("replicable", "--nmax", "1", "--order", "0", "--j")
    assert out.returncode == 0 and json.loads(out.stdout)["ok"] is True


def test_cli_dmvv_and_denominator(tmp_path):
    c = tmp_path / "c.json"
    c.write_text(dumps(coeffs_to_json({1: 1, 2: -1})))
    out = run_cli("dmvv", "--coeffs", str(c), "--t-order", "3", "--q-order", "4")
    assert out.returncode == 0 and json.loads(out.stdout)["ok"] is True
    out = run_cli("denominator", "--order", "2")
    assert out.returncode == 0 and json.loads(out.stdout)["ok"] is True


def test_cli_output_text_mode(tmp_path):
    out = run_cli("--output", "text", "faber", "--n", "2", "--j")
    assert out.returncode == 0 and "Phi_2" in out.stdout
    out = run_cli("faber", "--n", "2", "--j", "--output", "text")
    assert out.returncode == 0 and "Phi_2" in out.stdout


def test_cli_powerop_epsilon_pipeline(tmp_path):
    # orbifold sum of a power operation output, fed back through files
    series = series_to_json(PuiseuxSeries({1: 1}, 6))
    xpath = tmp_path / "x.json"
    xpath.write_text(dumps(series))
    out = run_cli("powerop", "--n", "2", "--input", str(xpath))
    assert out.returncode == 0
    ypath = tmp_path / "y.json"
    ypath.write_text(out.stdout)
    eps = run_cli("epsilon", "--input", str(ypath))
    assert eps.returncode == 0
    value = series_from_json(json.loads(eps.stdout))
    # equals the degree-2 symmetric power of q: q^2
    assert value.terms == PuiseuxSeries({2: 1}).terms
