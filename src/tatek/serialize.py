"""JSON interchange: exact numbers only, deterministic layout.

Rationals travel as strings ("p" or "p/q"), cyclotomics as term lists
over their order, series as exponent/coefficient records plus the
truncation order. Groups are permutation generators (1-based image
lists); wreath groups nest a base-group record with a copy count, and
wreath elements are {"base": [...], "perm": [...]}. Every emitter sorts
its keys and terms so identical values produce identical bytes.

Every loader fails the same way: one `FormatError` naming the innermost
malformed record, and a key given twice in one record is rejected, never
overwritten. A group or a cyclotomic order over the size cap is refused
with `SizeCapExceeded` before anything is built.
"""

from __future__ import annotations

import functools
import json
from fractions import Fraction

from .cyclotomic import Cyclotomic
from .devoto import DevotoElement
from .groups import DEFAULT_SIZE_CAP, FiniteGroup, SizeCapExceeded, permutation_group
from .series import BivariateSeries, PuiseuxSeries
from .wreath import WreathElement, WreathGroup, wreath


class FormatError(ValueError):
    """Malformed interchange data."""


def _loader(record: str):
    """The input boundary of a loader: the errors of reading a malformed
    record become one `FormatError` naming it."""
    def decorate(load):
        @functools.wraps(load)
        def boundary(*args, **kwargs):
            try:
                return load(*args, **kwargs)
            except (FormatError, SizeCapExceeded):
                raise
            except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
                raise FormatError(f"bad {record}: {exc}") from exc
        return boundary
    return decorate


def _unique(pairs, what: str) -> dict:
    """A dict of the (key, value) pairs; a repeated key is a FormatError."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise FormatError(f"duplicate {what} {key}")
        out[key] = value
    return out


def fraction_to_str(x: Fraction) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def fraction_from_str(s) -> Fraction:
    if isinstance(s, (bool, float)):  # Fraction would round or accept them
        raise FormatError(f"bad rational {s!r}")
    try:
        return Fraction(s)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise FormatError(f"bad rational {s!r}") from exc


def _int_from_json(x) -> int:
    """An integer field of a record; a JSON float or boolean is rejected,
    not rounded."""
    if isinstance(x, (bool, float)):
        raise FormatError(f"expected an integer, got {x!r}")
    return int(x)


def cyclotomic_to_json(c: Cyclotomic) -> dict:
    return {"order": c.order,
            "terms": [[e, fraction_to_str(v)] for e, v in sorted(c.terms.items())]}


@_loader("cyclotomic record")
def cyclotomic_from_json(data, size_cap: int = DEFAULT_SIZE_CAP) -> Cyclotomic:
    # a value over a group within the cap has an order dividing the
    # group's exponent, so a larger order is refused before Phi_N is built
    order = _int_from_json(data["order"])
    if order > size_cap:
        raise SizeCapExceeded(f"cyclotomic order {order} exceeds size cap {size_cap}")
    return Cyclotomic(order, _unique(((_int_from_json(e), fraction_from_str(v))
                                      for e, v in data["terms"]), "cyclotomic exponent"))


def series_to_json(s: PuiseuxSeries) -> dict:
    terms = [{"num": e.numerator, "den": e.denominator, "coeff": cyclotomic_to_json(c)}
             for e, c in sorted(s.terms.items())]
    return {"terms": terms,
            "truncation": None if s.truncation is None else fraction_to_str(s.truncation)}


@_loader("series record")
def series_from_json(data, size_cap: int = DEFAULT_SIZE_CAP) -> PuiseuxSeries:
    terms = _unique(((Fraction(_int_from_json(t["num"]), _int_from_json(t["den"])),
                      cyclotomic_from_json(t["coeff"], size_cap))
                     for t in data["terms"]), "series exponent")
    trunc = data.get("truncation")
    return PuiseuxSeries(terms, None if trunc is None else fraction_from_str(trunc))


def bivariate_to_json(b: BivariateSeries) -> dict:
    return {"t_truncation": b.t_truncation,
            "coefficients": [{"t": n, "series": series_to_json(s)}
                             for n, s in sorted(b.terms.items())]}


@_loader("bivariate record")
def bivariate_from_json(data, size_cap: int = DEFAULT_SIZE_CAP) -> BivariateSeries:
    return BivariateSeries(_unique(((_int_from_json(c["t"]),
                                     series_from_json(c["series"], size_cap))
                                    for c in data["coefficients"]), "t-degree"),
                           _int_from_json(data["t_truncation"]))


# -- groups and elements -------------------------------------------------


def group_to_json(G: FiniteGroup) -> dict:
    if isinstance(G, WreathGroup):
        return {"wreath": {"base_group": group_to_json(G.base_group), "copies": G.copies}}
    gens = getattr(G, "generators", None)
    if gens is None:
        raise FormatError(f"group {G.name} has no generator presentation to serialize")
    out = {"degree": G.degree, "generators": [[i + 1 for i in g] for g in gens]}
    if G.name:
        out["name"] = G.name
    return out


@_loader("group record")
def group_from_json(data, size_cap: int = DEFAULT_SIZE_CAP) -> FiniteGroup:
    if "wreath" in data:
        inner = group_from_json(data["wreath"]["base_group"], size_cap)
        return wreath(inner, _int_from_json(data["wreath"]["copies"]), size_cap)
    degree = _int_from_json(data["degree"])
    if degree < 1:
        raise FormatError(f"group degree must be positive, got {degree}")
    gens = [tuple(_int_from_json(i) - 1 for i in g) for g in data["generators"]]
    for g in gens:
        if sorted(g) != list(range(degree)):
            raise FormatError(f"not a permutation of 1..{degree}: {g}")
    # a name is printed in messages, which stay one line
    name = data.get("name")
    if name is not None and not (isinstance(name, str) and name.isprintable()):
        raise FormatError(f"bad group name {name!r}")
    return permutation_group(degree, gens, name=name, size_cap=size_cap)


def element_to_json(g):
    if isinstance(g, WreathElement):
        return {"base": [element_to_json(x) for x in g.base],
                "perm": [i + 1 for i in g.perm]}
    if isinstance(g, tuple):
        return [i + 1 for i in g]
    raise FormatError(f"cannot serialize element {g!r}")


@_loader("element record")
def element_from_json(data, group: FiniteGroup):
    if isinstance(data, dict):
        if not isinstance(group, WreathGroup):
            raise FormatError("wreath element given for a plain group")
        base = tuple(element_from_json(x, group.base_group) for x in data["base"])
        perm = tuple(_int_from_json(i) - 1 for i in data["perm"])
        el = WreathElement(base, perm)
    else:
        el = tuple(_int_from_json(i) - 1 for i in data)
    if el not in group:
        raise FormatError(f"element {data!r} is not in the group")
    return el


# -- composite values -----------------------------------------------------


def devoto_to_json(x: DevotoElement) -> dict:
    entries = []
    for (g, h), s in x.table.items():
        entries.append({"g": element_to_json(g), "h": element_to_json(h),
                        "series": series_to_json(s)})
    entries.sort(key=lambda e: json.dumps(e, sort_keys=True))
    return {"group": group_to_json(x.group), "level": x.level, "entries": entries}


@_loader("element table")
def devoto_from_json(data, group: FiniteGroup | None = None,
                     size_cap: int = DEFAULT_SIZE_CAP) -> DevotoElement:
    G = group if group is not None else group_from_json(data["group"], size_cap)
    table = {}
    for entry in data["entries"]:
        g = element_from_json(entry["g"], G)
        h = element_from_json(entry["h"], G)
        if (g, h) in table:
            raise FormatError(f"duplicate entry for ({entry['g']}, {entry['h']})")
        if G.mul(g, h) != G.mul(h, g):
            raise FormatError(f"non-commuting entry ({entry['g']}, {entry['h']})")
        table[(g, h)] = series_from_json(entry["series"], size_cap)
    return DevotoElement(G, table, _int_from_json(data.get("level", 1)))


def repchar_to_json(chi) -> dict:
    return {"group": group_to_json(chi.group),
            "values": [{"class_rep": element_to_json(g), "value": cyclotomic_to_json(v)}
                       for g, v in sorted(chi.values.items())]}


@_loader("character record")
def repchar_from_json(data, group: FiniteGroup | None = None,
                      size_cap: int = DEFAULT_SIZE_CAP):
    from .characters import RepCharacter

    G = group if group is not None else group_from_json(data["group"], size_cap)
    values = {}
    for v in data["values"]:
        g = element_from_json(v["class_rep"], G)
        if g in values:  # named as written, like a repeated table entry
            raise FormatError(f"duplicate class representative {v['class_rep']}")
        values[g] = cyclotomic_from_json(v["value"], size_cap)
    return RepCharacter(G, values)


def coeffs_to_json(c: dict[int, int]) -> dict:
    return {"coeffs": [{"i": i, "c": v} for i, v in sorted(c.items())]}


@_loader("coefficient map")
def coeffs_from_json(data) -> dict[int, int]:
    return _unique(((_int_from_json(item["i"]), _int_from_json(item["c"]))
                    for item in data["coeffs"]), "coefficient index")


def dumps(value) -> str:
    """Deterministic JSON encoding (sorted keys, no floats anywhere)."""
    return json.dumps(value, sort_keys=True, separators=(", ", ": "), indent=1)
