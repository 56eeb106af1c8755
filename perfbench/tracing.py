"""Per-layer tracing of tatek from outside the library.

The tracer wraps the public functions and methods of the tatek modules in
place: methods are patched on their class, module functions in every
tatek module (and the verify suite table) that binds the same object.
Each wrapped call is a span. Spans are aggregated as
(span, parent span) -> [calls, total seconds, self seconds], where self
time is the span minus its child spans; no per-call record is kept,
because Cyclotomic.__mul__ alone runs millions of times per pass.
`uninstall` puts every original back, instance `mul` bindings included.

`layer_metrics` turns the aggregate into the per-layer metrics listed in
BENCHMARK.json.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
import types

# span name -> (module, attribute or Class.method); the span's layer is the
# part before the first dot ("kernel" is the tatek._kernel module).
SPANS = [
    ("kernel.convolve", "tatek._kernel", "convolve"),
    ("kernel.monic_rem", "tatek._kernel", "monic_rem"),
    ("cyclotomic.init", "tatek.cyclotomic", "Cyclotomic.__init__"),
    ("cyclotomic.add", "tatek.cyclotomic", "Cyclotomic.__add__"),
    ("cyclotomic.neg", "tatek.cyclotomic", "Cyclotomic.__neg__"),
    ("cyclotomic.mul", "tatek.cyclotomic", "Cyclotomic.__mul__"),
    ("cyclotomic.eq", "tatek.cyclotomic", "Cyclotomic.__eq__"),
    ("cyclotomic.inverse", "tatek.cyclotomic", "Cyclotomic.inverse"),
    ("cyclotomic.galois", "tatek.cyclotomic", "Cyclotomic.galois"),
    ("cyclotomic.embed", "tatek.cyclotomic", "Cyclotomic._dense_at"),
    ("cyclotomic.embed", "tatek.cyclotomic", "Cyclotomic.embedded"),
    ("cyclotomic.embed", "tatek.cyclotomic", "Cyclotomic.reduce_to"),
    ("cyclotomic.root_of_unity", "tatek.cyclotomic", "root_of_unity"),
    ("series.init", "tatek.series", "PuiseuxSeries.__init__"),
    ("series.add", "tatek.series", "PuiseuxSeries.__add__"),
    ("series.neg", "tatek.series", "PuiseuxSeries.__neg__"),
    ("series.mul", "tatek.series", "PuiseuxSeries.__mul__"),
    ("series.dense", "tatek.series", "_dense_rational_product"),
    ("series.analytic", "tatek.series", "PuiseuxSeries.exp"),
    ("series.analytic", "tatek.series", "PuiseuxSeries.log"),
    ("series.analytic", "tatek.series", "PuiseuxSeries.inv"),
    ("series.analytic", "tatek.series", "PuiseuxSeries.__pow__"),
    ("series.compare", "tatek.series", "PuiseuxSeries.agrees_with"),
    ("series.compare", "tatek.series", "PuiseuxSeries.__eq__"),
    ("series.truncated", "tatek.series", "PuiseuxSeries.truncated"),
    ("series.subst", "tatek.series", "hecke_substitute"),
    ("series.bivariate_init", "tatek.series", "BivariateSeries.__init__"),
    ("series.bivariate_add", "tatek.series", "BivariateSeries.__add__"),
    ("series.bivariate_mul", "tatek.series", "BivariateSeries.__mul__"),
    ("series.analytic", "tatek.series", "BivariateSeries.exp"),
    ("series.analytic", "tatek.series", "BivariateSeries.log"),
    ("series.analytic", "tatek.series", "BivariateSeries.inv"),
    ("series.analytic", "tatek.series", "BivariateSeries.__pow__"),
    ("series.compare", "tatek.series", "BivariateSeries.agrees_with"),
    ("groups.init", "tatek.groups", "FiniteGroup.__init__"),
    ("groups.build", "tatek.groups", "FiniteGroup._conjugacy_data"),
    ("groups.build", "tatek.groups", "FiniteGroup._build_pair_tables"),
    ("groups.lookup", "tatek.groups", "FiniteGroup.commuting_pair_classes"),
    ("groups.lookup", "tatek.groups", "FiniteGroup.pair_class_rep"),
    ("groups.lookup", "tatek.groups", "FiniteGroup.pair_class_size"),
    ("groups.lookup", "tatek.groups", "FiniteGroup.class_representatives"),
    ("groups.lookup", "tatek.groups", "FiniteGroup.conjugacy_class"),
    ("groups.lookup", "tatek.groups", "FiniteGroup.class_rep"),
    ("groups.lookup", "tatek.groups", "FiniteGroup.conjugator_to_rep"),
    ("groups.lookup", "tatek.groups", "FiniteGroup.centralizer"),
    ("groups.lookup", "tatek.groups", "FiniteGroup.order_of"),
    ("groups.construct", "tatek.groups", "permutation_group"),
    ("groups.construct", "tatek.groups", "direct_product"),
    ("wreath.enumerate", "tatek.wreath", "WreathGroup.__init__"),
    ("wreath.orbit_data", "tatek.wreath", "orbit_data"),
    ("wreath.tokens", "tatek.wreath", "action_tokens"),
    ("wreath.tokens", "tatek.wreath", "compose_tokens"),
    ("wreath.centralizer_condition", "tatek.wreath", "centralizer_condition"),
    ("wreath.iota", "tatek.wreath", "iota"),
    ("wreath.homs", "tatek.wreath", "iota_hom"),
    ("wreath.homs", "tatek.wreath", "block_sum_hom"),
    ("wreath.homs", "tatek.wreath", "unzip_hom"),
    ("wreath.homs", "tatek.groups", "Homomorphism.__init__"),
    ("devoto.init", "tatek.devoto", "DevotoElement.__init__"),
    ("devoto.eval", "tatek.devoto", "DevotoElement.eval"),
    ("devoto.ring", "tatek.devoto", "DevotoElement.__add__"),
    ("devoto.ring", "tatek.devoto", "DevotoElement.__mul__"),
    ("devoto.ring", "tatek.devoto", "DevotoElement.__neg__"),
    ("devoto.compare", "tatek.devoto", "DevotoElement.agrees_with"),
    ("devoto.constant", "tatek.devoto", "DevotoElement.constant"),
    ("devoto.restrict", "tatek.devoto", "restrict_along"),
    ("devoto.external", "tatek.devoto", "external_product"),
    ("devoto.rescale", "tatek.devoto", "rescale"),
    ("devoto.epsilon", "tatek.devoto", "epsilon"),
    ("devoto.trivial_part", "tatek.devoto", "trivial_part"),
    ("devoto.check", "tatek.devoto", "check_devoto"),
    ("devoto.random", "tatek.devoto", "random_devoto_element"),
    ("devoto.rotation_twist", "tatek.devoto", "rotation_twist"),
    ("powerops.p_str", "tatek.powerops", "p_str"),
    ("powerops.substituted_value", "tatek.powerops", "_substituted_value"),
    ("powerops.hecke", "tatek.powerops", "hecke_T"),
    ("powerops.hecke", "tatek.powerops", "hecke_scalar"),
    ("powerops.sym_brute", "tatek.powerops", "_sym_brute"),
    ("powerops.sym_exp", "tatek.powerops", "_sym_exp_total"),
    ("powerops.sym", "tatek.powerops", "sym_str"),
    ("powerops.sym", "tatek.powerops", "sym_total"),
    ("powerops.lambda", "tatek.powerops", "lambda_str_total"),
    ("powerops.compare", "tatek.powerops", "compare_class_functions"),
    ("powerops.iterated", "tatek.powerops", "verify_iterated"),
    ("powerops.top", "tatek.powerops", "p_top_eval"),
    ("powerops.top", "tatek.powerops", "s_top_total"),
    ("characters.init", "tatek.characters", "RepCharacter.__init__"),
    ("characters.value", "tatek.characters", "RepCharacter.value"),
    ("characters.ring", "tatek.characters", "RepCharacter.__add__"),
    ("characters.ring", "tatek.characters", "RepCharacter.__mul__"),
    ("characters.eigen", "tatek.characters", "eigen_multiplicity"),
    ("characters.eigen", "tatek.characters", "eigen_multiplicity_root"),
    ("characters.age", "tatek.characters", "age"),
    ("characters.powers", "tatek.characters", "lambda_sym_char"),
    ("characters.powers", "tatek.characters", "_power_series_coeffs"),
    ("characters.wreath_sum", "tatek.characters", "wreath_sum_character"),
    ("characters.eigen_cycle", "tatek.characters", "eigen_cycle_check"),
    ("characters.euler", "tatek.characters", "euler_str"),
    ("characters.hinfty", "tatek.characters", "verify_hinfty"),
    ("moonshine.jseries", "tatek.moonshine", "jseries"),
    ("moonshine.check", "tatek.moonshine", "jseries_consistency"),
    ("moonshine.check", "tatek.moonshine", "faber"),
    ("moonshine.check", "tatek.moonshine", "evaluate_poly"),
    ("moonshine.check", "tatek.moonshine", "replicability_check"),
    ("moonshine.check", "tatek.moonshine", "faber_normal_form_check"),
    ("moonshine.check", "tatek.moonshine", "borcherds_product"),
    ("moonshine.check", "tatek.moonshine", "dmvv_check"),
    ("moonshine.check", "tatek.moonshine", "denominator_check"),
    ("serialize.emit", "tatek.serialize", "cyclotomic_to_json"),
    ("serialize.emit", "tatek.serialize", "series_to_json"),
    ("serialize.emit", "tatek.serialize", "bivariate_to_json"),
    ("serialize.emit", "tatek.serialize", "group_to_json"),
    ("serialize.emit", "tatek.serialize", "element_to_json"),
    ("serialize.emit", "tatek.serialize", "devoto_to_json"),
    ("serialize.emit", "tatek.serialize", "repchar_to_json"),
    ("serialize.emit", "tatek.serialize", "coeffs_to_json"),
    ("serialize.dumps", "tatek.serialize", "dumps"),
    ("serialize.parse", "tatek.serialize", "cyclotomic_from_json"),
    ("serialize.parse", "tatek.serialize", "series_from_json"),
    ("serialize.parse", "tatek.serialize", "bivariate_from_json"),
    ("serialize.parse", "tatek.serialize", "group_from_json"),
    ("serialize.parse", "tatek.serialize", "element_from_json"),
    ("serialize.parse", "tatek.serialize", "devoto_from_json"),
    ("serialize.parse", "tatek.serialize", "repchar_from_json"),
    ("serialize.parse", "tatek.serialize", "coeffs_from_json"),
    ("cli.main", "tatek.cli", "main"),
    ("cli.parser", "tatek.cli", "build_parser"),
    ("cli.read", "tatek.cli", "_read_json"),
    ("cli.load", "tatek.cli", "_load_series_or_element"),
    ("cli.emit", "tatek.cli", "_emit"),
    ("cli.command", "tatek.cli", "cmd_jseries"),
    ("cli.command", "tatek.cli", "cmd_faber"),
    ("cli.command", "tatek.cli", "cmd_replicable"),
    ("cli.command", "tatek.cli", "cmd_hecke"),
    ("cli.command", "tatek.cli", "cmd_sym"),
    ("cli.command", "tatek.cli", "cmd_powerop"),
    ("cli.command", "tatek.cli", "cmd_epsilon"),
    ("cli.command", "tatek.cli", "cmd_dmvv"),
    ("cli.command", "tatek.cli", "cmd_denominator"),
    ("cli.command", "tatek.cli", "cmd_verify"),
    ("verify.run_suites", "tatek.verify", "run_suites"),
    ("verify.arith", "tatek.verify", "suite_arith"),
    ("verify.wreath", "tatek.verify", "suite_wreath"),
    ("verify.devoto", "tatek.verify", "suite_devoto"),
    ("verify.powerops", "tatek.verify", "suite_powerops"),
    ("verify.hinfty", "tatek.verify", "suite_hinfty"),
    ("verify.moonshine", "tatek.verify", "suite_moonshine"),
]

# per-layer metric -> unit, in the order BENCHMARK.json lists them
PER_LAYER_UNITS = {
    "kernel.calls": "count", "kernel.self_s": "s", "kernel.int_mults": "count",
    "cyclotomic.mul_calls": "count", "cyclotomic.self_s": "s",
    "cyclotomic.nonrational_frac": "frac", "cyclotomic.embed_calls": "count",
    "series.mul_calls": "count", "series.mul_self_s": "s", "series.dense_frac": "frac",
    "series.analytic_self_s": "s", "series.bivariate_mul_calls": "count",
    "series.subst_calls": "count", "series.self_s": "s",
    "groups.build_s": "s", "groups.lookup_s": "s", "groups.lookup_calls": "count",
    "groups.mul_calls": "count", "groups.elements": "count",
    "groups.pair_classes": "count", "groups.self_s": "s",
    "wreath.enumerate_s": "s", "wreath.elements": "count",
    "wreath.orbit_data_calls": "count", "wreath.orbit_data_self_s": "s",
    "wreath.homs_self_s": "s", "wreath.self_s": "s",
    "devoto.calls": "count", "devoto.self_s": "s",
    "powerops.p_str_self_s": "s", "powerops.hecke_self_s": "s",
    "powerops.sym_brute_self_s": "s", "powerops.sym_exp_self_s": "s",
    "powerops.compare_self_s": "s", "powerops.subst_hit_ratio": "frac",
    "powerops.self_s": "s",
    "characters.self_s": "s", "characters.eigen_cycle_calls": "count",
    "moonshine.jseries_self_s": "s", "moonshine.check_self_s": "s",
    "serialize.self_s": "s", "serialize.bytes_out": "B",
    "cli.import_s": "s", "cli.process_overhead_s": "s", "cli.self_s": "s",
    "verify.arith_s": "s", "verify.wreath_s": "s", "verify.devoto_s": "s",
    "verify.powerops_s": "s", "verify.hinfty_s": "s", "verify.moonshine_s": "s",
    "trace.overhead_frac": "frac",
}


class Tracer:
    """Installs span wrappers into the loaded tatek modules.

    Use as a context manager (or call install/uninstall); the aggregate is
    in `stats` and the side counters in `counts`.
    """

    def __init__(self):
        self.stats: dict[tuple[str, str], list] = {}
        self.counts: dict[str, int] = {}
        self._stack: list[list] = []
        self._patches: list[tuple] = []   # (owner, key, original)
        self._instances: list[tuple] = []  # (group, original mul)

    # -- install / uninstall ---------------------------------------------

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def install(self):
        try:
            for span, module_name, attr in SPANS:
                self._patch(span, importlib.import_module(module_name), attr)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self):
        while self._patches:
            owner, key, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        while self._instances:
            group, mul = self._instances.pop()
            group.mul = mul

    def patched_targets(self) -> list[tuple]:
        """(owner, key, original) of every binding currently replaced."""
        return list(self._patches)

    def _patch(self, span: str, module, attr: str):
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, staticmethod):
                new = staticmethod(self._wrap(span, raw.__func__))
            else:
                new = self._wrap(span, raw)
            self._patches.append((cls, meth, raw))
            setattr(cls, meth, new)
            return
        original = getattr(module, attr)
        wrapper = self._wrap(span, original)
        for mod in _tatek_modules():
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, name, original))
                    setattr(mod, name, wrapper)
                elif isinstance(value, dict) and name.isupper():
                    # name tables such as verify.SUITES
                    for key, item in list(value.items()):
                        if item is original:
                            self._patches.append((value, key, original))
                            value[key] = wrapper

    # -- spans ---------------------------------------------------------------

    def _wrap(self, span: str, fn):
        when, before, after = self._hooks(span, fn)
        stack, stats, clock = self._stack, self.stats, time.perf_counter

        def wrapper(*args, **kwargs):
            if when is not None and not when(args):
                return fn(*args, **kwargs)
            if before is not None:
                before(args)
            frame = [span, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    parent = stack[-1]
                    parent[1] += elapsed
                    key = (span, parent[0])
                else:
                    key = (span, "")
                rec = stats.get(key)
                if rec is None:
                    rec = stats[key] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += elapsed - frame[1]
            if after is not None:
                after(args, result)
            return result

        functools.update_wrapper(wrapper, fn)
        return wrapper

    def _count(self, key: str, n: int = 1):
        self.counts[key] = self.counts.get(key, 0) + n

    def _hooks(self, span: str, fn):
        """(when, before, after) for spans that feed side counters."""
        name = getattr(fn, "__name__", "")
        count = self._count
        if span == "kernel.convolve":
            return None, lambda a: count("kernel.int_mults", len(a[0]) * len(a[1])), None
        if span == "cyclotomic.mul":
            def before(a):
                if a[0].order > 1 or getattr(a[1], "order", 1) > 1:
                    count("cyclotomic.nonrational_muls")
            return None, before, None
        if span == "series.mul":
            from tatek.series import PuiseuxSeries

            def before(a):
                if isinstance(a[1], PuiseuxSeries):
                    count("series.series_products")
            return None, before, None
        if span == "series.dense":
            def after(a, result):
                if result is not None:
                    count("series.dense_products")
            return None, None, after
        if span == "groups.init":
            return None, None, self._after_group_init
        if name == "_dense_at":
            # only a change of order is an embedding; same-order reads are not
            return (lambda a: a[1] != a[0].order), None, None
        if name == "_conjugacy_data":
            return (lambda a: a[0]._conjugacy is None), None, None
        if name == "_build_pair_tables":
            def after(a, result):
                count("groups.pair_classes", len(a[0]._pair_classes))
            return (lambda a: a[0]._pair_classes is None), None, after
        if span == "wreath.enumerate":
            return None, None, lambda a, result: count("wreath.elements", len(a[0].elements))
        if span == "serialize.dumps":
            return None, None, lambda a, result: count("serialize.bytes_out", len(result))
        return None, None, None

    def _after_group_init(self, args, result):
        group = args[0]
        self._count("groups.elements", len(group.elements))
        mul = group.mul
        counts = self.counts

        def counted_mul(a, b):
            counts["groups.mul_calls"] = counts.get("groups.mul_calls", 0) + 1
            return mul(a, b)

        self._instances.append((group, mul))
        group.mul = counted_mul

    # -- export ------------------------------------------------------------

    def export(self) -> dict:
        return {"stats": [[s, p, *rec] for (s, p), rec in sorted(self.stats.items())],
                "counts": dict(sorted(self.counts.items()))}


def _tatek_modules():
    return [m for name, m in sorted(sys.modules.items())
            if isinstance(m, types.ModuleType) and (name == "tatek" or name.startswith("tatek."))]


# -- aggregation ---------------------------------------------------------------


def merge(exports: list[dict]) -> dict:
    """Sum several exported traces."""
    stats: dict[tuple[str, str], list] = {}
    counts: dict[str, float] = {}
    for ex in exports:
        for s, p, calls, total, self_s in ex["stats"]:
            rec = stats.setdefault((s, p), [0, 0.0, 0.0])
            rec[0] += calls
            rec[1] += total
            rec[2] += self_s
        for k, v in ex["counts"].items():
            counts[k] = counts.get(k, 0) + v
    return {"stats": [[s, p, *rec] for (s, p), rec in sorted(stats.items())],
            "counts": counts}


def scaled(ex: dict, factor: float) -> dict:
    return {"stats": [[s, p, c * factor, t * factor, u * factor]
                      for s, p, c, t, u in ex["stats"]],
            "counts": {k: v * factor for k, v in ex["counts"].items()}}


def layer_metrics(ex: dict, overhead_frac: float, child_import_s: list[float],
                  child_overhead_s: list[float]) -> dict[str, float]:
    """The per-layer metrics from one exported (merged, per-pass) trace."""
    rows = ex["stats"]
    counts = ex["counts"]

    def calls(*spans):
        return sum(r[2] for r in rows if r[0] in spans)

    def self_time(*spans):
        return sum(r[4] for r in rows if r[0] in spans)

    def layer_self(layer):
        return sum(r[4] for r in rows if r[0].split(".", 1)[0] == layer)

    def outer_total(span):
        # inclusive time of the span where it is not nested in itself
        return sum(r[3] for r in rows if r[0] == span and r[1] != span)

    def frac(num, den):
        return num / den if den else 0.0

    subst_misses = sum(r[2] for r in rows
                       if r[0] == "series.subst" and r[1] == "powerops.substituted_value")
    value_calls = calls("powerops.substituted_value")
    m = {
        "kernel.calls": calls("kernel.convolve", "kernel.monic_rem"),
        "kernel.self_s": layer_self("kernel"),
        "kernel.int_mults": counts.get("kernel.int_mults", 0),
        "cyclotomic.mul_calls": calls("cyclotomic.mul"),
        "cyclotomic.self_s": layer_self("cyclotomic"),
        "cyclotomic.nonrational_frac": frac(counts.get("cyclotomic.nonrational_muls", 0),
                                            calls("cyclotomic.mul")),
        "cyclotomic.embed_calls": calls("cyclotomic.embed"),
        "series.mul_calls": calls("series.mul"),
        "series.mul_self_s": self_time("series.mul", "series.dense"),
        "series.dense_frac": frac(counts.get("series.dense_products", 0),
                                  counts.get("series.series_products", 0)),
        "series.analytic_self_s": self_time("series.analytic"),
        "series.bivariate_mul_calls": calls("series.bivariate_mul"),
        "series.subst_calls": calls("series.subst"),
        "series.self_s": layer_self("series"),
        "groups.build_s": outer_total("groups.build"),
        "groups.lookup_s": self_time("groups.lookup"),
        "groups.lookup_calls": calls("groups.lookup"),
        "groups.mul_calls": counts.get("groups.mul_calls", 0),
        "groups.elements": counts.get("groups.elements", 0),
        "groups.pair_classes": counts.get("groups.pair_classes", 0),
        "groups.self_s": layer_self("groups"),
        "wreath.enumerate_s": outer_total("wreath.enumerate"),
        "wreath.elements": counts.get("wreath.elements", 0),
        "wreath.orbit_data_calls": calls("wreath.orbit_data"),
        "wreath.orbit_data_self_s": self_time("wreath.orbit_data"),
        "wreath.homs_self_s": self_time("wreath.homs"),
        "wreath.self_s": layer_self("wreath"),
        "devoto.calls": sum(r[2] for r in rows if r[0].startswith("devoto.")),
        "devoto.self_s": layer_self("devoto"),
        "powerops.p_str_self_s": self_time("powerops.p_str"),
        "powerops.hecke_self_s": self_time("powerops.hecke"),
        "powerops.sym_brute_self_s": self_time("powerops.sym_brute"),
        "powerops.sym_exp_self_s": self_time("powerops.sym_exp"),
        "powerops.compare_self_s": self_time("powerops.compare"),
        "powerops.subst_hit_ratio": 1.0 - frac(subst_misses, value_calls) if value_calls else 0.0,
        "powerops.self_s": layer_self("powerops"),
        "characters.self_s": layer_self("characters"),
        "characters.eigen_cycle_calls": calls("characters.eigen_cycle"),
        "moonshine.jseries_self_s": self_time("moonshine.jseries"),
        "moonshine.check_self_s": self_time("moonshine.check"),
        "serialize.self_s": layer_self("serialize"),
        "serialize.bytes_out": counts.get("serialize.bytes_out", 0),
        "cli.import_s": statistics.fmean(child_import_s) if child_import_s else 0.0,
        "cli.process_overhead_s": statistics.fmean(child_overhead_s) if child_overhead_s else 0.0,
        "cli.self_s": layer_self("cli"),
        "verify.arith_s": outer_total("verify.arith"),
        "verify.wreath_s": outer_total("verify.wreath"),
        "verify.devoto_s": outer_total("verify.devoto"),
        "verify.powerops_s": outer_total("verify.powerops"),
        "verify.hinfty_s": outer_total("verify.hinfty"),
        "verify.moonshine_s": outer_total("verify.moonshine"),
        "trace.overhead_frac": overhead_frac,
    }
    return m
