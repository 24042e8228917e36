"""Span tracing for the traced benchmark run.

The tracer wraps public functions of each `ncprob` layer with span-recording
wrappers and installs each wrapper in every `ncprob` module namespace that
binds the function, because several modules import names at load time.
Spans (name, start, end, parent, phase, detail) stay in memory until the
run ends; `summary()` folds them into additive raw counters, so summaries of
several processes can be summed before `per_layer()` turns them into metrics.
"""

import functools
import sys
from math import comb
from time import perf_counter

# Public functions wrapped per layer.  Names missing from a module are
# skipped, so the tracer keeps working when a layer drops a function.
# `build_family` is left out: it runs its caller's per-word callback, so its
# span would take the caller's self time.
LAYERS = {
    "nc": ["enumerate_nc", "interval_partitions", "kreweras", "moebius_to_one",
           "moebius_oracle", "enumerate_ll_below", "cut", "attach", "f_nm",
           "f_nm_inverse"],
    "typeb": ["enumerate_signed", "from_pair", "to_pair", "abs_partition"],
    "families": ["random_family", "random_tracial", "random_delta", "truncate",
                 "relabel", "zero_family",
                 "MultilinearFamily.to_json_dict", "MultilinearFamily.from_json_dict",
                 "DeltaTensor.to_json_dict", "DeltaTensor.from_json_dict"],
    "cumulants": ["free_cumulants", "moments_from_free", "boolean_cumulants",
                  "moments_from_boolean", "cfree_cumulants", "moments_from_cfree",
                  "cfree_explicit", "cc_cumulants", "moments_from_cc",
                  "infinitesimal_cumulants", "infinitesimal_moments",
                  "eq_typeb_counterexample", "eq_bopp_counterexample"],
    "deltastar": ["psi_k", "delta_star", "psi_delta", "eval_gamma", "eval_eta",
                  "gamma_eta_counterexample", "cumulant_transform_counterexample",
                  "cyclic_cumulant_counterexample"],
    "products": ["free_product", "cfree_product", "infinitesimal_product",
                 "boxplus", "boxplus_c", "boxplus_b",
                 "product_intertwine_counterexample",
                 "convolution_intertwine_counterexample"],
    "selftest": ["verify_report"],
}
CUMULANT_TRANSFORMS = LAYERS["cumulants"][:11]
PRODUCTS = LAYERS["products"][:6]
TARGETS = ("12", "13", "14", "17", "lemma210", "lemma67", "prop41", "prop54",
           "eq5a", "eq55a")
CACHES = ("nc._nc_range", "nc._nc_objects", "cumulants._nc_mob_table",
          "cumulants._roles_table", "cumulants._ll_one_table",
          "cumulants._interval_table", "cumulants._bopp_table",
          "cumulants._b_zero_table", "cumulants._bopp_zero_table",
          "typeb._enumerate_b", "typeb._enumerate_bopp",
          "deltastar._beta_values", "families.words_of_length")
# Spans of these phases are op work; the rest is set-up and output checks.
OP_PHASES = ("op", "census")


def _catalan(m: int) -> int:
    return comb(2 * m, m) // (m + 1)


def _lattice_size(fn: str, n: int) -> int:
    """Partitions summed over for one output word of length n."""
    if fn in ("boolean_cumulants", "moments_from_boolean"):
        return 1 << (n - 1)
    if fn == "cfree_explicit":
        return _catalan(n - 1)  # NC(n) with 1 and n in one block
    if fn in ("cc_cumulants", "moments_from_cc"):
        return comb(2 * n, n)
    return _catalan(n)


def _family_key(f):
    return (f.k, f.N, tuple(f.values.items()))


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, phase, detail]
        self.stack: list[int] = []
        self.phase = "setup"
        self.counts: dict[str, float] = {}
        self._seen_cold: set = set()
        self._op_inputs: set = set()
        self._installed: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def begin_op(self) -> None:
        """Start of one benchmark op: redundancy is judged within an op."""
        self._op_inputs = set()

    def _wrap(self, layer: str, name: str, fn):
        short = name.rsplit(".", 1)[-1]
        span_name = f"{layer}.{short}"
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            detail = tracer._before(short, args)
            parent = tracer.stack[-1] if tracer.stack else -1
            idx = len(tracer.spans)
            span = [span_name, 0.0, 0.0, parent, tracer.phase, detail]
            tracer.spans.append(span)
            tracer.stack.append(idx)
            span[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                tracer.stack.pop()
            tracer._after(short, args, out, span)
            return out

        wrapper.__wrapped_by_perfbench__ = fn
        return wrapper

    def _before(self, short: str, args):
        if short == "verify_report":
            return str(args[0]) if args else None
        if short == "free_cumulants" and args and self.phase == "op":
            key = _family_key(args[0])
            self.add("cumulants.free_calls", 1)
            if key in self._op_inputs:
                self.add("cumulants.free_redundant", 1)
            self._op_inputs.add(key)
        if short in ("enumerate_nc", "enumerate_signed") and args:
            flavor = getattr(args[1], "value", args[1]) if len(args) > 1 else ""
            key = (short, args[0], flavor)
            if key not in self._seen_cold:
                self._seen_cold.add(key)
                return f"cold:{flavor}"
        return None

    def _after(self, short: str, args, out, span) -> None:
        if short in CUMULANT_TRANSFORMS and self.phase in OP_PHASES:
            lengths = [len(w) for w in out.values]
            self.add("cumulants.words_out", len(lengths))
            self.add("cumulants.terms_computed",
                     sum(_lattice_size(short, n) for n in lengths))
        elif short == "enumerate_nc" and span[5]:
            self.add("nc.partitions_built", len(out))

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every listed function and rebind it wherever it is bound."""
        mods = [m for name, m in list(sys.modules.items())
                if m is not None and (name == "ncprob" or name.startswith("ncprob."))]
        for layer, names in LAYERS.items():
            home = sys.modules.get(f"ncprob.{layer}")
            if home is None:
                continue
            for name in names:
                if "." in name:
                    cls_name, attr = name.split(".")
                    cls = getattr(home, cls_name, None)
                    raw = cls.__dict__.get(attr) if cls is not None else None
                    if raw is None:
                        continue
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(self._wrap(layer, name, raw.__func__))
                    else:
                        wrapped = self._wrap(layer, name, raw)
                    self._installed.append((cls, attr, raw))
                    setattr(cls, attr, wrapped)
                    continue
                fn = getattr(home, name, None)
                if fn is None:
                    continue
                wrapped = self._wrap(layer, name, fn)
                for mod in mods:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            self._installed.append((mod, attr, fn))
                            setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed = []

    # -- folding -----------------------------------------------------------

    def summary(self) -> dict:
        """Additive raw counters: self times by span name for op work and for
        all work except the benchmark's own output checks, cold enumeration
        times, counts and cache statistics."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, phase, detail in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        raw = dict(self.counts)

        def add(key, value):
            raw[key] = raw.get(key, 0) + value

        for i, (name, start, end, parent, phase, detail) in enumerate(self.spans):
            own = (end - start) - child_time[i]
            if phase != "check":
                add(f"self_all.{name}", own)
            if phase in OP_PHASES:
                add(f"self_op.{name}", own)
                if name == "selftest.verify_report":
                    add(f"self_op.verify.{detail}", own)
            if detail and detail.startswith("cold:"):
                flavor = detail[5:]
                add(f"cold.{name}" + (f".{flavor}" if flavor else ""), end - start)
        raw.update(cache_counts())
        return raw


def cache_counts() -> dict:
    """cache_info() hits, misses and sizes of the lattice and family caches;
    a cache a later version no longer has reads as zero."""
    out = {}
    for qual in CACHES:
        mod_name, fn_name = qual.split(".", 1)
        fn = getattr(sys.modules.get(f"ncprob.{mod_name}"), fn_name, None)
        fn = getattr(fn, "__wrapped_by_perfbench__", fn)
        info = fn.cache_info() if hasattr(fn, "cache_info") else None
        out[f"{qual}.hits"] = info.hits if info else 0
        out[f"{qual}.misses"] = info.misses if info else 0
        out[f"{qual}.size"] = info.currsize if info else 0
    return out


def merge(total: dict, part: dict) -> None:
    for key, value in part.items():
        total[key] = total.get(key, 0) + value


def per_layer(raw: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics (value, unit) from merged raw counters."""
    op = lambda name: raw.get(f"self_op.{name}", 0.0)  # noqa: E731
    every = lambda name: raw.get(f"self_all.{name}", 0.0)  # noqa: E731
    m: dict[str, tuple[float, str]] = {}
    for layer, names in LAYERS.items():
        m[f"{layer}.self_s"] = (
            sum(op(f"{layer}.{n.rsplit('.', 1)[-1]}") for n in names), "s")
    for fn in CUMULANT_TRANSFORMS:
        m[f"cumulants.{fn}_s"] = (op(f"cumulants.{fn}"), "s")
    m["cumulants.words_out"] = (raw.get("cumulants.words_out", 0), "count")
    m["cumulants.terms_computed"] = (raw.get("cumulants.terms_computed", 0), "count")
    calls = raw.get("cumulants.free_calls", 0)
    m["cumulants.free_cumulants_redundant_ratio"] = (
        raw.get("cumulants.free_redundant", 0) / calls if calls else 0.0, "ratio")
    m["nc.enumerate_nc_cold_s"] = (raw.get("cold.nc.enumerate_nc", 0.0), "s")
    m["nc.partitions_built"] = (raw.get("nc.partitions_built", 0), "count")
    for flavor in ("B", "B-opp"):
        name = "B_OPP" if flavor == "B-opp" else "B"
        m[f"typeb.enumerate_signed_cold_s.{name}"] = (
            raw.get(f"cold.typeb.enumerate_signed.{flavor}", 0.0), "s")
    m["deltastar.psi_k_s"] = (op("deltastar.psi_k"), "s")
    m["deltastar.delta_star_s"] = (op("deltastar.delta_star"), "s")
    m["deltastar.gamma_eta_s"] = (
        op("deltastar.gamma_eta_counterexample") + op("deltastar.eval_gamma")
        + op("deltastar.eval_eta"), "s")
    hits = raw.get("deltastar._beta_values.hits", 0)
    misses = raw.get("deltastar._beta_values.misses", 0)
    m["deltastar.beta_cache_hit_ratio"] = (
        hits / (hits + misses) if hits + misses else 0.0, "ratio")
    for fn in PRODUCTS:
        m[f"products.{fn}_s"] = (op(f"products.{fn}"), "s")
    for target in TARGETS:
        m[f"selftest.verify_report_s.{target}"] = (op(f"verify.{target}"), "s")
    m["families.random_s"] = (
        every("families.random_family") + every("families.random_tracial")
        + every("families.random_delta"), "s")
    m["families.json_load_s"] = (every("families.from_json_dict"), "s")
    m["families.json_dump_s"] = (every("families.to_json_dict"), "s")
    kids = raw.get("cli.children", 0)
    m["cli.import_s"] = (raw.get("cli.import_sum", 0.0) / kids if kids else 0.0, "s")
    m["cli.process_s"] = (raw.get("cli.process_sum", 0.0) / kids if kids else 0.0, "s")
    for qual in CACHES:
        for part in ("hits", "misses", "size"):
            m[f"{qual}.{part}"] = (raw.get(f"{qual}.{part}", 0), "count")
    m["fractions.share_indicative"] = (raw.get("fractions.share", 0.0), "share")
    m["workload.repeat_share"] = (raw.get("workload.repeat_share", 0.0), "share")
    rates = {}
    for mode in ("untraced", "traced"):
        busy = raw.get(f"trace.time_{mode}", 0.0)
        rates[mode] = raw.get(f"trace.ops_{mode}", 0) / busy if busy else 0.0
        m[f"trace.ops_per_s_{mode}"] = (rates[mode], "1/s")
    m["trace.overhead_ratio"] = (
        rates["untraced"] / rates["traced"] if rates["traced"] else 0.0, "ratio")
    return m
