"""Spans around the calls into each module of the package, kept in memory.

The tracer wraps public functions where they are looked up.  Modules bind
``from .x import f``, so each importing module holds its own reference and
is wrapped separately; the package namespace is wrapped too, because the
benchmark itself calls through it.  ``Matrix.__matmul__`` and
``Evaluator.run`` are wrapped on their classes.

A span is ``[name, parent, start_ns, end_ns]`` with ``name`` of the form
``<layer>.<function>@<site>``: the layer is the module that defines the
function, the site the module that calls it.  Counters that only the
results show (multiply-adds, entry sizes, undefined values, pivots) are
updated after a span closes, so their cost lands in the caller's self time
rather than in the span.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from fractions import Fraction

# Public functions, by the module through which they are called.
SITES = {
    "mprat": ("mp_evaluate", "bf_evaluate", "verify_fund",
              "realize", "real_reduce", "real_evaluate"),
    "mprat.matrix_kernel": ("kron",),
    "mprat.evaluation": ("inv_det",),
    "mprat.identity": ("det", "mp_evaluate", "sample_point", "poly_normal_form"),
    "mprat.calculus": ("kron", "mp_evaluate"),
    "mprat.matrix_rational": ("det", "is_zero", "matrix_inverse_expr"),
    "mprat.realization": ("kron", "inv_det", "det", "solve"),
    "mprat.cli": ("main", "parse", "format_expr", "mp_evaluate", "bf_evaluate",
                  "is_zero", "equivalent", "domain_scan", "delta", "realize",
                  "real_reduce", "matrix_inverse_expr", "partial_evaluate"),
}
METHODS = (("mprat.matrix_kernel", "Matrix", "__matmul__"),
           ("mprat.evaluation", "Evaluator", "run"))


def _bits(x) -> int:
    return max(x.numerator.bit_length(), x.denominator.bit_length())


def _matrix_bits(m) -> int:
    return max((_bits(x) for row in m.data for x in row), default=0)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.max_bits = 0
        self.max_n = 0
        self._stack: list[int] = []
        self._trial_undefined = False
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called name."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        rec = [name, stack[-1] if stack else -1, clock(), 0]
        stack.append(len(spans))
        spans.append(rec)
        try:
            return fn(*args, **kwargs)
        finally:
            rec[3] = clock()
            stack.pop()

    def _wrap(self, name: str, fn):
        hook = self._hook(name)

        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if hook is not None:
                hook(args, result)
            return result
        traced.__wrapped__ = fn
        return traced

    def _hook(self, name: str):
        from mprat import NonzeroWitness, Undefined

        def matmul(args, m):
            self.counts["matmul_madds"] += args[0].rows * args[0].cols * args[1].cols
            self.max_bits = max(self.max_bits, _matrix_bits(m))

        def inv_det(args, res):
            if res is not None:
                self.max_bits = max(self.max_bits, _matrix_bits(res[0]), _bits(res[1]))

        def det(args, d):
            self.max_bits = max(self.max_bits, _bits(Fraction(d)))

        def solve(args, m):
            if m is not None:
                self.max_bits = max(self.max_bits, _matrix_bits(m))

        def run(args, v):
            self.max_n = max(self.max_n, args[0].n)
            if isinstance(v, Undefined):
                self.counts["undefined"] += 1

        def trial(args, point):
            self.counts["trials"] += 1
            self._trial_undefined = False

        def trial_value(args, v):
            if isinstance(v, Undefined) and not self._trial_undefined:
                self.counts["trials_undefined"] += 1
                self._trial_undefined = True

        def pivot_test(args, verdict):
            if isinstance(verdict, NonzeroWitness):
                self.counts["pivots"] += 1

        def formatted(args, text):
            self.counts["format_chars"] += len(text)

        def reduced(args, r):
            self.counts["dims_in"] += args[0].dim
            self.counts["dims_out"] += r.dim

        func, site = name.split(".", 1)[1].split("@")
        by_site = {("mp_evaluate", "identity"): trial_value,
                   ("is_zero", "matrix_rational"): pivot_test}
        by_func = {"matmul": matmul, "inv_det": inv_det, "det": det, "solve": solve,
                   "run": run, "sample_point": trial, "format_expr": formatted,
                   "real_reduce": reduced}
        return by_site.get((func, site), by_func.get(func))

    # -- installing -----------------------------------------------------------

    def install(self) -> None:
        for modname, attrs in SITES.items():
            mod = importlib.import_module(modname)
            site = modname.rsplit(".", 1)[-1]
            for attr in attrs:
                fn = getattr(mod, attr)
                layer = fn.__module__.rsplit(".", 1)[-1]
                self._replace(mod, attr, self._wrap(f"{layer}.{attr}@{site}", fn))
        for modname, cls_name, attr in METHODS:
            cls = getattr(importlib.import_module(modname), cls_name)
            layer = modname.rsplit(".", 1)[-1]
            fn = cls.__dict__[attr]
            self._replace(cls, attr, self._wrap(f"{layer}.{attr.strip('_')}@{cls_name}", fn))

    def _replace(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)

    def write(self, path, header: dict) -> None:
        with open(path, "w") as f:
            f.write(json.dumps(header) + "\n")
            for i, (name, parent, start, end) in enumerate(self.spans):
                f.write(json.dumps([i, parent, name, start, end]) + "\n")


# -- analysis -------------------------------------------------------------------


def self_times(spans) -> list[int]:
    """Each span's duration minus its direct children's durations.

    One thread records the spans, so children nest inside their parent and
    never overlap one another.
    """
    out = [end - start for _, _, start, end in spans]
    for _, parent, start, end in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def _outermost(spans) -> list[bool]:
    """True where no ancestor of the span belongs to the same layer."""
    layers = [name.split(".", 1)[0] for name, _, _, _ in spans]
    above: list[frozenset] = []
    interned: dict = {}
    out = []
    for i, (_, parent, _, _) in enumerate(spans):
        if parent < 0:
            anc = frozenset()
        else:
            key = (above[parent], layers[parent])
            anc = interned.get(key)
            if anc is None:
                anc = interned[key] = key[0] | {key[1]}
        above.append(anc)
        out.append(layers[i] not in anc)
    return out


def layer_metrics(tracer: Tracer, batches: int, extra_counts: dict) -> dict[str, float]:
    """Per-batch layer metrics named as in BENCHMARK.json."""
    spans = tracer.spans
    selfs = self_times(spans)
    outer = _outermost(spans)
    counts = defaultdict(int, tracer.counts)
    for k, v in extra_counts.items():
        counts[k] += v
    ns = 1e-9 / batches

    parsed = []
    for name, _, start, end in spans:
        layer, rest = name.split(".", 1)
        func, _, site = rest.partition("@")
        parsed.append((layer, func, site, end - start))

    def total(layer, func=None, site=None, only_outer=True):
        return sum(d for i, (lay, fn, st, d) in enumerate(parsed)
                   if lay == layer and (func is None or fn == func)
                   and (site is None or st == site) and (outer[i] or not only_outer))

    def calls(layer, func=None, site=None, only_outer=True):
        return sum(1 for i, (lay, fn, st, _) in enumerate(parsed)
                   if lay == layer and (func is None or fn == func)
                   and (site is None or st == site) and (outer[i] or not only_outer))

    def self_total(layer, func=None):
        return sum(selfs[i] for i, (lay, fn, _, _) in enumerate(parsed)
                   if lay == layer and (func is None or fn == func))

    def ratio(num, den):
        return num / den if den else 0.0

    k = "matrix_kernel"
    m = {
        f"{k}.matmul_calls": calls(k, "matmul") / batches,
        f"{k}.matmul_s": total(k, "matmul") * ns,
        f"{k}.matmul_madds": counts["matmul_madds"] / batches,
        f"{k}.inv_det_calls": calls(k, "inv_det") / batches,
        f"{k}.inv_det_s": total(k, "inv_det") * ns,
        f"{k}.det_calls": calls(k, "det") / batches,
        f"{k}.det_s": total(k, "det") * ns,
        f"{k}.solve_s": total(k, "solve") * ns,
        f"{k}.kron_s": total(k, "kron") * ns,
        f"{k}.max_entry_bits": tracer.max_bits,
        "evaluation.calls": calls("evaluation") / batches,
        "evaluation.s": total("evaluation") * ns,
        "evaluation.self_s": self_total("evaluation") * ns,
        "evaluation.undefined": counts["undefined"] / batches,
        "evaluation.max_n": tracer.max_n,
        "identity.calls": calls("identity") / batches,
        "identity.trials": counts["trials"] / batches,
        "identity.trials_undefined": counts["trials_undefined"] / batches,
        "identity.decided_ratio": ratio(counts["trials"] - counts["trials_undefined"],
                                        counts["trials"]),
        "identity.det_calls": calls(k, "det", "identity") / batches,
        "identity.det_s": total(k, "det", "identity") * ns,
        "matrix_rational.s": total("matrix_rational") * ns,
        "matrix_rational.pivot_tests": calls("identity", "is_zero", "matrix_rational",
                                             only_outer=False) / batches,
        "matrix_rational.pivots": counts["pivots"] / batches,
        "matrix_rational.pivot_yield": ratio(
            counts["pivots"],
            calls("identity", "is_zero", "matrix_rational", only_outer=False)),
        "calculus.delta_s": total("calculus", "delta") * ns,
        "calculus.verify_fund_s": total("calculus", "verify_fund") * ns,
        "expression.parse_s": total("expression", "parse") * ns,
        "expression.format_s": total("expression", "format_expr") * ns,
        "expression.format_chars": counts["format_chars"] / batches,
        "expression.normal_form_s": total("expression", "poly_normal_form") * ns,
        "cli.self_s": self_total("cli", "main") * ns,
        "cli.out_bytes": counts["out_bytes"] / batches,
        "realization.realize_s": total("realization", "realize") * ns,
        "realization.reduce_s": total("realization", "real_reduce") * ns,
        "realization.real_evaluate_s": total("realization", "real_evaluate") * ns,
        "realization.dim_kept_ratio": ratio(counts["dims_out"], counts["dims_in"]),
    }
    return m
