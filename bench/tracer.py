"""Spans and counters around calls into each ``mcwc`` layer, installed from outside.

The tracer replaces public functions at every import site (``mcwc.bounds.max_clique``
is the same object as ``mcwc.clique.max_clique`` and both are wrapped), so no
file under ``src/`` changes.  A span records name, start, end, parent span and
a few call attributes; spans stay in memory and the child writes them out once
at exit.  ``Field.mul`` runs per field element, so it gets a call counter and
accumulated time instead of a span.

``layer_metrics`` turns one traced iteration's spans into the per-layer
metrics.  A span's self time is its duration minus the time its child spans
cover.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (module, function) pairs wrapped with a span.
SPANNED = [
    ("mcwc.gf", "field_make"),
    ("mcwc.codes", "verify_code"),
    ("mcwc.codes", "code_read"),
    ("mcwc.codes", "code_write"),
    ("mcwc.constructions", "reed_solomon"),
    ("mcwc.constructions", "qary_expand"),
    ("mcwc.constructions", "concatenate"),
    ("mcwc.constructions", "pseudo_product"),
    ("mcwc.constructions", "rs_mcwc"),
    ("mcwc.bounds", "table_build"),
    ("mcwc.bounds", "evaluate_cell"),
    ("mcwc.bounds", "johnson_general"),
    ("mcwc.bounds", "tightness_exact"),
    ("mcwc.bounds", "exact_search"),
    ("mcwc.clique", "max_clique"),
    ("mcwc.pufsim", "device_new"),
    ("mcwc.pufsim", "device_save"),
    ("mcwc.pufsim", "reliability_sweep"),
    ("mcwc.cli", "main"),
]


def _verify_attrs(args, result):
    from mcwc.codes import BinaryCode

    code = args[0]
    size = len(code.words)
    return {"pairs": size * (size - 1) // 2, "binary": isinstance(code, BinaryCode)}


def _clique_attrs(args, result):
    return {"V": len(args[0]), "nodes": result.nodes, "complete": result.complete}


def _sweep_attrs(args, result):
    return {
        "pairs": len(result.pairs),
        "usable": sum(p.usable for p in result.pairs),
        "trials": result.trials,
    }


def _cell_attrs(args, result):
    """Was the cell pinned before its search ran, or did the search only meet the upper bound?"""
    table, cell = args[0], tuple(args[1:5])
    records = table.records.get(cell, [])
    search = [r for r in records if r.provenance.startswith("clique-search")]
    rules = [r for r in records if not r.provenance.startswith("clique-search")]
    lower = max((r.value for r in rules if r.kind in ("lower", "exact")), default=0)
    upper = min((r.value for r in rules if r.kind in ("upper", "exact")), default=float("inf"))
    wasted = bool(search) and (lower == upper or search[-1].value == upper)
    return {"cell": list(cell), "search_wasted": wasted}


ATTRS = {
    "codes.verify_code": _verify_attrs,
    "clique.max_clique": _clique_attrs,
    "pufsim.reliability_sweep": _sweep_attrs,
    "bounds.evaluate_cell": _cell_attrs,
}


class Tracer:
    """Collects spans for one workload run; ``run_id`` tags every span."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        # [id, parent, name, start, end, attrs, mul_s inside the span]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.mul_calls = 0
        self.mul_s = 0.0

    def span(self, name: str, fn):
        spans, stack = self.spans, self._stack
        attrs_of = ATTRS.get(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            sid = len(spans)
            rec = [sid, stack[-1] if stack else None, name, 0.0, 0.0, None, self.mul_s]
            spans.append(rec)
            stack.append(sid)
            rec[3] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = clock()
                rec[6] = self.mul_s - rec[6]
                stack.pop()
            if attrs_of is not None:
                rec[5] = attrs_of(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "mcwc" or n.startswith("mcwc.")]
        for mod_name, attr in SPANNED:
            orig = getattr(sys.modules[mod_name], attr)
            wrapped = self.span(f"{mod_name[5:]}.{attr}", orig)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)

        from mcwc.gf import Field

        mul = Field.mul
        clock = time.perf_counter
        tracer = self

        def counted_mul(field, a, b):
            t0 = clock()
            out = mul(field, a, b)
            tracer.mul_s += clock() - t0
            tracer.mul_calls += 1
            return out

        Field.mul = counted_mul

    def dump(self) -> dict:
        return {
            "run_id": self.run_id,
            "spans": self.spans,
            "counters": {"gf.mul_calls": self.mul_calls, "gf.mul_s": self.mul_s},
        }


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(trace: dict, call_labels: dict[int, str]) -> dict[str, float]:
    """Per-layer metrics of one traced iteration.

    call_labels maps the id of each root span (one per workload call) to the
    call's label, so metrics that belong to one part of a workload (the puf
    many-pairs and many-trials sweeps) can be told apart.
    """
    spans = trace["spans"]
    children_s = defaultdict(float)
    for sid, parent, name, t0, t1, attrs, mul_s in spans:
        if parent is not None:
            children_s[parent] += t1 - t0

    def root_of(sid):
        while spans[sid][1] is not None:
            sid = spans[sid][1]
        return sid

    def enclosing_cell(sid):
        """The evaluate_cell span around span sid, or None."""
        sid = spans[sid][1]
        while sid is not None and spans[sid][2] != "bounds.evaluate_cell":
            sid = spans[sid][1]
        return sid

    # Spans of calls that raised carry no attributes; only complete calls count.
    by_name = defaultdict(list)
    for s in spans:
        if s[5] is not None or s[2] not in ATTRS:
            by_name[s[2]].append(s)

    def total(name):
        return sum(s[4] - s[3] for s in by_name[name])

    def self_s(name):
        return sum(s[4] - s[3] - children_s[s[0]] for s in by_name[name])

    m = {}
    counters = trace["counters"]
    m["gf.mul_calls"] = counters["gf.mul_calls"]
    m["gf.mul_per_s"] = _ratio(counters["gf.mul_calls"], counters["gf.mul_s"])
    m["gf.field_make_s"] = total("gf.field_make")

    verify = by_name["codes.verify_code"]
    verify_self = {s[0]: s[4] - s[3] - children_s[s[0]] for s in verify}
    binary = [s for s in verify if s[5]["binary"]]
    qary = [s for s in verify if not s[5]["binary"]]
    m["codes.verify_calls"] = len(verify)
    m["codes.verify_pairs"] = sum(s[5]["pairs"] for s in verify)
    m["codes.verify_s"] = sum(verify_self.values())
    m["codes.verify_binary_pairs_per_s"] = _ratio(
        sum(s[5]["pairs"] for s in binary), sum(verify_self[s[0]] for s in binary))
    m["codes.verify_qary_pairs_per_s"] = _ratio(
        sum(s[5]["pairs"] for s in qary), sum(verify_self[s[0]] for s in qary))
    m["codes.io_s"] = total("codes.code_read") + total("codes.code_write")

    m["constructions.reed_solomon_s"] = self_s("constructions.reed_solomon") - sum(
        s[6] for s in by_name["constructions.reed_solomon"])
    m["constructions.qary_expand_s"] = self_s("constructions.qary_expand")
    m["constructions.concatenate_s"] = total("constructions.concatenate")
    m["constructions.rs_mcwc_calls"] = len(by_name["constructions.rs_mcwc"])
    per_cell = defaultdict(int)
    for s in by_name["constructions.rs_mcwc"]:
        cell = enclosing_cell(s[0])
        if cell is not None:
            per_cell[cell] += 1
    m["constructions.rs_mcwc_duplicate_calls"] = sum(c - 1 for c in per_cell.values())

    m["bounds.johnson_general_calls"] = len(by_name["bounds.johnson_general"])
    m["bounds.johnson_general_s"] = total("bounds.johnson_general")
    m["bounds.tightness_exact_s"] = total("bounds.tightness_exact")
    m["bounds.evaluate_cell_self_s"] = self_s("bounds.evaluate_cell")
    m["bounds.exact_search_self_s"] = self_s("bounds.exact_search")

    searches = by_name["clique.max_clique"]
    big = [s for s in searches if s[5]["V"] >= 1000]
    m["clique.searches"] = len(searches)
    m["clique.searches_exhausted"] = sum(not s[5]["complete"] for s in searches)
    m["clique.nodes"] = sum(s[5]["nodes"] for s in searches)
    m["clique.max_clique_s"] = total("clique.max_clique")
    m["clique.nodes_per_s"] = _ratio(m["clique.nodes"], m["clique.max_clique_s"])
    m["clique.nodes_per_s_v1000"] = _ratio(
        sum(s[5]["nodes"] for s in big), sum(s[4] - s[3] for s in big))
    wasted = 0
    for s in searches:
        cell = enclosing_cell(s[0])
        if cell is not None and (spans[cell][5] or {}).get("search_wasted"):
            wasted += s[5]["nodes"]
    m["clique.pinned_nodes_ratio"] = _ratio(wasted, m["clique.nodes"])

    sweeps = by_name["pufsim.reliability_sweep"]
    pairs_part = [s for s in sweeps if call_labels.get(root_of(s[0])) == "many_pairs"]
    trials_part = [s for s in sweeps if call_labels.get(root_of(s[0])) == "many_trials"]
    m["pufsim.sweep_s"] = sum(s[4] - s[3] for s in pairs_part)
    m["pufsim.pairs_per_s"] = _ratio(sum(s[5]["pairs"] for s in pairs_part), m["pufsim.sweep_s"])
    m["pufsim.noise_samples_per_s"] = _ratio(
        sum(2 * s[5]["trials"] * s[5]["usable"] for s in trials_part),
        sum(s[4] - s[3] for s in trials_part))
    m["pufsim.usable_pairs_ratio"] = _ratio(
        sum(s[5]["usable"] for s in sweeps), sum(s[5]["pairs"] for s in sweeps))
    m["pufsim.device_new_s"] = total("pufsim.device_new")

    m["cli.self_s"] = self_s("cli.main")
    m["trace.spans"] = len(spans)
    return m
