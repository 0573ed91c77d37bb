"""Metric arithmetic: self times from spans, the tail rule, per-layer sums."""

import re
import statistics

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def union_length(intervals, lo, hi) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans):
    """Span id -> duration minus the part of it that child spans cover."""
    children = {}
    for sid, parent, _name, t0, t1, _attrs in spans:
        children.setdefault(parent, []).append((t0, t1))
    return {sid: (t1 - t0) - union_length(children.get(sid, ()), t0, t1)
            for sid, _parent, _name, t0, t1, _attrs in spans}


def tail(samples, groups=1):
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile)``, or None for fewer than 20 samples, where
    such a percentile would be the median or below.  For ``samples`` pooled
    from ``groups`` equal groups, the percentile is the one the rule gives
    for a single group, read off the pooled samples.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n < 20 * groups:
        return None
    return ordered[n - 10 * groups - 1], 100.0 * (n - 10 * groups) / n


def check_name(name: str) -> str:
    if not NAME.fullmatch(name):
        raise ValueError(f"bad metric name {name!r}")
    return name


# -- per-layer metrics from the traces of one pass -------------------------

# (metric prefix, the spans whose calls and self times it sums: a tuple of
# span names, a name prefix, or a predicate)
GROUPS = [
    ("exactla.rref", ("exactla.rref",)),
    ("exactla.matmul", ("exactla.matmul",)),
    ("exactla.kron", ("exactla.kron",)),
    ("exactla.quotient", ("exactla.quotient",)),
    ("exactla.kernel", ("exactla.kernel",)),
    ("exactla.solve", ("exactla.solve",)),
    ("tensorcat.balanced_quotient", ("tensorcat.balanced_quotient",)),
    ("tensorcat.tensor_over", ("tensorcat.tensor_over",)),
    ("coring.check_coring", ("coring.check_coring",)),
    ("coring.check_comodule", ("coring.check_comodule",)),
    ("coring.check_colinear", ("coring.check_colinear",)),
    ("coring.dual_ring", ("coring.dual_ring",)),
    ("constructions.build", lambda n: n.startswith("constructions.")
     and not n.startswith("constructions.check_")),
    ("search.affine_solutions", ("_search.affine_solutions",)),
    ("extension.check_measuring", ("extension.check_measuring",)),
    ("extension.enumerate_measurings", ("extension.enumerate_measurings",)),
    ("extension.functor", ("extension.induced_action",
                           "extension.induced_coaction",
                           "extension.apply_functor",
                           "extension.compose_extensions")),
    ("algmod.check", "algmod.check_"),
    ("descent.check_cor28", ("descent.check_cor28",)),
    ("descent.descent_functor", ("descent.descent_functor",)),
    ("cli.parse_workspace", ("cli.parse_workspace",)),
    ("cli.command", "cli.cmd_"),
    ("cli.emit", ("cli.emit",)),
]
WITH_CALLS = {"exactla.rref", "exactla.matmul", "exactla.kron",
              "tensorcat.balanced_quotient", "tensorcat.tensor_over",
              "extension.check_measuring", "algmod.check"}


def _member(name, members) -> bool:
    if isinstance(members, str):
        return name.startswith(members)
    if callable(members):
        return members(name)
    return name in members


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(traces):
    """Per-layer metrics of one pass: ``traces`` holds one dump per call.

    Calls and self times are summed over the pass, except ``cli.import_s``,
    the median import time of one call.  Returns name -> (value, unit).
    """
    calls = {g: 0 for g, _ in GROUPS}
    busy = {g: 0.0 for g, _ in GROUPS}
    sums = dict(rref_cells=0, rref_max=0, rref_nnz=0, mm_madds=0, mm_cells=0,
                mm_nnz=0, kron_out=0, max_ambient=0, relation_cells=0,
                candidates=0, kept=0, hits=0, misses=0)
    imports = []
    for tr in traces:
        spans = tr["spans"]
        own = self_times(spans)
        names = {s[0]: s[2] for s in spans}
        for sid, parent, name, _t0, _t1, attrs in spans:
            for group, members in GROUPS:
                if _member(name, members):
                    calls[group] += 1
                    busy[group] += own[sid]
            if name == "cli.import":
                imports.append(own[sid])
            elif name == "exactla.rref":
                sums["rref_cells"] += attrs["cells"]
                sums["rref_nnz"] += attrs["nnz"]
                sums["rref_max"] = max(sums["rref_max"], attrs["cells"])
            elif name == "exactla.matmul":
                sums["mm_madds"] += attrs["madds"]
                sums["mm_cells"] += attrs["cells"]
                sums["mm_nnz"] += attrs["nnz"]
            elif name == "exactla.kron":
                sums["kron_out"] += attrs["cells_out"]
            elif name == "exactla.quotient":
                sums["max_ambient"] = max(sums["max_ambient"],
                                          attrs["ambient"])
                if names.get(parent) == "tensorcat.balanced_quotient":
                    sums["relation_cells"] += attrs["relation_cells"]
        sums["candidates"] += tr["counters"]["candidates"]
        sums["kept"] += tr["counters"]["kept"]
        sums["hits"] += tr["cache_hits"]
        sums["misses"] += tr["cache_misses"]
    out = {}
    for group, _ in GROUPS:
        if group in WITH_CALLS:
            out[f"{group}.calls"] = (calls[group], "count")
        out[f"{group}.self_s"] = (busy[group], "s")
    out.update({
        "exactla.rref.cells_in": (sums["rref_cells"], "cells"),
        "exactla.rref.max_cells": (sums["rref_max"], "cells"),
        "exactla.rref.density": (_ratio(sums["rref_nnz"],
                                        sums["rref_cells"]), "ratio"),
        "exactla.matmul.madds": (sums["mm_madds"], "count"),
        "exactla.matmul.density": (_ratio(sums["mm_nnz"], sums["mm_cells"]),
                                   "ratio"),
        "exactla.kron.cells_out": (sums["kron_out"], "cells"),
        "exactla.quotient.max_ambient": (sums["max_ambient"], "dim"),
        "tensorcat.balanced_quotient.relation_cells":
            (sums["relation_cells"], "cells"),
        "cache.hits": (sums["hits"], "count"),
        "cache.misses": (sums["misses"], "count"),
        "cache.hit_ratio": (_ratio(sums["hits"],
                                   sums["hits"] + sums["misses"]), "ratio"),
        "search.candidates": (sums["candidates"], "count"),
        "search.kept": (sums["kept"], "count"),
        "search.yield_ratio": (_ratio(sums["kept"], sums["candidates"]),
                               "ratio"),
        "cli.import_s": (statistics.median(imports), "s"),
    })
    return out


def median_metrics(per_pass):
    """Median of each metric over passes; counts repeat exactly anyway."""
    return {name: (statistics.median(p[name][0] for p in per_pass), unit)
            for name, (_v, unit) in per_pass[0].items()}
