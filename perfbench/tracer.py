"""Span tracing for one coringext process, installed from outside the package.

``Tracer.install()`` imports every ``coringext`` module and replaces each
public function by a timing wrapper: at its defining module attribute, at every
name that ``from .x import y`` re-bound in another module, and in
module-level dispatch tables such as ``cli.COMMANDS``.  ``Mat.__matmul__``,
``Mat.kron`` and the CLI's private ``_emit`` are wrapped too.  Nothing in
the package changes on disk.

Each span is ``(id, parent, name, start, end, attrs)``; spans stay in memory
and ``dump()`` writes them, with the invocation id, the sweep counters of
``_search.enumerate_affine`` and the hit and miss totals of the package's
``lru_cache``s, as one JSON file.  Work the tracer does to compute attrs is
recorded as a ``trace.count`` child span, so it never lands in the self time
of a library span.
"""

import functools
import importlib
import inspect
import json
import pkgutil
import time
import types

_clock = time.perf_counter


def _nonzeros(m) -> int:
    return sum(1 for row in m.entries for x in row if x)


# attrs of a span, from the call's arguments by parameter name


def _rref_attrs(arg):
    m = arg["m"]
    return {"cells": m.rows * m.cols, "nnz": _nonzeros(m)}


def _matmul_attrs(arg):
    a, b = arg["self"], arg["other"]
    return {"madds": a.rows * a.cols * b.cols,
            "cells": a.rows * a.cols + b.rows * b.cols,
            "nnz": _nonzeros(a) + _nonzeros(b)}


def _kron_attrs(arg):
    a, b = arg["self"], arg["other"]
    return {"cells_out": a.rows * b.rows * a.cols * b.cols}


def _quotient_attrs(arg):
    rel = arg["relations"]
    return {"ambient": arg["ambient_dim"],
            "relation_cells": rel.rows * rel.cols}


ATTRS = {"exactla.rref": _rref_attrs, "exactla.matmul": _matmul_attrs,
         "exactla.kron": _kron_attrs, "exactla.quotient": _quotient_attrs}


def _modules():
    pkg = importlib.import_module("coringext")
    mods = [pkg]
    for info in pkgutil.iter_modules(pkg.__path__):
        mods.append(importlib.import_module(f"coringext.{info.name}"))
    return mods


def _is_function(obj) -> bool:
    return isinstance(obj, types.FunctionType) or hasattr(obj, "cache_info")


class Tracer:
    """Spans and counters of one process."""

    def __init__(self):
        self.spans = []
        self.stack = [0]
        self.last_id = 0
        self.counters = {"candidates": 0, "kept": 0}
        self.caches = []

    def _new_id(self) -> int:
        self.last_id += 1
        return self.last_id

    def _counting_keep(self, keep):
        def wrapped(m):
            self.counters["candidates"] += 1
            ok = keep(m)
            self.counters["kept"] += bool(ok)
            return ok
        return wrapped

    def span(self, name, fn):
        """Wrap ``fn`` so that each call records one span called ``name``."""
        attrs_of = ATTRS.get(name)
        sweep = name == "_search.enumerate_affine"
        sig = inspect.signature(fn) if attrs_of or sweep else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._new_id()
            parent = self.stack[-1]
            attrs = None
            if sig is not None:
                c0 = _clock()
                bound = sig.bind(*args, **kwargs)
                if attrs_of is not None:
                    attrs = attrs_of(bound.arguments)
                if sweep:
                    keep = bound.arguments["keep"]
                    bound.arguments["keep"] = self._counting_keep(keep)
                args, kwargs = bound.args, bound.kwargs
                self.spans.append((self._new_id(), parent, "trace.count", c0,
                                   _clock(), None))
            self.stack.append(sid)
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = _clock()
                self.stack.pop()
                self.spans.append((sid, parent, name, t0, t1, attrs))
        return wrapper

    def record(self, name, t0, t1):
        """Add a span timed by the caller, e.g. the package import."""
        self.spans.append((self._new_id(), self.stack[-1], name, t0, t1,
                           None))

    def install(self):
        """Wrap every public function of every module, and the extra names."""
        mods = _modules()
        wrappers = {}
        for mod in mods:
            short = mod.__name__.split(".")[-1]
            for name, obj in vars(mod).items():
                if not _is_function(obj) or \
                        getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if hasattr(obj, "cache_info"):
                    self.caches.append(obj)
                if not name.startswith("_") or \
                        (short, name) == ("cli", "_emit"):
                    wrappers[id(obj)] = self.span(
                        f"{short}.{name.lstrip('_')}", obj)
        for mod in mods:
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    setattr(mod, name, wrappers[id(obj)])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if id(val) in wrappers:
                            obj[key] = wrappers[id(val)]
        from coringext.exactla import Mat
        Mat.__matmul__ = self.span("exactla.matmul", Mat.__matmul__)
        Mat.kron = self.span("exactla.kron", Mat.kron)

    def dump(self, path, invocation):
        info = [c.cache_info() for c in self.caches]
        data = {"invocation": invocation, "spans": self.spans,
                "counters": self.counters, "caches": len(info),
                "cache_hits": sum(i.hits for i in info),
                "cache_misses": sum(i.misses for i in info)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, separators=(",", ":"))
