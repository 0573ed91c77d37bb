"""Which lines of ``src/coringext`` the recorded CLI calls reach.

Runs every call of the three corpora of ``tests/test_corpus.py`` (the
benchmark's recorded calls, the mutated arrays and the each-kind arrays)
once, in-process, under a ``sys.settrace`` line tracer that is installed
before the package is imported, so that module-level lines count too.  It
prints, per module, the executable lines reached and their total, then
every function that no call enters.

A line is executable when the compiled module maps an instruction to it.
A function is named by its module and qualified name; a lambda or
comprehension is not listed.  Every function that no call enters must be
in ``LEDGER`` with the reason it stays in ``src/``: a ROADMAP item that
will reach it, or its role.  The script exits 1 when such a function is
missing from the ledger, or when a ledger entry names a function that a
call now enters or that is gone (a stale entry).  It needs Python 3.11 or
later, whose code objects carry the qualified names the ledger uses.  It is
a script, not a test: the three corpora take a few minutes under the
tracer.

    PYTHONPATH=src python tests/line_reach.py
"""

import os
import sys
import types

_ITEM_1 = ("left-comodule family: its memo _ccn is pinned by the memo "
           "count of perfbench/test_bench.py until ROADMAP item 1")
_ITEM_5 = "comodule builders: ROADMAP item 5"
_ENTRY = "entry point, repr or dunder"

LEDGER = {
    "__init__.__dir__": _ENTRY,
    "_record.frozen.<locals>.__repr__": _ENTRY,
    "_record.frozen.<locals>.__setattr__": _ENTRY,
    "_record.frozen.<locals>.__delattr__": _ENTRY,
    "cli.main": _ENTRY,
    "constructions._right_linear_basis": "comatrix corings: ROADMAP item 12",
    "constructions.check_dual_basis": "comatrix corings: ROADMAP item 12",
    "constructions.comatrix_coring": "comatrix corings: ROADMAP item 12",
    "coring._ccn": _ITEM_1,
    "coring.regular_comodule": _ITEM_5,
    "coring.direct_sum_comodule": _ITEM_5,
    "coring.cofree_comodule": _ITEM_5,
    "coring.LeftComodule.dim": _ITEM_1,
    "coring.LeftComodule.cn": _ITEM_1,
    "coring.check_left_comodule": _ITEM_1,
    "coring.make_left_comodule": _ITEM_1,
    "coring.regular_left_comodule": _ITEM_1,
    "coring.cotensor_basis": _ITEM_1,
    "coring.check_bicomodule": _ITEM_1,
    "exactla.FieldSpec.__repr__": _ENTRY,
    "exactla.Mat.__repr__": _ENTRY,
    "exactla.Mat.from_rows": _ENTRY,
    "exactla.Mat.__add__": _ENTRY,
    "exactla.kernel": "the null space cotensor_basis reads; " + _ITEM_1,
    "extension.action_from_measuring": "ROADMAP item 11",
    "extension.measuring_from_action": "ROADMAP item 11",
    "fixtures.matrix_algebra_2":
        "a memo, pinned by the memo count of perfbench/test_bench.py until "
        "ROADMAP item 1",
}

TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.realpath(os.path.join(TESTS, os.pardir, "src", "coringext"))

reached = set()   # (path, line)
entered = set()   # (path, first line, name) of each function entered
_paths = {}       # co_filename -> its real path in SRC, or ""


def _local(frame, event, arg):
    if event == "line":
        reached.add((_paths[frame.f_code.co_filename], frame.f_lineno))
    return _local


def _global(frame, event, arg):
    code = frame.f_code
    path = _paths.get(code.co_filename)
    if path is None:
        real = os.path.realpath(code.co_filename)
        path = _paths[code.co_filename] = \
            real if real.startswith(SRC + os.sep) else ""
    if not path:
        return None
    entered.add((path, code.co_firstlineno, code.co_name))
    reached.add((path, frame.f_lineno))
    return _local


def _codes(code):
    """A code object and every code object nested in it."""
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _codes(const)


def executable(path):
    """The lines of a module that hold an instruction, and its functions
    as ``(qualified name, first line, code)``."""
    with open(path, encoding="utf-8") as fh:
        module = compile(fh.read(), path, "exec")
    lines, functions = set(), []
    for code in _codes(module):
        lines |= {line for _, _, line in code.co_lines() if line}
        name = getattr(code, "co_qualname", code.co_name)
        if code is not module and not name.endswith(">"):
            functions.append((name, code.co_firstlineno, code))
    return lines, functions


def main() -> int:
    sys.path.insert(0, TESTS)
    sys.settrace(_global)
    try:
        import test_corpus as corpus
        from coringext.exactla import (DEFAULT_MAX_DIM, DEFAULT_MAX_ENUM,
                                       set_guards)
        calls = corpus.recorded_calls(stride=1) + [
            call for name in corpus.CORPORA
            for call in corpus.golden_calls(name, 1)]
        try:
            for _, argv, ws, _, _ in calls:
                corpus.run_call(argv, ws)
        finally:
            set_guards(DEFAULT_MAX_DIM, DEFAULT_MAX_ENUM)
    finally:
        sys.settrace(None)
    print(f"{len(calls)} calls")
    total_hit = total = 0
    unreached = []
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(SRC, name)
        lines, functions = executable(path)
        hit = len({line for p, line in reached if p == path} & lines)
        total_hit += hit
        total += len(lines)
        print(f"{name:20} {hit:5} of {len(lines):5} lines")
        unreached += [(f"{name[:-3]}.{fn}", first)
                      for fn, first, code in functions
                      if (path, first, code.co_name) not in entered]
    print(f"{'total':20} {total_hit:5} of {total:5} lines")
    print(f"{len(unreached)} functions that no call enters:")
    for fn, first in unreached:
        print(f"  {fn} (line {first}): {LEDGER.get(fn, 'NOT IN THE LEDGER')}")
    missing = [fn for fn, _ in unreached if fn not in LEDGER]
    stale = sorted(set(LEDGER) - {fn for fn, _ in unreached})
    if missing:
        print(f"{len(missing)} functions missing from the ledger")
    if stale:
        print(f"{len(stale)} stale ledger entries, entered by a call or gone:")
        for fn in stale:
            print(f"  {fn}")
    return 1 if missing or stale else 0


if __name__ == "__main__":
    sys.exit(main())
