"""Which lines of ``src/coringext`` the recorded CLI calls reach.

Runs every call of the three corpora of ``tests/test_corpus.py`` (the
benchmark's recorded calls, the mutated arrays and the each-kind arrays)
once, in-process, under a ``sys.settrace`` line tracer that is installed
before the package is imported, so that module-level lines count too.  It
prints, per module, the executable lines reached and their total, then
every function that no call enters.

A line is executable when the compiled module maps an instruction to it.
A function is named by its qualified name; a lambda or comprehension is
not listed.  It is a script, not a test: the three corpora take a few
minutes under the tracer.

    PYTHONPATH=src python tests/line_reach.py
"""

import os
import sys
import types

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
        unreached += [f"{name[:-3]}.{fn} (line {first})"
                      for fn, first, code in functions
                      if (path, first, code.co_name) not in entered]
    print(f"{'total':20} {total_hit:5} of {total:5} lines")
    print(f"{len(unreached)} functions that no call enters:")
    for fn in unreached:
        print(f"  {fn}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
