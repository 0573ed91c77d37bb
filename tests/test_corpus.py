"""The recorded CLI reports, as a safety net for refactors.

Three corpora, each call with its golden exit code and stdout sha256:

- the benchmark's recorded workloads: the calls that ``perfbench/gen.py``
  generates for the seeds in ``perfbench/golden.json``;
- the mutated arrays: every single-entry +1 change of every explicit array
  in the benchmark's extension and descent workspaces over GF(2) and
  GF(3), each run with the commands the benchmark runs on that workspace.
  Its golden records are in ``tests/golden_mutated.json``.  A mutation
  often breaks an identity at several basis tuples, so these records pin
  which witness a rejection names.
- the each-kind arrays: the literal workspaces of
  ``tests/kinds_workspaces.json`` over GF(2) and GF(3), which hold every
  explicit object kind whose parser builds a structure (an algebra, an
  explicit coring, the trivial coring, an extension, a measuring, a
  coalgebra, an entwining coring and a comodule), and every single-entry
  +1 change of their arrays.  Each runs ``check``, ``induce``,
  ``dualring`` and a ``check`` under ``--max-dim 31``; the last pins the
  order of the checks that come before the size guard.  Three more
  workspaces push descent data along Cor. 2.8 data with B != k, each run
  with ``check`` and ``descent``: D = B = D2 -> A = k^3 over GF(2) and
  GF(3), and a datum on k -> D2 -> M_2 over GF(2) that fails diagram (c).
  Its golden records are in ``tests/golden_kinds.json``.

Tier-1 runs a fixed subsample of each, twice in one process, in two
shuffled orders, so that no report depends on what an earlier call
computed or left in a memo.  The perfbench files are read, not written.

Run as a script, ``PYTHONPATH=src python tests/test_corpus.py`` runs all
three whole corpora the same way and exits 1 on any mismatch;
``--record`` rewrites ``tests/golden_mutated.json`` and
``tests/golden_kinds.json`` from the current code.
"""

import hashlib
import importlib.util
import io
import json
import os
import random
import sys

from coringext.cli import run
from coringext.exactla import DEFAULT_MAX_DIM, DEFAULT_MAX_ENUM, set_guards

TESTS = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.join(os.path.dirname(TESTS), "perfbench")
GOLDEN_MUTATED = os.path.join(TESTS, "golden_mutated.json")
GOLDEN_KINDS = os.path.join(TESTS, "golden_kinds.json")
KINDS_WORKSPACES = os.path.join(TESTS, "kinds_workspaces.json")
STRIDE = 5
MUTATED_STRIDE = 8
KINDS_STRIDE = 16

# the commands the benchmark runs on each mutated workspace
EXTENSION_COMMANDS = (
    ("check",),
    ("induce", "--extension", "E", "--comodule", "reg"),
    ("apply", "--extension", "E", "--map", "idmap"),
    ("compose", "--first", "Eid", "--second", "E"))
DESCENT_COMMANDS = (
    ("check",),
    ("descent", "--cor28", "C28", "--datum", "dat"))
KINDS_COMMANDS = (
    ("check",),
    ("induce", "--extension", "E", "--comodule", "reg"),
    ("dualring", "--coring", "w"),
    ("--max-dim", "31", "check"))
# each workspace of tests/kinds_workspaces.json, with the commands run on it
KINDS_BASES = (("2", KINDS_COMMANDS), ("3", KINDS_COMMANDS),
               ("cor28-2", DESCENT_COMMANDS), ("cor28-3", DESCENT_COMMANDS),
               ("diagram-c-2", DESCENT_COMMANDS))


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def call_key(argv, workspace: str) -> str:
    """A record names its call by its arguments and workspace."""
    return " ".join(argv) + " " + sha256(workspace)


def load_gen():
    spec = importlib.util.spec_from_file_location(
        "perfbench_gen", os.path.join(PERFBENCH, "gen.py"))
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


def recorded_calls(stride=STRIDE):
    """Every ``stride``-th recorded call of the benchmark, as
    ``(label, argv, workspace, code, digest)``."""
    gen = load_gen()
    with open(os.path.join(PERFBENCH, "golden.json"), encoding="utf-8") as fh:
        golden = json.load(fh)
    calls = []
    for workload in sorted(golden):
        make = gen.WORKLOADS[workload][0]
        for seed in sorted(golden[workload], key=int):
            for call, (key, code, digest) in zip(
                    make(int(seed)), golden[workload][seed], strict=True):
                assert key == call_key(call.argv, call.workspace)
                calls.append((call.label, call.argv, call.workspace, code,
                              digest))
    return calls[::stride]


def _bumps(data, p, path):
    """Each copy of a nested array with one entry raised by 1 mod p, with
    the JSON path of that entry."""
    for i, x in enumerate(data):
        at = f"{path}[{i}]"
        if isinstance(x, list):
            for sub, sub_path in _bumps(x, p, at):
                yield data[:i] + [sub] + data[i + 1:], sub_path
        else:
            yield data[:i] + [(x + 1) % p] + data[i + 1:], at


def _mutations(ws: dict, p: int):
    """Every copy of a workspace with one array entry raised by 1 mod p,
    as ``(path, objects)``, in object, key and entry order."""
    for name, obj in ws["objects"].items():
        for key, val in obj.items():
            if not isinstance(val, list):
                continue
            for bumped, path in _bumps(val, p, f"$.objects.{name}.{key}"):
                objects = dict(ws["objects"])
                objects[name] = {**obj, key: bumped}
                yield path, objects


def mutated_calls():
    """Every call of the mutated-array corpus, in a fixed order, as
    ``(label, argv, workspace)``."""
    gen = load_gen()
    calls = []
    for p in (2, 3):
        f = gen.Field(p)
        for text, commands in ((gen._extension_ws(f), EXTENSION_COMMANDS),
                               (gen._descent_ws(f), DESCENT_COMMANDS)):
            for path, objects in _mutations(json.loads(text), p):
                mutated = gen.workspace(f, objects)
                calls += [(f"GF{p} {path}", argv, mutated)
                          for argv in commands]
    return calls


def kinds_calls():
    """Every call of the each-kind corpus, in a fixed order, as
    ``(label, argv, workspace)``: each base workspace, then its
    mutations."""
    with open(KINDS_WORKSPACES, encoding="utf-8") as fh:
        bases = json.load(fh)
    calls = []
    for key, commands in KINDS_BASES:
        base = bases[key]
        p = base["field"]["p"]
        for path, objects in [("base", base["objects"]),
                              *_mutations(base, p)]:
            text = json.dumps({**base, "objects": objects},
                              separators=(",", ":"))
            calls += [(f"{key} {path}", argv, text) for argv in commands]
    return calls


# each recorded corpus: its golden file, its calls and its tier-1 stride
CORPORA = {
    "mutated": (GOLDEN_MUTATED, mutated_calls, MUTATED_STRIDE),
    "kinds": (GOLDEN_KINDS, kinds_calls, KINDS_STRIDE),
}


def golden_calls(corpus: str, stride=None):
    """Every ``stride``-th call of a recorded corpus with its golden
    record; by default the corpus's tier-1 stride."""
    path, make, default_stride = CORPORA[corpus]
    with open(path, encoding="utf-8") as fh:
        golden = json.load(fh)
    calls = []
    for (label, argv, ws), (key, code, digest) in zip(
            make(), golden, strict=True):
        assert key == call_key(argv, ws)
        calls.append((label, argv, ws, code, digest))
    return calls[::stride or default_stride]


def run_call(argv, workspace: str):
    out = io.StringIO()
    code = run(list(argv), stdin=io.StringIO(workspace), stdout=out)
    return code, sha256(out.getvalue())


def mismatches(calls):
    """The calls whose report differs from the golden record, over two
    passes in two shuffled orders in this process."""
    found = []
    try:
        for order in (1, 2):
            shuffled = calls[:]
            random.Random(order).shuffle(shuffled)
            for label, argv, ws, code, digest in shuffled:
                if run_call(argv, ws) != (code, digest):
                    found.append((order, label, argv))
    finally:
        set_guards(DEFAULT_MAX_DIM, DEFAULT_MAX_ENUM)
    return found


def test_reports_match_golden_records():
    calls = recorded_calls()
    assert len(calls) == 114
    assert mismatches(calls) == []


def test_mutated_arrays_match_golden_records():
    calls = golden_calls("mutated")
    assert len(calls) == 142
    assert mismatches(calls) == []


def test_each_kind_arrays_match_golden_records():
    calls = golden_calls("kinds")
    assert len(calls) == 267
    assert mismatches(calls) == []


def record() -> None:
    """Rewrite every corpus's golden file from the current code."""
    for path, make, _ in CORPORA.values():
        records = []
        try:
            for _, argv, ws in make():
                records.append([call_key(argv, ws), *run_call(argv, ws)])
        finally:
            set_guards(DEFAULT_MAX_DIM, DEFAULT_MAX_ENUM)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("[\n" + ",\n".join(json.dumps(r) for r in records)
                     + "\n]\n")
        print(f"recorded {len(records)} calls in {path}")


def main(argv) -> int:
    if argv == ["--record"]:
        record()
        return 0
    if argv:
        print("usage: test_corpus.py [--record]", file=sys.stderr)
        return 2
    calls = recorded_calls(stride=1) + [
        call for corpus in CORPORA for call in golden_calls(corpus, 1)]
    found = mismatches(calls)
    for order, label, call_argv in found:
        print(f"pass {order}: {label}: {' '.join(call_argv)}")
    print(f"{len(calls)} calls, two passes: {len(found)} mismatches")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
