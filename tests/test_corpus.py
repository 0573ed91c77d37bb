"""The recorded CLI reports, as a safety net for refactors.

Every fifth call of the benchmark's recorded workloads (the calls that
``perfbench/gen.py`` generates for the seeds in ``perfbench/golden.json``)
runs in-process through ``cli.run``, and its exit code and stdout sha256
must equal the golden record.  The subsample runs twice in one process, in
two shuffled orders, so that no report depends on what an earlier call
computed or left in a memo.  Both files are read, not written.
"""

import hashlib
import importlib.util
import io
import json
import os
import random

from coringext.cli import run
from coringext.exactla import DEFAULT_MAX_DIM, DEFAULT_MAX_ENUM, set_guards

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")
STRIDE = 5


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_gen():
    spec = importlib.util.spec_from_file_location(
        "perfbench_gen", os.path.join(PERFBENCH, "gen.py"))
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


def recorded_calls():
    """Every ``STRIDE``-th recorded call, with its golden exit code and
    stdout sha256."""
    gen = load_gen()
    with open(os.path.join(PERFBENCH, "golden.json"), encoding="utf-8") as fh:
        golden = json.load(fh)
    calls = []
    for workload in sorted(golden):
        make = gen.WORKLOADS[workload][0]
        for seed in sorted(golden[workload], key=int):
            for call, (key, code, digest) in zip(
                    make(int(seed)), golden[workload][seed], strict=True):
                # the record names the call by its arguments and workspace
                assert key == " ".join(call.argv) + " " + \
                    sha256(call.workspace)
                calls.append((call, code, digest))
    return calls[::STRIDE]


def test_reports_match_golden_records():
    calls = recorded_calls()
    assert len(calls) == 114
    try:
        for order in (1, 2):
            shuffled = calls[:]
            random.Random(order).shuffle(shuffled)
            for call, code, digest in shuffled:
                out = io.StringIO()
                got = run(list(call.argv), stdin=io.StringIO(call.workspace),
                          stdout=out)
                assert (got, sha256(out.getvalue())) == (code, digest), \
                    (order, call.label, call.argv)
    finally:
        set_guards(DEFAULT_MAX_DIM, DEFAULT_MAX_ENUM)
