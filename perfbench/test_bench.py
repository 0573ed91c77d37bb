"""Self-tests of the benchmark: generator, oracle, metric arithmetic, tracer.

    python3 -m pytest perfbench -q

Run from the repository root.  The exit-code test runs every generated call
of one seed as a child process, so the suite takes about a minute.
"""

import json
import os
import random
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import gen  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def bench():
    with run.Bench(ROOT, {}) as b:
        yield b


# -- generator ---------------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_same_seed_same_bytes(workload):
    make = gen.WORKLOADS[workload][0]
    first, again, other = make(7), make(7), make(8)
    assert first == again
    assert [c.workspace for c in first] != [c.workspace for c in other]


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_every_call_ends_as_expected(bench, workload):
    make, field = gen.WORKLOADS[workload]
    before = len(bench.failures)
    for call in make(3) + [gen.noop(field)]:
        bench.spawn(call)
    assert bench.failures[before:] == []


def test_cli_mix_rejects_a_third_of_the_short_calls():
    calls = gen.cli_mix(5)
    codes = [c.expect["exit"] for c in calls]
    assert 40 <= len(calls) <= 60
    assert {1, 2, 3} <= set(codes)
    heavy = {c.label for c in gen._enumerations(random.Random(0))}
    short = [c for c in calls if c.label not in heavy]
    assert (len(calls), len(short)) == (51, 48)
    assert sum(code != 0 for code in codes) * 3 == len(short)
    commands = {a for c in calls for a in c.argv if a in {
        "check", "dualring", "enumerate-measurings", "induce", "apply",
        "compose", "descent"}}
    assert len(commands) == 7


def test_basis_change_keeps_the_algebra():
    f = gen.Field(3)
    alg = gen.matrix_algebra(f, 2)
    t = gen.monomial(f, 4, random.Random(1))
    back = gen.change_algebra(f, gen.change_algebra(f, alg, t),
                              gen.inverse(f, t))
    assert back == alg
    q = gen.Field(None)
    d = gen.dense_unimodular(q, 4, random.Random(1))
    assert gen.matmul(q, d, gen.inverse(q, d)) == gen.identity(q, 4)
    assert all(x.denominator == 1 for row in gen.inverse(q, d) for x in row)


# -- oracle ------------------------------------------------------------------


def test_oracle_catches_wrong_reports():
    call = gen.Call("x", ("dualring",), "{}", {"exit": 0, "dim": 4})
    good = json.dumps({"dim": 4, "ok": True}).encode()
    assert run.problem(call, 0, good, None) is None
    assert "exit code" in run.problem(call, 1, good, None)
    assert "dim" in run.problem(call, 0, b'{"dim": 3, "ok": true}', None)
    assert "shape" in run.problem(call, 0, b"Traceback", None)
    assert "shape" in run.problem(call, 0, b"[1]", None)
    assert "golden" in run.problem(call, 0, good, [0, "0" * 64])
    assert run.problem(call, 0, good, [0, run.sha256(good)]) is None


def test_golden_records_match_the_generator():
    with open(run.GOLDEN, encoding="utf-8") as fh:
        recorded = json.load(fh)
    assert set(recorded) == set(gen.WORKLOADS)
    for workload, seeds in recorded.items():
        make = gen.WORKLOADS[workload][0]
        for seed in seeds:
            assert run.golden_for(workload, int(seed), make(int(seed)))


# -- metric arithmetic -------------------------------------------------------


def span(sid, parent, t0, t1, name="x"):
    return (sid, parent, name, t0, t1, None)


def test_self_time_subtracts_the_union_of_children():
    spans = [span(1, 0, 0.0, 10.0),
             span(2, 1, 1.0, 4.0), span(3, 1, 3.0, 5.0),  # overlap
             span(4, 1, 4.5, 4.8),                        # covered by 3
             span(5, 1, 9.0, 12.0),                       # runs past 1
             span(6, 2, 1.0, 2.0)]
    own = metrics.self_times(spans)
    assert own[1] == pytest.approx(10.0 - 4.0 - 1.0)
    assert own[2] == pytest.approx(2.0)
    assert own[3] == pytest.approx(2.0)
    assert own[6] == pytest.approx(1.0)


def test_tail_is_the_highest_percentile_with_ten_beyond():
    samples = list(range(100, 0, -1))
    value, pct = metrics.tail(samples)
    assert value == 90
    assert pct == pytest.approx(90.0)
    assert sum(s > value for s in samples) == 10
    assert metrics.tail(list(range(20))) == (9, 50.0)
    assert metrics.tail(list(range(19))) is None
    # pooled passes keep the percentile of one pass
    value, pct = metrics.tail(list(range(51)) * 3, groups=3)
    assert (value, pct) == (40, pytest.approx(100.0 * 41 / 51))
    assert metrics.tail(list(range(39)), groups=2) is None


def test_metric_names():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    for m in declared["end_to_end"] + declared["per_layer"]:
        assert metrics.check_name(m["name"]) == m["name"]
        assert m["name"][0].isalnum()
    for bad in ("", "a b", "a/b", "x:y", "é"):
        with pytest.raises(ValueError):
            metrics.check_name(bad)
    assert sorted(run.END_TO_END) == sorted(
        m["name"] for m in declared["end_to_end"])


# -- tracer ------------------------------------------------------------------


def test_traced_call_prints_the_same_bytes(bench):
    call = gen.cli_mix(1)[0]
    before = len(bench.failures)
    plain = bench.spawn(call)
    traced = bench.spawn(call, reference=plain[1])
    assert bench.failures[before:] == []
    bench.spawn(call, reference=b"other bytes")
    assert "differs" in bench.failures[-1]
    trace = traced[4]
    assert trace["caches"] == 19
    names = {s[2] for s in trace["spans"]}
    assert {"cli.import", "cli.main", "cli.run", "cli.parse_workspace",
            "cli.emit"} <= names
    layer = metrics.layer_metrics([trace])
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer"]}
    assert set(layer) | {"trace.overhead_ratio"} == declared
