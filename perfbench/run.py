"""End-to-end benchmark of the coringext CLI: one fresh process per call.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  The seeded generator (``gen.py``) writes
each workspace once; the benchmark then runs passes over the workload's
calls, one child process at a time (a closed loop with one client), until
another pass would overrun ``--seconds``.  Every call is checked: its exit
code, the basis-free facts its report must carry and, for seeds recorded in
``golden.json``, the sha256 of its stdout.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer split (see
``tracer.py``) plus ``trace.overhead_ratio``.  Human-readable lines come
first; the last line of stdout is one JSON object.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import gen
import metrics

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
GOLDEN = os.path.join(HERE, "golden.json")
CALL_TIMEOUT_S = 60
NOOPS_PER_PASS = 8
END_TO_END = {"wall_s": "s", "latency_p50_s": "s", "latency_tail_s": "s",
              "setup_s": "s", "peak_rss_mib": "MiB"}


class Bench:
    """Spawns and checks the calls of one benchmark run."""

    def __init__(self, root: str, golden: dict):
        self.root = root
        base = os.path.join(root, ".perfbench")
        os.makedirs(base, exist_ok=True)
        # one directory per run, so that concurrent runs never share files
        self.work = tempfile.mkdtemp(prefix="run-", dir=base)
        self.golden = golden
        self.attempted = 0
        self.failures = []
        self.invocations = 0
        self._files = {}

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        shutil.rmtree(self.work, ignore_errors=True)

    def _stdin_file(self, call) -> str:
        if call.workspace not in self._files:
            path = os.path.join(self.work, f"ws{len(self._files)}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(call.workspace)
            self._files[call.workspace] = path
        return self._files[call.workspace]

    def spawn(self, call, reference=None):
        """Run one call; returns (exit, stdout, wall_s, maxrss_mib, trace).

        Given ``reference``, the stdout of the same call untraced, the call
        runs traced and its stdout must equal the reference.
        """
        traced = reference is not None
        self.invocations += 1
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("PERFBENCH_")}
        trace_path = None
        if traced:
            trace_path = os.path.join(self.work, "trace.json")
            env["PERFBENCH_TRACE"] = trace_path
            env["PERFBENCH_INVOCATION"] = str(self.invocations)
        killed = []
        with open(self._stdin_file(call), "rb") as stdin, \
                open(os.path.join(self.work, "stderr.txt"), "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, CHILD, *call.argv],
                                    stdin=stdin, stdout=subprocess.PIPE,
                                    stderr=err, cwd=self.root, env=env)
            timer = threading.Timer(CALL_TIMEOUT_S,
                                    lambda: (killed.append(1), proc.kill()))
            timer.start()
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
            timer.cancel()
            timer.join()
            proc.stdout.close()
            proc.returncode = os.waitstatus_to_exitcode(status)
        trace = None
        if traced and os.path.exists(trace_path):
            with open(trace_path, encoding="utf-8") as fh:
                trace = json.load(fh)
            os.remove(trace_path)
        self.attempted += 1
        why = problem(call, proc.returncode, out,
                      self.golden.get(call_key(call)))
        if killed:
            why = f"timed out after {CALL_TIMEOUT_S} s"
        elif traced and trace is None:
            why = "no trace written"
        elif traced and out != reference:
            why = "traced stdout differs from untraced"
        if why:
            self.failures.append(f"{call.label} {' '.join(call.argv)}: {why}")
        return proc.returncode, out, wall, usage.ru_maxrss / 1024, trace

    def run_pass(self, calls, noop, reference=None):
        """One pass; with the stdouts of an untraced pass as ``reference``,
        a traced one."""
        setup = [self.spawn(noop)[2] for _ in range(NOOPS_PER_PASS)]
        t0 = time.perf_counter()
        results = [self.spawn(c, ref)
                   for c, ref in zip(calls, reference or [None] * len(calls))]
        return {"wall": time.perf_counter() - t0, "setup": setup,
                "latency": [r[2] for r in results],
                "rss": max(r[3] for r in results),
                "stdout": [r[1] for r in results],
                "traces": [r[4] for r in results]}


def problem(call, code, out, golden):
    """Why the call's result is wrong, or None if it is right."""
    want = call.expect
    if code != want["exit"]:
        return f"exit code {code}, expected {want['exit']}"
    if golden is not None and golden != [code, sha256(out)]:
        return "stdout differs from the golden record"
    try:
        report = json.loads(out)
        err = report.get("error", {})
        got = {"dim": report.get("dim"), "count": report.get("count"),
               "kind": err.get("kind"), "witness": err.get("witness"),
               "path": err.get("path"), "error_type": err.get("type"),
               "verdict": report.get("verdict"),
               "matrix": report.get("matrix"),
               "result_dim": report.get("result", {}).get("dim"),
               "objects": [r["object"] for r in report.get("results", [])],
               "measurings": len(report.get("measurings", ()))}
    except (ValueError, AttributeError, KeyError, TypeError):
        return "stdout is not one report of the documented shape"
    for key, value in want.items():
        if key != "exit" and got[key] != value:
            return f"{key} is {got[key]!r}, expected {value!r}"
    if "count" in want and got["measurings"] != want["count"]:
        return "measuring list does not match its count"
    if report.get("ok") is not (code == 0):
        return "report's ok flag does not match the exit code"
    return None


def sha256(data) -> str:
    return hashlib.sha256(data).hexdigest()


def call_key(call) -> str:
    """Names a call by its arguments and the hash of its workspace."""
    return " ".join(call.argv) + " " + sha256(call.workspace.encode())


def golden_for(workload, seed, calls):
    """Map each call's key to its recorded [exit code, stdout sha256].

    A recorded seed whose calls no longer match the generator is an error:
    the golden records would silently stop checking anything.
    """
    if not os.path.exists(GOLDEN):
        return {}
    with open(GOLDEN, encoding="utf-8") as fh:
        recorded = json.load(fh).get(workload, {}).get(str(seed))
    if recorded is None:
        return {}
    if [r[0] for r in recorded] != [call_key(c) for c in calls]:
        sys.exit(f"golden records of {workload} seed {seed} do not match "
                 "the generated workspaces")
    return {key: result for key, *result in recorded}


def environment(root, traced):
    src = os.path.join(root, "src", "coringext")
    lines = 0
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as fh:
                lines += sum(1 for line in fh if line.strip())
    return {"python": sys.version.split()[0], "nproc": os.cpu_count(),
            "commit": git_commit(root), "trace": traced,
            "src_nonblank_lines": lines}


def git_commit(root) -> str:
    """HEAD of the clone at ``root``; "unknown" outside a clone."""
    # the ceiling keeps git from searching the directories above root
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def end_to_end(passes, calls, extra_setup):
    latency = [t for p in passes for t in p["latency"]]
    # the percentile is fixed by the calls of one pass, so it does not
    # depend on how many passes fit in a run
    if len(calls) >= 20:
        value, pct = metrics.tail(latency, groups=len(passes))
        note = f"latency_tail_s is p{pct:.1f} of {len(latency)} calls " \
            f"in {len(passes)} passes"
    else:  # no percentile with ten calls beyond it within one pass
        value = statistics.median(max(p["latency"]) for p in passes)
        note = "latency_tail_s is the slowest call of a pass, median over " \
            f"{len(passes)} passes"
    setup = [t for p in passes for t in p["setup"]] + extra_setup
    note += f"; setup_s is the median of {len(setup)} no-op calls"
    by_label = {}
    for p in passes:
        for call, t in zip(calls, p["latency"]):
            by_label.setdefault(call.label, []).append(t)
    lines = [f"{len(passes)} passes; {note}"] + [
        f"call {label} median {statistics.median(ts):.4g} s"
        for label, ts in by_label.items()]
    out = {"wall_s": statistics.median(p["wall"] for p in passes),
           "latency_p50_s": statistics.median(latency),
           "latency_tail_s": value,
           "setup_s": statistics.median(setup),
           "peak_rss_mib": statistics.median(p["rss"] for p in passes)}
    return {k: (v, END_TO_END[k]) for k, v in out.items()}, lines


def per_layer(untraced, traced):
    out = metrics.median_metrics([metrics.layer_metrics(p["traces"])
                                  for p in traced])
    ratio = statistics.median(p["wall"] for p in traced) / \
        statistics.median(p["wall"] for p in untraced)
    out["trace.overhead_ratio"] = (ratio, "ratio")
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="run one pass and record its exit codes and "
                         "stdout hashes as the golden records of this seed")
    args = ap.parse_args(argv)
    root = os.getcwd()
    if not os.path.exists(os.path.join(root, "src", "coringext", "cli.py")):
        sys.exit("run from the repository root: src/coringext is missing")
    make, field = gen.WORKLOADS[args.workload]
    calls = make(args.seed)
    noop = gen.noop(field)
    if args.record:
        return record(root, args.workload, args.seed, calls)
    with Bench(root, golden_for(args.workload, args.seed, calls)) as bench:
        bench.spawn(noop)  # writes bytecode caches; not measured
        untraced, traced = [], []
        start = time.perf_counter()
        while True:
            p0 = time.perf_counter()
            untraced.append(bench.run_pass(calls, noop))
            if args.trace:
                traced.append(bench.run_pass(calls, noop,
                                             untraced[-1]["stdout"]))
            took = time.perf_counter() - p0
            if time.perf_counter() - start + took > args.seconds:
                break
        # the time the last pass leaves is spent on more set-up samples
        extra_setup = []
        longest = max(untraced[-1]["setup"])
        while not args.trace and \
                time.perf_counter() - start + 2 * longest < args.seconds:
            extra_setup.append(bench.spawn(noop)[2])
            longest = max(longest, extra_setup[-1])
    if args.trace:
        result = per_layer(untraced, traced)
        notes = [f"{len(traced)} traced and {len(untraced)} untraced passes"]
    else:
        result, notes = end_to_end(untraced, calls, extra_setup)
    env = environment(root, bool(args.trace))
    print("env " + json.dumps(env, sort_keys=True))
    for line in bench.failures:
        print("FAILED " + line)
    print(f"{args.workload} seed {args.seed}: {len(calls)} calls per pass")
    for line in notes:
        print(line)
    print(f"fail_ratio {len(bench.failures)}/{bench.attempted}")
    for name, (value, unit) in sorted(result.items()):
        print(f"{metrics.check_name(name)} {value:.6g} {unit}")
    summary = {"correct": not bench.failures, "attempted": bench.attempted,
               "failed": len(bench.failures),
               "metrics": {k: {"value": v, "unit": u}
                           for k, (v, u) in result.items()}}
    print(json.dumps(summary, sort_keys=True))
    return 0


def record(root, workload, seed, calls):
    shas = []
    with Bench(root, {}) as bench:
        for call in calls:
            code, out = bench.spawn(call)[:2]
            shas.append([call_key(call), code, sha256(out)])
    if bench.failures:
        sys.exit("not recorded: " + "; ".join(bench.failures))
    data = {}
    if os.path.exists(GOLDEN):
        with open(GOLDEN, encoding="utf-8") as fh:
            data = json.load(fh)
    data.setdefault(workload, {})[str(seed)] = shas
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(shas)} calls of {workload} seed {seed}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
