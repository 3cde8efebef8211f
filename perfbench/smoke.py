"""Smoke check of the benchmark itself, at tiny sizes (about a minute).

    python3 perfbench/smoke.py

Runs every workload with --tiny, untraced and traced, and checks the
result line against BENCHMARK.json: the exact keys, correct and failed,
every metric named there with its unit.  Also checks that traced and
untraced runs hash to the same outputs, that the traced counts repeat,
and that the benchmark refuses to report from a directory that holds no
program.  Not collected by pytest, so it stays out of the tier-1 suite.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", "3", "--seconds", "1",
           "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def result_of(proc):
    if proc.returncode != 0:
        raise AssertionError("exit %d: %s" % (proc.returncode, proc.stderr[-500:]))
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
        raise AssertionError("result keys %s" % sorted(res))
    if not (res["correct"] and res["failed"] == 0 and res["attempted"] >= 1):
        raise AssertionError("not correct: %s" % proc.stdout[-1500:])
    return res


def digest_of(proc):
    line = next(x for x in proc.stdout.splitlines() if x.startswith("# digest:"))
    return line.split()[3]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    names = [w["name"] for w in spec["workloads"]]
    if sorted(names) != sorted(workloads.WORKLOADS):
        raise AssertionError("BENCHMARK.json workloads %s" % names)
    problems = []
    for name in names:
        digests = []
        counts = []
        for trace in (0, 1, 1) if name == "sweep_vol" else (0, 1):
            try:
                proc = run(name, trace)
                res = result_of(proc)
                got = {k: v["unit"] for k, v in res["metrics"].items()}
                if got != wanted[trace]:
                    raise AssertionError("metrics differ from BENCHMARK.json: %s"
                                         % sorted(set(got) ^ set(wanted[trace])))
                digests.append(digest_of(proc))
                if trace:
                    counts.append({k: v["value"] for k, v in res["metrics"].items()
                                   if v["unit"] == "count"})
                print("ok   %s trace %d" % (name, trace))
            except (AssertionError, ValueError, StopIteration,
                    subprocess.TimeoutExpired) as e:
                problems.append("%s trace %d: %s" % (name, trace, e))
                print("FAIL %s trace %d: %s" % (name, trace, e))
        if len(set(digests)) > 1:
            problems.append("%s: digests differ %s" % (name, digests))
        if len(counts) > 1 and counts[0] != counts[1]:
            problems.append("%s: traced counts differ between runs" % name)

    bare = os.path.join(ROOT, ".bench_out", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = run(names[0], 0, cwd=bare)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        problems.append("reported a result with no program present")
    else:
        print("ok   refuses to run without the program (exit %d)" % proc.returncode)
    shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print("problem: %s" % p)
    print("smoke: %s" % ("PASS" if not problems else "FAIL"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
