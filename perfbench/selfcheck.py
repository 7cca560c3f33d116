"""The benchmark's own checks.

    python3 perfbench/selfcheck.py

Run from the root of a checkout.  It checks that

* the scorer flags a wrong form count (k instead of k+1), a ``refuted``
  match on a re-based pair, an exit 2 and a raise, and accepts the right
  answers;
* traced self times add up to no more than the traced wall time;
* counts and span counts repeat exactly between two traced runs with the
  same seed.

Prints one line per check and exits 1 if any fails.
"""

import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402
from workloads import CORRECT, ERROR, UNDECIDED, WRONG  # noqa: E402


def deadline():
    return time.monotonic() + run.RUN_LIMIT_S


def jobs_by_id(workload, seed, out, env):
    run.run_child(["setup", "--workload", workload, "--seed", str(seed),
                   "--out", out], env, deadline())
    with open(os.path.join(out, "jobs.json"), encoding="utf-8") as handle:
        return {j["id"]: j for j in json.load(handle)["jobs"]}


def scorer_checks(work, env):
    forms = jobs_by_id("forms", 1, os.path.join(work, "forms"), env)
    rebased = jobs_by_id("rebased", 1, os.path.join(work, "rebased"), env)
    count = forms["count-forms/nintot_k1"]["expect"]
    k = count["count"] - 1
    match = rebased["Q(i)/h3+h3/match"]["expect"]
    dec = rebased["Q/h3+h3/decompose"]["expect"]
    summand = {"dim": 3, "certificate": "CertifiedIndecomposable"}
    heuristic = dict(summand, certificate=workloads.HEURISTIC)
    cases = [
        ("count k+1 accepted", count, 0, {"count": k + 1}, CORRECT),
        ("count k flagged", count, 0, {"count": k}, WRONG),
        ("re-based matched accepted", match, 0, {"status": "matched"},
         CORRECT),
        ("re-based unknown undecided", match, 3, {"status": "unknown"},
         UNDECIDED),
        ("re-based refuted flagged", match, 1, {"status": "refuted"}, WRONG),
        ("exit 2 flagged", match, 2, None, ERROR),
        ("raise flagged", count, None, None, ERROR),
        ("heuristic summand undecided", dec, 3,
         {"summands": [summand, heuristic], "verified": True}, UNDECIDED),
        ("wrong summand dims flagged", dec, 0,
         {"summands": [dict(summand, dim=6)], "verified": True}, WRONG),
    ]
    return [(name, workloads.score(expect, code, report)[0] == want)
            for name, expect, code, report, want in cases]


def traced_run(data_dir, out, env):
    run.run_child(["measure", "--dir", data_dir, "--seconds", "1",
                   "--trace", "1", "--out", out], env, deadline())
    with open(out, encoding="utf-8") as handle:
        return json.load(handle)


def trace_checks(work, env):
    data_dir = os.path.join(work, "traced")
    run.run_child(["setup", "--workload", "forms", "--seed", "3",
                   "--out", data_dir], env, deadline())
    first = traced_run(data_dir, os.path.join(work, "t1.json"), env)
    second = traced_run(data_dir, os.path.join(work, "t2.json"), env)
    checks = []
    for label, result in (("first", first), ("second", second)):
        _, ok = run.per_layer(result)
        checks.append(("%s traced run: self times within wall time" % label,
                       ok["self_within_wall"]))
    checks.append(("span counts repeat between traced runs",
                   first["trace"]["calls"] == second["trace"]["calls"]))
    checks.append(("operator counts repeat between traced runs",
                   first["trace"]["counts"] == second["trace"]["counts"]))
    return checks


def main():
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "lieforms", "cli.py")):
        print("error: run from a lieforms checkout", file=sys.stderr)
        return 2
    env = run.child_env(root)
    work = os.path.join(root, ".bench_work", "selfcheck-p%d" % os.getpid())
    os.makedirs(work)
    try:
        checks = scorer_checks(work, env) + trace_checks(work, env)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    finally:
        run.remove_work(work)
    for name, ok in checks:
        print("%s: %s" % ("PASS" if ok else "FAIL", name))
    return 0 if all(ok for _, ok in checks) else 1


if __name__ == "__main__":
    sys.exit(main())
