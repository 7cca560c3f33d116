"""Exact-verdict benchmark for lieforms.

    python3 perfbench/run.py --workload forms --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the root of a checkout.  Each workload runs in fresh
interpreters: setup (import lieforms, write the seeded manifests) is timed
several times and its median reported as ``setup_s``; then one measuring
process runs the workload's CLI jobs in a closed loop, one client, back to
back.  Every answer is graded against a known answer; the last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end metrics with ``--trace 0``, per-layer metrics from
a traced pass with ``--trace 1``).  Workloads, seed rules, the layer map
and the known failed jobs are described in ``perfbench/spec.json``.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

# Setups run before and after the measurement, so their median spans the
# run rather than one moment of it.
SETUPS_BEFORE, SETUPS_AFTER = 3, 4
# A run ends within 180 s: every child process is killed at this deadline.
RUN_LIMIT_S = 170


def load_spec():
    with open(os.path.join(HERE, "spec.json"), encoding="utf-8") as handle:
        return json.load(handle)


def child_env(root):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + os.pathsep + HERE
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args, env, deadline):
    """Run worker.py with ``args``; it is killed at ``deadline``
    (time.monotonic())."""
    timeout = max(deadline - time.monotonic(), 0.1)
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py")]
                          + args, env=env, timeout=timeout,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    if proc.returncode != 0:
        raise RuntimeError("worker %s failed (exit %d):\n%s"
                           % (args[0], proc.returncode, proc.stderr[-2000:]))


def remove_work(work):
    """Delete a run's scratch directory, and its parent once empty."""
    shutil.rmtree(work, ignore_errors=True)
    try:
        os.rmdir(os.path.dirname(work))
    except OSError:
        pass


def tree_bytes(path):
    out = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as handle:
            out[name] = handle.read()
    return out


def setup(workload, seed, work, env, k, deadline):
    """Wall time of one fresh-interpreter setup and its output files."""
    out = os.path.join(work, "setup%d" % k)
    start = time.perf_counter()
    run_child(["setup", "--workload", workload, "--seed", str(seed),
               "--out", out], env, deadline)
    return time.perf_counter() - start, tree_bytes(out), out


def end_to_end(result, setup_s):
    """End-to-end metrics from the untraced passes.

    A job's time is its mean over all passes of the run, the first
    included: on a shared host the speed of a run drifts for tens of seconds
    at a time, and a mean over the whole run averages the drift.  So
    ``jobs_per_s`` is the run's plain throughput; the heavy jobs rule it.
    ``job_gmean_s``, the geometric mean of the job times, weighs every job
    alike.
    """
    records = [r for p in result["passes"] for r in p["jobs"]]
    samples = {}
    for job_id, elapsed, _, _ in records:
        samples.setdefault(job_id, []).append(elapsed)
    times = [statistics.fmean(v) for v in samples.values()]
    attempted = len(records)
    failed = [r for r in records if r[2] in workloads.FAILED]
    decided = sum(r[2] in (workloads.CORRECT, workloads.WRONG)
                  for r in records)
    metrics = {
        "setup_s": (setup_s, "s"),
        "jobs_per_s": (len(times) / sum(times), "jobs/s"),
        "job_gmean_s": (math.exp(statistics.fmean(math.log(t)
                                                  for t in times)), "s"),
        "decided_share": (decided / attempted, "ratio"),
        "sound_share": ((attempted - len(failed)) / attempted, "ratio"),
        "peak_rss_mb": (result["maxrss_kb"] / 1024.0, "MB"),
    }
    return metrics, records


def per_layer(result):
    trace = result["trace"]
    calls, self_s, counts = trace["calls"], trace["self_s"], trace["counts"]

    def total(prefix):
        return sum(v for k, v in self_s.items() if k.startswith(prefix))

    def layer_calls(prefix):
        return sum(v for k, v in calls.items() if k.startswith(prefix))

    def share(num, den):
        return num / den if den else 0.0

    untraced = statistics.median(p["wall"] for p in result["passes"])
    traced = statistics.median(p["wall"] for p in result["traced_passes"])
    summands = counts.get("decompose.summands", 0)
    oracle_calls = calls.get("decompose.oracle", 0)
    m = {}
    for op in ("mul", "add", "inv", "is_zero", "aut"):
        m["fields." + op] = (counts["fields." + op], "count")
    m["fields.self_s"] = (total("fields."), "s")
    m["polynomials.calls"] = (layer_calls("polynomials."), "count")
    m["polynomials.self_s"] = (total("polynomials."), "s")
    for name in ("linalg.rref", "linalg.mat_mul"):
        m[name + ".calls"] = (calls.get(name, 0), "count")
        m[name + ".self_s"] = (self_s.get(name, 0.0), "s")
    m["linalg.self_s"] = (total("linalg."), "s")
    m["liealg.construct.calls"] = (calls.get("liealg.construct", 0), "count")
    for name in ("liealg.construct", "liealg.verify", "liealg.fingerprint"):
        m[name + ".self_s"] = (self_s.get(name, 0.0), "s")
    m["descent.calls"] = (layer_calls("descent."), "count")
    m["descent.self_s"] = (total("descent."), "s")
    m["pfaffian.pfaffian_form.calls"] = (
        calls.get("pfaffian.pfaffian_form", 0), "count")
    m["pfaffian.pfaffian_form.self_s"] = (
        self_s.get("pfaffian.pfaffian_form", 0.0), "s")
    m["pfaffian.self_s"] = (total("pfaffian."), "s")
    m["decompose.centroid_basis.self_s"] = (
        self_s.get("decompose.centroid_basis", 0.0), "s")
    m["decompose.self_s"] = (total("decompose."), "s")
    m["decompose.radical.self_s"] = (self_s.get("decompose.radical", 0.0),
                                     "s")
    m["decompose.minpoly.calls"] = (calls.get("decompose.minpoly", 0),
                                    "count")
    m["decompose.minpoly.self_s"] = (self_s.get("decompose.minpoly", 0.0),
                                     "s")
    m["decompose.summands"] = (summands, "count")
    m["decompose.certified_share"] = (
        share(counts.get("decompose.certified", 0), summands), "ratio")
    m["decompose.oracle.calls"] = (oracle_calls, "count")
    m["decompose.oracle.decided_share"] = (
        share(counts.get("decompose.oracle.decided", 0), oracle_calls),
        "ratio")
    m["manifest.self_s"] = (total("manifest."), "s")
    m["cli.self_s"] = (total("cli."), "s")
    m["trace.overhead_share"] = ((traced - untraced) / untraced, "ratio")
    # Nested spans can never cover more than the passes that hold them.
    covered = sum(self_s.values())
    mean_traced = statistics.fmean(p["wall"] for p in result["traced_passes"])
    checks = {"self_within_wall": covered <= mean_traced,
              "counts_repeat": trace["counts_repeat"]}
    return m, checks


def run_workload(workload, seed, seconds, trace, root, spec):
    deadline = time.monotonic() + RUN_LIMIT_S
    env = child_env(root)
    work = os.path.join(root, ".bench_work",
                        "%s-s%d-p%d" % (workload, seed, os.getpid()))
    if os.path.exists(work):
        shutil.rmtree(work)
    os.makedirs(work)
    try:
        setups = [setup(workload, seed, work, env, k, deadline)
                  for k in range(SETUPS_BEFORE)]
        out = os.path.join(work, "result.json")
        run_child(["measure", "--dir", setups[0][2], "--seconds",
                   str(seconds), "--trace", str(int(trace)), "--out", out],
                  env, deadline)
        with open(out, encoding="utf-8") as handle:
            result = json.load(handle)
        setups += [setup(workload, seed, work, env, k, deadline)
                   for k in range(SETUPS_BEFORE, SETUPS_BEFORE + SETUPS_AFTER)]
    finally:
        remove_work(work)
    setup_s = statistics.median(t for t, _, _ in setups)
    same = all(files == setups[0][1] for _, files, _ in setups)
    e2e, records = end_to_end(result, setup_s)
    records += [r for p in result.get("traced_passes", []) for r in p["jobs"]]
    known = {k["job"] for k in spec["known_failures"]
             if k["workload"] == workload}
    failed = [r for r in records if r[2] in workloads.FAILED]
    unexpected = [r for r in failed if r[0] not in known]
    checks = {"setup_repeats_byte_identical": same,
              "no_unexpected_failures": not unexpected}
    if trace:
        metrics, trace_checks = per_layer(result)
        checks.update(trace_checks)
    else:
        metrics = e2e
    return {"workload": workload, "metrics": metrics, "checks": checks,
            "attempted": len(records), "failed": failed,
            "passes": len(result["passes"]),
            "jobs": len(result["passes"][0]["jobs"]), "known": known}


def print_report(res):
    w = res["workload"]
    print("workload %s: %d jobs attempted, %d failed in %d passes of %d "
          "jobs; job times are means over the passes"
          % (w, res["attempted"], len(res["failed"]), res["passes"],
             res["jobs"]))
    for name, (value, unit) in res["metrics"].items():
        print("  %-34s %14.6g %s" % (name, value, unit))
    seen = set()
    for job_id, _, _, reason in res["failed"]:
        if job_id in seen:
            continue
        seen.add(job_id)
        tag = "known failure" if job_id in res["known"] else "UNEXPECTED"
        print("  failed job %s: %s (%s)" % (job_id, reason, tag))
    for name, ok in res["checks"].items():
        if not ok:
            print("  check failed: %s" % name)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "lieforms", "cli.py")):
        print("error: run from a lieforms checkout (src/lieforms missing)",
              file=sys.stderr)
        return 2
    spec = load_spec()
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        try:
            res = run_workload(name, args.seed, args.seconds, args.trace,
                               root, spec)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print("error: workload %s: %s" % (name, exc), file=sys.stderr)
            return 1
        print_report(res)
        results.append(res)
    prefix = len(results) > 1
    metrics = {}
    for res in results:
        for name, (value, unit) in res["metrics"].items():
            key = "%s.%s" % (res["workload"], name) if prefix else name
            metrics[key] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": all(all(r["checks"].values()) for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(len(r["failed"]) for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
