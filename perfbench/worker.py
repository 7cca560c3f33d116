"""Benchmark worker: one fresh interpreter per call.

    worker.py setup   --workload W --seed N --out DIR
    worker.py measure --dir DIR --seconds S --trace 0|1 --out FILE

``setup`` imports lieforms and writes the workload's manifests and
``jobs.json``.  ``measure`` runs the job list in passes, back to back on
one thread, while the next pass is expected to end within S seconds (at
least one pass).  Each job is
``lieforms.cli.main([..., "--json", "--manifest", F])`` with its output
captured and graded against the known answer.  With
``--trace 1`` the untraced passes get half the time, then the span
wrappers are installed and traced passes get the other half.  The result
is written to FILE as JSON.
"""

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import sys
import time

import workloads


def run_job(cli, job, workdir):
    """Run one job; returns [id, seconds, verdict, reason]."""
    argv = list(job["argv"]) + ["--json"]
    for name in job["manifests"]:
        argv += ["--manifest", os.path.join(workdir, name)]
    out, err = io.StringIO(), io.StringIO()
    raised = None
    # Each CLI command normally starts with a fresh heap; collecting here
    # keeps one job's garbage out of the next job's time.
    gc.collect()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the command line
        code = exc.code
    except Exception as exc:  # a raising job is scored, never fatal
        code, raised = None, "%s: %s" % (type(exc).__name__, exc)
    elapsed = time.perf_counter() - start
    lines = out.getvalue().strip().splitlines()
    try:
        report = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        report = None
    verdict, reason = workloads.score(job["expect"], code, report)
    if raised:
        reason = raised
    if "save" in job and report and "entity" in report:
        with open(os.path.join(workdir, job["save"]), "w",
                  encoding="utf-8") as handle:
            handle.write(json.dumps(report["entity"]) + "\n")
    return [job["id"], elapsed, verdict, reason]


def run_passes(cli, jobs, workdir, seconds, on_pass=None):
    """Whole passes while the next one is expected to end within
    ``seconds``; at least one."""
    passes = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        records = [run_job(cli, job, workdir) for job in jobs]
        passes.append({"wall": time.perf_counter() - t0, "jobs": records})
        if on_pass is not None:
            on_pass()
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) > seconds:
            return passes


def measure(args):
    with open(os.path.join(args.dir, "jobs.json"), encoding="utf-8") as fh:
        jobs = json.load(fh)["jobs"]
    import lieforms.cli as cli
    result = {}
    if not args.trace:
        result["passes"] = run_passes(cli, jobs, args.dir, args.seconds)
    else:
        import tracing
        result["passes"] = run_passes(cli, jobs, args.dir, args.seconds / 2)
        tracer = tracing.Tracer()
        tracer.install()
        result["traced_passes"] = run_passes(cli, jobs, args.dir,
                                             args.seconds / 2,
                                             on_pass=tracer.end_pass)
        result["trace"] = tracer.report()
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    sp = sub.add_parser("setup")
    sp.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--out", required=True)
    sp = sub.add_parser("measure")
    sp.add_argument("--dir", required=True)
    sp.add_argument("--seconds", type=float, required=True)
    sp.add_argument("--trace", type=int, choices=(0, 1), default=0)
    sp.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if args.mode == "setup":
        workloads.build(args.workload, args.seed, args.out)
    else:
        measure(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
