"""Pinned answers of the benchmark workloads at seeds 7 and 11.

Builds the ``forms``, ``rebased`` and ``descent`` manifests with
``perfbench/workloads.py``, runs every job in order through
``lieforms.cli.main`` as ``perfbench/worker.py`` does (saving the entity a
job with ``save`` reports), and compares each job's SHA-256 of (exit code,
stdout) with ``tests/data/answers_seed<seed>.json``.  The pinned answers
are those of the benchmark's jobs as they run.  A change that alters an
answer rewrites the files and says why:

    PYTHONPATH=src python tests/test_answers.py

which prints the id of every job whose digest it rewrites, one line each
as ``seed<seed> <workload> <job id>``, so the rewrite can be checked
against the jobs the change names.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (7, 11)


def answers_path(seed):
    return os.path.join(ROOT, "tests", "data", "answers_seed%d.json" % seed)


def load_workloads():
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", os.path.join(ROOT, "perfbench", "workloads.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = load_workloads()


def job_digest(cli, job, workdir):
    """SHA-256 of the job's (exit code, stdout); saves a reported entity."""
    argv = list(job["argv"]) + ["--json"]
    for name in job["manifests"]:
        argv += ["--manifest", os.path.join(workdir, name)]
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a raising job is an answer too
        code = "%s: %s" % (type(exc).__name__, exc)
    stdout = out.getvalue()
    if "save" in job:
        lines = stdout.strip().splitlines()
        report = json.loads(lines[-1]) if lines else None
        if report and "entity" in report:
            with open(os.path.join(workdir, job["save"]), "w",
                      encoding="utf-8") as handle:
                handle.write(json.dumps(report["entity"]) + "\n")
    text = json.dumps([code, stdout])
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def workload_answers(workload, seed, workdir):
    import lieforms.cli as cli

    workloads.build(workload, seed, workdir)
    with open(os.path.join(workdir, "jobs.json"), encoding="utf-8") as fh:
        jobs = json.load(fh)["jobs"]
    return {job["id"]: job_digest(cli, job, workdir) for job in jobs}


# Seed 7 keeps the bare workload ids it was first pinned under.
@pytest.mark.parametrize("workload,seed", [
    pytest.param(w, s, id=w if s == SEEDS[0] else "%s-seed%d" % (w, s))
    for s in SEEDS for w in workloads.WORKLOADS])
def test_answers_match_pinned_digests(workload, seed, tmp_path):
    with open(answers_path(seed), encoding="utf-8") as handle:
        pinned = json.load(handle)[workload]
    got = workload_answers(workload, seed, str(tmp_path))
    assert sorted(got) == sorted(pinned)
    changed = sorted(j for j in got if got[j] != pinned[j])
    assert not changed, "answers changed: %s" % changed


if __name__ == "__main__":
    import tempfile

    for seed in SEEDS:
        try:
            with open(answers_path(seed), encoding="utf-8") as handle:
                old = json.load(handle)
        except FileNotFoundError:
            old = {}
        answers = {}
        for name in workloads.WORKLOADS:
            with tempfile.TemporaryDirectory() as tmp:
                answers[name] = workload_answers(name, seed, tmp)
            pinned = old.get(name, {})
            for job in sorted(answers[name]):
                if pinned.get(job) != answers[name][job]:
                    print("seed%d %s %s" % (seed, name, job))
        with open(answers_path(seed), "w", encoding="utf-8") as handle:
            json.dump(answers, handle, indent=1, sort_keys=True)
            handle.write("\n")
