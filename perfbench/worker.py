"""One measured process of the benchmark.

    python3 perfbench/worker.py CONFIG.json

CONFIG names the workload, seed, checkout root, a fresh temp directory, the
result file to write, the directory of expected results and whether to
trace.  The worker imports dt4vertex from
the checkout, makes its job list, prepares its cache directory, and then
runs the cold and warm passes through ``dt4vertex.cli.main([...], out=...)``
with ``--json``, as a user would.  A job that raises is recorded with its
exception class and the pass goes on.  Timing ends before the reports are
checked against the recorded expectations.  Exit status 3 means set-up
failed (for example, no dt4vertex source in the checkout).
"""

import importlib
import io
import json
import os
import resource
import sys
import time


def _setup(cfg):
    """Everything a user pays before the first job starts."""
    src = os.path.join(cfg["root"], "src")
    sys.path.insert(0, src)
    import workloads

    dt4vertex = importlib.import_module("dt4vertex")
    cli = importlib.import_module("dt4vertex.cli")
    where = os.path.dirname(os.path.abspath(dt4vertex.__file__))
    if os.path.commonpath([where, src]) != src:
        raise ImportError(f"dt4vertex imported from {where}, not from {src}")
    cache_dir = os.path.join(cfg["tmp"], "cache")
    os.makedirs(cache_dir)
    argv_list = [
        [cache_dir if a == workloads.CACHE else a for a in argv]
        for argv in workloads.jobs(cfg["workload"], cfg["seed"])
    ]
    return dt4vertex, cli, workloads, cache_dir, argv_list


def _run_pass(cli, argv_list, cache_dir):
    jobs = []
    for argv in argv_list:
        out = io.StringIO()
        error = None
        rc = None
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv, out=out)
        except Exception as exc:  # a crash is a failed operation, not fatal
            error = type(exc).__name__
        seconds = time.perf_counter() - t0
        jobs.append({"seconds": seconds, "rc": rc, "error": error, "report": out.getvalue()})
    path = os.path.join(cache_dir, "vertices.jsonl")
    file_bytes = os.path.getsize(path) if os.path.exists(path) else 0
    return jobs, file_bytes


def main(config_path):
    with open(config_path, encoding="utf-8") as fh:
        cfg = json.load(fh)
    try:
        dt4vertex, cli, workloads, cache_dir, argv_list = _setup(cfg)
    except (ImportError, OSError, ValueError) as exc:
        print(f"worker set-up failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    tracer = None
    if cfg["trace"]:
        import layertrace

        tracer = layertrace.Tracer()
        layertrace.install(tracer)
    first_job_t = time.monotonic()
    result = {
        "first_job_t": first_job_t,
        "backend": dt4vertex.BACKEND,
        "python": sys.version.split()[0],
        "passes": [],
    }
    if not cfg["setup_only"]:
        for label in workloads.PASSES:
            if tracer is not None:
                tracer.begin_pass(label)
            t0 = time.perf_counter()
            jobs, file_bytes = _run_pass(cli, argv_list, cache_dir)
            seconds = time.perf_counter() - t0
            result["passes"].append({"label": label, "seconds": seconds, "jobs": jobs,
                                     "cache_file_bytes": file_bytes})
        result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None:
            wall = {p["label"]: p["seconds"] for p in result["passes"]}
            result["layers"] = layertrace.layer_metrics(tracer, wall)
        _check(result, argv_list, cfg, cache_dir)
    with open(cfg["out"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def _check(result, argv_list, cfg, cache_dir):
    """Replace each job's report by its correctness verdict."""
    import verify
    import workloads

    path = os.path.join(cfg["expected_dir"], f"{cfg['workload']}.json")
    with open(path, encoding="utf-8") as fh:
        expected = json.load(fh)["jobs"]
    for p in result["passes"]:
        for argv, job in zip(argv_list, p["jobs"]):
            report = job.pop("report")
            job["report_bytes"] = len(report.encode("utf-8"))
            job["id"] = workloads.job_id(
                [workloads.CACHE if a == cache_dir else a for a in argv])
            if job["error"] is not None:
                job["status"], job["reason"] = verify.FAIL, f"raised {job['error']}"
            else:
                job["status"], job["reason"] = verify.check_job(
                    expected.get(job["id"]), job["rc"], report)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
