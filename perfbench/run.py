"""The dt4vertex benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every measured process is a fresh
single-threaded interpreter (``perfbench/worker.py``) that imports dt4vertex
from ``src/`` and runs the workload's jobs through the CLI entry point.

With ``--trace 0`` the run first spawns set-up probes (processes that stop
where the first job would start), then runs whole iterations, each a fresh
process doing the cold and the warm pass, for as many as fit in S seconds
(at least one).  It prints the end-to-end metrics as medians over the
iterations and set-up samples.  With ``--trace 1`` it runs one untraced and
one traced iteration and prints the per-layer metrics of the traced one.

Every job's report is checked against ``perfbench/expected``; the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The line before it holds the provenance, the
sample counts and any failed job.  Each process gets its own cache
directories (``DT4VERTEX_CACHE_DIR``, ``XDG_CACHE_HOME`` and the workload's
``--cache-dir``) under ``.bench_tmp/`` in the checkout, removed at the end.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

TIME_LIMIT_S = 170
SETUP_PROBES = 7

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cold_s": "s",
    "warm_s": "s",
}

PER_LAYER = {
    "partitions.enumerate.self_s": "s",
    "partitions.fixed_points": "count",
    "ptconfig.enumerate.self_s": "s",
    "ptconfig.box_configs": "count",
    "vertexcalc.characters.self_s": "s",
    "vertexcalc.characters.calls": "count",
    "vertexcalc.euler_sqrt.self_s": "s",
    "vertexcalc.euler_sqrt.calls": "count",
    "vertexcalc.euler_sqrt.warm_calls": "count",
    "vertexcalc.root.calls": "count",
    "vertexcalc.root_reuse_ratio": "ratio",
    "vertexcalc.series.self_s": "s",
    "exactalg.add.self_s": "s",
    "exactalg.add.calls": "count",
    "exactalg.add.out_terms_max": "count",
    "exactalg.add.den_deg_max": "degree",
    "exactalg.expand.self_s": "s",
    "exactalg.expand.calls": "count",
    "exactalg.mul.self_s": "s",
    "exactalg.eq.self_s": "s",
    "exactalg.evaluate_mod.self_s": "s",
    "exactalg.evaluate_mod.calls": "count",
    "exactalg.qseries.self_s": "s",
    "signsearch.self_s": "s",
    "signsearch.solve.calls": "count",
    "signsearch.unknowns_max": "count",
    "signsearch.candidates": "count",
    "signsearch.solutions": "count",
    "signsearch.solutions_per_candidate": "ratio",
    "toric.self_s": "s",
    "toric.global_series.calls": "count",
    "cache.load_s": "s",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.put.calls": "count",
    "cache.put.self_s": "s",
    "cache.file_bytes": "bytes",
    "cli.self_s": "s",
    "cli.report_bytes": "bytes",
    "trace.wall_s": "s",
    "trace.self_total_s": "s",
    "trace.coverage_frac": "ratio",
    "trace.overhead_frac": "ratio",
    "trace.spans": "count",
    "ops_failed_frac": "ratio",
    "report_rendering_changed": "count",
}


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


class Runner:
    """Spawns worker processes for one run under a common deadline."""

    def __init__(self, workload, seed, tmp, expected_dir):
        self.workload = workload
        self.seed = seed
        self.tmp = tmp
        self.expected_dir = expected_dir
        self.deadline = time.monotonic() + TIME_LIMIT_S
        self.count = 0

    def spawn(self, trace=False, setup_only=False):
        """Run one worker to completion; returns its result and set-up time."""
        self.count += 1
        wdir = os.path.join(self.tmp, f"w{self.count}")
        os.makedirs(wdir)
        cfg = {
            "workload": self.workload,
            "seed": self.seed,
            "root": ROOT,
            "tmp": wdir,
            "out": os.path.join(wdir, "result.json"),
            "expected_dir": self.expected_dir,
            "trace": trace,
            "setup_only": setup_only,
        }
        cfg_path = os.path.join(wdir, "config.json")
        with open(cfg_path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        env = dict(os.environ)
        env["DT4VERTEX_CACHE_DIR"] = os.path.join(wdir, "env-cache")
        env["XDG_CACHE_HOME"] = os.path.join(wdir, "xdg-cache")
        # the amount of work depends on string-hash order (about 7% between
        # hash seeds on global-cache), so every process uses the same one
        env["PYTHONHASHSEED"] = "0"
        err_path = os.path.join(wdir, "stderr.txt")
        with open(err_path, "w", encoding="utf-8") as err:
            t0 = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, os.path.join(HERE, "worker.py"), cfg_path],
                stdout=err, stderr=err, stdin=subprocess.DEVNULL, env=env, cwd=ROOT,
            )
            try:
                rc = proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                raise BenchError(f"worker exceeded the {TIME_LIMIT_S} s run limit") from None
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if rc != 0 or not os.path.exists(cfg["out"]):
            with open(err_path, encoding="utf-8") as fh:
                tail = fh.read()[-2000:]
            raise BenchError(f"worker exited with status {rc}:\n{tail}")
        with open(cfg["out"], encoding="utf-8") as fh:
            result = json.load(fh)
        shutil.rmtree(wdir)
        return result, result["first_job_t"] - t0


def _git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head, encoding="utf-8") as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = os.path.join(ROOT, ".git", ref)
    if os.path.isfile(loose):
        with open(loose, encoding="utf-8") as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed, encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    return None


def _source_sha256():
    """Hash of the program source, which identifies it without git."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode("utf-8") + b"\0")
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def provenance(seed, worker_result):
    return {
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "python": worker_result["python"],
        "backend": worker_result["backend"],
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "host": platform.node(),
        "kernel": platform.release(),
        "seed": seed,
    }


def _jobs(result):
    return [job for p in result["passes"] for job in p["jobs"]]


def _tally(results):
    jobs = [job for r in results for job in _jobs(r)]
    failures = [
        {"job": j["id"], "reason": j["reason"]} for j in jobs if j["status"] == "fail"
    ]
    changed = sum(1 for j in jobs if j["status"] == "report_rendering_changed")
    return len(jobs), failures, changed


def _pass_seconds(result, label):
    return next(p["seconds"] for p in result["passes"] if p["label"] == label)


def _wall(result):
    return sum(p["seconds"] for p in result["passes"])


def measure(runner, seconds):
    """Set-up probes, then whole iterations while they fit in ``seconds``."""
    setups = []
    for _ in range(SETUP_PROBES):
        setups.append(runner.spawn(setup_only=True)[1])
    iterations = []
    spent = 0.0
    while not iterations or spent + spent / len(iterations) <= seconds:
        result, setup = runner.spawn()
        setups.append(setup)
        iterations.append(result)
        spent += _wall(result)
    metrics = {
        "wall_s": statistics.median(_wall(r) for r in iterations),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_kb"] / 1024 for r in iterations),
        "cold_s": statistics.median(_pass_seconds(r, "cold") for r in iterations),
        "warm_s": statistics.median(_pass_seconds(r, "warm") for r in iterations),
    }
    samples = {"iterations": len(iterations), "setup": len(setups)}
    return iterations, metrics, samples


def measure_traced(runner):
    """One untraced and one traced iteration; per-layer metrics of the latter."""
    plain, _ = runner.spawn()
    traced, _ = runner.spawn(trace=True)
    metrics = dict(traced["layers"])
    metrics["trace.overhead_frac"] = _wall(traced) / _wall(plain) - 1.0
    metrics["cli.report_bytes"] = sum(j["report_bytes"] for j in _jobs(traced))
    metrics["cache.file_bytes"] = max(p["cache_file_bytes"] for p in traced["passes"])
    return [plain, traced], metrics, {"iterations": 2, "traced": 1}


def run(workload, seed, seconds, trace, expected_dir=os.path.join(HERE, "expected")):
    if not os.path.isfile(os.path.join(ROOT, "src", "dt4vertex", "__init__.py")):
        raise BenchError(f"no dt4vertex source under {os.path.join(ROOT, 'src')}")
    base = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(base, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=base, prefix="run-")
    try:
        runner = Runner(workload, seed, tmp, expected_dir)
        if trace:
            results, metrics, samples = measure_traced(runner)
            units = PER_LAYER
        else:
            results, metrics, samples = measure(runner, seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(base)
        except OSError:
            pass  # another run still uses it
    attempted, failures, changed = _tally(results)
    metrics["ops_failed_frac"] = len(failures) / attempted
    metrics["report_rendering_changed"] = changed
    details = {
        "workload": workload,
        "provenance": provenance(seed, results[0]),
        "samples": samples,
        "report_rendering_changed": changed,
        "failures": failures,
    }
    summary = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return details, summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(workloads.WORKLOADS) + ["smoke"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that the running worker is killed and awaited
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        details, summary = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(details, sort_keys=True))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
