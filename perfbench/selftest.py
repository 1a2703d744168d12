"""Self-test of the benchmark on tiny inputs (about 20 s).

    python3 perfbench/selftest.py

Checks that BENCHMARK.json and the runner agree on workload and metric names
and units; that a job which raises (``check nekrasov --order 5`` exceeds the
solver bound) and a job whose expected value was corrupted are each counted
as a failed operation while the run goes on; that a report rendered
differently but equal in value passes as "rendering changed"; and that the
traced run's self times add up to the time its spans cover.
"""

import json
import math
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402

CRASH_JOB = "check nekrasov --order 5 --json"
CORRUPTED_JOB = ("check global --geometry localp2 --beta 1 --order 3 --use-cache "
                 "--cache-dir {cache} --json")


def check(cond, what):
    print(f"{'ok  ' if cond else 'FAIL'} {what}")
    if not cond:
        raise SystemExit(1)


def check_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    check([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
          "BENCHMARK.json names the runner's workloads")
    check({m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END,
          "BENCHMARK.json end-to-end metrics match the runner's")
    check({m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER,
          "BENCHMARK.json per-layer metrics match the runner's")


def check_summary(summary, units):
    metrics = summary["metrics"]
    check(set(metrics) == set(units), f"prints exactly the {len(units)} expected metrics")
    check(all(metrics[k]["unit"] == u for k, u in units.items()), "every unit matches")
    check(all(isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
              for m in metrics.values()), "every value is a finite number")


def check_gate():
    with open(os.path.join(HERE, "expected", "smoke.json"), encoding="utf-8") as fh:
        jobs = json.load(fh)["jobs"]
    rec = next(r for job, r in jobs.items() if "global" in job)
    text = json.dumps(rec["report"], indent=2, sort_keys=True) + "\n"
    check(verify.check_job(rec, 0, text)[0] == verify.PASS, "byte-equal report passes")
    check(verify.check_job(rec, 1, text)[0] == verify.FAIL, "wrong exit code fails")

    report = json.loads(text)
    coeff = report["Pbeta"]["coefficients"][-1]
    coeff["lambda_rat"] = f"(l1 + l2)*({coeff['lambda_rat']}) / (l2 + l1)"
    status = verify.check_job(rec, 0, json.dumps(report))[0]
    check(status == verify.RENDERING_CHANGED, "equal value, new rendering: rendering changed")

    coeff["lambda_rat"] = f"2*({coeff['lambda_rat']})"
    check(verify.check_job(rec, 0, json.dumps(report))[0] == verify.FAIL,
          "changed coefficient fails")
    report = json.loads(text)
    report["chart_checks"][0]["orders"][0]["solutions"] += 1
    check(verify.check_job(rec, 0, json.dumps(report))[0] == verify.FAIL,
          "changed solution count fails")


def corrupted_expectations(tmp):
    """A copy of the smoke expectations with one coefficient changed and
    its report hash left as it was."""
    with open(os.path.join(HERE, "expected", "smoke.json"), encoding="utf-8") as fh:
        data = json.load(fh)
    coeff = data["jobs"][CORRUPTED_JOB]["report"]["Ibeta"]["coefficients"][-1]
    coeff["lambda_rat"] = f"2*({coeff['lambda_rat']})"
    with open(os.path.join(tmp, "smoke.json"), "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    return tmp


def main():
    check_spec()
    check_gate()
    n_jobs = len(workloads.jobs("smoke", 0)) * len(workloads.PASSES)

    details, summary = run.run("smoke", 1, 1, trace=False)
    check_summary(summary, run.END_TO_END)
    iterations = details["samples"]["iterations"]
    check(summary["attempted"] == n_jobs * iterations, "every job is attempted")
    check(summary["failed"] == len(workloads.PASSES) * iterations and not summary["correct"],
          "the raising job is counted as failed and the run goes on")
    check(all(f == {"job": CRASH_JOB, "reason": "raised RuntimeError"}
              for f in details["failures"]), "the failure names its exception class")
    check(details["provenance"]["backend"] and details["provenance"]["seed"] == 1,
          "provenance records backend and seed")

    tmp = tempfile.mkdtemp(dir=ROOT, prefix=".bench_tmp_selftest_")
    try:
        details, summary = run.run("smoke", 1, 1, trace=False,
                                   expected_dir=corrupted_expectations(tmp))
    finally:
        shutil.rmtree(tmp)
    corrupted = [f for f in details["failures"] if f["job"] == CORRUPTED_JOB]
    check(len(corrupted) == len(workloads.PASSES) * details["samples"]["iterations"],
          "a corrupted expected value is counted as failed")

    details, summary = run.run("smoke", 1, 1, trace=True)
    check_summary(summary, run.PER_LAYER)
    m = {k: v["value"] for k, v in summary["metrics"].items()}
    check(math.isclose(m["ops_failed_frac"], summary["failed"] / summary["attempted"]),
          "ops_failed_frac is failed over attempted")
    covered = m["trace.coverage_frac"] * m["trace.wall_s"]
    check(math.isclose(m["trace.self_total_s"], covered, rel_tol=1e-6),
          "self times sum to the time covered by spans")
    check(0.95 < m["trace.coverage_frac"] <= 1.0, "spans cover the traced wall time")
    check(m["vertexcalc.euler_sqrt.warm_calls"] == 0, "warm pass computes no Euler root")
    check(m["cache.hits"] > 0 and m["cache.put.calls"] > 0, "the cache layer is traced")
    check(m["signsearch.solve.calls"] > 0 and m["partitions.fixed_points"] > 0,
          "sign search and enumeration are traced")
    check(not os.path.exists(os.path.join(ROOT, ".bench_tmp")), "temp directories removed")
    print("selftest passed")


if __name__ == "__main__":
    main()
