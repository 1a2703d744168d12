"""Record the expected result of every job the benchmark can run.

    python3 perfbench/record.py [WORKLOAD ...]

Runs each job of each workload (for ``dtpt-q4``, every leg set any seed can
draw) through ``dt4vertex.cli.main`` and writes its exit code, report hash and
parsed report to ``perfbench/expected/<workload>.json``.  Run it only on a
program whose answers are known to be right; the benchmark then checks every
later program against these files.  Jobs that raise are not recorded.
"""

import io
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import verify  # noqa: E402
import workloads  # noqa: E402
from dt4vertex.cli import main  # noqa: E402


def record_workload(name, tmp):
    cache_dir = os.path.join(tmp, name)
    os.makedirs(cache_dir)
    records = {}
    for argv in workloads.all_jobs(name):
        real = [cache_dir if a == workloads.CACHE else a for a in argv]
        out = io.StringIO()
        try:
            rc = main(real, out=out)
        except Exception as exc:  # expected only for the smoke crash job
            print(f"  skipped (raised {type(exc).__name__}): {workloads.job_id(argv)}")
            continue
        rec = verify.record(rc, out.getvalue())
        if rc != 0 or not rec["report"].get("ok", True):
            raise SystemExit(f"job did not verify, refusing to record: {workloads.job_id(argv)}")
        records[workloads.job_id(argv)] = rec
        print(f"  recorded: {workloads.job_id(argv)}")
    return records


def main_record(names):
    os.makedirs(os.path.join(HERE, "expected"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench_tmp_") as tmp:
        os.environ["DT4VERTEX_CACHE_DIR"] = os.path.join(tmp, "env-cache")
        os.environ["XDG_CACHE_HOME"] = os.path.join(tmp, "xdg")
        for name in names:
            print(name)
            records = record_workload(name, tmp)
            path = os.path.join(HERE, "expected", f"{name}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"workload": name, "jobs": records}, fh, sort_keys=True,
                          separators=(",", ":"))
                fh.write("\n")


if __name__ == "__main__":
    main_record(sys.argv[1:] or list(workloads.WORKLOADS) + ["smoke"])
