"""The benchmark's workloads: each is a list of CLI jobs made from a seed.

A job is the argument list a user would pass to ``dt4vertex``; the string
``{cache}`` stands for the run's fresh cache directory.  Every workload runs
its job list twice in one process: the cold pass in a fresh interpreter,
then the warm pass, which sees whatever the program keeps between calls
(the in-process root memo, or the on-disk cache for ``global-cache``).
"""

from __future__ import annotations

import itertools
import random

CACHE = "{cache}"
PASSES = ("cold", "warm")


def _render_legs(legs):
    return ",".join("[" + ",".join("[" + ",".join(map(str, r)) + "]" for r in pp) + "]"
                    for pp in legs)


def _plane_partitions(n):
    """Plane partitions of n as tuples of rows, rows weakly decreasing both
    ways (enough for n <= 2, which is all the pool uses)."""
    return {0: [()], 1: [((1,),)], 2: [((2,),), ((1, 1),), ((1,), (1,))]}[n]


def leg_pool():
    """Criterion 2a: leg 4-tuples of total size <= 2 with at most two
    non-empty legs, as rendered ``--legs`` strings grouped by leg sizes."""
    strata = {}
    for sizes in itertools.product(range(3), repeat=4):
        if sum(sizes) > 2 or sum(1 for s in sizes if s) > 2:
            continue
        shape = tuple(sorted((s for s in sizes if s), reverse=True))
        for legs in itertools.product(*(_plane_partitions(s) for s in sizes)):
            strata.setdefault(shape, []).append(_render_legs(legs))
    return {shape: sorted(v) for shape, v in strata.items()}


# leg-size shape -> how many of the five dtpt-q4 leg sets come from it; the
# draw is stratified so that every seed does a like amount of work
DTPT_DRAW = {(1, 1): 2, (2,): 2, (1,): 1}


def dtpt_legs(seed):
    rng = random.Random(seed)
    pool = leg_pool()
    chosen = []
    for shape, k in DTPT_DRAW.items():
        chosen.extend(rng.sample(pool[shape], k))
    rng.shuffle(chosen)
    return chosen


def jobs(workload, seed):
    """The job list of one pass of ``workload``."""
    if workload == "vertex-q6":
        return [["vertex", "--flavor", "dt", "--legs", "[],[],[],[]", "--order", "6",
                 "--no-cache", "--json"]]
    if workload == "dtpt-q4":
        return [["check", "dtpt", "--legs", legs, "--order", "4", "--json"]
                for legs in dtpt_legs(seed)]
    if workload == "global-cache":
        return [["check", "global", "--geometry", "localp2", "--beta", "1", "--order", "4",
                 "--use-cache", "--cache-dir", CACHE, "--json"]]
    if workload == "smoke":
        return [
            ["check", "nekrasov", "--order", "3", "--json"],
            ["check", "dtpt", "--legs", "[[1]],[],[],[]", "--order", "3", "--json"],
            ["check", "global", "--geometry", "localp2", "--beta", "1", "--order", "3",
             "--use-cache", "--cache-dir", CACHE, "--json"],
            # beyond the solver bound (59 unknowns > 40): raises, counted as failed
            ["check", "nekrasov", "--order", "5", "--json"],
        ]
    raise ValueError(f"unknown workload {workload!r}")


def all_jobs(workload):
    """Every job any seed can give ``workload``, for recording expectations."""
    if workload == "dtpt-q4":
        return [["check", "dtpt", "--legs", legs, "--order", "4", "--json"]
                for shape in DTPT_DRAW for legs in leg_pool()[shape]]
    return jobs(workload, 0)


def job_id(argv):
    return " ".join(argv)


WORKLOADS = ("vertex-q6", "dtpt-q4", "global-cache")
