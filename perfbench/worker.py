"""One benchmark pass in a fresh interpreter: import coinv, make the jobs, run and check them.

    python3 perfbench/worker.py WORKLOAD SEED MODE

MODE is ``plain`` (no instrumentation), ``wrap`` (spans from
``tracing``), ``profile`` (call counts through ``sys.setprofile``) or
``setup`` (stop once ready).  ``src`` must be on PYTHONPATH.

The pass prints ``ready`` once ``coinv`` is imported and the jobs are
made; the parent times set-up up to that line.  Then it runs the jobs as
a closed loop -- the next job starts when the previous one is answered
and checked -- and prints one JSON line with the results.
"""

from __future__ import annotations

import json
import platform
import resource
import sys
from time import perf_counter


def main(argv: list) -> int:
    workload, seed, mode = argv[1], int(argv[2]), argv[3]
    import coinv
    import coinv.cli

    import tracing
    import workloads

    jobs = workloads.make_jobs(workload, seed)
    tgts = tracing.targets() if mode in ("wrap", "profile") else None
    rec = sites = None
    if mode == "wrap":
        rec, sites = tracing.install(tgts)
    print("ready", flush=True)
    if mode == "setup":
        return 0

    _, run, check = workloads.WORKLOADS[workload]
    answer_s = []
    failures = []

    def loop():
        for k, job in enumerate(jobs):
            if rec is not None:
                rec.job_id = k
            t0 = perf_counter()
            try:
                answer = run(coinv, job)
            except Exception as exc:  # a raising job is a failed job, not a stop
                answer_s.append(perf_counter() - t0)
                failures.append([k, workloads.describe(job), f"raised {exc!r}"])
                continue
            answer_s.append(perf_counter() - t0)
            try:
                problems = check(job, answer)
            except Exception as exc:
                problems = [f"answer could not be checked: {exc!r}"]
            if problems:
                more = f"; and {len(problems) - 3} more" if len(problems) > 3 else ""
                failures.append([k, workloads.describe(job), "; ".join(problems[:3]) + more])

    counts = None
    t0 = perf_counter()
    if mode == "profile":
        counts = tracing.count_calls(tgts, loop)
    else:
        loop()
    wall = perf_counter() - t0

    result = {
        "wall_s": wall,
        "answer_s": answer_s,
        "attempted": len(jobs),
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "backend": f"{coinv.Q.__module__}.{coinv.Q.__name__}",
        "python": platform.python_version(),
    }
    if rec is not None:
        result["sites"] = sites
        result["trace"] = tracing.summarize(rec)
    if counts is not None:
        result["counts"] = counts
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
