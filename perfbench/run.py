"""Benchmark for coinv: cold-process workloads, end-to-end metrics, per-layer trace.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the package is imported from ``src/`` next to this
directory, with nothing installed.  A run repeats one *pass* -- a fresh
Python process that imports ``coinv``, makes the workload's jobs from the
seed and answers them as a closed loop with one client -- until
``--seconds`` have gone, one process at a time.  Every answer is checked
against code in ``checks.py`` that shares nothing with the package.

``--trace 0`` reports the end-to-end metrics, medians over the passes.
``--trace 1`` alternates untraced passes with traced ones, then makes one
``sys.setprofile`` pass, and reports the per-layer metrics.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  See ``README.md`` for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import workloads  # noqa: E402
from tracing import LAYERS  # noqa: E402

# a run has to end within 180 s; passes are not started past this point
DEADLINE_S = 150.0
# every run makes at least this many untraced passes, whatever --seconds says
MIN_PASSES = 3
# set-up-only processes spawned after each pass: set-up time drifts within
# seconds on a shared host, so its samples are spread over the whole run
SETUP_SAMPLES_PER_PASS = 2
COMPARABLE_BACKEND = "fractions.Fraction"

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("max_job_s", "s"),
    ("peak_rss_mb", "MB"),
)

# per-layer metric groups: span names from tracing.targets()
GROUPS = {
    "polynomials.mul": ("polynomials.Poly.__mul__",),
    "polynomials.add": ("polynomials.Poly.__add__",),
    "polynomials.antisymmetrize": ("polynomials.antisymmetrize",),
    "polynomials.exact_divide": ("polynomials.exact_divide",),
    "polynomials.eps": ("polynomials.eps_nu", "polynomials.eps_pair", "polynomials.eps_full"),
    "polynomials.eh": (
        "polynomials.e_sym", "polynomials.h_sym", "polynomials.e_block", "polynomials.h_block",
    ),
    "quotients.build": tuple(
        f"quotients.QuotientPresentation.{m}"
        for m in ("dim", "hilbert", "graded_dim", "graded_basis")
    ),
    "quotients.generators": (
        "quotients.tanisaki_generators_e",
        "quotients.tanisaki_generators_h",
        "quotients.coinvariant_generators",
    ),
    "quotients.normal_form": ("quotients.QuotientPresentation.normal_form",),
    "quotients.presentation": ("quotients.presentation",),
    "glaction.op_poly": ("glaction.apply_F_poly", "glaction.apply_E_poly"),
    "glaction.op_oracle": ("glaction.apply_F_oracle", "glaction.apply_E_oracle"),
    "glaction.decompose_over": ("glaction.decompose_over",),
    "glaction.family_apply": ("glaction.WeightFamily.apply",),
    "traces.trace": ("traces.trace_F", "traces.trace_E"),
    "traces.duality": ("traces.delta", "traces.delta_inv"),
    "traces.unit_counit": (
        "traces.unit_iota", "traces.unit_iota_prime", "traces.counit_eps", "traces.counit_eps_prime",
    ),
    "tableaux.kostka_foulkes": ("tableaux.kostka_foulkes",),
    "tableaux.charge": ("tableaux.charge",),
    "tableaux.column_strict": ("tableaux.enumerate_column_strict",),
}

# (metric, unit): the per-layer metrics, in the order BENCHMARK.json lists them
PER_LAYER = (
    [
        (f"{layer}.{kind}", unit)
        for layer in LAYERS
        for kind, unit in (("calls", "count"), ("self_s", "s"))
    ]
    + [
        ("polynomials.mul.calls", "count"),
        ("polynomials.mul.self_s", "s"),
        ("polynomials.mul.terms_out", "count"),
        ("polynomials.add.calls", "count"),
        ("polynomials.antisymmetrize.self_s", "s"),
        ("polynomials.exact_divide.self_s", "s"),
        ("polynomials.eps.calls", "count"),
        ("polynomials.eh.calls", "count"),
        ("quotients.build.self_s", "s"),
        ("quotients.generators.self_s", "s"),
        ("quotients.normal_form.calls", "count"),
        ("quotients.normal_form.self_s", "s"),
        ("quotients.presentation.calls", "count"),
        ("quotients.presentation.new_frac", "ratio"),
        ("glaction.op_poly.calls", "count"),
        ("glaction.op_poly.self_s", "s"),
        ("glaction.op_oracle.self_s", "s"),
        ("glaction.decompose_over.calls", "count"),
        ("glaction.decompose_over.self_s", "s"),
        ("glaction.family_apply.calls", "count"),
        ("traces.trace.self_s", "s"),
        ("traces.duality.self_s", "s"),
        ("traces.unit_counit.self_s", "s"),
        ("tableaux.kostka_foulkes.self_s", "s"),
        ("tableaux.charge.calls", "count"),
        ("tableaux.column_strict.out", "count"),
        ("tableaux.semistandard_kept_frac", "ratio"),
        ("trace.overhead_frac", "ratio"),
        ("trace.residue_frac", "ratio"),
    ]
)


# ----------------------------------------------------------------------
# one pass


class PassFailed(Exception):
    """A pass that ended without a result: crash, bad output or timeout."""


def spawn(workload: str, seed: int, mode: str, deadline: float) -> tuple:
    """Run one pass in a fresh interpreter; returns (setup seconds, result dict)."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    t0 = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), workload, str(seed), mode],
        stdout=subprocess.PIPE,
        env=env,
        cwd=ROOT,
    )
    try:
        ready_at, data = _read_until_eof(proc, deadline)
        code = proc.wait(timeout=max(deadline - perf_counter(), 1.0))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    lines = data.decode().splitlines()
    if code != 0 or ready_at is None or not lines or lines[0] != "ready":
        raise PassFailed(f"{mode} pass exited with code {code}")
    if mode == "setup":
        return ready_at - t0, None
    try:
        return ready_at - t0, json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        raise PassFailed(f"{mode} pass printed no result: {exc}") from exc


def _read_until_eof(proc, deadline: float) -> tuple:
    """All of the child's stdout, and when its first line arrived."""
    fd = proc.stdout.fileno()
    buf = bytearray()
    ready_at = None
    while True:
        left = deadline - perf_counter()
        if left <= 0:
            raise PassFailed("pass ran past the run's deadline")
        readable, _, _ = select.select([fd], [], [], left)
        if not readable:
            continue
        chunk = os.read(fd, 1 << 16)
        if not chunk:
            return ready_at, bytes(buf)
        buf += chunk
        if ready_at is None and b"\n" in buf:
            ready_at = perf_counter()


# ----------------------------------------------------------------------
# statistics


def median(values) -> float:
    return statistics.median(values)


def tail(values) -> tuple:
    """(percentile, value): the highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return None, None
    return 100.0 * (n - 10) / n, ordered[n - 11]


def describe_timing(label: str, values, unit: str = "s") -> str:
    pct, value = tail(values)
    tail_text = (
        f"p{pct:.1f} {value:.4f} {unit}" if pct is not None
        else "no percentile above the median has ten samples beyond it"
    )
    return f"{label:<12} median {median(values):.4f} {unit}, {tail_text}, n={len(values)}"


# ----------------------------------------------------------------------
# environment


def environment(result: dict, seed: int) -> list:
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = os.cpu_count()
    digest = hashlib.sha256()
    for path in sorted((SRC / "coinv").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    backend = result["backend"]
    note = "comparable" if backend == COMPARABLE_BACKEND else (
        f"NOT COMPARABLE: results count only with {COMPARABLE_BACKEND}"
    )
    return [
        f"environment: backend={backend} ({note}), python={result['python']}, "
        f"nproc={os.cpu_count()} (usable {affinity}), seed={seed}",
        f"code: commit={_commit()}, src/coinv sha256={digest.hexdigest()[:16]}",
    ]


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


# ----------------------------------------------------------------------
# the two kinds of run


class Tally:
    """Jobs attempted and failed over a run, with the first few failures."""

    def __init__(self, jobs_per_pass: int):
        self.jobs_per_pass = jobs_per_pass
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def add(self, result: dict) -> None:
        self.attempted += result["attempted"]
        self.failed += len(result["failures"])
        self.problems.extend(f"job {k} ({job}): {why}" for k, job, why in result["failures"])

    def lost_pass(self, why: str) -> None:
        self.attempted += self.jobs_per_pass
        self.failed += self.jobs_per_pass
        self.problems.append(why)


def end_to_end(args, tally: Tally, started: float, lines: list) -> tuple:
    deadline = started + DEADLINE_S
    walls, setups, max_jobs, rss, answers, refs = [], [], [], [], [], []
    result = None
    while True:
        t0 = perf_counter()
        try:
            setup, result = spawn(args.workload, args.seed, "plain", deadline)
            extra = []
            for _ in range(SETUP_SAMPLES_PER_PASS):
                refs.append(reference.timed())
                extra.append(spawn(args.workload, args.seed, "setup", deadline)[0])
            refs.append(reference.timed())
        except PassFailed as exc:
            tally.lost_pass(str(exc))
            break
        tally.add(result)
        setups += [setup] + extra
        walls.append(result["wall_s"])
        max_jobs.append(max(result["answer_s"]))
        rss.append(result["peak_rss_mb"])
        answers.extend(result["answer_s"])
        spent = perf_counter() - started
        per_pass = perf_counter() - t0
        if len(walls) >= MIN_PASSES and (
            spent + per_pass > args.seconds or spent + 2 * per_pass > DEADLINE_S
        ):
            break
    if result is None or not walls:
        return False, {}
    lines += environment(result, args.seed)
    lines.append(
        f"passes: {len(walls)} fresh processes, {tally.jobs_per_pass} jobs each, "
        "closed loop with one client, one process at a time"
    )
    scale = reference.NOMINAL_S / median(refs)
    lines.append(
        f"host gauge: reference workload median {median(refs):.4f} s over {len(refs)} timings, "
        f"nominal {reference.NOMINAL_S} s; reported times are measured times x {scale:.4f}"
    )
    lines.append("measured times, unscaled:")
    lines.append("  " + describe_timing("wall_s", walls))
    lines.append("  " + describe_timing("setup_s", setups))
    lines.append("  " + describe_timing("max_job_s", max_jobs))
    lines.append("  " + describe_timing("job_s", answers))
    lines.append(f"{'peak_rss_mb':<12} median {median(rss):.1f} MB, max {max(rss):.1f} MB")
    metrics = {
        "wall_s": median(walls) * scale,
        "setup_s": median(setups) * scale,
        "max_job_s": median(max_jobs) * scale,
        "peak_rss_mb": median(rss),
    }
    return True, {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}


def per_layer(args, tally: Tally, started: float, lines: list) -> tuple:
    deadline = started + DEADLINE_S
    plain, traced = [], []
    ok = True
    try:
        while True:
            t0 = perf_counter()
            plain.append(spawn(args.workload, args.seed, "plain", deadline)[1])
            traced.append(spawn(args.workload, args.seed, "wrap", deadline)[1])
            pair = perf_counter() - t0
            spent = perf_counter() - started
            # the setprofile pass still to come takes a few times a plain one
            if spent + pair > args.seconds or spent + 6 * pair > DEADLINE_S:
                break
        profiled = spawn(args.workload, args.seed, "profile", deadline)[1]
    except PassFailed as exc:
        tally.lost_pass(str(exc))
        if not traced:
            return False, {}
        profiled = None
    for result in plain + traced + ([profiled] if profiled else []):
        tally.add(result)

    lines += environment(traced[0], args.seed)
    names = [r["trace"]["names"] for r in traced]
    calls = {k: v[0] for k, v in names[0].items()}
    if any({k: v[0] for k, v in n.items()} != calls for n in names[1:]):
        ok = False
        lines.append("FAIL: call counts differ between traced passes of the same jobs")
    missing = sorted(k for k, v in traced[0]["sites"].items() if v == 0)
    if missing:
        ok = False
        lines.append(f"FAIL: no binding site found for {missing}")
    if profiled is None:
        ok = False
        lines.append("FAIL: the setprofile pass did not finish")
    else:
        diff = {
            k: (calls.get(k, 0), profiled["counts"].get(k, 0))
            for k in set(calls) | set(profiled["counts"])
            if calls.get(k, 0) != profiled["counts"].get(k, 0)
        }
        if diff:
            ok = False
            lines.append(f"FAIL: wrapper and setprofile call counts differ: {diff}")
        else:
            lines.append(
                f"call counts: wrappers and sys.setprofile agree on all {len(calls)} "
                f"traced functions that ran ({sum(calls.values())} calls)"
            )

    # each per-layer figure is the median over the traced passes
    def med(fn):
        return median(fn(r) for r in traced)

    def group(r, key, field):
        return sum(r["trace"]["names"].get(name, (0, 0.0, 0))[field] for name in GROUPS[key])

    def layer(r, name, field):
        return sum(v[field] for k, v in r["trace"]["names"].items() if k.split(".", 1)[0] == name)

    def ratio(a, b):
        return a / b if b else 0.0

    wall_plain = median(r["wall_s"] for r in plain)
    wall_traced = median(r["wall_s"] for r in traced)
    values = {}
    for name in LAYERS:
        values[f"{name}.calls"] = med(lambda r: layer(r, name, 0))
        values[f"{name}.self_s"] = med(lambda r: layer(r, name, 1))
    values["quotients.presentation.new_frac"] = med(
        lambda r: ratio(group(r, "quotients.presentation", 2), group(r, "quotients.presentation", 0))
    )
    values["tableaux.semistandard_kept_frac"] = med(
        lambda r: ratio(
            r["trace"]["names"].get("tableaux.enumerate_semistandard", (0, 0.0, 0))[2],
            r["trace"]["semistandard_from"],
        )
    )
    for metric, _ in PER_LAYER:
        key, _, kind = metric.rpartition(".")
        if metric not in values and key in GROUPS:
            field = {"calls": 0, "self_s": 1, "out": 2, "terms_out": 2}[kind]
            values[metric] = med(lambda r: group(r, key, field))
    values["trace.overhead_frac"] = wall_traced / wall_plain - 1
    residues = [r["wall_s"] - layer_total(r) for r in traced]
    values["trace.residue_frac"] = median(res / r["wall_s"] for res, r in zip(residues, traced))
    if min(residues) < 0:
        ok = False
        lines.append("FAIL: self times add up to more than the traced wall time")

    lines.append(
        f"passes: {len(plain)} untraced, {len(traced)} traced, "
        f"{'1' if profiled else 'no'} setprofile; {tally.jobs_per_pass} jobs each"
    )
    lines.append(
        f"untraced wall_s median {wall_plain:.4f} s, traced {wall_traced:.4f} s, "
        f"overhead {values['trace.overhead_frac']:+.1%}"
    )
    mid = sorted(traced, key=lambda r: r["wall_s"])[len(traced) // 2]
    lines.append(f"traced pass with the median wall_s ({mid['wall_s']:.4f} s), self time by layer:")
    for name in LAYERS:
        lines.append(f"  {name:<12} {layer(mid, name, 1):9.4f} s  {layer(mid, name, 0):9d} calls")
    lines.append(
        f"  {'(residue)':<12} {mid['wall_s'] - layer_total(mid):9.4f} s  "
        "outside any traced call: the benchmark's loop and checks"
    )
    lines.append(f"  {'= wall_s':<12} {mid['wall_s']:9.4f} s")
    top = sorted(mid["trace"]["names"].items(), key=lambda kv: -kv[1][1])[:12]
    lines.append("largest self times in that pass:")
    lines += [f"  {k:<48} {v[1]:9.4f} s  {v[0]:9d} calls" for k, v in top]
    jobs = workloads.make_jobs(args.workload, args.seed)
    answer_s = mid["answer_s"]
    lines.append("slowest jobs in that pass, with self time by layer:")
    for k in sorted(range(len(answer_s)), key=lambda k: -answer_s[k])[:3]:
        by_layer = sorted(mid["trace"]["jobs"].get(str(k), {}).items(), key=lambda kv: -kv[1])
        lines.append(
            f"  {answer_s[k]:.4f} s  {workloads.describe(jobs[k])}: "
            + ", ".join(f"{name} {t:.4f} s" for name, t in by_layer)
        )
    return ok, {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


def layer_total(result: dict) -> float:
    return sum(v[1] for v in result["trace"]["names"].values())


# ----------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "coinv" / "__init__.py").is_file():
        print(f"error: no coinv package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    started = perf_counter()
    tally = Tally(len(workloads.make_jobs(args.workload, args.seed)))
    lines = [f"coinv benchmark: workload={args.workload} seed={args.seed} "
             f"seconds={args.seconds:g} trace={args.trace}"]
    try:
        # compiles the bytecode caches, so no timed pass pays for it
        spawn(args.workload, args.seed, "setup", started + DEADLINE_S)
    except PassFailed as exc:
        print(f"error: the package does not import: {exc}", file=sys.stderr)
        return 2
    measure = per_layer if args.trace else end_to_end
    ok, metrics = measure(args, tally, started, lines)
    if not metrics:
        print("error: no pass finished: " + "; ".join(tally.problems[:5]), file=sys.stderr)
        return 1
    lines.append(
        f"jobs: {tally.attempted} attempted, {tally.failed} failed, "
        f"fail_frac {tally.failed / tally.attempted:.4f}"
    )
    lines += [f"  {p}" for p in tally.problems[:10]]
    lines.append(f"run took {perf_counter() - started:.1f} s")
    print("\n".join(lines))
    print(json.dumps({
        "correct": ok and tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
