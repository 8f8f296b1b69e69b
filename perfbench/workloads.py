"""The three benchmark workloads: job lists made from a seed, how to run a job, how to check it.

A job is plain data (tuples of ints and strings), generated without
importing ``coinv``, so the package only ever sees generated inputs.
Each workload's seed changes how the inputs are presented -- index
offsets, the order of a content or of a shape, the order of requests --
and not how much work they are.  Runs on different seeds therefore take
comparable time, and a change that keys on one particular input shows.

Why each workload exists is recorded in ``perfbench/README.md``.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stdout
from functools import lru_cache

import checks

def partitions(n: int, largest: int | None = None):
    """Partitions of n as tuples, largest first."""
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


# ----------------------------------------------------------------------
# quotient-build: cold dim + hilbert of n=5 quotients through the CLI

# (nu, mu) pairs, mu None for the plain algebra.  Together about 4 s of
# cold work on a 2-core host at the time the benchmark was defined; the
# first pair is the slowest single job.  The two pairs whose mu is not
# dominated stay in on purpose: they are zero algebras, the cheap answer
# users also ask for.
QUOTIENT_PAIRS = (
    ((1, 1, 1, 1, 1), (3, 2)),
    ((1, 1, 1, 1, 1), (4, 1)),
    ((1, 2, 1, 1), (3, 1, 1)),
    ((1, 1, 1, 2), (3, 2)),
    ((1, 3, 1), (2, 1, 1, 1)),
    ((1, 2, 2), (2, 2, 1)),
    ((2, 1, 2), (2, 2, 1)),
    ((1, 4), None),
    ((2, 2, 1), (3, 1, 1)),
    ((1, 1, 3), (3, 1, 1)),
    ((1, 1, 1, 2), (5,)),
    ((2, 3), (4, 1)),
)
OFFSETS = range(-9, 10)


def quotient_jobs(rng: random.Random) -> list:
    """Each pair twice, at two distinct offsets; the shape's parts in random order.

    The second copy is a translate of the first, so it is answered from
    the degree slices the first one built (content sharing); which copy
    comes first is up to the shuffle.
    """
    jobs = []
    for nu, mu in QUOTIENT_PAIRS:
        for offset in rng.sample(OFFSETS, 2):
            shape = None if mu is None else tuple(rng.sample(mu, len(mu)))
            jobs.append(("quotient", nu, offset, shape))
    rng.shuffle(jobs)
    return jobs


def _cli_json(cli, argv: list) -> tuple:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def run_quotient(coinv, job) -> dict:
    _, nu, offset, mu = job
    argv = ["--nu", ",".join(map(str, nu)) + f"@{offset}", "--output", "json"]
    if mu is not None:
        argv += ["--mu", ",".join(map(str, mu))]
    out = {}
    for command in ("dim", "hilbert"):
        code, text = _cli_json(coinv.cli, [command] + argv)
        out[command] = (code, json.loads(text) if code == 0 else text)
    return out


def check_quotient(job, answer) -> list:
    _, nu, _, mu = job
    problems = [
        f"{command} exited with code {code}"
        for command, (code, _) in answer.items()
        if code != 0
    ]
    if problems:
        return problems
    dim = answer["dim"][1]["dim"]
    coeffs = answer["hilbert"][1]["coeffs"]
    if mu is None:
        want = checks.multinomial(nu)
        problems += checks.hilbert_problems(coeffs, dim, palindromic=True)
        lam = (sum(nu),)
    else:
        want = checks.column_strict_count(sorted(mu, reverse=True), nu)
        problems += checks.hilbert_problems(coeffs, dim, palindromic=False)
        lam = checks.conjugate(mu)
    if dim != want:
        problems.append(f"dim {dim}, independent count {want}")
    if dim:
        top = checks.top_degree(mu or (1,) * sum(nu), nu)
        if len(coeffs) - 1 != top:
            problems.append(f"top degree {len(coeffs) - 1}, formula {top}")
        elif coeffs[-1] != _kostka(lam, nu):
            problems.append(f"top coefficient {coeffs[-1]} is not the Kostka number")
    return problems


# ----------------------------------------------------------------------
# operator-calculus: relations, trace maps and operator routes at n=3-4

# (kind, n, shape index or None).  A fixed list: the seed only translates
# the index window, which leaves the work unchanged.  ``routes`` at n=4 is
# the slowest single job.
OPERATOR_JOBS = (
    ("relations", 3, None),
    ("relations", 3, 0),
    ("relations", 3, 1),
    ("relations", 3, 2),
    ("trace_maps", 3, None),
    ("adjunction", 3, None),
    ("routes", 3, None),
    ("routes", 4, None),
    ("ideal_invariance", 3, 0),
    ("ideal_invariance", 3, 1),
    ("ideal_invariance", 3, 2),
)


def operator_jobs(rng: random.Random) -> list:
    offset = rng.choice(OFFSETS)
    jobs = []
    for kind, n, shape_index in OPERATOR_JOBS:
        shape = None if shape_index is None else list(partitions(n))[shape_index]
        jobs.append((kind, n, (offset, offset + n - 1), shape))
    return jobs


def run_operator(coinv, job):
    kind, n, window, shape = job
    mu = None if shape is None else coinv.shapes.Composition(1, list(shape))
    if kind == "relations":
        return coinv.glaction.relation_report(n, window, mu)
    if kind == "trace_maps":
        return coinv.traces.trace_map_report(n, window)
    if kind == "adjunction":
        return coinv.traces.adjunction_report(n, window)
    if kind == "ideal_invariance":
        return coinv.glaction.ideal_invariance_check(mu, window)
    return _operator_routes(coinv, n, window)


def _operator_routes(coinv, n: int, window: tuple) -> list:
    """Polynomial route against the basis-decomposition route on every basis vector.

    Returns one (where, agree) pair per basis vector and direction.
    """
    gl, q = coinv.glaction, coinv.quotients
    out = []
    for nu in coinv.shapes.compositions_of(n, window):
        for i in range(window[0], window[1]):
            if nu[i] == 0:
                continue
            ks = gl.KeySituation(i, nu)
            src, dst = q.presentation(nu), q.presentation(ks.nu_prime)
            for d in range(0, (src.top_degree or 0) + 1, 2):
                for z in src.graded_basis(d):
                    poly = dst.normal_form(gl.apply_F_poly(ks, z.rep))
                    out.append((("F", i, nu.key(), d), poly == gl.apply_F_oracle(ks, z)))
            for d in range(0, (dst.top_degree or 0) + 1, 2):
                for z in dst.graded_basis(d):
                    poly = src.normal_form(gl.apply_E_poly(ks, z.rep))
                    out.append((("E", i, nu.key(), d), poly == gl.apply_E_oracle(ks, z)))
    return out


def check_operator(job, answer) -> list:
    if job[0] == "routes":
        if not answer:
            return ["no basis vector was compared"]
        return [f"routes disagree at {where}" for where, ok in answer if not ok]
    if not answer.checks:
        return [f"report {answer.title!r} has no checks"]
    if not answer.passed:
        return [f"report {answer.title!r} failed: " + ", ".join(
            c.name for c in answer.checks if not c.passed
        )]
    return []


# ----------------------------------------------------------------------
# charge-tables: tableau counts and charge polynomials at n=7-8


def charge_population() -> list:
    """(kind, shape, sorted content) requests; every one is made once per pass.

    - ``kf`` for every shape/content pair at n=7, and at n=8 for contents
      with at most five parts (the rest enumerate up to 40320 fillings
      per request and would dwarf everything else);
    - ``kostka`` and ``count_cs`` for every pair at n=8;
    - ``enum_ss`` for every pair at n=7, ``enum_cs`` for the n=7 pairs
      whose content has at most four parts.
    """
    p7, p8 = list(partitions(7)), list(partitions(8))
    out = []
    out += [("kf", tau, mu) for tau in p7 for mu in p7]
    out += [("kf", tau, mu) for tau in p8 for mu in p8 if len(mu) <= 5]
    out += [("kostka", lam, mu) for lam in p8 for mu in p8]
    out += [("count_cs", lam, mu) for lam in p8 for mu in p8]
    out += [("enum_ss", lam, mu) for lam in p7 for mu in p7]
    out += [("enum_cs", lam, mu) for lam in p7 for mu in p7 if len(mu) <= 4]
    return out


def charge_jobs(rng: random.Random) -> list:
    """The population with each content in random order, requests shuffled.

    Requests of different kinds share a sorted content, so a cache keyed
    on it would be used; the permutation leaves every answer unchanged.
    """
    jobs = [(kind, shape, tuple(rng.sample(mu, len(mu)))) for kind, shape, mu in charge_population()]
    rng.shuffle(jobs)
    return jobs


def run_charge(coinv, job):
    kind, shape, content = job
    tab = coinv.tableaux
    lam = coinv.shapes.Partition(shape)
    nu = coinv.shapes.Composition(1, list(content))
    if kind == "kf":
        return tab.kostka_foulkes(lam, nu).coeffs
    if kind == "kostka":
        return tab.kostka(lam, nu)
    if kind == "count_cs":
        return tab.count_column_strict(lam, nu)
    if kind == "enum_ss":
        return [t.rows for t in tab.enumerate_semistandard(lam, nu)]
    return [t.rows for t in tab.enumerate_column_strict(lam, nu)]


def check_charge(job, answer) -> list:
    kind, shape, content = job
    if kind == "kf":
        if any(c < 0 for c in answer):
            return ["negative charge coefficient"]
        got, want = sum(answer), _kostka(shape, content)
    elif kind == "kostka":
        got, want = answer, _kostka(shape, content)
    elif kind == "count_cs":
        got, want = answer, _column_strict(shape, content)
    else:
        row_weak = kind == "enum_ss"
        want = _kostka(shape, content) if row_weak else _column_strict(shape, content)
        got = len(answer)
        if len(set(answer)) != got:
            return ["repeated filling"]
        for rows in answer:
            bad = checks.tableau_problems(rows, shape, content, row_weak=row_weak)
            if bad:
                return bad
    return [] if got == want else [f"{kind} gave {got}, independent count {want}"]


# Kostka numbers and column-strict counts do not depend on the order of
# the content, so the independent counts are memoized on the sorted one.


@lru_cache(maxsize=None)
def _kostka_sorted(shape: tuple, content: tuple) -> int:
    return checks.kostka_count(shape, content)


def _kostka(shape, content) -> int:
    return _kostka_sorted(tuple(shape), tuple(sorted(content, reverse=True)))


@lru_cache(maxsize=None)
def _column_strict_sorted(shape: tuple, content: tuple) -> int:
    return checks.column_strict_count(checks.conjugate(shape), content)


def _column_strict(shape, content) -> int:
    return _column_strict_sorted(tuple(shape), tuple(sorted(content, reverse=True)))


# ----------------------------------------------------------------------

# name -> (make the jobs from a seeded generator, answer one job, check one answer)
WORKLOADS = {
    "quotient-build": (quotient_jobs, run_quotient, check_quotient),
    "operator-calculus": (operator_jobs, run_operator, check_operator),
    "charge-tables": (charge_jobs, run_charge, check_charge),
}


def make_jobs(workload: str, seed: int) -> list:
    return WORKLOADS[workload][0](random.Random(f"{workload}:{seed}"))


def describe(job) -> str:
    return " ".join(str(x) for x in job)
