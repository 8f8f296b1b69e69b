"""Acceptance gate: one test per published criterion, one printed line each.

Every check is exact (rational or integer arithmetic); stated runtime
budgets are enforced where the criterion carries one.  Run with plain
``pytest`` (the pass/fail lines bypass output capture).
"""

import json
import random
import time
from functools import lru_cache
from math import factorial

import pytest

from coinv.cli import main
from coinv.glaction import (
    KeySituation,
    apply_E_poly,
    apply_F_poly,
    apply_E_oracle,
    apply_F_oracle,
    hilbert_identity_check,
    ideal_invariance_check,
    relation_report,
)
from coinv.polynomials import Poly, Q, verify_identity_suite
from coinv.quotients import (
    ideals_equal,
    is_nonzero,
    presentation,
    quotient_identity_report,
    tanisaki_generators_e,
    tanisaki_generators_h,
)
from coinv.shapes import (
    Composition,
    compositions_of,
    partitions_of,
    quotient_top_degree,
    transpose,
)
from coinv.tableaux import count_column_strict, kostka
from coinv.traces import adjunction_report, trace_map_report

WINDOW = (1, 4)


def conclude(capsys, num, desc, ok, started, budget=None):
    elapsed = time.monotonic() - started
    line = f"criterion {num:02d}: {'PASS' if ok else 'FAIL'}  {desc}  [{elapsed:.1f}s]"
    with capsys.disabled():
        print(line)
    assert ok, line
    if budget is not None:
        assert elapsed < budget, f"criterion {num:02d} over budget: {elapsed:.1f}s"


def shapes(n):
    return [Composition(1, list(mu.parts)) for mu in partitions_of(n)]


def key_situations(n, window):
    for nu in compositions_of(n, window):
        for i in range(window[0], window[1]):
            if nu[i] > 0:
                yield KeySituation(i, nu)


def graded_vectors(pres):
    if pres.is_zero_algebra:
        return
    for d in range(0, pres.top_degree + 1, 2):
        yield from pres.graded_basis(d)


def independent(polys):
    """Exact linear independence of polynomials via Gaussian elimination."""
    rows = []
    cols = {}
    for p in polys:
        for e in p.terms:
            cols.setdefault(e, len(cols))
    for p in polys:
        row = [Q(0)] * len(cols)
        for e, c in p.terms.items():
            row[cols[e]] = c
        rows.append(row)
    rank = 0
    for col in range(len(cols)):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        lead = rows[rank][col]
        for r in range(rank + 1, len(rows)):
            if rows[r][col] != 0:
                f = rows[r][col] / lead
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank == len(polys)


@lru_cache(maxsize=1)
def shape_cut_sweep():
    """All (mu, nu) pairs for n <= 4 over the width-4 window, with stats."""
    rows = []
    for n in range(1, 5):
        for mu in shapes(n):
            lam = transpose(mu)
            for nu in compositions_of(n, WINDOW):
                pres = presentation(nu, mu)
                d = pres.dim()
                rows.append(
                    {
                        "mu": mu,
                        "nu": nu,
                        "lam": lam,
                        "dim": d,
                        "count": count_column_strict(lam, nu),
                        "nonzero": is_nonzero(mu, nu),
                        "series": pres.hilbert(),
                    }
                )
    return rows


# ----------------------------------------------------------------------


def test_criterion_01_worked_example(capsys):
    started = time.monotonic()
    nu = Composition(1, [1, 2, 1])
    pres = presentation(nu, nu)
    x1 = Poly.var(4, 1)
    x4 = Poly.var(4, 4)
    ok = pres.dim() == 5
    ok = ok and list(pres.hilbert().coeffs) == [1, 0, 2, 0, 2]
    ok = ok and pres.contains(x1**3) and pres.contains(x4**3)
    ok = ok and pres.contains(x1 * x4)
    reduced = [
        pres.normal_form(p).rep
        for p in (Poly.one(4), x1, x1**2, x4, x4**2)
    ]
    ok = ok and independent(reduced)
    conclude(
        capsys, 1,
        "worked example: dim 5, series 1+2t^2+2t^4, stated reductions",
        ok, started, budget=1,
    )


def test_criterion_02_coinvariant_dimensions(capsys):
    started = time.monotonic()
    ok = True
    for n in range(1, 6):
        regular = Composition(1, [1] * n)
        ok = ok and presentation(regular).dim() == factorial(n)
        for nu in compositions_of(n, (1, n)):
            orbit = factorial(n)
            for p in nu.parts:
                orbit //= factorial(p)
            coeffs = list(presentation(nu).hilbert().coeffs)
            ok = ok and sum(coeffs) == orbit
            ok = ok and coeffs == coeffs[::-1]
    conclude(
        capsys, 2,
        "partial coinvariant dims are orbit counts, series palindromic, n<=5",
        ok, started, budget=60,
    )


def test_criterion_03_dimension_count_formula(capsys):
    started = time.monotonic()
    ok = all(row["dim"] == row["count"] for row in shape_cut_sweep())
    rng = random.Random(20260823)
    pool = [(mu, nu) for mu in shapes(5) for nu in compositions_of(5, (1, 5))]
    sample = rng.sample(pool, 55)
    for mu, nu in sample:
        d = presentation(nu, mu).dim()
        if d != count_column_strict(transpose(mu), nu):
            ok = False
    conclude(
        capsys, 3,
        "dim equals column-strict count: all pairs n<=4, 55 sampled pairs n=5",
        ok, started, budget=600,
    )


def test_criterion_04_vanishing_matches_dominance(capsys):
    started = time.monotonic()
    ok = all((row["dim"] > 0) == row["nonzero"] for row in shape_cut_sweep())
    conclude(
        capsys, 4,
        "quotient vanishes exactly off the dominance cone, n<=4",
        ok, started,
    )


def test_criterion_05_generator_forms_agree(capsys):
    started = time.monotonic()
    ok = True
    for n in range(1, 5):
        for mu in shapes(n):
            for nu in compositions_of(n, WINDOW):
                gh = tanisaki_generators_h(mu, nu)
                ge = tanisaki_generators_e(mu, nu)
                if not ideals_equal(gh, ge, nu):
                    ok = False
    conclude(
        capsys, 5,
        "h-form and e-form generators cut the same ideal, n<=4",
        ok, started, budget=600,
    )


def test_criterion_06_top_degree_and_dimension(capsys):
    started = time.monotonic()
    ok = True
    for row in shape_cut_sweep():
        if not row["nonzero"]:
            continue
        series = row["series"]
        if series.degree() != quotient_top_degree(row["nu"], row["mu"]):
            ok = False
        if series.coeff(series.degree()) != kostka(row["lam"], row["nu"]):
            ok = False
    conclude(
        capsys, 6,
        "top degree and top graded dimension formulas, n<=4",
        ok, started,
    )


def test_criterion_07_hilbert_identity(capsys):
    started = time.monotonic()
    ok = True
    pairs = 0
    for row in shape_cut_sweep():
        if not row["nonzero"]:
            continue
        pairs += 1
        if not hilbert_identity_check(row["mu"], row["nu"]):
            ok = False
    ok = ok and pairs > 0
    conclude(
        capsys, 7,
        f"graded character identity on {pairs} non-vanishing pairs, n<=4",
        ok, started, budget=600,
    )


def test_criterion_08_operator_routes_agree(capsys):
    started = time.monotonic()
    ok = True
    for n in range(1, 5):
        cuts = [None] + shapes(n)
        for ks in key_situations(n, WINDOW):
            for mu in cuts:
                src = presentation(ks.nu, mu)
                tgt = presentation(ks.nu_prime, mu)
                for z in graded_vectors(src):
                    direct = tgt.normal_form(apply_F_poly(ks, z.rep))
                    if direct != apply_F_oracle(ks, z):
                        ok = False
                for z in graded_vectors(tgt):
                    direct = src.normal_form(apply_E_poly(ks, z.rep))
                    if direct != apply_E_oracle(ks, z):
                        ok = False
    conclude(
        capsys, 8,
        "divided-difference and basis-decomposition operators agree, n<=4",
        ok, started, budget=600,
    )


def test_criterion_09_gl_relations(capsys):
    started = time.monotonic()
    ok = True
    for n in range(1, 5):
        if not relation_report(n, WINDOW).passed:
            ok = False
        for mu in shapes(n):
            if not relation_report(n, WINDOW, mu).passed:
                ok = False
    conclude(
        capsys, 9,
        "commutator and Serre relations on plain and shape-cut sums, n<=4",
        ok, started, budget=900,
    )


def test_criterion_10_ideal_invariance(capsys):
    started = time.monotonic()
    ok = True
    for n in range(1, 5):
        for mu in shapes(n):
            if not ideal_invariance_check(mu, WINDOW).passed:
                ok = False
    conclude(
        capsys, 10,
        "raising and lowering preserve the cut ideals, n<=4",
        ok, started,
    )


def test_criterion_11_duality_and_triangles(capsys):
    started = time.monotonic()
    ok = all(adjunction_report(n, WINDOW).passed for n in range(1, 5))
    conclude(
        capsys, 11,
        "duality map invertible, both triangle identities hold, n<=4",
        ok, started, budget=300,
    )


def test_criterion_12_trace_maps(capsys):
    started = time.monotonic()
    ok = all(trace_map_report(n, WINDOW).passed for n in range(1, 5))
    conclude(
        capsys, 12,
        "trace maps reproduce the raising and lowering operators, n<=4",
        ok, started, budget=600,
    )


def test_criterion_13_symmetric_function_identities(capsys):
    started = time.monotonic()
    ok = True
    for n in range(1, 6):
        if not verify_identity_suite(n, 2 * n).passed:
            ok = False
        if not quotient_identity_report(n, 2 * n).passed:
            ok = False
    conclude(
        capsys, 13,
        "e/h identity suite in and out of quotients, n<=5, r<=2n",
        ok, started, budget=300,
    )


def test_criterion_14_center_dimension_table(capsys):
    started = time.monotonic()
    code = main(["verify", "--suite", "all", "--n", "4", "--output", "json"])
    data = json.loads(capsys.readouterr().out)
    table = data.get("center_dimension_table", [])
    ok = code == 0 and data["passed"]
    ok = ok and {row["n"] for row in table} == {1, 2, 3, 4}
    ok = ok and all(row["match"] for row in table)
    ok = ok and any(
        row["mu"] == [1, 1, 1, 1]
        and row["nu"]["parts"] == [1, 1, 1, 1]
        and row["center_dim"] == 24
        for row in table
    )
    conclude(
        capsys, 14,
        "center dimension table emitted by the full suite, n<=4",
        ok, started,
    )
