"""Command-line surface for the library.

Subcommands expose presentations, dimensions, Hilbert series, graded
bases, operator words on weight families, tableau combinatorics, and
the verification suites.  All arithmetic is exact; there are no
tolerance flags.  Exit codes: 0 success, 1 verification failure,
2 bad input, 3 internal invariant breach, 4 window overflow.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache
from math import comb, factorial

from .errors import (
    CoinvError,
    NotInvariantError,
    WindowOverflowError,
)
from .glaction import (
    WeightFamily,
    apply_operator_family,
    hilbert_identity_check,
    ideal_invariance_check,
    relation_report,
)
from .polynomials import Poly, verify_identity_suite
from .quotients import (
    ideals_equal,
    is_nonzero,
    presentation,
    quotient_identity_report,
    tanisaki_generators_e,
    tanisaki_generators_h,
)
from .reporting import Report
from .shapes import (
    Composition,
    Partition,
    compositions_of,
    partitions_of,
    quotient_top_degree,
    transpose,
)
from .tableaux import (
    count_column_strict,
    enumerate_column_strict,
    enumerate_semistandard,
    kostka,
    kostka_foulkes,
)
from .traces import adjunction_report, trace_map_report

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3
EXIT_WINDOW = 4

DEFAULT_NMAX = 8
# dim, hilbert, basis and act build quotients.  Cold, Fraction backend, 2
# cores, two runs each (BENCH_29.json): at n = 7 "dim --nu 2,2,2,1" takes
# 6.0-7.5 s (167 MB), "--nu 1^7" 31-33 s (651 MB); at n = 8 "--nu 2,2,2,2"
# had not finished after 150 s, nor "--nu 3,3,2" after 90 s (ROADMAP.md).
QUOTIENT_NMAX = 7
SUITE_NMAX = 5
# Suites sweep every composition of n on the window.  The default window
# at n = 5 holds 126 compositions, and "--suite all --n 5" takes 46-53 s
# and 48 MB cold (Fraction backend, 2 cores, two runs, BENCH_30.json).
VERIFY_COMPOSITION_LIMIT = 250


class InputError(Exception):
    """Malformed command-line input."""


# ----------------------------------------------------------------------
# parsing helpers


def check_size(n: int, cap: int = DEFAULT_NMAX) -> None:
    if n > cap:
        raise InputError(f"n={n} exceeds the maximum {cap} for this command")


def parse_composition(text: str) -> Composition:
    """Comma list with optional @offset, e.g. ``1,2,1`` or ``2@0``."""
    body, sep, off = text.partition("@")
    lo = 1
    if sep:
        try:
            lo = int(off)
        except ValueError:
            raise InputError(f"bad offset in composition {text!r}")
    try:
        parts = [int(p) for p in body.split(",")] if body else []
    except ValueError:
        raise InputError(f"bad composition {text!r}")
    try:
        return Composition(lo, parts)
    except ValueError as exc:
        raise InputError(str(exc))


def parse_partition(text: str) -> Partition:
    try:
        parts = [int(p) for p in text.split(",")] if text else []
        return Partition(parts)
    except ValueError as exc:
        raise InputError(f"bad partition {text!r}: {exc}")


def parse_window(text: str) -> tuple:
    try:
        lo_s, hi_s = text.split(",")
        lo, hi = int(lo_s), int(hi_s)
    except ValueError:
        raise InputError(f"bad window {text!r}; expected LO,HI")
    if lo > hi:
        raise InputError(f"empty window {text!r}")
    return (lo, hi)


def parse_mu(text: str | None, n: int) -> Composition | None:
    """Shape argument; ``regular`` means the length-n all-ones shape."""
    if text is None:
        return None
    if text == "regular":
        return Composition(1, [1] * n)
    mu = parse_composition(text)
    if mu.n != n:
        raise InputError(f"total of mu ({mu.n}) does not match n ({n})")
    return mu


def format_composition(nu: Composition) -> str:
    if not nu.parts:
        return "0@1"
    return ",".join(str(p) for p in nu.parts) + f"@{nu.lo}"


def emit(args, lines, data) -> None:
    if args.output == "json":
        print(json.dumps(data, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


# ----------------------------------------------------------------------
# plain commands


def cmd_present(args) -> int:
    nu = parse_composition(args.nu)
    check_size(nu.n)
    mu = parse_mu(args.mu, nu.n)
    if args.form == "h":
        gens = tanisaki_generators_h(mu, nu)
    else:
        gens = tanisaki_generators_e(mu, nu)
    lines = [
        f"ideal generators ({args.form}-form) for mu={format_composition(mu)}, "
        f"nu={format_composition(nu)}: {len(gens)}"
    ]
    lines.extend(f"  {g}" for g in gens)
    data = {
        "mu": mu.to_json(),
        "nu": nu.to_json(),
        "form": args.form,
        "generators": [{"pretty": str(g), "terms": g.to_json()} for g in gens],
    }
    emit(args, lines, data)
    return EXIT_OK


def _orbit_count(nu: Composition) -> int:
    out = factorial(nu.n)
    for p in nu.parts:
        out //= factorial(p)
    return out


def cmd_dim(args) -> int:
    nu = parse_composition(args.nu)
    check_size(nu.n, QUOTIENT_NMAX)
    mu = parse_mu(args.mu, nu.n)
    pres = presentation(nu, mu)
    d = pres.dim()
    if mu is None:
        cross = _orbit_count(nu)
        label = "coset count"
    else:
        cross = count_column_strict(transpose(mu), nu)
        label = "column-strict tableau count"
    ok = d == cross
    lines = [
        f"dim = {d}",
        f"cross-check ({label}) = {cross}",
        "OK" if ok else "MISMATCH",
    ]
    data = {
        "nu": nu.to_json(),
        "mu": None if mu is None else mu.to_json(),
        "dim": d,
        "cross_check": cross,
        "ok": ok,
    }
    emit(args, lines, data)
    return EXIT_OK if ok else EXIT_INTERNAL


def cmd_hilbert(args) -> int:
    nu = parse_composition(args.nu)
    check_size(nu.n, QUOTIENT_NMAX)
    mu = parse_mu(args.mu, nu.n)
    series = presentation(nu, mu).hilbert()
    coeffs = list(series.coeffs)
    lines = [f"hilbert = {series}", f"coeffs = {coeffs}"]
    data = {
        "nu": nu.to_json(),
        "mu": None if mu is None else mu.to_json(),
        "coeffs": coeffs,
        "pretty": str(series),
    }
    emit(args, lines, data)
    return EXIT_OK


def cmd_basis(args) -> int:
    nu = parse_composition(args.nu)
    check_size(nu.n, QUOTIENT_NMAX)
    mu = parse_mu(args.mu, nu.n)
    pres = presentation(nu, mu)
    if pres.is_zero_algebra:
        degrees = []
    elif args.degree is not None:
        # graded_basis refuses an odd or negative degree
        degrees = [args.degree]
    else:
        degrees = list(range(0, pres.top_degree + 1, 2))
    lines = []
    blocks = []
    for d in degrees:
        basis = pres.graded_basis(d)
        lines.append(f"degree {d}: dim {len(basis)}")
        lines.extend(f"  {b.rep}" for b in basis)
        blocks.append(
            {
                "degree": d,
                "basis": [
                    {"pretty": str(b.rep), "terms": b.rep.to_json()}
                    for b in basis
                ],
            }
        )
    if not degrees:
        lines.append("zero algebra")
    data = {
        "nu": nu.to_json(),
        "mu": None if mu is None else mu.to_json(),
        "degrees": blocks,
    }
    emit(args, lines, data)
    return EXIT_OK


def cmd_act(args) -> int:
    nu = parse_composition(args.nu)
    n = nu.n
    check_size(n, QUOTIENT_NMAX)
    mu = parse_mu(args.mu, n)
    if args.window is not None:
        window = parse_window(args.window)
    else:
        window = (min(1, nu.lo), max(n, nu.hi))
    elem = None
    if args.elem is not None:
        try:
            payload = json.loads(args.elem)
        except json.JSONDecodeError as exc:
            raise InputError(f"bad element JSON: {exc}")
        try:
            elem = Poly.from_json(n, payload)
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad element JSON: {exc}")
        except ZeroDivisionError:
            raise InputError("bad element JSON: zero denominator")
    try:
        family = WeightFamily.unit(nu, window, mu, elem)
    except WindowOverflowError as exc:
        # exit 4 is for operator images; a start outside is bad input
        raise InputError(f"starting {exc}")
    result = apply_operator_family(args.op, family)
    lines = []
    if result.is_zero:
        lines.append("0")
    for w in sorted(result.components, key=lambda c: c.key()):
        lines.append(f"{format_composition(w)}: {result.components[w].rep}")
    data = {
        "op": args.op,
        "window": list(window),
        "mu": None if mu is None else mu.to_json(),
        "components": result.to_json(),
    }
    emit(args, lines, data)
    return EXIT_OK


def cmd_kostka(args) -> int:
    lam = parse_partition(args.lam)
    nu = parse_composition(args.nu)
    check_size(max(lam.n, nu.n))
    value = kostka(lam, nu)
    emit(
        args,
        [str(value)],
        {"lam": lam.to_json(), "nu": nu.to_json(), "kostka": value},
    )
    return EXIT_OK


def cmd_kf(args) -> int:
    tau = parse_partition(args.tau)
    mu = parse_composition(args.mu)
    check_size(max(tau.n, mu.n))
    poly = kostka_foulkes(tau, mu)
    coeffs = list(poly.coeffs)
    emit(
        args,
        [f"kostka_foulkes = {poly}", f"coeffs = {coeffs}"],
        {
            "tau": tau.to_json(),
            "mu": mu.to_json(),
            "coeffs": coeffs,
            "pretty": str(poly),
        },
    )
    return EXIT_OK


def cmd_tableaux(args) -> int:
    lam = parse_partition(args.lam)
    nu = parse_composition(args.nu)
    check_size(max(lam.n, nu.n))
    if args.kind == "semistandard":
        fillings = enumerate_semistandard(lam, nu)
    else:
        fillings = enumerate_column_strict(lam, nu)
    lines = [f"count = {len(fillings)}"]
    for t in fillings:
        lines.append("  " + " / ".join(" ".join(map(str, row)) for row in t.rows))
    data = {
        "lam": lam.to_json(),
        "nu": nu.to_json(),
        "kind": args.kind,
        "count": len(fillings),
        "tableaux": [t.to_json() for t in fillings],
    }
    emit(args, lines, data)
    return EXIT_OK


# ----------------------------------------------------------------------
# verification suites


def _suite_identities(n: int, window: tuple) -> list:
    """Identities for r up to 2n, over every block shape of n; no window."""
    return [verify_identity_suite(n, 2 * n), quotient_identity_report(n, 2 * n)]


def _pair(mu, nu: Composition) -> str:
    """A check's detail: the (mu, nu) pair it failed on first."""
    return f"mu={format_composition(Composition(1, mu))} nu={format_composition(nu)}"


def _suite_ideals_equal(n: int, window: tuple) -> list:
    report = Report(f"h-form vs e-form generators, n={n}")
    ok = True
    bad = ""
    for mu in partitions_of(n):
        for nu in compositions_of(n, window):
            gh = tanisaki_generators_h(mu, nu)
            ge = tanisaki_generators_e(mu, nu)
            if not ideals_equal(gh, ge, nu):
                ok = False
                bad = bad or _pair(mu, nu)
    report.add("generator_forms_define_equal_ideals", ok, bad)
    return [report]


def _suite_dims(n: int, window: tuple) -> list:
    report = Report(f"dimension formulas, n={n}")
    names = (
        "regular_coinvariants_have_group_order_dimension",
        "partial_coinvariant_dimension_is_orbit_count",
        "coinvariant_hilbert_series_is_palindromic",
        "dimension_matches_column_strict_count",
        "vanishing_matches_dominance",
        "top_degree_matches_formula",
        "top_coefficient_is_kostka_number",
    )
    first: dict = {}  # check name -> the pair it failed on first

    def check(name: str, passed: bool, mu, nu: Composition) -> None:
        if not passed:
            first.setdefault(name, _pair(mu, nu))

    # the plain algebra is the shape-cut quotient of mu = 1^n
    plain = [1] * n
    regular = Composition(1, plain)
    check(
        "regular_coinvariants_have_group_order_dimension",
        presentation(regular).dim() == factorial(n), plain, regular,
    )
    for nu in compositions_of(n, window):
        pres = presentation(nu)
        check(
            "partial_coinvariant_dimension_is_orbit_count",
            pres.dim() == _orbit_count(nu), plain, nu,
        )
        coeffs = list(pres.hilbert().coeffs)
        check(
            "coinvariant_hilbert_series_is_palindromic",
            coeffs == coeffs[::-1], plain, nu,
        )
    for mu in partitions_of(n):
        lam = transpose(mu)
        for nu in compositions_of(n, window):
            pres = presentation(nu, mu)
            d = pres.dim()
            check(
                "dimension_matches_column_strict_count",
                d == count_column_strict(lam, nu), mu, nu,
            )
            check("vanishing_matches_dominance", (d > 0) == is_nonzero(mu, nu), mu, nu)
            if d > 0:
                series = pres.hilbert()
                top = series.degree()
                check(
                    "top_degree_matches_formula",
                    top == quotient_top_degree(nu, mu), mu, nu,
                )
                check(
                    "top_coefficient_is_kostka_number",
                    series.coeff(top) == kostka(lam, nu), mu, nu,
                )
    for name in names:
        report.add(name, name not in first, first.get(name, ""))
    return [report]


def _suite_relations(n: int, window: tuple) -> list:
    # mu = 1^n among them is the plain algebra
    return [relation_report(n, window, mu) for mu in partitions_of(n)]


def _suite_ideal_invariance(n: int, window: tuple) -> list:
    return [ideal_invariance_check(mu, window) for mu in partitions_of(n)]


def _suite_hilbert(n: int, window: tuple) -> list:
    report = Report(f"graded character identity, n={n}")
    ok = True
    bad = ""
    for mu in partitions_of(n):
        for nu in compositions_of(n, window):
            if not is_nonzero(mu, nu):
                continue
            if not hilbert_identity_check(mu, nu):
                ok = False
                bad = bad or _pair(mu, nu)
    report.add("hilbert_series_matches_charge_generating_function", ok, bad)
    return [report]


def _suite_traces(n: int, window: tuple) -> list:
    return [trace_map_report(n, window), adjunction_report(n, window)]


SUITES = {
    "identities": _suite_identities,
    "ideals-equal": _suite_ideals_equal,
    "dims": _suite_dims,
    "relations": _suite_relations,
    "ideal-invariance": _suite_ideal_invariance,
    "hilbert": _suite_hilbert,
    "traces": _suite_traces,
}


def _center_table(n_max_val: int) -> tuple:
    """Rows (mu, nu, center dimension, simple count) for all n <= n_max_val."""
    rows = []
    ok = True
    for n in range(1, n_max_val + 1):
        window = (1, n)
        for mu in partitions_of(n):
            lam = transpose(mu)
            for nu in compositions_of(n, window):
                d = presentation(nu, mu).dim()
                c = count_column_strict(lam, nu)
                match = d == c
                ok = ok and match
                rows.append(
                    {
                        "n": n,
                        "mu": list(mu.parts),
                        "nu": nu.to_json(),
                        "center_dim": d,
                        "simple_count": c,
                        "match": match,
                    }
                )
    return rows, ok


def _center_table_lines(rows) -> list:
    lines = ["center dimension table (block centers vs simple-module counts):"]
    header = f"  {'n':<3}{'mu':<12}{'nu':<14}{'center_dim':<12}{'simples':<9}match"
    lines.append(header)
    for row in rows:
        mu_s = ",".join(str(p) for p in row["mu"])
        nu_s = format_composition(Composition.from_json(row["nu"]))
        lines.append(
            f"  {row['n']:<3}{mu_s:<12}{nu_s:<14}"
            f"{row['center_dim']:<12}{row['simple_count']:<9}"
            f"{'yes' if row['match'] else 'NO'}"
        )
    return lines


def cmd_verify(args) -> int:
    n = args.n
    if n < 1:
        raise InputError("--n must be at least 1")
    check_size(n, SUITE_NMAX)
    window = parse_window(args.window) if args.window else (1, n)
    width = window[1] - window[0] + 1
    count = comb(n + width - 1, n)
    if count > VERIFY_COMPOSITION_LIMIT:
        raise InputError(
            f"window {window[0]},{window[1]} holds {count} compositions of "
            f"n={n}; verify accepts at most {VERIFY_COMPOSITION_LIMIT}"
        )
    names = list(SUITES) if args.suite == "all" else [args.suite]
    reports = []
    for name in names:
        reports.extend(SUITES[name](n, window))

    table_rows = None
    if args.suite == "all":
        table_rows, table_ok = _center_table(n)
        table_report = Report(f"center dimension table, n<={n}")
        table_report.add(
            "center_dimensions_count_simple_modules",
            table_ok,
            f"{len(table_rows)} pairs",
        )
        reports.append(table_report)

    npass = sum(1 for r in reports for c in r.checks if c.passed)
    nfail = sum(1 for r in reports for c in r.checks if not c.passed)
    passed = nfail == 0

    lines = []
    for report in reports:
        lines.extend(report.lines())
        lines.append("")
    if table_rows is not None:
        lines.extend(_center_table_lines(table_rows))
        lines.append("")
    lines.append(f"checks: {npass} passed, {nfail} failed")
    data = {
        "suite": args.suite,
        "n": n,
        "window": list(window),
        "passed": passed,
        "counts": {"passed": npass, "failed": nfail},
        "reports": [r.to_json() for r in reports],
    }
    if table_rows is not None:
        data["center_dimension_table"] = table_rows
    emit(args, lines, data)
    return EXIT_OK if passed else EXIT_VERIFY


# ----------------------------------------------------------------------
# wiring


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument tree, built on first use and shared by every ``main`` call."""
    parser = argparse.ArgumentParser(
        prog="coinv",
        description="Exact graded-quotient and trace-map computations.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument(
            "--output", choices=("text", "json"), default="text",
            help="output format",
        )

    p = sub.add_parser("present", help="print ideal generators")
    p.add_argument("--nu", required=True, help="composition, e.g. 1,2,1 or 2@0")
    p.add_argument("--mu", required=True, help="shape composition or 'regular'")
    common(p)
    p.add_argument(
        "--form", choices=("h", "e"), default="e",
        help="generator family to print",
    )

    p = sub.add_parser("dim", help="dimension with tableau cross-check")
    p.add_argument("--nu", required=True)
    p.add_argument("--mu")
    common(p)

    p = sub.add_parser("hilbert", help="graded dimension series")
    p.add_argument("--nu", required=True)
    p.add_argument("--mu")
    common(p)

    p = sub.add_parser("basis", help="canonical graded basis")
    p.add_argument("--nu", required=True)
    p.add_argument("--mu")
    p.add_argument("--degree", type=int, help="single (doubled) degree")
    common(p)

    p = sub.add_parser("act", help="apply an operator word to a weight family")
    p.add_argument("--op", required=True, help="word like 'F_2 F_1 E_2'")
    p.add_argument("--nu", required=True, help="starting weight")
    p.add_argument("--mu")
    p.add_argument("--window", help="LO,HI index window")
    p.add_argument(
        "--elem",
        help='starting element as JSON: a list of {"exp": [...], "num": "...", '
        '"den": "..."} terms with integer exponents and coefficients',
    )
    common(p)

    p = sub.add_parser("kostka", help="semistandard tableau count")
    p.add_argument("--lam", required=True, help="partition, e.g. 2,1")
    p.add_argument("--nu", required=True, help="content composition")
    common(p)

    p = sub.add_parser("kf", help="charge generating polynomial")
    p.add_argument("--tau", required=True, help="partition")
    p.add_argument("--mu", required=True, help="content composition")
    common(p)

    p = sub.add_parser("tableaux", help="enumerate fillings")
    p.add_argument("--lam", required=True)
    p.add_argument("--nu", required=True)
    p.add_argument(
        "--kind", choices=("column-strict", "semistandard"),
        default="column-strict",
    )
    common(p)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", choices=(*SUITES, "all"), required=True)
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--window", help="LO,HI (default 1,n)")
    common(p)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # looked up by name on each call, so the shared parser holds no
        # command function and a replaced ``cmd_*`` is the one that runs
        return globals()["cmd_" + args.subcommand](args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except WindowOverflowError as exc:
        print(f"window overflow: {exc}", file=sys.stderr)
        return EXIT_WINDOW
    except (NotInvariantError, ValueError) as exc:
        # NotInvariantError is only reachable from user-supplied elements
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except CoinvError as exc:
        print(f"internal invariant breach: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
