import argparse
import inspect
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import coinv
from coinv import cli, errors
from coinv.cli import (
    InputError,
    main,
    parse_composition,
    parse_mu,
    parse_partition,
    parse_window,
)
from coinv.shapes import Composition, Partition, partitions_of
from coinv.tableaux import IntPoly


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# ----------------------------------------------------------------------
# argument parsing


def test_parse_composition_forms():
    assert parse_composition("1,2,1") == Composition(1, [1, 2, 1])
    assert parse_composition("2@0") == Composition(0, [2])
    assert parse_composition("4") == Composition(1, [4])
    assert parse_composition("2,0,1") == Composition(1, [2, 0, 1])


def test_parse_composition_rejects_garbage():
    for bad in ("x", "1,a", "1@b", "-1,2"):
        with pytest.raises(InputError):
            parse_composition(bad)


def test_parse_partition_and_window():
    assert parse_partition("2,1") == Partition([2, 1])
    with pytest.raises(InputError):
        parse_partition("1,2")
    assert parse_window("1,4") == (1, 4)
    with pytest.raises(InputError):
        parse_window("4,1")
    with pytest.raises(InputError):
        parse_window("4")


def test_parse_mu_regular():
    assert parse_mu("regular", 3) == Composition(1, [1, 1, 1])
    assert parse_mu(None, 3) is None
    with pytest.raises(InputError):
        parse_mu("2,2", 3)


# ----------------------------------------------------------------------
# inspection commands


def test_present_contains_product_generator(capsys):
    code, out, _ = run(
        capsys, ["present", "--mu", "1,2,1", "--nu", "1,2,1", "--form", "e"]
    )
    assert code == 0
    assert "  x1*x4" in out.splitlines()


def test_present_regular_gives_elementary_list(capsys):
    code, out, _ = run(capsys, ["present", "--mu", "regular", "--nu", "1,1,1"])
    assert code == 0
    body = [ln.strip() for ln in out.splitlines()[1:]]
    assert body == [
        "x1 + x2 + x3",
        "x1*x2 + x1*x3 + x2*x3",
        "x1*x2*x3",
    ]


def test_present_mismatched_totals_is_input_error(capsys):
    code, _, err = run(capsys, ["present", "--mu", "2,1", "--nu", "1,2,1"])
    assert code == 2
    assert "does not match" in err


def test_dim_with_cross_check(capsys):
    code, out, _ = run(capsys, ["dim", "--mu", "1,2,1", "--nu", "1,2,1"])
    assert code == 0
    assert "dim = 5" in out
    assert "= 5" in out.splitlines()[1]
    assert "OK" in out


def test_dim_vanishing_pair(capsys):
    code, out, _ = run(capsys, ["dim", "--mu", "2,2", "--nu", "4"])
    assert code == 0
    assert "dim = 0" in out


def test_dim_without_shape_counts_cosets(capsys):
    code, out, _ = run(capsys, ["dim", "--nu", "1,2"])
    assert code == 0
    assert "dim = 3" in out and "coset count" in out


def test_hilbert_text_and_json(capsys):
    code, out, _ = run(capsys, ["hilbert", "--mu", "1,2,1", "--nu", "1,2,1"])
    assert code == 0
    assert "coeffs = [1, 0, 2, 0, 2]" in out
    code, out, _ = run(
        capsys,
        ["hilbert", "--mu", "1,2,1", "--nu", "1,2,1", "--output", "json"],
    )
    assert code == 0
    assert json.loads(out)["coeffs"] == [1, 0, 2, 0, 2]


def test_basis_single_degree(capsys):
    code, out, _ = run(
        capsys, ["basis", "--mu", "1,2,1", "--nu", "1,2,1", "--degree", "4"]
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "degree 4: dim 2"
    assert len(lines) == 3


def test_basis_zero_algebra(capsys):
    code, out, _ = run(capsys, ["basis", "--mu", "2,2", "--nu", "4"])
    assert code == 0
    assert "zero algebra" in out


def test_basis_rejects_an_odd_degree(capsys):
    argv = ["basis", "--mu", "1,2,1", "--nu", "1,2,1", "--degree", "3"]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert "degree must be even and non-negative" in err


def test_basis_lists_every_degree_up_to_the_top(capsys):
    code, out, _ = run(
        capsys, ["basis", "--mu", "1,2,1", "--nu", "1,2,1", "--output", "json"]
    )
    assert code == 0
    blocks = json.loads(out)["degrees"]
    sizes = {b["degree"]: len(b["basis"]) for b in blocks}
    assert sizes == {0: 1, 2: 2, 4: 2}
    code, out, _ = run(capsys, ["dim", "--mu", "1,2,1", "--nu", "1,2,1"])
    assert code == 0
    assert out.splitlines()[0] == f"dim = {sum(sizes.values())}"


def test_present_requires_mu(capsys):
    with pytest.raises(SystemExit) as info:
        main(["present", "--nu", "1,2,1"])
    assert info.value.code == 2
    assert "--mu" in capsys.readouterr().err


def test_size_cap_applies(capsys):
    code, _, err = run(capsys, ["dim", "--nu", "3,3,3"])
    assert code == 2
    assert "maximum 7" in err


def test_quotient_commands_stop_below_the_tableau_cap(capsys):
    """dim, hilbert, basis and act build quotient algebras and refuse
    n = 8 up front; the tableau commands still take it."""
    for argv in (
        ["dim", "--nu", "2,2,2,2"],
        ["hilbert", "--nu", "3,3,2"],
        ["basis", "--nu", "4,4"],
        ["act", "--op", "F_1", "--nu", "4,4"],
    ):
        code, _, err = run(capsys, argv)
        assert code == 2, argv
        assert "maximum 7" in err, argv
    code, out, _ = run(capsys, ["kf", "--tau", "4,4", "--mu", "2,2,2,2"])
    assert code == 0
    assert "kostka_foulkes" in out


def test_tableau_commands_stop_above_eight(capsys):
    code, _, err = run(capsys, ["kostka", "--lam", "9", "--nu", "9"])
    assert code == 2
    assert "maximum 8" in err


# ----------------------------------------------------------------------
# operator command


def test_act_lowering_example(capsys):
    code, out, _ = run(capsys, ["act", "--op", "F_1", "--nu", "2@1"])
    assert code == 0
    assert out.splitlines()[0] == "1,1@1: 2*x1"


def test_act_empty_word_echoes(capsys):
    elem = json.dumps([{"exp": [1, 0], "num": "1", "den": "1"}])
    code, out, _ = run(
        capsys, ["act", "--op", "", "--nu", "1,1@1", "--elem", elem]
    )
    assert code == 0
    assert out.splitlines()[0] == "1,1@1: x1"


def test_act_zero_map_prints_zero(capsys):
    code, out, _ = run(capsys, ["act", "--op", "E_1", "--nu", "2@1"])
    assert code == 0
    assert out.strip() == "0"


def test_act_window_overflow_exit_code(capsys):
    code, _, err = run(
        capsys, ["act", "--op", "F_1", "--nu", "1@1", "--window", "1,1"]
    )
    assert code == 4
    assert "window" in err


@pytest.mark.parametrize("elem", [[], ["--elem", "[]"]])
def test_act_start_outside_window_is_input_error(capsys, elem):
    # exit 4 is for an operator image leaving the window, not for the start
    argv = ["act", "--op", "F_1", "--nu", "2@5", "--window", "1,3"]
    code, _, err = run(capsys, argv + elem)
    assert code == 2
    assert err.startswith("error: starting weight") and "window [1, 3]" in err


def test_act_bad_inputs(capsys):
    code, _, _ = run(capsys, ["act", "--op", "G_1", "--nu", "2@1"])
    assert code == 2
    code, _, _ = run(
        capsys, ["act", "--op", "", "--nu", "2@1", "--elem", "not json"]
    )
    assert code == 2
    # non-invariant starting element
    elem = json.dumps([{"exp": [1, 0], "num": "1", "den": "1"}])
    code, _, _ = run(capsys, ["act", "--op", "", "--nu", "2@1", "--elem", elem])
    assert code == 2
    # a payload that is not a list of terms
    for elem in ("{}", '""', '{"exp": [2], "num": "1", "den": "1"}'):
        argv = ["act", "--op", "F_1", "--nu", "2", "--elem", elem]
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: bad element JSON:")


@pytest.mark.parametrize(
    "terms",
    [
        [([1, 0], 1)],
        [([2, 0], 1), ([0, 2], 2)],
        [([2, 0], 1), ([0, 1], 1)],
    ],
)
def test_act_non_invariant_element_exits_two(capsys, terms):
    elem = json.dumps([{"exp": e, "num": str(c), "den": "1"} for e, c in terms])
    for op in ("", "F_1"):
        code, out, err = run(capsys, ["act", "--op", op, "--nu", "2@1", "--elem", elem])
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "not invariant" in err


def test_act_zero_denominator_is_input_error(capsys):
    elem = json.dumps([{"exp": [1, 0], "num": "1", "den": "0"}])
    code, _, err = run(
        capsys, ["act", "--op", "", "--nu", "1,1", "--elem", elem]
    )
    assert code == 2
    assert "zero denominator" in err


@pytest.mark.parametrize(
    "term",
    [
        {"exp": [0, 0], "num": 2.7, "den": 1},
        {"exp": [0, 0], "num": "1.5", "den": "1"},
        {"exp": [0, 0], "num": "2", "den": True},
        {"exp": [1.9, 0], "num": "1", "den": "1"},
        {"exp": [True, 0], "num": "1", "den": "1"},
        {"exp": ["1.5", 0], "num": "1", "den": "1"},
    ],
)
def test_act_non_integer_element_is_input_error(capsys, term):
    elem = json.dumps([term])
    code, out, err = run(
        capsys, ["act", "--op", "D_1", "--nu", "2@1", "--elem", elem]
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: bad element JSON:")


def test_act_word_moves_weight(capsys):
    code, out, _ = run(
        capsys, ["act", "--op", "F_2 F_1", "--nu", "2@1", "--window", "1,3"]
    )
    assert code == 0
    assert out.splitlines()[0].startswith("1,0,1@1:")


def test_act_in_a_shape_cut_quotient(capsys):
    argv = ["act", "--op", "F_1 F_2", "--nu", "2,1", "--mu", "2,1"]
    code, out, _ = run(capsys, argv + ["--window", "1,3"])
    assert code == 0
    assert out.splitlines() == ["1,1,1@1: x1 - x2"]


def test_form_is_an_option_of_present_only(capsys):
    # every other command computes the one quotient of (nu, mu)
    with pytest.raises(SystemExit) as info:
        main(["dim", "--nu", "2,1", "--mu", "2,1", "--form", "h"])
    assert info.value.code == 2
    assert "--form" in capsys.readouterr().err


# ----------------------------------------------------------------------
# tableau commands


def test_kostka_value(capsys):
    code, out, _ = run(capsys, ["kostka", "--lam", "2,1", "--nu", "1,1,1"])
    assert code == 0
    assert out.strip() == "2"


def test_kf_coefficients(capsys):
    code, out, _ = run(capsys, ["kf", "--tau", "2,1", "--mu", "1,1,1"])
    assert code == 0
    assert "coeffs = [0, 1, 1]" in out


def test_tableaux_kinds(capsys):
    code, out, _ = run(capsys, ["tableaux", "--lam", "2,1", "--nu", "1,1,1"])
    assert code == 0
    assert out.splitlines()[0] == "count = 3"
    code, out, _ = run(
        capsys,
        ["tableaux", "--lam", "2,1", "--nu", "1,1,1", "--kind", "semistandard"],
    )
    assert code == 0
    assert out.splitlines()[0] == "count = 2"
    # the fillings themselves, in row-major order, on a shape with two rows
    argv = ["tableaux", "--lam", "3,1", "--nu", "1,2,1", "--output", "json"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    data = json.loads(out)
    assert data["kind"] == "column-strict" and data["count"] == 5
    assert data["tableaux"] == [
        [[1, 2, 2], [3]],
        [[1, 2, 3], [2]],
        [[1, 3, 2], [2]],
        [[2, 1, 2], [3]],
        [[2, 2, 1], [3]],
    ]
    code, out, _ = run(capsys, argv + ["--kind", "semistandard"])
    assert code == 0
    data = json.loads(out)
    assert data["kind"] == "semistandard" and data["count"] == 2
    assert data["tableaux"] == [[[1, 2, 2], [3]], [[1, 2, 3], [2]]]


# ----------------------------------------------------------------------
# verification suites


def test_verify_single_suites_pass(capsys):
    for suite in ("identities", "ideals-equal", "dims", "hilbert"):
        code, out, _ = run(capsys, ["verify", "--suite", suite, "--n", "2"])
        assert code == 0, suite
        assert "0 failed" in out


def test_verify_rejects_n_below_one(capsys):
    code, out, err = run(capsys, ["verify", "--suite", "dims", "--n", "0"])
    assert code == 2
    assert out == ""
    assert "--n must be at least 1" in err


def test_verify_has_no_weights_suite():
    # the dims suite checks every weight-space dimension claim
    with pytest.raises(SystemExit) as info:
        main(["verify", "--suite", "weights"])
    assert info.value.code == 2


def test_verify_traces_and_relations(capsys):
    code, out, _ = run(capsys, ["verify", "--suite", "traces", "--n", "2"])
    assert code == 0
    assert "trace_F_matches_lowering_oracle" in out
    code, out, _ = run(capsys, ["verify", "--suite", "relations", "--n", "2"])
    assert code == 0
    assert "serre_relations" in out


def test_relations_suite_checks_each_shape_once():
    # the plain algebra is the shape-cut quotient of 1^n, checked once
    reports = cli.SUITES["relations"](3, (1, 3))
    assert [r.title for r in reports] == [
        f"gl relations, n=3, window=(1, 3), shape {mu.parts}"
        for mu in partitions_of(3)
    ]
    assert all(r.passed for r in reports)


def test_verify_all_reports_center_table(capsys):
    code, out, _ = run(capsys, ["verify", "--suite", "all", "--n", "2"])
    assert code == 0
    assert "center dimension table" in out
    assert "checks:" in out and "0 failed" in out
    lines = [ln for ln in out.splitlines() if ln.startswith("  2  ")]
    assert any("1,1@1" in ln and "2" in ln for ln in lines)


def test_verify_json_shape(capsys):
    code, out, _ = run(
        capsys, ["verify", "--suite", "all", "--n", "2", "--output", "json"]
    )
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert data["counts"]["failed"] == 0
    assert any(
        row["nu"]["parts"] == [1, 1] and row["center_dim"] == 2
        for row in data["center_dimension_table"]
    )
    assert all("checks" in rep for rep in data["reports"])


def test_verify_output_deterministic(capsys):
    argv = ["verify", "--suite", "dims", "--n", "3", "--output", "json"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second


def test_verify_rejects_oversized_n(capsys):
    code, _, err = run(capsys, ["verify", "--suite", "identities", "--n", "6"])
    assert code == 2
    assert "maximum 5" in err


def test_verify_identities_check_r_up_to_2n(capsys):
    code, out, _ = run(capsys, ["verify", "--suite", "identities", "--n", "2"])
    assert code == 0
    assert "r_max=4" in out


def test_verify_rejects_oversized_window(capsys):
    # about 36 million compositions of 3 on 601 indices
    code, _, err = run(capsys, ["verify", "--suite", "dims", "--n", "3", "--window=-300,300"])
    assert code == 2
    assert "at most 250" in err


def test_verify_accepts_default_window_at_suite_cap(capsys, monkeypatch):
    # C(9, 5) = 126 compositions of 5 on (1, 5); a cheap suite keeps it quick
    monkeypatch.setitem(cli.SUITES, "ideals-equal", lambda n, window: [])
    code, _, _ = run(capsys, ["verify", "--suite", "ideals-equal", "--n", "5"])
    assert code == 0


def test_dim_222_finishes(capsys):
    start = time.perf_counter()
    code, out, _ = run(capsys, ["dim", "--nu", "2,2,2"])
    assert code == 0
    assert "dim = 90" in out
    assert time.perf_counter() - start < 10


def test_present_h_form_at_the_tableau_cap_finishes():
    """n = 8 is within present's cap, so the h-form list must be printable:
    about 4 MB in a few seconds.  A list that ran every r up to a degree
    cap would build tens of millions of terms; the address-space limit
    turns that into a quick failure instead of exhausting the host."""
    import resource

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    src = str(Path(coinv.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    argv = ["present", "--nu", "1,1,1,1,1,1,1,1", "--mu", "regular", "--form", "h"]
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "coinv.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120, preexec_fn=limit_memory,
    )
    assert done.returncode == 0, done.stderr[-500:]
    assert time.perf_counter() - start < 30
    assert done.stdout.startswith("ideal generators (h-form)")


def test_verify_unknown_suite_exits_two():
    with pytest.raises(SystemExit) as info:
        main(["verify", "--suite", "nonsense"])
    assert info.value.code == 2


@pytest.mark.parametrize(
    "exc, code, prefix",
    [
        (ValueError, 2, "error:"),
        (errors.NotInvariantError, 2, "error:"),
        (errors.WindowOverflowError, 4, "window overflow:"),
        (errors.NoSolutionError, 3, "internal invariant breach:"),
    ],
)
def test_error_classes_map_to_exit_codes(capsys, monkeypatch, exc, code, prefix):
    def fail(args):
        raise exc("boom")

    monkeypatch.setattr(cli, "cmd_dim", fail)
    got, _, err = run(capsys, ["dim", "--nu", "1,1"])
    assert got == code
    assert err.startswith(prefix)


# ----------------------------------------------------------------------
# every check of the suites can fail


def _plus_one(fn):
    return lambda *args: fn(*args) + 1


class _Lopsided:
    """A plain presentation whose Hilbert series gains 1 in degree 0."""

    def __init__(self, pres):
        self._pres = pres

    def dim(self):
        return self._pres.dim()

    def hilbert(self):
        return self._pres.hilbert() + IntPoly([1])


def _lopsided_plain(presentation):
    def fake(nu, mu=None):
        pres = presentation(nu, mu)
        return pres if mu is not None else _Lopsided(pres)

    return fake


def _negated(fn):
    return lambda *args: not fn(*args)


# (suite, name in coinv.cli, replacement, the checks it must fail)
SUITE_MUTANTS = [
    ("dims", "factorial", _plus_one(cli.factorial), {
        "regular_coinvariants_have_group_order_dimension",
        "partial_coinvariant_dimension_is_orbit_count",
    }),
    ("dims", "_orbit_count", _plus_one(cli._orbit_count), {
        "partial_coinvariant_dimension_is_orbit_count",
    }),
    ("dims", "presentation", _lopsided_plain(cli.presentation), {
        "coinvariant_hilbert_series_is_palindromic",
    }),
    ("dims", "count_column_strict", _plus_one(cli.count_column_strict), {
        "dimension_matches_column_strict_count",
    }),
    ("dims", "is_nonzero", _negated(cli.is_nonzero), {
        "vanishing_matches_dominance",
    }),
    ("dims", "quotient_top_degree", _plus_one(cli.quotient_top_degree), {
        "top_degree_matches_formula",
    }),
    ("dims", "kostka", _plus_one(cli.kostka), {
        "top_coefficient_is_kostka_number",
    }),
    ("ideals-equal", "ideals_equal", lambda *args: False, {
        "generator_forms_define_equal_ideals",
    }),
    ("hilbert", "hilbert_identity_check", lambda *args: False, {
        "hilbert_series_matches_charge_generating_function",
    }),
]


@pytest.mark.parametrize(
    "suite, name, fake, failing", SUITE_MUTANTS, ids=[m[1] for m in SUITE_MUTANTS]
)
def test_each_suite_check_can_fail(capsys, monkeypatch, suite, name, fake, failing):
    monkeypatch.setattr(cli, name, fake)
    argv = ["verify", "--suite", suite, "--n", "3", "--output", "json"]
    code, out, _ = run(capsys, argv)
    assert code == cli.EXIT_VERIFY == 1
    data = json.loads(out)
    checks = [c for rep in data["reports"] for c in rep["checks"]]
    assert {c["name"] for c in checks if not c["passed"]} == failing
    assert data["passed"] is False
    assert data["counts"]["failed"] == len(failing)
    for check in checks:
        if not check["passed"]:
            assert re.fullmatch(r"mu=[\d,]+@1 nu=[\d,]+@1", check["detail"])
    code, out, _ = run(capsys, argv[:-2])
    assert code == 1
    fails = [ln.split()[1] for ln in out.splitlines() if ln.startswith("  FAIL  ")]
    assert set(fails) == failing


# ----------------------------------------------------------------------
# one parser per process


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_repeated_calls_match_fresh_processes(capsys):
    calls = [
        ["dim", "--nu", "1,2,1", "--mu", "2,1,1", "--output", "json"],
        ["present", "--nu", "1,2,1", "--mu", "2,1,1", "--form", "h"],
        ["dim", "--nu", "1,2,1"],
        ["kf", "--tau", "2,1", "--mu", "1,1,1"],
        ["hilbert", "--nu", "1,2,1", "--mu", "regular"],
    ]
    in_process = [run(capsys, argv)[:2] for argv in calls]
    src = str(Path(coinv.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    for argv, (code, out) in zip(calls, in_process):
        fresh = subprocess.run(
            [sys.executable, "-m", "coinv.cli", *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert (code, out) == (fresh.returncode, fresh.stdout), argv


def test_valid_call_after_argparse_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["dim"])
    assert info.value.code == 2
    code, out, _ = run(capsys, ["dim", "--nu", "1,1"])
    assert code == 0
    assert out.splitlines()[0] == "dim = 2"


def test_second_call_constructs_no_parser(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    try:
        assert run(capsys, ["dim", "--nu", "1,1"])[0] == 0
        assert built
        del built[:]
        assert run(capsys, ["kostka", "--lam", "2,1", "--nu", "1,1,1"])[0] == 0
        assert built == []
    finally:
        cli.build_parser.cache_clear()


def test_every_parsed_option_is_read():
    # an option that parses but is never read would change nothing
    parser = cli.build_parser()
    (subparsers,) = [
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ]
    for name, sub in subparsers.choices.items():
        source = inspect.getsource(getattr(cli, "cmd_" + name))
        for action in sub._actions:
            # --output is read by emit(args, ...)
            if action.dest in ("help", "output"):
                continue
            assert f"args.{action.dest}" in source, (name, action.dest)
