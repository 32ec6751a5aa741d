"""Command-line interface: outputs, schemas, exit codes, determinism."""

import argparse
import ast
import io
import json
import os
import random
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from detrec import cli, combi, identities, recurrence, symfunc
from detrec.caps import MAX_RECURRENCE_STEPS, MAX_RECURRENCE_WORK, check_recurrence
from detrec.cli import main
from detrec.combi import cyclic_word_weight, tiling_weight, word_weight
from detrec.detmat import build_A, build_C, build_F, build_G, build_S
from detrec.digraph import det_via_lsd, enumerate_lsds
from detrec.errors import TooLarge
from detrec.identities import symbolic_coeffs
from detrec.poly import MultiPoly, scalar_str
from detrec.symfunc import build_E


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_fib(capsys):
    code, out, _ = run(capsys, "compute", "fib", "--n", "10")
    assert code == 0
    assert out == "89\n"


def test_compute_h(capsys):
    code, out, _ = run(capsys, "compute", "h", "--k", "2", "--vars", "2")
    assert code == 0
    assert out == "x0^2 + x0*x1 + x1^2\n"


def test_compute_det_family_S(capsys):
    code, out, _ = run(capsys, "compute", "det", "--family", "S", "--n", "4")
    assert code == 0
    assert out == "2*a^4 + 2*b^4\n"


def test_compute_other_subjects(capsys):
    assert run(capsys, "compute", "lucas", "--n", "10")[1] == "123\n"
    assert run(capsys, "compute", "racci", "--n", "5", "--r", "3")[1] == "13\n"
    assert run(capsys, "compute", "e", "--k", "2", "--vars", "3")[1] == \
        "x0*x1 + x0*x2 + x1*x2\n"
    assert run(capsys, "compute", "schur", "--parts", "1,1", "--vars", "2")[1] == \
        "x0*x1\n"
    code, out, _ = run(capsys, "compute", "recurrence", "--r", "2", "--n", "4")
    assert out == "c1^4 + 3*c1^2*c2 + c2^2\n"
    code, out, _ = run(capsys, "compute", "recurrence", "--coeffs", "1,2", "--n", "3")
    assert out == "5\n"  # u: 1, 1, 3, 5
    code, out, _ = run(capsys, "compute", "det", "--family", "A", "--n", "4")
    assert out == "14\n"


def test_compute_det_pretty_prints_matrix(capsys):
    code, out, _ = run(capsys, "compute", "det", "--family", "F", "--n", "3",
                       "--format", "pretty")
    assert code == 0
    assert out == "1\t-1\t0\n1\t1\t-1\n0\t1\t1\n3\n"


def test_enumerate_tilings(capsys):
    code, out, _ = run(capsys, "enumerate", "tilings", "--n", "4", "--r", "2")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 6
    items = [json.loads(line) for line in lines]
    assert items[0] == {"parts": [1, 1, 1, 1]}
    assert items[-1] == {"count": 5, "total_weight": "c1^4 + 3*c1^2*c2 + c2^2"}


def test_enumerate_tilings_integer_coeffs(capsys):
    _, out, _ = run(capsys, "enumerate", "tilings", "--n", "4", "--r", "2",
                    "--coeffs", "1,1")
    assert json.loads(out.strip().split("\n")[-1]) == {
        "count": 5, "total_weight": "5"}


def test_enumerate_cyclic_words_avoiding(capsys):
    code, out, _ = run(capsys, "enumerate", "cyclic-words", "--n", "4",
                       "--avoid", "ab")
    assert code == 0
    items = [json.loads(line) for line in out.strip().split("\n")]
    assert items[:-1] == [{"word": "aaaa"}, {"word": "bbbb"}]
    assert items[-1] == {"count": 2, "total_weight": "a^4 + b^4"}


def test_enumerate_cyclic_words_streams_the_one_enumerator(capsys, monkeypatch):
    calls = []

    def spy(n, avoid=None):
        calls.append((n, avoid))
        return combi.enumerate_cyclic_words(n, avoid)
    monkeypatch.setattr(cli, "enumerate_cyclic_words", spy)
    for argv, call in ((["--n", "6", "--avoid", "bb"], (6, "bb")), (["--n", "3"], (3, None))):
        calls.clear()
        code, out, _ = run(capsys, "enumerate", "cyclic-words", *argv)
        assert code == 0 and calls == [call], argv
        *words, summary = [json.loads(line) for line in out.splitlines()]
        assert [w["word"] for w in words] == list(combi.enumerate_cyclic_words(*call))


def test_enumerate_lsds_family_F(capsys):
    code, out, _ = run(capsys, "enumerate", "lsds", "--family", "F", "--n", "4")
    assert code == 0
    items = [json.loads(line) for line in out.strip().split("\n")]
    assert len(items) == 6
    assert items[0] == {"cycles": [[1], [2], [3], [4]], "signed_weight": "1"}
    assert items[-1] == {"count": 5, "total_weight": "5"}


def test_enumerate_words(capsys):
    _, out, _ = run(capsys, "enumerate", "words", "--n", "2", "--vars", "2")
    items = [json.loads(line) for line in out.strip().split("\n")]
    assert items == [
        {"letters": [1, 1]}, {"letters": [1, 2]}, {"letters": [2, 2]},
        {"count": 3, "total_weight": "x0^2 + x0*x1 + x1^2"}]


def test_enumerate_circular_tilings(capsys):
    _, out, _ = run(capsys, "enumerate", "circular-tilings", "--n", "3")
    items = [json.loads(line) for line in out.strip().split("\n")]
    assert items[-1] == {"count": 4, "total_weight": "4"}
    assert {"tiles": [[0, 1], [1, 2]]} in items[:-1]


def _expect_enumerate(capsys, argv, objects, json_item, pretty_item, total):
    """``enumerate`` prints, in both formats, the lines a plain formatter builds.

    Each object's line is ``json.dumps`` of ``json_item(object)``, or
    ``pretty_item(object)``, and the summary counts ``objects`` and prints
    ``total``.
    """
    count = len(objects)
    expected = {
        "json": [json.dumps(json_item(item)) for item in objects]
        + [json.dumps({"count": count, "total_weight": total})],
        "pretty": [pretty_item(item) for item in objects]
        + [f"count={count} total_weight={total}"],
    }
    for fmt, lines in expected.items():
        code, out, err = run(capsys, "enumerate", *argv, "--format", fmt)
        assert (code, err) == (0, ""), (argv, fmt)
        assert out == "\n".join(lines) + "\n", (argv, fmt)


def test_enumerate_tilings_match_a_reference_formatter(capsys):
    rng = random.Random(25)
    for n in range(13):
        for r in range(1, 5):
            tilings = list(combi.enumerate_tilings(n, r))
            for ints in (False, True):
                argv = ["tilings", "--n", str(n), "--r", str(r)]
                if ints:
                    coeffs, names = [rng.choice([-3, -2, -1, 1, 2, 5]) for _ in range(r)], None
                    argv.append("--coeffs=" + ",".join(map(str, coeffs)))
                else:
                    coeffs, names = symbolic_coeffs(r), identities.coeff_name
                total = scalar_str(combi.tiling_sum(tilings, coeffs), names)
                _expect_enumerate(capsys, argv, tilings, lambda t: {"parts": list(t)},
                                  lambda t: str(list(t)), total)


@pytest.mark.parametrize("text", ["0,1", "1,0,2", "0,0,0"])
def test_enumerate_tilings_totals_hold_with_zero_coefficients(capsys, text):
    # a zero coefficient zeroes the weight of every tiling with that part,
    # whose multisets then drop out of the total, though the tilings still print
    coeffs = [int(c) for c in text.split(",")]
    for n in range(13):
        tilings = list(combi.enumerate_tilings(n, len(coeffs)))
        for fmt in ("json", "pretty"):
            argv = ["tilings", "--n", str(n), "--r", str(len(coeffs)), "--coeffs", text,
                    "--format", fmt]
            code, out, err = run(capsys, "enumerate", *argv)
            total = scalar_str(combi.tiling_sum(tilings, coeffs))
            summary = (f"count={len(tilings)} total_weight={total}" if fmt == "pretty"
                       else json.dumps({"count": len(tilings), "total_weight": total}))
            assert (code, err, out.rsplit("\n", 2)[-2]) == (0, "", summary), argv


def test_enumerate_tilings_total_at_the_cap(capsys):
    code, out, err = run(capsys, "enumerate", "tilings", "--n", "20", "--r", "20")
    total = scalar_str(combi.tiling_sum(combi.enumerate_tilings(20, 20), symbolic_coeffs(20)),
                       identities.coeff_name)
    assert (code, err) == (0, "")
    assert out.rsplit("\n", 2)[-2] == json.dumps({"count": 2 ** 19, "total_weight": total})


def test_enumerate_circular_tilings_match_a_reference_formatter(capsys):
    for n in range(3, 15):
        tilings = combi.enumerate_circular_tilings(n)
        _expect_enumerate(capsys, ["circular-tilings", "--n", str(n)], tilings,
                          lambda t: {"tiles": [list(pair) for pair in t]},
                          lambda t: str([list(pair) for pair in t]), str(len(tilings)))


@pytest.mark.parametrize("argv, matrix, names", [
    (["--family", "C", "--n", "6", "--r", "3"], build_C(symbolic_coeffs(3), 6),
     identities.coeff_name),
    (["--family", "C", "--n", "7", "--coeffs=2,-1,3"], build_C([2, -1, 3], 7), None),
    (["--family", "G", "--n", "6", "--r", "3"], build_G(6, 3), None),
    (["--family", "F", "--n", "7"], build_F(7), None),
    (["--family", "S", "--n", "5"], build_S(MultiPoly.var(0), MultiPoly.var(1), 5), ("a", "b")),
    (["--family", "E", "--n", "5", "--vars", "3"], build_E(5, 3), None),
    (["--family", "A", "--n", "9"], build_A(9), None),
    (["--family", "C", "--n", "11", "--r", "4"], build_C(symbolic_coeffs(4), 11),
     identities.coeff_name),
], ids=lambda value: " ".join(value) if isinstance(value, list) else "")
def test_enumerate_lsds_match_a_reference_formatter(capsys, argv, matrix, names):
    lsds = enumerate_lsds(matrix)

    def cycles(lsd):
        return [[v + 1 for v in cycle] for cycle in lsd.cycles]
    _expect_enumerate(
        capsys, ["lsds", *argv], lsds,
        lambda lsd: {"cycles": cycles(lsd), "signed_weight": scalar_str(lsd.signed_weight, names)},
        lambda lsd: f"{cycles(lsd)} {scalar_str(lsd.signed_weight, names)}",
        scalar_str(det_via_lsd(matrix), names))


def test_verify_single_identity(capsys):
    code, out, _ = run(capsys, "verify", "sury", "--n", "2", "--k", "2")
    assert code == 0
    report = json.loads(out.strip())
    assert report["passed"] is True
    assert report["lhs"] == report["rhs"] == "x0^2 + x0*x1 + x1^2"


def test_verify_all_small(capsys):
    code, out, _ = run(capsys, "verify", "all", "--max-n", "3")
    assert code == 0
    reports = [json.loads(line) for line in out.strip().split("\n")]
    assert all(r["passed"] for r in reports)
    assert len(reports) >= 30


def test_verify_exit_codes(capsys):
    code, _, err = run(capsys, "verify", "lucas-symbolic", "--n", "2")
    assert code == 2
    assert "n >= 3" in err
    code, _, err = run(capsys, "verify", "fib", "--n", "20")
    assert code == 3
    code, _, _ = run(capsys, "verify", "lucas-symbolic", "--n", "4")
    assert code == 0


# a flag its matrix family does not read, each with a size past the family's caps
FAMILY_UNREAD = [
    ["E", "--n", "80", "--vars", "4", "--r", "2"],
    ["C", "--n", "2001", "--r", "3", "--vars", "2"],
    ["G", "--n", "2000", "--r", "2000", "--coeffs", "1"],
    ["F", "--n", "1000000000", "--r", "3", "--vars", "9", "--coeffs", "5"],
    ["S", "--n", "2001", "--vars", "2"],
    ["A", "--n", "12000", "--r", "2"],
]


def test_usage_errors(capsys, monkeypatch):
    # argparse refuses a missing --n, csv outside verify, an unknown subject,
    # a flag before the subject, since flags belong to the subject, and a
    # coefficient list that is not integers
    for argv in (["compute", "fib"], ["compute", "fib", "--n", "3", "--format", "csv"],
                 ["compute", "nonsense"], ["compute", "--n", "10", "fib"],
                 ["verify", "--format", "csv", "fib", "--n", "5"],
                 ["compute", "recurrence", "--coeffs", "1,x", "--n", "3"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
    assert capsys.readouterr().err.endswith(
        "error: argument --coeffs: expected comma-separated integers, got '1,x'\n")
    # a flag before the command or the subject is named, whatever the command
    for argv in (["--n", "3", "compute", "fib"], ["compute", "--n", "10", "fib"],
                 ["enumerate", "--n=3", "tilings", "--r", "2"],
                 ["verify", "--format", "csv", "fib", "--n", "5"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        out, err = capsys.readouterr()
        at = 0 if argv[0].startswith("-") else 1  # the flag's place
        prog = " ".join(["detrec", *argv[:at]])
        what, flag = ("command", "subject")[at], argv[at].split("=")[0]
        assert out == "" and err.startswith(f"usage: {prog} "), argv
        assert err.endswith(f"error: {flag} comes before the {what}: flags go after it, "
                            f"as in '{prog} {what.upper()} {flag} ...'\n"), argv
    # an empty field is refused too; only the empty string is the empty list
    for flag, value, argv in (("--parts", "3,,1", ["compute", "schur", "--vars", "3"]),
                              ("--coeffs", "1,2,", ["compute", "recurrence", "--n", "3"]),
                              ("--coeffs", "1,,1", ["enumerate", "tilings", "--n", "3",
                                                    "--r", "2"])):
        with pytest.raises(SystemExit) as exc:
            main([*argv, flag, value])
        assert exc.value.code == 2, value
        assert capsys.readouterr().err.endswith(
            f"error: argument {flag}: expected comma-separated integers, got {value!r}\n")
    assert run(capsys, "compute", "schur", "--parts=", "--vars", "3") == (0, "1\n", "")
    assert run(capsys, "compute", "recurrence", "--coeffs=", "--n", "3") == (
        2, "", "error: need at least one coefficient\n")
    code, _, _ = run(capsys, "compute", "schur", "--parts", "1,2", "--vars", "2")
    assert code == 2  # not weakly decreasing
    # a pattern letter no cyclic word has is refused before the first word
    assert run(capsys, "enumerate", "cyclic-words", "--n", "5", "--avoid", "AB") == (
        2, "", "error: cyclic words are over a and b; the pattern 'AB' also has 'A', 'B'\n")
    # a matrix family too small to build is refused by its own name
    for command in (["enumerate", "lsds", "--family", "A", "--n", "1"],
                    ["compute", "det", "--family", "A", "--n", "2"],
                    ["compute", "det", "--family", "S", "--n", "2"]):
        assert run(capsys, *command) == (
            2, "", f"error: matrix {command[3]} needs n >= 3, got {command[5]}\n"), command
    # a matrix family refuses the flags it does not read before any cap or build
    def unreachable(*args):
        raise AssertionError("work before the flag check")
    for name in ("build_A", "build_C", "build_E", "build_F", "build_G", "build_S",
                 "check_cells", "check_cap"):
        monkeypatch.setattr(cli, name, unreachable)
    for family in FAMILY_UNREAD:
        for command in (["compute", "det"], ["enumerate", "lsds"]):
            with pytest.raises(SystemExit) as exc:
                main([*command, "--family", *family])
            assert exc.value.code == 2, family
            out, err = capsys.readouterr()
            assert out == "" and err.startswith(f"usage: detrec {' '.join(command)} "), family
            assert f"error: family {family[0]} does not read --" in err, family


REFUSALS = [
    # a flag only some families or forms read is named when missing; a
    # coefficient list may come from either flag
    ("compute det --family E --n 3", 2, "", "error: --vars is required here\n"),
    ("enumerate lsds --family G --n 4", 2, "", "error: --r is required here\n"),
    *((argv, 2, "", "error: --coeffs or --r is required here\n")
      for argv in ("compute recurrence --n 3", "compute det --family C --n 3",
                   "enumerate lsds --family C --n 3", "verify recurrence-det --n 3")),
    # the caps pass what the builders refuse, or what cannot grow
    ("enumerate lsds --family E --n 3 --vars 1", 0,
     '{"cycles": [[1], [2], [3]], "signed_weight": "x0^3"}\n'
     '{"count": 1, "total_weight": "x0^3"}\n', ""),
    # a symbolic --r below 1 is refused as an empty list is, by every command
    *((argv, 2, "", "error: need at least one coefficient\n")
      for argv in ("compute recurrence --r 0 --n 3", "compute det --family C --n 3 --r -2",
                   "verify recurrence-det --r 0 --n 3", "verify recurrence-det --r -2 --n 3")),
    # an empty coefficient list is refused, whether or not the tilings read a coefficient
    *((argv, 2, "", "error: need at least one coefficient\n")
      for argv in ("enumerate tilings --n 0 --r 2 --coeffs=",
                   "enumerate tilings --n 2 --r 1 --coeffs=",
                   "verify recurrence-det --coeffs= --n 3")),
    ("compute det --family E --n 3 --vars 0", 2, "", "error: need at least one variable\n"),
]


@pytest.mark.parametrize("argv, code, out, err", REFUSALS, ids=[r[0] for r in REFUSALS])
def test_refusals_name_what_is_missing(capsys, argv, code, out, err):
    assert run(capsys, *argv.split()) == (code, out, err)


ENUMERATE_ARGVS = [
    ["tilings", "--n", "6", "--r", "3"],
    ["tilings", "--n", "6", "--r", "3", "--coeffs", "2,-1,5"],
    ["tilings", "--n", "0", "--r", "2"],
    ["circular-tilings", "--n", "6"],
    ["lsds", "--family", "C", "--n", "5", "--r", "3"],
    ["lsds", "--family", "S", "--n", "4"],
    ["lsds", "--family", "A", "--n", "4"],
    ["words", "--n", "3", "--vars", "3"],
    ["words", "--n", "0", "--vars", "2"],
    ["cyclic-words", "--n", "5"],
    ["cyclic-words", "--n", "6", "--avoid", "bb"],
    ["cyclic-words", "--n", "4", "--avoid", ""],
]


@pytest.mark.parametrize("argv", ENUMERATE_ARGVS, ids=" ".join)
def test_enumerate_lines_are_canonical_json(capsys, argv):
    code, out, _ = run(capsys, "enumerate", *argv)
    assert code == 0
    assert out.endswith("\n")
    for line in out[:-1].split("\n"):
        assert line == json.dumps(json.loads(line))


@pytest.mark.parametrize("argv", ENUMERATE_ARGVS, ids=" ".join)
def test_enumerate_pretty_lines_match_json_objects(capsys, argv):
    _, out, _ = run(capsys, "enumerate", *argv)
    *items, summary = [json.loads(line) for line in out.splitlines()]
    _, pretty, _ = run(capsys, "enumerate", *argv, "--format", "pretty")
    *lines, last = pretty.splitlines()
    assert last == f"count={summary['count']} total_weight={summary['total_weight']}"
    assert len(lines) == len(items) == summary["count"]
    for line, item in zip(lines, items):
        if "cycles" in item:
            assert line == f"{item['cycles']} {item['signed_weight']}"
        else:
            (value,) = item.values()
            assert line == str(value)


def _objects_and_summary(capsys, *argv):
    code, out, _ = run(capsys, "enumerate", *argv)
    assert code == 0
    *items, summary = [json.loads(line) for line in out.splitlines()]
    assert summary["count"] == len(items)
    return items, summary["total_weight"]


@pytest.mark.parametrize("coeffs", [None, "2,-1,5"])
def test_tiling_total_is_the_sum_of_object_weights(capsys, coeffs):
    argv = ["tilings", "--n", "7", "--r", "3"]
    if coeffs is None:
        weights, names = symbolic_coeffs(3), (lambda i: f"c{i + 1}")
    else:
        argv += ["--coeffs", coeffs]
        weights, names = [int(c) for c in coeffs.split(",")], None
    items, total = _objects_and_summary(capsys, *argv)
    expected = 0
    for item in items:
        expected = expected + tiling_weight(item["parts"], weights)
    assert total == scalar_str(expected, names)


@pytest.mark.parametrize("avoid", [None, "bb", "aab", ""])
def test_cyclic_word_total_is_the_sum_of_object_weights(capsys, avoid):
    argv = ["cyclic-words", "--n", "7"] + ([] if avoid is None else ["--avoid", avoid])
    items, total = _objects_and_summary(capsys, *argv)
    if avoid == "":
        assert items == []  # the empty pattern occurs in every word
    expected = MultiPoly.zero()
    for item in items:
        expected = expected + cyclic_word_weight(item["word"])
    assert total == scalar_str(expected, ("a", "b"))


def test_word_and_lsd_totals_are_the_sums_of_object_weights(capsys):
    items, total = _objects_and_summary(capsys, "words", "--n", "4", "--vars", "3")
    expected = MultiPoly.zero()
    for item in items:
        expected = expected + word_weight(item["letters"])
    assert total == scalar_str(expected)
    items, total = _objects_and_summary(capsys, "lsds", "--family", "E", "--n", "4",
                                        "--vars", "3")
    lsds = enumerate_lsds(build_E(4, 3))
    assert [item["signed_weight"] for item in items] == [
        scalar_str(lsd.signed_weight) for lsd in lsds]
    expected = 0
    for lsd in lsds:
        expected = expected + lsd.signed_weight
    assert total == scalar_str(expected)


@pytest.mark.parametrize("n, n_vars, count, total", [
    ("13", "2", 14, "x0^13 + x0^12*x1 + x0^11*x1^2 + x0^10*x1^3 + x0^9*x1^4 + x0^8*x1^5 + "
     "x0^7*x1^6 + x0^6*x1^7 + x0^5*x1^8 + x0^4*x1^9 + x0^3*x1^10 + x0^2*x1^11 + "
     "x0*x1^12 + x1^13"),
    ("1000000", "1", 1, "x0^1000000"),  # one word of MAX_FACTORS letters
])
def test_words_are_held_by_their_size_alone(capsys, n, n_vars, count, total):
    items, printed = _objects_and_summary(capsys, "words", "--n", n, "--vars", n_vars)
    assert len(items) == count
    assert all(len(item["letters"]) == int(n) for item in items)
    assert printed == total


def test_tilings_with_too_few_coefficients_fail_before_any_output(capsys):
    code, out, err = run(capsys, "enumerate", "tilings", "--n", "5", "--r", "3",
                         "--coeffs", "1,1")
    assert (code, out) == (2, "")
    assert "tile length 3 outside 1..2" in err
    # parts never longer than n: --n 2 --r 3 needs two coefficients only
    assert run(capsys, "enumerate", "tilings", "--n", "2", "--r", "3",
               "--coeffs", "1,1")[0] == 0


def test_cyclic_words_avoid_long_patterns(capsys):
    # a pattern longer than the word can still occur, wrapping more than once
    items, total = _objects_and_summary(capsys, "cyclic-words", "--n", "3",
                                        "--avoid", "aabaaba")
    words = [item["word"] for item in items]
    assert "aab" not in words and "aba" not in words and "baa" not in words
    assert len(words) == 5


def test_consecutive_calls_share_no_state(capsys):
    calls = [
        ["enumerate", "tilings", "--n", "5", "--r", "2", "--coeffs", "3,1"],
        ["enumerate", "tilings", "--n", "5", "--r", "2"],
        ["enumerate", "cyclic-words", "--n", "5", "--avoid", "ab"],
        ["enumerate", "cyclic-words", "--n", "5"],
        ["enumerate", "words", "--n", "3", "--vars", "2", "--format", "pretty"],
        ["enumerate", "words", "--n", "3", "--vars", "2"],
        ["compute", "recurrence", "--r", "2", "--n", "5", "--coeffs", "1,1"],
        ["compute", "recurrence", "--r", "2", "--n", "5"],
    ]
    forward = [run(capsys, *argv) for argv in calls]
    backward = [run(capsys, *argv) for argv in reversed(calls)]
    assert forward == backward[::-1]
    assert forward[0][1] != forward[1][1] and forward[2][1] != forward[3][1]


class _CountingStdout(io.StringIO):
    """A stdout that keeps the line count of each write."""

    def __init__(self):
        super().__init__()
        self.write_lines = []

    def write(self, text):
        self.write_lines.append(text.count("\n"))
        return super().write(text)


def test_enumerate_writes_in_chunks(monkeypatch):
    # every write but the last holds exactly a chunk's lines, also where one
    # block holds more: the lsds command's first block holds 609 LSDs
    for argv in (["tilings", "--n", "14", "--r", "3", "--coeffs", "1,1,1"],
                 ["lsds", "--family", "C", "--n", "11", "--r", "4"]):
        stdout = _CountingStdout()
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(["enumerate", *argv]) == 0
        *full, last = stdout.write_lines
        assert full and full == [cli.CHUNK_LINES] * len(full), argv
        assert 1 <= last <= cli.CHUNK_LINES, argv


class _NullStdout(io.TextIOBase):
    def write(self, text):
        return len(text)


def test_enumerate_counts_and_sums_as_it_streams(monkeypatch):
    # the 2**15 tilings are written, counted and summed a chunk at a time:
    # keeping them all to count and sum them afterwards peaked at 4.2 MB
    monkeypatch.setattr(sys, "stdout", _NullStdout())
    main(["enumerate", "tilings", "--n", "1", "--r", "1"])  # builds the parser untraced
    tracemalloc.start()
    try:
        assert main(["enumerate", "tilings", "--n", "16", "--r", "16"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak


# a valid value of each flag, 1 where it takes an integer
FLAG_VALUES = {"--family": "F", "--parts": "2,1", "--coeffs": "1,1", "--avoid": "ab",
               "--format": "pretty"}


@pytest.mark.parametrize("command, subject", [
    (command, subject) for command, subjects in cli.SUBJECTS.items() for subject in subjects])
def test_each_subject_takes_only_the_flags_it_reads(capsys, command, subject):
    flags = cli.SUBJECTS[command][subject].split()
    required = [flag for flag in flags if not flag.endswith("?")]
    optional = [flag.rstrip("?") for flag in flags if flag.endswith("?")]

    def argv(*names):
        return [command, subject, *(part for name in names
                                    for part in (name, FLAG_VALUES.get(name, "1")))]

    # its required flags alone parse, with each optional one or --format
    args = cli._subject_parser(command, subject).parse_args(argv(*required)[2:])
    assert (args.command, args.subject, args.format) == (command, subject, "json")
    for flag in optional + ["--format"]:
        cli._subject_parser(command, subject).parse_args(argv(*required, flag)[2:])
    # a flag it does not read, a missing required flag and csv outside verify exit 2
    unread = sorted(cli._FLAGS.keys() - {*required, *optional})
    refused = [argv(*required, flag) for flag in unread]
    refused += [argv(*required[:i], *required[i + 1:]) for i in range(len(required))]
    if command != "verify":
        refused.append(argv(*required) + ["--format", "csv"])
    for shape in refused:
        with pytest.raises(SystemExit) as exc:
            main(shape)
        assert exc.value.code == 2, shape
    # the subject's own parser reports an unread flag, under the subject's usage line
    for flag in unread:
        with pytest.raises(SystemExit):
            main(argv(*required, flag))
        err = capsys.readouterr().err
        assert err.startswith(f"usage: detrec {command} {subject} [-h]"), flag
        assert f"detrec {command} {subject}: error: unrecognized arguments: {flag}" in err, flag


def test_a_command_line_builds_only_its_subjects_parser(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.prog)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli._subject_parser.cache_clear()
    for n in range(10):
        assert run(capsys, "compute", "fib", "--n", str(n)) == (
            0, f"{recurrence.fibonacci(n)}\n", "")
    assert built == ["detrec compute fib"]


@pytest.mark.parametrize("argv, listed", [
    ([], ["exact determinant identities: compute, enumerate, verify",
          "{compute,enumerate,verify}"]),
    (["compute"], ["{fib,lucas,racci,recurrence,e,h,schur,det}"]),
    (["compute", "fib"], ["--n N", "--format {json,pretty}"]),
])
def test_each_level_prints_its_help(capsys, argv, listed):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "-h"])
    assert exc.value.code == 0
    out, err = capsys.readouterr()
    assert out.startswith(f"usage: {' '.join(['detrec', *argv])} [-h]") and err == ""
    body = out.split("\n\n", 1)[1]  # past the usage line
    assert all(text in body for text in listed), out


@pytest.mark.parametrize("argv, prog, message", [
    ([], "detrec", "the following arguments are required: command"),
    (["bogus"], "detrec", "argument command: invalid choice: 'bogus' "
                          "(choose from 'compute', 'enumerate', 'verify')"),
    (["compute"], "detrec compute", "the following arguments are required: subject"),
    (["compute", "bogus"], "detrec compute", "argument subject: invalid choice: 'bogus' "
     "(choose from 'fib', 'lucas', 'racci', 'recurrence', 'e', 'h', 'schur', 'det')"),
])
def test_each_level_refuses_a_missing_or_unknown_name(capsys, argv, prog, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"usage: {prog} [-h] {{"), err
    assert err.endswith(f"\n{prog}: error: {message}\n"), err


def test_symbolic_recurrence_work_cap(capsys):
    # 195,491 terms; the iteration ran 37 s before the cap
    code, out, err = run(capsys, "compute", "recurrence", "--r", "10", "--n", "60")
    assert (code, out) == (3, "")
    assert "recurrence" in err
    # n far out of range: refused at once, before any coefficient is built
    for r, n in (("1", "1000000000"), ("2", "200000")):
        assert run(capsys, "compute", "recurrence", "--r", r, "--n", n)[0] == 3
    # u_5 reads c1..c5 only, so a huge r costs what r = 5 does
    code, out, _ = run(capsys, "compute", "recurrence", "--r", "1000000000", "--n", "5")
    assert (code, out) == run(capsys, "compute", "recurrence", "--r", "5", "--n", "5")[:2]
    assert code == 0
    check_recurrence(40, 10)  # 16,928 terms, about 0.25 s: still computed
    with pytest.raises(TooLarge):
        check_recurrence(41, 10)
    # integer coefficients are not capped by it
    assert run(capsys, "compute", "recurrence", "--coeffs", "1,1", "--n", "100")[0] == 0


def test_symbolic_recurrence_work_bound_matches_its_count():
    # r times the summed term counts of u_0..u_n, plus three terms a step
    def work(n, r):
        counts = [1] + [0] * n
        for part in range(1, r + 1):
            for m in range(part, n + 1):
                counts[m] += counts[m - part]
        return r * (sum(counts) + 3 * (n + 1))

    for r in (1, 2, 3, 5, 10):
        for n in (0, 1, 7, 30, 45, 120, 240):
            if work(n, r) > MAX_RECURRENCE_WORK:
                with pytest.raises(TooLarge):
                    check_recurrence(n, r)
            else:
                check_recurrence(n, r)


def test_huge_symbolic_r_builds_only_the_coefficients_read(capsys, monkeypatch):
    # a size-3 result reads c1..c3 at most; the recorder builds no more than
    # ten, so a build of all r coefficients shows without allocating them
    requested = []

    def recording(r):
        requested.append(r)
        return symbolic_coeffs(min(r, 10))

    monkeypatch.setattr(cli, "symbolic_coeffs", recording)
    r = "3000000"
    code, out, err = run(capsys, "verify", "recurrence-det", "--n", "3", "--r", r)
    assert (code, out) == (3, "")
    assert "recurrence-det capped" in err
    code, out, _ = run(capsys, "enumerate", "tilings", "--n", "3", "--r", r)
    assert code == 0
    assert json.loads(out.splitlines()[-1]) == {"count": 4,
                                                "total_weight": "c1^3 + 2*c1*c2 + c3"}
    code, out, _ = run(capsys, "compute", "det", "--family", "C", "--n", "3", "--r", r)
    assert (code, out) == (0, "c1^3 + 2*c1*c2 + c3\n")
    code, out, _ = run(capsys, "compute", "recurrence", "--n", "3", "--r", r)
    assert (code, out) == (0, "c1^3 + 2*c1*c2 + c3\n")
    assert requested and max(requested) <= 3
    # unit coefficients too: a list of 2**62 ones is refused at once, unallocated
    assert run(capsys, "compute", "det", "--family", "G", "--n", "3", "--r", str(2**62))[1] == "4\n"
    assert run(capsys, "compute", "racci", "--n", "3", "--r", str(2**62))[1] == "4\n"


def _digits(out: str) -> int:
    return len(out.strip().lstrip("-"))


def _child_env() -> dict:
    """The environment of a ``python -m detrec`` child that imports this checkout's ``src``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)


def _detrec(*argv, **kwargs) -> subprocess.CompletedProcess:
    """``python -m detrec *argv`` in a child process, its output captured."""
    return subprocess.run([sys.executable, "-m", "detrec", *argv],
                          capture_output=True, env=_child_env(), **kwargs)


def _modules_loaded_by(code: str) -> set[str]:
    """The names in ``sys.modules`` once ``code`` has run in a ``python -S`` child."""
    code += "; import sys; print(sorted(sys.modules))"
    # -S keeps site's own imports out of the list
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env=_child_env(), check=True, timeout=60)
    return set(ast.literal_eval(proc.stdout.splitlines()[-1]))


def test_start_up_loads_no_module_it_does_not_run():
    # the records are named tuples, csv is imported by the one format that
    # writes it, argparse with the first parser, random by the one verify
    # grid that draws, and fractions where a Fraction is made, so a
    # start-up loads none of these
    loaded = _modules_loaded_by("import detrec, detrec.cli")
    assert "detrec.cli" in loaded
    unused = loaded & {"dataclasses", "inspect", "ast", "dis", "tokenize", "csv", "fractions",
                       "decimal", "numbers", "argparse", "gettext", "random"}
    assert not unused, sorted(unused)


def test_integer_and_golden_ratio_paths_make_no_fraction():
    # a command line, the Binet checks and a golden-ratio determinant run on
    # ints and QuadExt triples alone, so none of them loads fractions
    loaded = _modules_loaded_by(
        "import contextlib, io; from detrec import cli, identities, detmat\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['compute', 'fib', '--n', '10']) == 0\n"
        "assert identities.verify_binet_fib(30).passed\n"
        "assert identities.verify_binet_lucas(12).passed\n"
        "assert detmat.det_bareiss(detmat.build_A(12)) == 644")
    assert "argparse" in loaded
    assert not loaded & {"fractions", "decimal", "numbers"}, sorted(loaded)


def test_integer_values_are_held_to_the_digit_cap(capsys):
    # refused before any work: the loop of a hundred million steps never
    # runs.  Each runs in a child with a timeout, so a regressed guard fails
    # the test instead of hanging the suite
    for argv in (["fib", "--n", "100000000"], ["lucas", "--n", "100000000"],
                 ["racci", "--n", "100000000", "--r", "100000000"],
                 ["recurrence", "--coeffs", "1,1", "--n", "100000000"]):
        proc = _detrec("compute", *argv, timeout=60)
        assert (proc.returncode, proc.stdout) == (3, b""), argv
        assert b"more than 4300 digits" in proc.stderr, argv
    for argv in (["fib", "--n", "30000"],
                 ["recurrence", "--coeffs", "1" + "0" * 4299, "--n", "2"]):
        code, out, err = run(capsys, "compute", *argv)
        assert (code, out) == (3, ""), argv
        assert "more than 4300 digits" in err
    code, out, _ = run(capsys, "compute", "fib", "--n", "20000")
    assert code == 0 and _digits(out) == 4180
    # every value of at most 4300 digits prints, the next one is refused
    for argv, digits in ((["fib", "--n", "20576"], 4300), (["lucas", "--n", "20575"], 4300),
                         (["racci", "--n", "16248", "--r", "3"], 4300),
                         (["recurrence", "--coeffs", "1" + "0" * 4299, "--n", "1"], 4300)):
        code, out, _ = run(capsys, "compute", *argv)
        assert code == 0 and _digits(out) == digits, argv
    for argv in (["fib", "--n", "20577"], ["lucas", "--n", "20576"],
                 ["racci", "--n", "16249", "--r", "3"]):
        assert run(capsys, "compute", *argv)[0] == 3, argv
    # a loose bound: 2,-1 gives u_n = n + 1, and |c| sums to 3
    assert run(capsys, "compute", "recurrence", "--coeffs", "2,-1", "--n", "500")[1] == "501\n"


def test_verify_recurrence_det_is_held_to_the_digit_cap(capsys, monkeypatch):
    # compute and verify share the iteration's guard, so verify refuses a
    # value of over 4300 digits with exit 3 before any route runs
    def unreachable(*args):
        raise AssertionError("a route ran")
    for name in ("build_C", "det_bareiss", "enumerate_tilings", "tiling_sum"):
        monkeypatch.setattr(identities, name, unreachable)
    nines = "9" * 1000
    for command in ("compute recurrence", "verify recurrence-det"):
        code, out, err = run(capsys, *command.split(), "--coeffs", f"{nines},{nines}",
                             "--n", "10")
        assert (code, out, err) == (3, "", "error: value: more than 4300 digits\n"), command
    # a field of over 4300 digits is refused by the parser, which names the limit
    for argv in (["compute", "recurrence", "--n", "1"], ["verify", "recurrence-det", "--n", "1"]):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--coeffs", "1," + "9" * 4301])
        assert exc.value.code == 2, argv
        assert capsys.readouterr().err.endswith(
            "error: argument --coeffs: expected comma-separated integers "
            "of at most 4300 digits\n"), argv


def test_integer_iteration_is_held_to_the_step_cap(capsys, monkeypatch):
    def iterate(*args):
        raise AssertionError("the iteration ran")
    # racci and eval_recurrence each run the one shared loop after their guard
    monkeypatch.setattr(recurrence, "_iterate", iterate)
    # refused before any work: each value fits the digit cap, the loop does not
    for argv in (["racci", "--n", "100000000", "--r", "1"],
                 ["recurrence", "--coeffs", "1", "--n", "100000000"],
                 ["racci", "--n", "14000", "--r", "14000"],
                 ["racci", "--n", "14285", "--r", "300"]):
        code, out, err = run(capsys, "compute", *argv)
        assert (code, out) == (3, ""), argv
        assert f"iteration steps exceed {MAX_RECURRENCE_STEPS}" in err
    # the steps are n times the coefficients u_n reads, held to the cap itself
    monkeypatch.setattr(recurrence, "_iterate", lambda coeffs, n: 0)
    for argv in (["recurrence", "--coeffs", "1", "--n", str(MAX_RECURRENCE_STEPS)],
                 ["recurrence", "--coeffs", "1,0,0", "--n", str(MAX_RECURRENCE_STEPS // 3)],
                 ["recurrence", "--coeffs", ",".join(["1"] * 100000), "--n", "1000"],
                 ["racci", "--n", "1000", "--r", "100000"],
                 ["racci", "--n", "2000", "--r", "1500"]):
        assert run(capsys, "compute", *argv)[:2] == (0, "0\n"), argv
    for argv in (["recurrence", "--coeffs", "1", "--n", str(MAX_RECURRENCE_STEPS + 1)],
                 ["racci", "--n", "2000", "--r", "1501"]):
        assert run(capsys, "compute", *argv)[0] == 3, argv


def test_schur_work_cap_exit_code(capsys):
    # refused by the result's size and by the Jacobi-Trudi work, at once
    for argv, message in ((["900", "3"], "schur: result has more than 100000 terms"),
                          (["1", "2000000000"], "schur: result has more than 100000 terms"),
                          (["60,60", "3"], "schur: Jacobi-Trudi work 7155545 exceeds")):
        code, out, err = run(capsys, "compute", "schur", "--parts", argv[0], "--vars", argv[1])
        assert (code, out) == (3, ""), argv
        assert message in err, argv
    # both refused by the alternant quotient's division bound before
    code, out, _ = run(capsys, "compute", "schur", "--parts", "5,3,2,1", "--vars", "7")
    assert code == 0 and out.count("+") == 8196
    code, out, _ = run(capsys, "compute", "schur", "--parts", "3,2,1", "--vars", "8")
    assert code == 0 and out.count("+") == 1399


# (argv, message): refused by a value cap, by the work of elimination or by
# the stored cells
DET_REFUSALS = [
    (["E", "--n", "80", "--vars", "4"], "elimination work bound exceeds 1200000"),
    (["E", "--n", "31", "--vars", "4"], "elimination work bound exceeds 1200000"),
    (["E", "--n", "10", "--vars", "10"], "elimination work bound exceeds 1200000"),
    (["E", "--n", "2", "--vars", "446"], "elimination work bound exceeds 1200000"),
    (["E", "--n", "4", "--vars", "40"], "det: result has more than 100000 terms"),
    (["S", "--n", "154"], "elimination work bound exceeds 1200000"),
    (["C", "--n", "190", "--r", "3"], "iteration work bound exceeds 600000"),
    (["C", "--n", "1500", "--coeffs", "1000"], "more than 4300 digits"),
    (["G", "--n", "2000", "--r", "2000"], "iteration steps exceed"),
    (["A", "--n", "12000"], "more than 4000000 cells"),
    (["A", "--n", "2001"], "more than 4000000 cells"),
    (["F", "--n", "1000000000"], "more than 4000000 cells"),
    (["C", "--n", "2001", "--coeffs", "1"], "more than 4000000 cells"),
]


@pytest.mark.parametrize("argv, message", DET_REFUSALS)
def test_compute_det_refuses_before_any_work(capsys, monkeypatch, argv, message):
    def unreachable(*args):
        raise AssertionError("work before the cap")
    for name in ("build_A", "build_C", "build_E", "build_F", "build_G", "build_S",
                 "det_bareiss"):
        monkeypatch.setattr(cli, name, unreachable)
    code, out, err = run(capsys, "compute", "det", "--family", *argv)
    assert (code, out) == (3, ""), argv
    assert message in err, argv


def test_compute_det_accepts_up_to_its_caps(capsys, monkeypatch):
    # the largest accepted cases, with the matrix and its determinant stubbed
    monkeypatch.setattr(cli, "det_bareiss", lambda matrix: 0)
    for name in ("build_A", "build_C", "build_E", "build_F", "build_G", "build_S"):
        monkeypatch.setattr(cli, name, lambda *args: None)
    for argv in (["E", "--n", "30", "--vars", "4"], ["E", "--n", "2000", "--vars", "1"],
                 ["S", "--n", "153"], ["C", "--n", "189", "--r", "3"],
                 ["C", "--n", "3", "--r", "3000000"], ["A", "--n", "2000"],
                 ["G", "--n", "2000", "--r", "1500"], ["C", "--n", "2000", "--coeffs", "1"]):
        assert run(capsys, "compute", "det", "--family", *argv)[:2] == (0, "0\n"), argv


def test_compute_det_benchmark_commands_are_accepted(capsys):
    for argv in (["S", "--n", "6"], ["S", "--n", "8"], ["S", "--n", "10"],
                 ["E", "--n", "4", "--vars", "3"], ["E", "--n", "5", "--vars", "3"]):
        code, out, _ = run(capsys, "compute", "det", "--family", *argv)
        assert code == 0 and out.endswith("\n"), argv


def test_enumerate_lsds_refuses_a_huge_matrix_before_building_it(capsys, monkeypatch):
    monkeypatch.setattr(cli, "build_A", lambda n: pytest.fail("built"))
    code, out, err = run(capsys, "enumerate", "lsds", "--family", "A", "--n", "12000")
    assert (code, out) == (3, "")
    assert "cells" in err


HUGE = str(10**9)

# (argv, the refusal's message, or None for a boundary case that prints):
# every subject on huge arguments, and each command refused or accepted by
# the caps on increasing words and on the LSD weights of E
CAPPED_COMMANDS = [
    (["compute", "fib", "--n", HUGE], "more than 4300 digits"),
    (["compute", "lucas", "--n", HUGE], "more than 4300 digits"),
    (["compute", "racci", "--n", HUGE, "--r", HUGE], "more than 4300 digits"),
    (["compute", "recurrence", "--n", HUGE, "--r", HUGE], "iteration work bound exceeds"),
    (["compute", "recurrence", "--n", HUGE, "--coeffs", "1,1"], "more than 4300 digits"),
    (["compute", "e", "--k", HUGE, "--vars", HUGE], "e: result has more than 1000000 factors"),
    (["compute", "e", "--k", "99999", "--vars", "100000"], "e: result has more than 1000000"),
    (["compute", "h", "--k", HUGE, "--vars", HUGE], "h: result has more than 100000 terms"),
    (["compute", "schur", "--parts", HUGE, "--vars", HUGE], "result has more than 100000"),
    (["compute", "det", "--family", "A", "--n", HUGE], "more than 4000000 cells"),
    (["compute", "det", "--family", "E", "--n", "2", "--vars", "446"], "work bound exceeds"),
    (["enumerate", "tilings", "--n", HUGE, "--r", HUGE], "tilings: size"),
    (["enumerate", "tilings", "--n", "3", "--r", "1", "--coeffs", "1" + "0" * 2000],
     "more than 4300 digits"),  # the total weight, u_3
    (["enumerate", "circular-tilings", "--n", HUGE], "circular_tilings: size"),
    (["enumerate", "cyclic-words", "--n", HUGE], "cyclic_words: size"),
    (["enumerate", "lsds", "--family", "F", "--n", HUGE], "more than 4000000 cells"),
    (["enumerate", "words", "--n", HUGE, "--vars", "2"],
     "words: result has more than 100000 terms"),
    (["enumerate", "words", "--n", "1000001", "--vars", "1"],
     "words: result has more than 1000000 factors"),
    (["enumerate", "words", "--n", "12", "--vars", "16"], "words: result has more than"),
    (["enumerate", "words", "--n", "12", "--vars", "40"], "words: result has more than"),
    (["enumerate", "words", "--n", "1", "--vars", "100000000"], "words: result has more than"),
    (["enumerate", "words", "--n", "10", "--vars", "10"], None),  # 92,378 words
    (["enumerate", "lsds", "--family", "E", "--n", "12", "--vars", "4"], "lsds: weights have"),
    (["enumerate", "lsds", "--family", "E", "--n", "10", "--vars", "6"], "lsds: weights have"),
    (["enumerate", "lsds", "--family", "E", "--n", "8", "--vars", "8"], "lsds: weights have"),
    (["enumerate", "lsds", "--family", "E", "--n", "12", "--vars", "6"], "lsds: weights have"),
    (["enumerate", "lsds", "--family", "E", "--n", "2", "--vars", "446"], "lsds: weights have"),
    (["enumerate", "lsds", "--family", "E", "--n", "12", "--vars", "3"], None),  # 84,357 terms
    (["enumerate", "lsds", "--family", "E", "--n", "6", "--vars", "3"], None),
    (["enumerate", "lsds", "--family", "E", "--n", "5", "--vars", "5"], None),
    (["enumerate", "lsds", "--family", "E", "--n", "4", "--vars", "3"], None),
    (["verify", "sury", "--n", HUGE, "--k", HUGE], "sury capped at n <= 8, k <= 4"),
]


@pytest.mark.parametrize("argv, message", CAPPED_COMMANDS,
                         ids=[" ".join(argv) for argv, _ in CAPPED_COMMANDS])
def test_every_subject_is_capped_before_any_work(capsys, monkeypatch, argv, message):
    def work(*args):
        if message:
            raise AssertionError("work before the cap")
        return []  # past the caps: the enumeration itself is not this test's

    # so a regressed cap fails here rather than filling memory
    for module in (combi, symfunc):
        monkeypatch.setattr(module, "combinations_with_replacement", work)
    monkeypatch.setattr(symfunc, "combinations", work)
    # fibonacci, lucas and racci guard themselves, so they run: their loops
    # are the work, and racci's list of ones, sized by min after its guard
    for name in ("range", "min"):
        monkeypatch.setattr(recurrence, name, work, raising=False)
    # eval_recurrence guards its integer coefficients itself, so it runs too;
    # its loop is the work
    monkeypatch.setattr(recurrence, "_iterate", work)
    for name in ("symbolic_coeffs", "build_A", "build_E", "build_F", "det_bareiss"):
        monkeypatch.setattr(cli, name, work)

    def lsd_blocks(*args):
        work(*args)
        return [], {}  # no blocks, and no weights

    monkeypatch.setattr(cli, "lsd_blocks", lsd_blocks)
    code, out, err = run(capsys, *argv)
    if message:
        assert (code, out) == (3, "")
        assert message in err
    else:
        assert (code, out) == (0, '{"count": 0, "total_weight": "0"}\n')


# (E, S or symbolic C over one of the caps of _family_matrix, the message of
# enumerate lsds): the cells, the LSDs' size cap and the weights they print
# come first there, with the messages they gave before the caps were shared
SHARED_REFUSALS = [
    (["E", "--n", "2", "--vars", "446"], "lsds: weights have more than 100000 terms"),
    (["E", "--n", "10", "--vars", "10"], "lsds: weights have more than 100000 terms"),
    (["E", "--n", "31", "--vars", "4"], "lsd: size 31 exceeds cap 12"),
    (["S", "--n", "154"], "lsd: size 154 exceeds cap 12"),
    (["S", "--n", "2001"], "matrix: 2001x2001 has more than 4000000 cells"),
    (["C", "--n", "190", "--r", "3"], "lsd: size 190 exceeds cap 12"),
    (["C", "--n", "1531", "--r", "2"], "lsd: size 1531 exceeds cap 12"),
]


@pytest.mark.parametrize("family, message", SHARED_REFUSALS,
                         ids=[" ".join(family) for family, _ in SHARED_REFUSALS])
def test_enumerate_lsds_and_compute_det_refuse_alike(capsys, monkeypatch, family, message):
    def unreachable(*args):
        raise AssertionError("work before the cap")
    for name in ("build_C", "build_E", "build_S", "det_bareiss", "lsd_blocks"):
        monkeypatch.setattr(cli, name, unreachable)
    assert run(capsys, "compute", "det", "--family", *family)[:2] == (3, "")
    assert run(capsys, "enumerate", "lsds", "--family", *family) == (3, "", f"error: {message}\n")


def test_many_variables_print_within_memory():
    # one packed sort key per term, 200,000 bits wide, took 2 GB and more
    limit = 2 * 10**9
    proc = _detrec("compute", "h", "--k", "1", "--vars", "99999", timeout=120,
                   preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == (" + ".join(f"x{v}" for v in range(99999)) + "\n").encode()


def test_too_large_exit_code(capsys):
    code, _, _ = run(capsys, "enumerate", "tilings", "--n", "30", "--r", "2")
    assert code == 3


@pytest.mark.parametrize("argv", [
    ["compute", "h", "--k", "40", "--vars", "30"],
    ["compute", "h", "--k", "10", "--vars", "11"],  # 184,756 terms
    ["compute", "h", "--k", "1000000000", "--vars", "1000000000"],
    ["compute", "e", "--k", "15", "--vars", "30"],
    ["compute", "e", "--k", "100", "--vars", "10000"],
])
def test_symmetric_polynomial_term_cap(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert "more than 100000 terms" in err


def test_symmetric_polynomials_under_the_term_cap(capsys):
    # the largest h the benchmark's command lines compute, and e_k
    # for k above the variable count, which has no terms at all
    code, out, _ = run(capsys, "compute", "h", "--k", "10", "--vars", "5")
    assert code == 0 and out.count("+") == 1000
    code, out, _ = run(capsys, "compute", "e", "--k", "40", "--vars", "30")
    assert (code, out) == (0, "0\n")


def test_closed_pipe_exits_quietly():
    # The 0.6 MB of output outgrows the pipe buffer, so the writer is still
    # writing when the reader closes its end after the first line.
    proc = subprocess.Popen(
        [sys.executable, "-m", "detrec", "enumerate", "tilings", "--n", "20",
         "--r", "2", "--coeffs", "1,1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_child_env())
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    code = proc.wait(timeout=60)
    assert json.loads(first) == {"parts": [1] * 20}
    assert err == b""
    assert code == 0


def test_csv_format_for_verify(capsys):
    code, out, _ = run(capsys, "verify", "fib", "--n", "5", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("identity,params,lhs,rhs,passed")
    assert "fib" in lines[1]


def test_pretty_format_for_verify(capsys):
    code, out, _ = run(capsys, "verify", "racci", "--n", "4", "--r", "2",
                       "--format", "pretty")
    assert code == 0
    assert out.startswith("PASS racci")


def test_output_is_deterministic(capsys):
    args = ["enumerate", "lsds", "--family", "S", "--n", "5"]
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second

    def strip_elapsed(text):
        rows = [json.loads(line) for line in text.strip().split("\n")]
        for row in rows:
            row.pop("elapsed_ms", None)
        return rows

    _, first, _ = run(capsys, "verify", "all", "--max-n", "2", "--seed", "7")
    _, second, _ = run(capsys, "verify", "all", "--max-n", "2", "--seed", "7")
    assert strip_elapsed(first) == strip_elapsed(second)
