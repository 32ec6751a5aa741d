"""Command-line frontend: compute / enumerate / verify.

Values print in their canonical text serialization (integers are plain JSON
numbers, polynomials the graded-lex term string).  ``enumerate`` streams one
JSON object per item followed by a summary line; ``verify`` emits one
verification report in JSON per check.

Exit codes: 0 success or all checks passed, 1 verification failure, 2 usage
error, 3 size cap exceeded.  A reader that closes the pipe early (``| head``)
ends the run quietly with exit code 0.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

from .combi import (
    enumerate_circular_tilings,
    enumerate_cyclic_words,
    enumerate_increasing_words,
    enumerate_tilings,
    cyclic_word_weight,
    has_cyclic_occurrence,
    tiling_weight,
    word_weight,
)
from .detmat import build_A, build_C, build_F, build_G, build_S, det_bareiss
from .digraph import enumerate_lsds, from_matrix
from .errors import DimensionTooSmall, InvalidCycleType, NotDivisible, TooLarge
from .identities import (
    symbolic_coeffs,
    verify_all,
    verify_binet_fib,
    verify_binet_lucas,
    verify_fib,
    verify_hom_det,
    verify_lucas_symbolic,
    verify_mclaughlin,
    verify_racci,
    verify_recurrence_det,
    verify_sury,
    verify_two_var,
)
from .poly import MultiPoly, scalar_str
from .recurrence import eval_recurrence, fibonacci, lucas, racci
from .symfunc import build_E, elementary, homogeneous, schur


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part != ""]
    except ValueError as exc:
        raise ValueError(f"expected comma-separated integers, got {text!r}") from exc


def _need(args, flag: str):
    value = getattr(args, flag.strip("-").replace("-", "_"))
    if value is None:
        raise ValueError(f"{flag} is required here")
    return value


def _family_matrix(args):
    """Build the requested matrix family; returns (matrix, variable names)."""
    family = _need(args, "--family")
    n = _need(args, "--n")
    if family == "E":
        return build_E(n, _need(args, "--vars")), None
    if family == "C":
        if args.coeffs is not None:
            return build_C(_int_list(args.coeffs), n), None
        r = _need(args, "--r")
        return build_C(symbolic_coeffs(r), n), (lambda i: f"c{i + 1}")
    if family == "G":
        return build_G(n, _need(args, "--r")), None
    if family == "F":
        return build_F(n), None
    if family == "S":
        a, b = MultiPoly.var(0), MultiPoly.var(1)
        return build_S(a, b, n), ("a", "b")
    if family == "A":
        return build_A(n), None
    raise ValueError(f"unknown family {family!r}")


def _cmd_compute(args) -> int:
    if args.format == "csv":
        raise ValueError("csv output is only available for verify")
    names = None
    subject = args.subject
    if subject == "fib":
        value = fibonacci(_need(args, "--n"))
    elif subject == "lucas":
        value = lucas(_need(args, "--n"))
    elif subject == "racci":
        value = racci(_need(args, "--n"), _need(args, "--r"))
    elif subject == "recurrence":
        n = _need(args, "--n")
        if args.coeffs is not None:
            value = eval_recurrence(_int_list(args.coeffs), n)
        else:
            value = eval_recurrence(symbolic_coeffs(_need(args, "--r")), n)
            names = lambda i: f"c{i + 1}"
    elif subject == "e":
        value = elementary(_need(args, "--k"), _need(args, "--vars"))
    elif subject == "h":
        value = homogeneous(_need(args, "--k"), _need(args, "--vars"))
    elif subject == "schur":
        parts = _int_list(_need(args, "--parts"))
        value = schur(parts, _need(args, "--vars"))
    elif subject == "det":
        matrix, names = _family_matrix(args)
        if args.format == "pretty":
            print(matrix.pretty(names))
        value = det_bareiss(matrix)
    else:
        raise ValueError(f"unknown subject {subject!r}")
    print(scalar_str(value, names))
    return 0


def _emit(obj) -> None:
    print(json.dumps(obj))


def _cmd_enumerate(args) -> int:
    if args.format == "csv":
        raise ValueError("csv output is only available for verify")
    pretty = args.format == "pretty"
    subject = args.subject
    def emit(obj, text) -> None:
        if pretty:
            print(text)
        else:
            _emit(obj)

    if subject == "tilings":
        n, r = _need(args, "--n"), _need(args, "--r")
        coeffs = _int_list(args.coeffs) if args.coeffs is not None else symbolic_coeffs(r)
        names = None if args.coeffs is not None else (lambda i: f"c{i + 1}")
        total = 0
        items = enumerate_tilings(n, r)
        for tiling in items:
            total = total + tiling_weight(tiling, coeffs)
            emit({"parts": list(tiling)}, list(tiling))
        summary = {"count": len(items), "total_weight": scalar_str(total, names)}
    elif subject == "circular-tilings":
        n = _need(args, "--n")
        items = enumerate_circular_tilings(n)
        for tiling in items:
            tiles = [list(t) for t in tiling.tiles]
            emit({"tiles": tiles}, tiles)
        summary = {"count": len(items), "total_weight": str(len(items))}
    elif subject == "lsds":
        matrix, names = _family_matrix(args)
        items = enumerate_lsds(from_matrix(matrix))
        total = 0
        for lsd in items:
            total = total + lsd.signed_weight
            cycles = [[v + 1 for v in cyc] for cyc in lsd.cycles]
            weight = scalar_str(lsd.signed_weight, names)
            emit({"cycles": cycles, "signed_weight": weight}, f"{cycles} {weight}")
        summary = {"count": len(items), "total_weight": scalar_str(total, names)}
    elif subject == "words":
        n, n_vars = _need(args, "--n"), _need(args, "--vars")
        items = enumerate_increasing_words(n, n_vars)
        total = MultiPoly.zero()
        for word in items:
            total = total + word_weight(word)
            emit({"letters": list(word)}, list(word))
        summary = {"count": len(items), "total_weight": scalar_str(total)}
    elif subject == "cyclic-words":
        n = _need(args, "--n")
        items = enumerate_cyclic_words(n)
        if args.avoid is not None:
            items = [w for w in items if not has_cyclic_occurrence(w, args.avoid)]
        total = MultiPoly.zero()
        for word in items:
            total = total + cyclic_word_weight(word)
            emit({"word": word}, word)
        summary = {"count": len(items), "total_weight": scalar_str(total, ("a", "b"))}
    else:
        raise ValueError(f"unknown subject {subject!r}")
    if pretty:
        print(f"count={summary['count']} total_weight={summary['total_weight']}")
    else:
        _emit(summary)
    return 0


def _cmd_verify(args) -> int:
    identity = args.identity
    if identity == "all":
        reports = verify_all(args.max_n if args.max_n is not None else 6,
                             seed=args.seed)
    else:
        reports = [_single_verify(identity, args)]
    if args.format == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(["identity", "params", "lhs", "rhs", "passed", "elapsed_ms"])
        for rep in reports:
            writer.writerow([rep.identity, json.dumps(rep.params), rep.lhs,
                             rep.rhs, rep.passed, round(rep.elapsed_ms, 3)])
    elif args.format == "pretty":
        for rep in reports:
            mark = "PASS" if rep.passed else "FAIL"
            print(f"{mark} {rep.identity} {json.dumps(rep.params)} "
                  f"lhs={rep.lhs} rhs={rep.rhs}")
    else:
        for rep in reports:
            print(rep.to_json())
    return 0 if all(rep.passed for rep in reports) else 1


def _single_verify(identity: str, args):
    if identity == "hom-det":
        return verify_hom_det(_need(args, "--n"), _need(args, "--vars"))
    if identity == "sury":
        return verify_sury(_need(args, "--n"), _need(args, "--k"))
    if identity == "mclaughlin":
        return verify_mclaughlin(_need(args, "--n"))
    if identity == "two-var":
        return verify_two_var(_need(args, "--n"))
    if identity == "recurrence-det":
        n = _need(args, "--n")
        if args.coeffs is not None:
            return verify_recurrence_det(_int_list(args.coeffs), n)
        return verify_recurrence_det(symbolic_coeffs(_need(args, "--r")), n)
    if identity == "racci":
        return verify_racci(_need(args, "--n"), _need(args, "--r"))
    if identity == "fib":
        return verify_fib(_need(args, "--n"))
    if identity == "binet-fib":
        return verify_binet_fib(_need(args, "--n"))
    if identity == "binet-lucas":
        return verify_binet_lucas(_need(args, "--n"))
    if identity == "lucas-symbolic":
        return verify_lucas_symbolic(_need(args, "--n"))
    raise ValueError(f"unknown identity {identity!r}")


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=int, default=None)
    parser.add_argument("--r", type=int, default=None)
    parser.add_argument("--k", type=int, default=None)
    parser.add_argument("--vars", type=int, default=None)
    parser.add_argument("--coeffs", type=str, default=None,
                        help="comma-separated integer coefficients c1,c2,...")
    parser.add_argument("--parts", type=str, default=None,
                        help="comma-separated partition parts, e.g. 2,1")
    parser.add_argument("--family", choices=["E", "C", "G", "F", "S", "A"],
                        default=None)
    parser.add_argument("--a-symbolic", action="store_true",
                        help="keep a symbolic in the S family (the default)")
    parser.add_argument("--b-symbolic", action="store_true",
                        help="keep b symbolic in the S family (the default)")
    parser.add_argument("--avoid", type=str, default=None,
                        help="pattern cyclic words must avoid, e.g. ab")
    parser.add_argument("--max-n", type=int, default=None, dest="max_n")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--format", choices=["json", "csv", "pretty"],
                        default="json")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="detrec",
        description="exact determinant identities: compute, enumerate, verify")
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser("compute", help="compute one value")
    compute.add_argument("subject", choices=[
        "fib", "lucas", "racci", "recurrence", "e", "h", "schur", "det"])
    _add_common_flags(compute)
    compute.set_defaults(handler=_cmd_compute)

    enumerate_ = sub.add_parser("enumerate", help="stream combinatorial objects")
    enumerate_.add_argument("subject", choices=[
        "tilings", "circular-tilings", "lsds", "words", "cyclic-words"])
    _add_common_flags(enumerate_)
    enumerate_.set_defaults(handler=_cmd_enumerate)

    verify = sub.add_parser("verify", help="verify identities")
    verify.add_argument("identity", choices=[
        "hom-det", "sury", "mclaughlin", "two-var", "recurrence-det",
        "racci", "fib", "binet-fib", "binet-lucas", "lucas-symbolic", "all"])
    _add_common_flags(verify)
    verify.set_defaults(handler=_cmd_verify)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return code
    except BrokenPipeError:
        # The reader stopped early (``detrec ... | head``), which is not an
        # error.  Point the stdout fd at devnull so that the flush of the
        # remaining buffer at interpreter exit stays silent too.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except TooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (DimensionTooSmall, InvalidCycleType, NotDivisible, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
