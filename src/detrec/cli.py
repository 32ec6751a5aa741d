"""Command-line frontend: compute / enumerate / verify.

Values print in their canonical text serialization (integers are plain JSON
numbers, polynomials the graded-lex term string).  ``enumerate`` streams one
JSON object per item followed by a summary line, handing stdout exactly
``CHUNK_LINES`` lines per write but the last, which holds the rest and the
summary.  One writer takes every subject's objects as blocks of lines and
keys and reads their lines as one stream, cut into writes: a tiling
subject's blocks are ``combi``'s ``(head, rests)`` blocks, whose row of
rests is formatted once per row and joined to each head's prefix, and a
block's one key is its head's multiset of parts and its row, whose weight
is the head's weight times the row's weight sum, each row summed once;
``lsds`` gives ``digraph.lsd_blocks``' blocks, one per
first cycle, whose rows hold each LSD of a rest as its text, built once
per vertex set from the texts of the rests' rows, beside the counts of
their keys; ``words`` and ``cyclic-words`` give one block per
``CHUNK_LINES`` objects.  It counts the objects by the key their weight
depends on as it reaches each block, so it keeps no list of its own, and
the total weight costs one weight per key.  An LSD's key is its multiset
of cycle weights, whose one weight object ``lsd_blocks`` gives and whose
weight text is built once; each weakly increasing word is its own
multiset, so a block of words is keyed by its weight sum.  ``verify``
emits one verification report in JSON per check.  ``SUBJECTS`` names
each command's subjects and the flags each one reads, and a command line
is parsed by its subject's own parser, built when first needed, which
takes exactly those, so a flag a subject does not read is a usage error;
the ``verify`` rows come from the registry ``identities.IDENTITIES``.
Flags go after the subject, and a flag put before the command or the
subject is a usage error that names the flag.

Size caps (see ``caps``) are checked before any work or output, by one
guard per computation that every path running it shares.  ``verify``
checks the identity's argument bounds on the flag values before it builds
any argument.  ``compute det`` and ``enumerate lsds`` build their matrix
through ``_family_matrix``, which first refuses a flag the family does not
read, then holds the matrix to ``caps.MAX_CELLS`` entries and its
determinant as the family's other route is held; every integer
recurrence value is held by ``caps.check_iteration``.  Symbolic ``--r``
coefficients are built only as far as the result reads.

Exit codes: 0 success or all checks passed, 1 verification failure, 2 usage
error, 3 size cap exceeded.  A reader that closes the pipe early (``| head``)
ends the run quietly with exit code 0.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from collections import Counter
from itertools import chain, islice, repeat

from .caps import (MAX_DIGITS, MAX_RECURRENCE_WORK, check_cap, check_cells, check_det_E,
                   check_det_S, check_digits, check_iteration, check_lsds_E, check_recurrence)
from .combi import (
    circular_tiling_blocks,
    counted_sum,
    cyclic_word_weight,
    enumerate_cyclic_words,
    enumerate_increasing_words,
    tiling_blocks,
    tiling_parts,
    tiling_weight,
    word_weight,
)
from .detmat import build_A, build_C, build_F, build_G, build_S, det_bareiss
from .digraph import lsd_blocks
from .errors import NotDivisible, TooLarge
from .identities import IDENTITIES, coeff_name, symbolic_coeffs, verify_all
from .poly import MultiPoly, scalar_str, scalar_sum
from .recurrence import eval_recurrence, fibonacci, lucas, racci
from .symfunc import build_E, elementary, homogeneous, schur


def _int_list(text: str) -> list[int]:
    parts = text.split(",") if text else []
    try:
        return [int(part) for part in parts]
    except ValueError:
        # int() refuses a field of over MAX_DIGITS digits as it refuses "x"
        too_long = max(map(len, parts)) > MAX_DIGITS
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers of at most {MAX_DIGITS} digits" if too_long
            else f"expected comma-separated integers, got {text!r}") from None


def _need(args, flag: str):
    """The value of ``flag``, which only some of its subject's families or forms read.

    ``flag`` may name alternatives, as in ``"--coeffs or --r"``: the value
    read is the last one's, once the others are found absent."""
    value = getattr(args, flag.rpartition("--")[2])
    if value is None:
        raise ValueError(f"{flag} is required here")
    return value


def _coeff_count(args) -> int:
    """The coefficient list's length: ``--coeffs``', else ``--r``; below 1 it is refused."""
    count = len(args.coeffs) if args.coeffs is not None else _need(args, "--coeffs or --r")
    if count < 1:
        raise ValueError("need at least one coefficient")
    return count


def _coeffs(args, n: int | None = None):
    """``--coeffs`` as integers, else symbolic ``c1..`` for ``--r``; with their names.

    Given ``n``, only the coefficients a size-``n`` result reads are kept."""
    r = _coeff_count(args)
    if args.coeffs is not None:
        return args.coeffs if n is None else args.coeffs[:max(n, 1)], None
    return symbolic_coeffs(r if n is None else min(r, max(n, 1))), coeff_name


def _recurrence_coeffs(args, n: int, work: int = MAX_RECURRENCE_WORK, iterated: bool = False):
    """``_coeffs(args, n)`` after ``u_n``'s caps: ``work`` if symbolic, else ``check_iteration``.

    An ``iterated`` caller runs ``eval_recurrence``, whose own guard holds
    integer coefficients to ``check_iteration``, so it is not run here too."""
    if args.coeffs is None:
        check_recurrence(n, _need(args, "--coeffs or --r"), work)
    coeffs, names = _coeffs(args, n)
    if names is None and not iterated:
        check_iteration(n, coeffs)
    return coeffs, names


def _family_matrix(args, lsds: bool = False):
    """Build the requested matrix family; returns (matrix, variable names).

    A flag the family does not read (``_FAMILY_FLAGS``) is a usage error,
    refused first.  Before it is built, the matrix is held to
    ``caps.MAX_CELLS`` entries, then, for ``lsds``, to the LSD enumeration's
    caps, and its determinant to the caps of the family's other route:
    ``E`` is ``h_n``, symbolic ``C`` the recurrence value ``u_n`` and ``S``
    the symbolic ``2(a**n + b**n)``, each held with its elimination work.
    Integer ``C``, ``G`` and ``F`` are recurrence values, and half the
    determinant of ``A`` is the Lucas number, held as ``compute lucas`` is.
    """
    family, n = args.family, args.n
    unread = [flag for flag in ("--vars", "--r", "--coeffs")
              if flag not in _FAMILY_FLAGS.get(family, ()) and getattr(args, flag[2:]) is not None]
    if unread:
        args.parser.error(f"family {family} does not read {' '.join(unread)}")
    check_cells(n)
    if lsds:
        check_cap("lsd", n)
        if family == "E":  # each LSD prints a weight of up to h_n's terms
            check_lsds_E(n, _need(args, "--vars"))
    if family == "E":
        check_det_E(n, _need(args, "--vars"))
        return build_E(n, args.vars), None
    if family == "S":
        check_det_S(n)
        return build_S(MultiPoly.var(0), MultiPoly.var(1), n), ("a", "b")
    if family == "C":
        # elimination also copies and subtracts each pivot-row entry it
        # multiplies, about twice the iteration's work
        coeffs, names = _recurrence_coeffs(args, n, MAX_RECURRENCE_WORK // 2)
        return build_C(coeffs, n), names
    if family == "G":
        check_iteration(n, repeat(1, _need(args, "--r")))
        return build_G(n, args.r), None
    check_iteration(n, (1, 1))  # F is G with r = 2, and A's Lucas numbers grow as fast
    return (build_F(n) if family == "F" else build_A(n)), None


def _cmd_compute(args) -> int:
    names = None
    subject = args.subject
    # integer recurrence values are held to caps.MAX_DIGITS and their
    # iteration to caps.MAX_RECURRENCE_STEPS by check_iteration before any
    # work, and by check_digits once computed; fibonacci and lucas hold
    # their own values to both, and racci and eval_recurrence their iteration
    if subject in ("fib", "lucas"):
        value = fibonacci(args.n) if subject == "fib" else lucas(args.n)
    elif subject == "racci":
        value = racci(args.n, args.r)
    elif subject == "recurrence":
        coeffs, names = _recurrence_coeffs(args, args.n, iterated=True)
        value = eval_recurrence(coeffs, args.n)
    elif subject == "e":
        value = elementary(args.k, args.vars)
    elif subject == "h":
        value = homogeneous(args.k, args.vars)
    elif subject == "schur":
        value = schur(args.parts, args.vars)
    else:  # det
        matrix, names = _family_matrix(args)
        if args.format == "pretty":
            print(matrix.pretty(names))
        value = det_bareiss(matrix)
    if isinstance(value, int):
        check_digits(value)
    print(scalar_str(value, names))
    return 0


# ``enumerate`` hands its output to ``sys.stdout.write`` this many lines at a
# time, the last write fewer: one call per line costs more than formatting the
# line does, and a bounded write keeps one write's text small.
CHUNK_LINES = 512

# an object's JSON line is its pretty line between these two texts; a word
# over {a, b} needs no JSON escaping, and an LSD's signed weight text is
# escaped where it is built
_JSON_WRAP = {"tilings": ('{"parts": ', "}"), "circular-tilings": ('{"tiles": ', "}"),
              "lsds": ('{"cycles": ', "}"), "words": ('{"letters": ', "}"),
              "cyclic-words": ('{"word": "', '"}')}


def _int_list_texts(chunk):
    """``str(list(item))`` of each item: the repr of a list of ints is its ``json.dumps``."""
    return map(str, map(list, chunk))


def _chunk_blocks(objects, texts, keys, before: str, after: str):
    """``objects`` as ``enumerate`` blocks of ``CHUNK_LINES`` objects, the last one shorter.

    ``texts`` maps a chunk of objects to their texts, each line one text
    between ``before`` and ``after``, and ``keys`` maps it to its keys.
    """
    objects = iter(objects)
    while chunk := list(islice(objects, CHUNK_LINES)):
        yield [before + text + after for text in texts(chunk)], keys(chunk)


def _head_blocks(blocks, item_text, parts, part_weight, before: str, after: str):
    """``(head, rests)`` tiling blocks (``combi.tiling_blocks``) as ``enumerate`` blocks and weight.

    A tiling's text is ``str(list(head + rest))`` with each tile printed by
    ``item_text``, and its weight ``part_weight`` of the
    ``combi.tiling_parts`` of its tiles' ``parts``.  Each row of rests,
    one list object shared by the heads that cover the same cells, gets
    its suffix texts built once, so a block's lines are its head's prefix
    text joined to each suffix.  A block's one key is its head's sorted
    parts and its row: its tilings weigh the head's weight times the row's
    weight sum, and each row is summed once, by ``combi.counted_sum``.
    Returns the blocks, lazily, and the weight of a key.
    """
    rows = {}  # id of a row of rests -> its suffix texts and the row

    def lines():
        for head, rests in blocks:
            row = rows.get(id(rests))
            if row is None:
                row = rows[id(rests)] = (
                    ["".join([", " + item_text(tile) for tile in rest]) + "]" + after
                     for rest in rests], rests)
            # the suffixes start with ", ", which is right because a head is
            # empty only on an empty board, whose one rest is empty too
            prefix = before + "[" + ", ".join(map(item_text, head))
            yield [prefix + suffix for suffix in row[0]], [(tuple(sorted(parts(head))), id(rests))]

    @functools.cache
    def row_sum(row: int):
        return counted_sum(Counter(tiling_parts(map(parts, rows[row][1]))), part_weight)

    return lines(), lambda key: part_weight(key[0]) * row_sum(key[1])


def _cycle_blocks(blocks, cycle_text, tail, before: str):
    """``(cycle, rests, unit)`` LSD blocks (``digraph.lsd_blocks``) as ``enumerate`` blocks.

    An LSD's text is the list of its cycles, each printed by
    ``cycle_text``, then ``tail`` of its key, the text of its signed
    weight; its key is that of its multiset of cycle weights.  The rows
    hold each LSD of a rest as its suffix text beside its key and count
    their keys, so a block's lines are its cycle's prefix text joined to
    each suffix and tail, and its keys are the row's counts, each key
    plus the block's ``unit``.
    """
    for cycle, (suffixes, keys, counts), unit in blocks:
        prefix = before + "[" + cycle_text(cycle)
        yield ([prefix + suffix + tail(unit + key) for suffix, key in zip(suffixes, keys)],
               {unit + key: count for key, count in counts.items()})


def _cmd_enumerate(args) -> int:
    pretty = args.format == "pretty"
    subject = args.subject
    names = None
    before, after = ("", "") if pretty else _JSON_WRAP[subject]
    # Each branch sets ``blocks``, the objects in order as ``(lines, keys)``
    # pairs: a block's output lines, one per object, and the keys its
    # objects' weights depend on, as keys or as a mapping of keys to
    # counts; and ``weight``, the weight of one key.  A tiling subject
    # gives one block per head, ``lsds`` one per first cycle, and the others
    # one per ``CHUNK_LINES`` objects.
    # The blocks are counted by key as the writer reaches them, and the
    # total weight is one ``counted_sum`` over the keys.
    if subject == "tilings":
        n, r = args.n, args.r
        tilings = tiling_blocks(n, r)  # its cap comes before any coefficient is built
        coeffs, names = _recurrence_coeffs(args, n)  # the total weight is u_n
        if min(n, r) > len(coeffs):
            # the first tiling with a part past the coefficients, found up front
            raise ValueError(f"tile length {len(coeffs) + 1} outside 1..{len(coeffs)}")
        blocks, weight = _head_blocks(tilings, str, tuple,
                                      functools.partial(tiling_weight, coeffs=coeffs),
                                      before, after)
    elif subject == "circular-tilings":
        tilings = circular_tiling_blocks(args.n)
        pair_text = functools.cache(lambda pair: str(list(pair)))  # the tilings share their pairs
        # every circular tiling weighs 1, so all share the parts ()
        blocks, weight = _head_blocks(tilings, pair_text, lambda tiles: (), lambda parts: 1,
                                      before, after)
    elif subject == "lsds":
        matrix, names = _family_matrix(args, lsds=True)
        # a cycle prints with 1-based vertices
        cycle_text = lambda cycle: str([v + 1 for v in cycle])
        between = " " if pretty else ', "signed_weight": '
        # the rows hold each LSD of a rest as its suffix text: each cycle
        # after a comma, then the list's close; the vertex sets share cycles
        item = functools.cache(lambda cycle: ", " + cycle_text(cycle))
        lsds, weights = lsd_blocks(matrix, item, "]")

        @functools.cache
        def tail(key) -> str:  # the LSDs of a multiset share its weight, printed once
            text = scalar_str(weights[key], names)
            return between + (text if pretty else json.dumps(text)) + after

        blocks = _cycle_blocks(lsds, cycle_text, tail, before)
        weight = weights.__getitem__
    elif subject == "words":
        # each weakly increasing word is its own multiset, so a block's key is
        # its words' weight sum, and no word outlives its block
        blocks = _chunk_blocks(enumerate_increasing_words(args.n, args.vars), _int_list_texts,
                               lambda chunk: [scalar_sum(map(word_weight, chunk))], before, after)
        weight = lambda total: total
    else:  # cyclic-words
        n, names = args.n, ("a", "b")
        blocks = _chunk_blocks(enumerate_cyclic_words(n, args.avoid), lambda chunk: chunk,
                               lambda chunk: [word.count("a") for word in chunk], before, after)
        weight = lambda k: cyclic_word_weight("a" * k + "b" * (n - k))

    counts = Counter()

    def counted():
        for block, keys in blocks:
            counts.update(keys)
            yield block

    # every write but the last takes exactly CHUNK_LINES lines
    lines = chain.from_iterable(counted())
    count = 0
    while len(chunk := list(islice(lines, CHUNK_LINES))) == CHUNK_LINES:
        chunk.append("")  # a newline after the last line
        sys.stdout.write("\n".join(chunk))
        count += CHUNK_LINES
    # the summary goes with the last write
    count += len(chunk)
    total = scalar_str(counted_sum(counts, weight), names)
    chunk.append(f"count={count} total_weight={total}" if pretty
                 else json.dumps({"count": count, "total_weight": total}))
    chunk.append("")
    sys.stdout.write("\n".join(chunk))
    return 0


def _cmd_verify(args) -> int:
    if args.subject == "all":
        reports = verify_all(args.max_n, args.seed)
    else:
        # the bounds hold the flag values before any argument is built; a
        # coefficient list's value is its length, --r when symbolic
        entry = IDENTITIES[args.subject]
        flags = {a.name: _coeff_count(args) if a.flag == "--coeffs"
                 else getattr(args, a.flag[2:]) for a in entry.args}
        entry.check(flags)
        reports = [entry.verify(*(_coeffs(args)[0] if a.flag == "--coeffs" else flags[a.name]
                                  for a in entry.args))]
    if args.format == "csv":
        import csv  # only this format reads it, so no other run loads it

        writer = csv.writer(sys.stdout)
        writer.writerow(["identity", "params", "lhs", "rhs", "passed", "elapsed_ms"])
        writer.writerows([rep.identity, json.dumps(rep.params), rep.lhs, rep.rhs,
                          rep.passed, round(rep.elapsed_ms, 3)] for rep in reports)
    elif args.format == "pretty":
        for rep in reports:
            mark = "PASS" if rep.passed else "FAIL"
            print(f"{mark} {rep.identity} {json.dumps(rep.params)} "
                  f"lhs={rep.lhs} rhs={rep.rhs}")
    else:
        for rep in reports:
            print(rep.to_json())
    return 0 if all(rep.passed for rep in reports) else 1


# add_argument keywords of each flag
_FLAGS = {
    "--n": {"type": int}, "--r": {"type": int}, "--k": {"type": int}, "--vars": {"type": int},
    "--coeffs": {"type": _int_list, "help": "comma-separated integer coefficients c1,c2,..."},
    "--parts": {"type": _int_list, "help": "comma-separated partition parts, e.g. 2,1"},
    "--family": {"choices": ["E", "C", "G", "F", "S", "A"]},
    "--avoid": {"help": "pattern cyclic words must avoid, e.g. ab"},
    "--max-n": {"type": int, "default": 6},
    "--seed": {"type": int, "default": 0},
}

# Each command's subjects and the flags each one reads, besides --format: a
# flag ending in "?" is optional, and the others are required.  A matrix
# family reads the flags _FAMILY_FLAGS gives it besides --family and --n; a
# coefficient list is --coeffs, else symbolic of length --r.
_MATRIX = "--family --n --vars? --r? --coeffs?"
_FAMILY_FLAGS = {"E": ("--vars",), "C": ("--coeffs", "--r"), "G": ("--r",)}
SUBJECTS = {
    "compute": {"fib": "--n", "lucas": "--n", "racci": "--n --r",
                "recurrence": "--n --r? --coeffs?", "e": "--k --vars", "h": "--k --vars",
                "schur": "--parts --vars", "det": _MATRIX},
    "enumerate": {"tilings": "--n --r --coeffs?", "circular-tilings": "--n", "lsds": _MATRIX,
                  "words": "--n --vars", "cyclic-words": "--n --avoid?"},
    "verify": {**{name: " ".join("--coeffs? --r?" if a.flag == "--coeffs" else a.flag
                                 for a in entry.args) for name, entry in IDENTITIES.items()},
               "all": "--max-n? --seed?"},
}


def _pick(prog: str, names, argv: list[str], what: str, description: str | None = None) -> str:
    """``argv[0]``, the ``what`` (command or subject) that follows ``prog``, if it is in ``names``.

    Otherwise a parser of that one name prints the help, or refuses a
    missing name, an unknown one or a flag put before the name, and exits.
    Left to argparse, ``detrec compute --n 10 fib`` would take ``10`` for
    the subject and report that as an invalid choice.
    """
    if argv and argv[0] in names:
        return argv[0]
    parser = argparse.ArgumentParser(prog=prog, description=description)
    parser.add_argument(what, choices=names, help=f"see '{prog} {what.upper()} -h'")
    if argv and argv[0].startswith("-") and argv[0] not in ("-h", "--help"):
        flag = argv[0].split("=")[0]
        parser.error(f"{flag} comes before the {what}: flags go after it, "
                     f"as in '{prog} {what.upper()} {flag} ...'")
    parser.parse_args(argv[:1])  # exits, as argv[0] is no name


@functools.cache
def _subject_parser(command: str, subject: str) -> argparse.ArgumentParser:
    """The parser of ``detrec COMMAND SUBJECT``: the flags the subject reads, and ``--format``."""
    parser = argparse.ArgumentParser(prog=f"detrec {command} {subject}")
    parser.set_defaults(command=command, subject=subject, parser=parser)
    for flag in SUBJECTS[command][subject].split():
        name = flag.rstrip("?")
        parser.add_argument(name, required=not flag.endswith("?"), **_FLAGS[name])
    formats = ["json", "csv", "pretty"] if command == "verify" else ["json", "pretty"]
    parser.add_argument("--format", choices=formats, default="json")
    return parser


_COMMANDS = {"compute": _cmd_compute, "enumerate": _cmd_enumerate, "verify": _cmd_verify}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    command = _pick("detrec", _COMMANDS, argv, "command",
                    "exact determinant identities: compute, enumerate, verify")
    subject = _pick(f"detrec {command}", SUBJECTS[command], argv[1:], "subject")
    args = _subject_parser(command, subject).parse_args(argv[2:])
    try:
        code = _COMMANDS[command](args)
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
    except (NotDivisible, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
