"""Seeded op lists for the four benchmark workloads.

Each generator turns a seed into one *round*: a list of JSON-able op specs
that the harness runs in order, again and again, for the length of a run.
Every round of a run is the same list, so a run's op mix does not depend on
where the clock stops.

The seed draws values, never sizes.  Sizes sit on fixed ladders, and the
seed draws what leaves the cost unchanged: coefficient values and signs,
polynomial multipliers, Fibonacci and Binet indices, which of two
mirror-image patterns a word must avoid, and the op order.  This keeps the end-to-end figures of two
seeds within a few percent of each other while the inputs, and the
canonical outputs the oracles check, differ.

Only the standard library is used here, so this module defines the inputs
without depending on the program it feeds.
"""

from __future__ import annotations

import json
import random

WORKLOADS = ("sweep", "symbolic-det", "numeric-det", "cli-enumerate")

#: ``detrec verify all --max-n 30``: the grid the ``sweep`` workload runs.
SWEEP_MAX_N = 30

#: the enumerators whose output size the traced run counts
ENUMERATORS = ("combi.enumerate_tilings", "combi.enumerate_circular_tilings",
               "combi.enumerate_increasing_words", "combi.enumerate_cyclic_words",
               "digraph.enumerate_lsds")

#: identity -> its verifier in ``detrec.identities``
VERIFIERS = {
    "hom-det": "verify_hom_det", "sury": "verify_sury",
    "mclaughlin": "verify_mclaughlin", "two-var": "verify_two_var",
    "recurrence-det": "verify_recurrence_det", "racci": "verify_racci",
    "fib": "verify_fib", "binet-fib": "verify_binet_fib",
    "binet-lucas": "verify_binet_lucas", "lucas-symbolic": "verify_lucas_symbolic",
}


def round_ops(workload: str, seed: int) -> list[dict]:
    """The op list of one round of ``workload`` for ``seed``."""
    if workload == "sweep":
        return sweep_ops(seed)
    rng = random.Random(f"{workload}/{seed}")
    if workload == "symbolic-det":
        ops = _symbolic_ops(rng)
    elif workload == "numeric-det":
        ops = _numeric_ops(rng)
    elif workload == "cli-enumerate":
        ops = _cli_ops(rng)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(ops)
    return ops


def op_key(op: dict) -> str:
    """Stable text identity of an op, used to cache oracle answers."""
    return json.dumps(op, sort_keys=True)


# -- sweep ------------------------------------------------------------------

def sweep_ops(seed: int, max_n: int = SWEEP_MAX_N) -> list[dict]:
    """The ``verify all --max-n max_n --seed seed`` grid as verify ops.

    This restates the grid of ``detrec.identities.verify_all``, including
    its draw of ten integer coefficient vectors from ``random.Random(seed)``.
    The self-test compares it with what ``detrec verify all`` reports, so the
    two copies cannot drift apart silently.
    """

    def up_to(limit: int) -> range:
        return range(1, min(limit, max_n) + 1)

    grid: list[tuple[str, dict]] = []
    grid += [("hom-det", {"m": m, "vars": v}) for m in up_to(6) for v in up_to(4)]
    grid += [("sury", {"n": n, "k": k})
             for n in up_to(8) for k in range(2, min(4, max_n) + 1)]
    grid += [("mclaughlin", {"n": n}) for n in up_to(8)]
    grid += [("two-var", {"n": n}) for n in up_to(12)]
    grid += [("recurrence-det", {"coeffs": "symbolic", "r": r, "n": n})
             for r in up_to(3) for n in up_to(8)]
    rng = random.Random(seed)
    for _ in range(10):
        r = rng.randint(1, min(4, max_n))
        n = rng.randint(1, min(10, max_n))
        coeffs = [rng.randint(-5, 5) for _ in range(r)]
        grid.append(("recurrence-det", {"coeffs": coeffs, "r": r, "n": n}))
    grid += [("racci", {"n": n, "r": r}) for n in up_to(10) for r in up_to(4)]
    grid += [("fib", {"n": n}) for n in up_to(12)]
    grid += [("binet-fib", {"n": n}) for n in range(0, min(30, max_n) + 1)]
    grid += [("binet-lucas", {"n": n}) for n in range(3, min(30, max_n) + 1)]
    grid += [("lucas-symbolic", {"n": n}) for n in range(3, min(8, max_n) + 1)]
    grid.sort(key=lambda item: (item[0], json.dumps(item[1], sort_keys=True)))
    return [{"kind": "verify", "identity": ident, "params": params}
            for ident, params in grid]


# -- symbolic-det -------------------------------------------------------------

# Matrix sizes.  Cofactor expansion is capped at n <= 8 and LSD expansion at
# n <= 12 by the program, so each matrix runs every route its size admits.
E_LADDER = [(3, 3), (4, 3), (4, 4), (5, 3), (5, 4), (6, 3), (6, 4), (7, 3)]
C_SYMBOLIC_LADDER = [(2, 6), (3, 6), (4, 6), (2, 8), (3, 8), (4, 8), (2, 10),
                     (3, 10), (2, 12)]
S_LADDER = [3, 4, 5, 6, 7, 8, 9, 10, 11, 12]
COFACTOR_MAX_N = 8
LSD_MAX_N = 12


def _multiplier(rng: random.Random) -> int:
    return rng.choice((-2, -1, 1, 2))


def _routes(n: int) -> list[str]:
    routes = ["det_bareiss"]
    if n <= COFACTOR_MAX_N:
        routes.append("det_cofactor")
    if n <= LSD_MAX_N:
        routes.append("det_via_lsd")
    return routes


def _partitions(total: int, max_parts: int, largest: int | None = None):
    """Partitions of ``total`` into at most ``max_parts`` parts, descending."""
    if total == 0:
        yield ()
        return
    if max_parts == 0:
        return
    top = total if largest is None else min(largest, total)
    for part in range(top, 0, -1):
        for rest in _partitions(total - part, max_parts - 1, part):
            yield (part,) + rest


# Schur shapes are fixed, not seeded: their cost varies too much by shape.
# Every shape of 2 to 4 parts and size 3..6 in 4 variables, the smaller ones
# also in 3 variables, and two of size 7.
SCHUR_LADDER = ([(p, 3) for size in (3, 4) for p in _partitions(size, 3) if len(p) >= 2]
                + [(p, 4) for size in range(3, 7) for p in _partitions(size, 4)
                   if len(p) >= 2]
                + [((4, 2, 1), 4), ((3, 2, 1, 1), 4)])


def _symbolic_ops(rng: random.Random) -> list[dict]:
    matrices: list[tuple[dict, int]] = []
    matrices += [({"family": "E", "m": m, "vars": v}, m) for m, v in E_LADDER]
    # symbolic coefficients c_t = k_t * x_{t-1}, with seeded multipliers k_t
    matrices += [({"family": "Csym", "mult": [_multiplier(rng) for _ in range(r)],
                   "n": n}, n) for r, n in C_SYMBOLIC_LADDER]
    # symbolic a = k_a * x0 and b = k_b * x1
    matrices += [({"family": "S", "a": _multiplier(rng), "b": _multiplier(rng),
                   "n": n}, n) for n in S_LADDER]
    ops = [{"kind": "det", "route": route, "matrix": spec}
           for spec, n in matrices for route in _routes(n)]
    return ops + [{"kind": "schur", "parts": list(parts), "vars": n_vars}
                  for parts, n_vars in SCHUR_LADDER]


# -- numeric-det ----------------------------------------------------------------

G_LADDER = [16, 32, 48, 64, 80]
C_INT_LADDER = [(1, 8), (1, 16), (2, 24), (3, 32), (4, 40), (2, 48), (3, 56), (4, 64)]
A_LADDER = [5, 8, 11, 14, 17]
A_LSD_LADDER = list(range(3, 13))
# Binet indices: each slot draws from [base, 1.1 * base)
BINET_BASES = [100 * 2 ** (k / 6) for k in range(40)]


def _nonzero_coeff(rng: random.Random) -> int:
    return rng.choice([c for c in range(-5, 6) if c])


def _numeric_ops(rng: random.Random) -> list[dict]:
    ops = [{"kind": "det", "route": "det_bareiss",
            "matrix": {"family": "G", "n": n, "r": rng.randint(2, 4)}}
           for n in G_LADDER]
    # nonzero coefficients keep the band, and with it the cost, fixed
    ops += [{"kind": "det", "route": "det_bareiss",
             "matrix": {"family": "C", "coeffs": [_nonzero_coeff(rng) for _ in range(r)],
                        "n": n}} for r, n in C_INT_LADDER]
    ops += [{"kind": "det", "route": "det_bareiss", "matrix": {"family": "A", "n": n}}
            for n in A_LADDER]
    ops += [{"kind": "det", "route": "det_via_lsd", "matrix": {"family": "A", "n": n}}
            for n in A_LSD_LADDER]
    for kind in ("binet_fib", "binet_lucas"):
        ops += [{"kind": kind, "n": rng.randrange(int(base), int(1.1 * base))}
                for base in BINET_BASES]
    return ops


# -- cli-enumerate ----------------------------------------------------------------

def _cli(cmd: str, subject: str, **args) -> dict:
    argv = [cmd, subject]
    for name, value in args.items():
        flag = "--" + name
        if isinstance(value, list):
            value = ",".join(str(v) for v in value)
        argv.append(f"{flag}={value}")  # "=" keeps a leading minus a value
    return {"kind": "cli", "cmd": cmd, "subject": subject, "args": args, "argv": argv}


def _cli_ops(rng: random.Random) -> list[dict]:
    """Command lines for the enumerators at scale, and polynomial values.

    Most ops are ``enumerate``: one JSON line per object, and for all but
    circular tilings a running sum of the objects' weights, a growing
    ``MultiPoly`` wherever the weights are symbolic.  The ``compute`` ops
    print one large polynomial each.  The seed draws the integer
    coefficients (nonzero, so the objects and their count stay fixed), which
    of two mirror-image patterns a cyclic word avoids, and the op order.
    """
    def coeffs(r: int) -> list[int]:
        return [_nonzero_coeff(rng) for _ in range(r)]

    ops = [_cli("enumerate", "tilings", n=n, r=r) for r in (2, 3, 4) for n in (8, 10, 12)]
    ops += [_cli("enumerate", "tilings", n=n, r=r, coeffs=coeffs(r))
            for r in (2, 3, 4) for n in (10, 12, 14)]
    ops += [_cli("enumerate", "circular-tilings", n=n) for n in (8, 10, 12, 14, 16)]
    ops += [_cli("enumerate", "lsds", family="C", n=n, r=r)
            for r in (2, 3, 4) for n in (5, 7, 9, 11)]
    ops += [_cli("enumerate", "lsds", family="C", n=n, coeffs=coeffs(r))
            for r in (2, 3, 4) for n in (6, 8, 10)]
    ops += [_cli("enumerate", "lsds", family="G", n=n, r=3) for n in (7, 9, 11)]
    ops += [_cli("enumerate", "lsds", family="F", n=n) for n in (8, 12)]
    ops += [_cli("enumerate", "words", n=n, vars=v) for n, v in
            ((4, 3), (6, 3), (6, 4), (8, 3), (10, 3), (8, 4), (10, 4), (12, 3), (12, 4))]
    ops += [_cli("enumerate", "cyclic-words", n=n) for n in (6, 8, 10, 12)]
    ops += [_cli("enumerate", "cyclic-words", n=n, avoid=rng.choice(["aa", "bb"]))
            for n in (10, 12, 14, 16)]
    ops += [_cli("enumerate", "cyclic-words", n=n, avoid=rng.choice(["ab", "ba"]))
            for n in (10, 12, 14, 16)]
    ops += [_cli("compute", "h", k=k, vars=v) for k, v in
            ((5, 3), (8, 3), (11, 3), (6, 4), (8, 4), (10, 4), (12, 4), (7, 5), (9, 5),
             (10, 5))]
    ops += [_cli("compute", "recurrence", r=r, n=n) for r in (2, 3, 4) for n in (14, 18, 22)]
    ops += [_cli("compute", "schur", parts=list(p), vars=v) for p, v in
            (((2, 1), 3), ((3, 1), 3), ((2, 2), 3), ((2, 2, 1), 3), ((3, 2), 4),
             ((3, 2, 1), 4))]
    ops += [_cli("compute", "det", family="S", n=n) for n in (6, 8, 10)]
    ops += [_cli("compute", "det", family="E", n=n, vars=3) for n in (4, 5)]
    return ops
