"""The identity registry: bounds, caps and the sweep, each declared once, in its entry."""

import hashlib
import re

import pytest

from detrec.cli import main
from detrec.digraph import cycle_types
from detrec.identities import IDENTITIES, verify_all


def run(capsys, argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _strip_elapsed(fmt: str, out: str) -> str:
    """The output without its ``elapsed_ms`` values, the only timing in it."""
    if fmt == "json":
        return re.sub(r', "elapsed_ms": [^}]*', "", out)
    if fmt == "csv":  # elapsed_ms is the last column
        return "".join(line.rsplit(",", 1)[0] + "\n" for line in out.splitlines())
    return out


# sha256 of `detrec verify all --max-n 30 --seed S --format F` without its
# elapsed_ms values, recorded before the identities moved into the registry
SWEEP_SHA256 = {
    (0, "json"): "07dc300bf5a378dc20b0b8fd824a9b618ac2bb72d2cd61f25c3a28257233a968",
    (0, "csv"): "760e0281fd7d91d533a1c0037fcb5d541d8ffcda5fcb70b8c5ff381f5e6adec6",
    (0, "pretty"): "2992f86bb5c3fed8ccf83e0a20569634911adc484ef363ceb6f9fce0ef2e7800",
    (5, "json"): "c81bb2dfbcec908503a8843d84055a0aa78e761fb105016ef88430b276cff9aa",
    (5, "csv"): "8134f1186afec8756a6d0dca1774990f9640e5b0bcb875212f5097b476955f9f",
    (5, "pretty"): "8f5cea41b6cf2cdb3bad62e18e137077357d82affd88ee069db6c9be40ce854f",
}


@pytest.mark.parametrize("seed, fmt", sorted(SWEEP_SHA256))
def test_sweep_output_is_unchanged(capsys, seed, fmt):
    code, out, _ = run(capsys, ["verify", "all", "--max-n", "30", "--seed", str(seed),
                                "--format", fmt])
    assert code == 0
    digest = hashlib.sha256(_strip_elapsed(fmt, out).encode()).hexdigest()
    assert digest == SWEEP_SHA256[(seed, fmt)]


# the cap messages as the verifiers wrote them before the bounds table
CAP_MESSAGES = {
    "hom-det": "hom-det capped at m <= 6, vars <= 4",
    "sury": "sury capped at n <= 8, k <= 4",
    "mclaughlin": "mclaughlin capped at n <= 8",
    "two-var": "two-var capped at n <= 12",
    "recurrence-det": "recurrence-det capped at r <= 4, n <= 10",
    "racci": "racci capped at n <= 10, r <= 4",
    "fib": "fib capped at n <= 12",
    "binet-fib": "binet-fib capped at n <= 30",
    "binet-lucas": "binet-lucas capped at n <= 30",
    "lucas-symbolic": "lucas-symbolic capped at n <= 8",
}


def test_registry_and_bounds_name_the_same_identities():
    assert list(IDENTITIES) == list(CAP_MESSAGES)
    assert {rep.identity for rep in verify_all(3)} == set(IDENTITIES)


@pytest.mark.parametrize("name", list(IDENTITIES))
def test_identity_bounds(capsys, name):
    entry = IDENTITIES[name]
    # the smallest and largest points of the full grid pass
    points = list(entry.points(max(arg.cap for arg in entry.args)))
    for args in (points[0], points[-1]):
        assert entry.verify(*args).passed, args

    def argv(values: dict) -> list[str]:
        # the coefficient list's length is --r
        return ["verify", name, *(f"{'--r' if a.flag == '--coeffs' else a.flag}={values[a.name]}"
                                  for a in entry.args)]

    least = {a.name: a.least for a in entry.args}
    caps = {a.name: a.cap for a in entry.args}
    assert run(capsys, argv(caps))[0] == 0
    for arg in least:
        code, out, err = run(capsys, argv({**least, arg: caps[arg] + 1}))
        assert (code, out, err) == (3, "", f"error: {CAP_MESSAGES[name]}\n")
        code, out, err = run(capsys, argv({**least, arg: least[arg] - 1}))
        assert (code, out) == (2, "")
        if any(a.name == arg and a.flag == "--coeffs" for a in entry.args):
            # a coefficient list's --r below 1 is refused as an empty list is
            assert err == "error: need at least one coefficient\n"
        else:
            assert f"{arg} >= {least[arg]}" in err


@pytest.mark.parametrize("name", list(IDENTITIES))
def test_routes_return_values_not_strings(name):
    # the verifier serializes the routes; the route function only computes them
    entry = IDENTITIES[name]
    least = next(iter(entry.points(max(arg.cap for arg in entry.args))))
    values = entry.verify.__wrapped__(*least)
    assert len(values) >= 2 and not any(isinstance(v, str) for v in values), values


def test_cycle_types():
    assert list(cycle_types(4, 3)) == [{}, {3: 1}, {2: 1}, {2: 2}]
    # lengths past n fit no cycle, however wide the band
    assert list(cycle_types(3, 10**9)) == [{}, {3: 1}, {2: 1}]
    assert list(cycle_types(0, 4)) == [{}]
