"""Verifier reports, the full sweep, and mutation sensitivity."""

import json

import pytest

import detrec.identities as identities
from detrec import poly
from detrec.detmat import build_C
from detrec.digraph import cycle_type_sum
from detrec.errors import DimensionTooSmall, TooLarge
from detrec.identities import (
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
from detrec.symfunc import signed_elementary


def test_verify_hom_det():
    assert verify_hom_det(5, 3).passed
    rep = verify_hom_det(1, 1)
    assert rep.passed and rep.lhs == "x0"
    assert verify_hom_det(4, 2).passed
    with pytest.raises(TooLarge):
        verify_hom_det(7, 2)


def test_verify_sury():
    rep = verify_sury(2, 2)
    assert rep.passed
    assert rep.lhs == rep.rhs == "x0^2 + x0*x1 + x1^2"
    rep = verify_sury(1, 3)
    assert rep.passed and rep.lhs == "x0 + x1 + x2"
    assert verify_sury(6, 3).passed
    for n in range(1, 9):
        for k in range(2, 5):
            assert verify_sury(n, k).passed, (n, k)


def test_verify_mclaughlin():
    rep = verify_mclaughlin(1)
    assert rep.passed and rep.lhs == "x0 + x1 + x2"
    assert verify_mclaughlin(2).passed
    assert verify_mclaughlin(5).passed
    assert verify_mclaughlin(8).passed


def test_expansions_build_each_power_once(monkeypatch):
    # every packed product is one _mul_into call, and power_sum builds each
    # w**a once for the whole sum: rebuilding powers per term raises these
    signed = signed_elementary(4, 4)
    counts = {"mul": 0, "packing": 0}
    mul_into, packing = poly._mul_into, poly._Packing

    def counted_mul_into(*args):
        counts["mul"] += 1
        return mul_into(*args)

    def counted_packing(*args):
        counts["packing"] += 1
        return packing(*args)

    monkeypatch.setattr(poly, "_mul_into", counted_mul_into)
    monkeypatch.setattr(poly, "_Packing", counted_packing)
    cycle_type_sum(8, signed)
    assert counts == {"mul": 47, "packing": 1}
    counts.update(mul=0, packing=0)
    assert verify_mclaughlin(8).passed
    assert counts["mul"] == 36


def test_verify_two_var():
    rep = verify_two_var(1)
    assert rep.passed and rep.lhs == "x0 + x1"
    assert verify_two_var(2).passed
    assert verify_two_var(6).passed
    assert verify_two_var(12).passed


def test_verify_recurrence_det():
    rep = verify_recurrence_det(symbolic_coeffs(2), 4)
    assert rep.passed
    assert rep.lhs == "c1^4 + 3*c1^2*c2 + c2^2"
    assert rep.params["coeffs"] == "symbolic"
    rep = verify_recurrence_det([7], 5)
    assert rep.passed and rep.lhs == "16807"
    assert verify_recurrence_det([3, -2, 5], 9).passed


def test_verify_racci_and_fib():
    rep = verify_racci(4, 2)
    assert rep.passed and rep.lhs == "5"
    assert verify_racci(1, 3).passed
    rep = verify_fib(10)
    assert rep.passed and rep.lhs == "89"


def test_verify_binet():
    assert verify_binet_fib(0).passed
    assert verify_binet_fib(30).passed
    rep = verify_binet_lucas(4)
    assert rep.passed and rep.lhs == "7"
    rep = verify_binet_lucas(3)
    assert rep.passed and rep.lhs == "4"
    with pytest.raises(DimensionTooSmall):
        verify_binet_lucas(2)


def test_verify_lucas_symbolic():
    rep = verify_lucas_symbolic(4)
    assert rep.passed
    assert rep.lhs == "2*a^4 + 2*b^4"
    assert verify_lucas_symbolic(3).passed
    assert verify_lucas_symbolic(6).passed
    with pytest.raises(DimensionTooSmall):
        verify_lucas_symbolic(2)


def test_report_invariant_passed_iff_strings_match():
    reports = [verify_sury(3, 2), verify_lucas_symbolic(4), verify_binet_lucas(5)]
    for rep in reports:
        assert rep.passed == (rep.lhs == rep.rhs)


def test_routes_are_compared_by_value_not_by_string(monkeypatch):
    # two routes that differ in value fail even when the printer maps them
    # to one string, and rhs is the string of the route that differs
    monkeypatch.setattr(identities, "IDENTITIES", dict(identities.IDENTITIES))
    x0 = poly.MultiPoly.var(0)

    @identities._identity("differ-in-value")
    def verify_differ():
        return [x0, x0 + 1, x0 + 2]

    printed = []

    def collapsed(p, names=None):
        printed.append(p)
        return "same"
    monkeypatch.setattr(poly, "poly_str", collapsed)
    rep = verify_differ()
    assert not rep.passed and rep.lhs == rep.rhs == "same"
    assert printed == [x0, x0 + 1]


def test_verify_all_prints_each_agreed_value_once(monkeypatch):
    # a passing report prints only its first route's value and reuses that
    # string for rhs; printing every route's value took 242 calls a sweep
    calls = []
    original = poly.poly_str

    def counted(p, names=None):
        calls.append(p)
        return original(p, names)
    monkeypatch.setattr(poly, "poly_str", counted)
    for seed in (0, 5, 23):
        calls.clear()
        reports = verify_all(30, seed)
        assert len(reports) == 219 and all(r.passed for r in reports)
        assert len(calls) == 98, seed


def test_report_json_round_trip():
    rep = verify_fib(4)
    payload = json.loads(rep.to_json())
    assert set(payload) == {"identity", "params", "lhs", "rhs", "passed", "elapsed_ms"}
    assert payload["identity"] == "fib"
    assert payload["params"] == {"n": 4}
    assert payload["lhs"] == payload["rhs"] == "5"
    assert payload["passed"] is True
    assert isinstance(payload["elapsed_ms"], (int, float))


def test_report_and_identity_are_immutable_records():
    # fields in this order, read by name, equal by value, assigned never
    fields = ("fib", {"n": 4}, "5", "5", True, 0.12345)
    rep = identities.VerificationReport(*fields)
    assert identities.VerificationReport._fields == (
        "identity", "params", "lhs", "rhs", "passed", "elapsed_ms")
    assert (rep.identity, rep.params, rep.lhs, rep.rhs, rep.passed, rep.elapsed_ms) == fields
    assert rep == identities.VerificationReport(*fields)
    assert rep != rep._replace(rhs="6")
    # the pinned JSON text: the fields in order, elapsed_ms rounded
    assert rep.to_json() == ('{"identity": "fib", "params": {"n": 4}, "lhs": "5", "rhs": "5", '
                             '"passed": true, "elapsed_ms": 0.123}')
    entry = identities.IDENTITIES["fib"]
    assert identities.Identity._fields == ("name", "verify", "args", "grid")
    assert (entry.name, entry.verify) == ("fib", verify_fib)
    assert [a.name for a in entry.args] == ["n"]
    assert entry == identities.Identity(*entry)
    assert entry != entry._replace(name="lucas")
    for record, field in ((rep, "lhs"), (entry, "name")):
        with pytest.raises(AttributeError):
            setattr(record, field, "x")
        with pytest.raises(AttributeError):
            record.extra = 1


def test_reports_are_deterministic():
    a = verify_mclaughlin(4)
    b = verify_mclaughlin(4)
    assert (a.identity, a.params, a.lhs, a.rhs, a.passed) == \
           (b.identity, b.params, b.lhs, b.rhs, b.passed)


def test_verify_all_degenerate_grid():
    reports = verify_all(1)
    assert reports and all(r.passed for r in reports)


def test_verify_all_six():
    reports = verify_all(6)
    assert len(reports) >= 60
    assert all(r.passed for r in reports)
    keys = [(r.identity, json.dumps(r.params, sort_keys=True)) for r in reports]
    assert keys == sorted(keys)
    identities_seen = {r.identity for r in reports}
    assert identities_seen == {
        "hom-det", "sury", "mclaughlin", "two-var", "recurrence-det",
        "racci", "fib", "binet-fib", "binet-lucas", "lucas-symbolic"}


def test_mutation_in_C_band_is_caught(monkeypatch):
    def flipped_build_C(coeffs, n):
        m = build_C(coeffs, n)
        if n >= 2:
            m = m.with_entry(0, 1, -m[0][1])  # flip the -c2 band entry
        return m

    monkeypatch.setattr(identities, "build_C", flipped_build_C)
    failed = [n for n in range(2, 6)
              if not verify_recurrence_det(symbolic_coeffs(2), n).passed]
    assert failed


def test_mutation_in_S_entry_is_caught(monkeypatch):
    import detrec.detmat as detmat
    original = detmat.build_S

    def flipped_build_S(a, b, n):
        m = original(a, b, n)
        return m.with_entry(0, 1, -m[0][1])  # flip the (1,2) entry

    monkeypatch.setattr(identities, "build_S", flipped_build_S)
    failed = [n for n in range(3, 6) if not verify_lucas_symbolic(n).passed]
    assert failed


def test_mutation_in_E_entry_is_caught(monkeypatch):
    import detrec.symfunc as symfunc
    original = symfunc.build_E

    def flipped_build_E(m, n_vars):
        mat = original(m, n_vars)
        if m >= 2:
            mat = mat.with_entry(0, 1, -mat[0][1])  # flip the e2 entry
        return mat

    monkeypatch.setattr(identities, "build_E", flipped_build_E)
    failed = [(m, v) for m in range(2, 6) for v in range(2, 4)
              if not verify_hom_det(m, v).passed]
    assert failed
