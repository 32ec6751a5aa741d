"""Command-line interface: outputs, schemas, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from detrec.cli import main


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
    code, out, _ = run(capsys, "compute", "det", "--family", "S",
                       "--a-symbolic", "--b-symbolic", "--n", "4")
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


def test_usage_errors(capsys):
    code, _, err = run(capsys, "compute", "fib")  # missing --n
    assert code == 2
    code, _, err = run(capsys, "compute", "fib", "--n", "3", "--format", "csv")
    assert code == 2
    code, _, _ = run(capsys, "compute", "schur", "--parts", "1,2", "--vars", "2")
    assert code == 2  # not weakly decreasing
    with pytest.raises(SystemExit) as exc:
        main(["compute", "nonsense"])
    assert exc.value.code == 2


def test_too_large_exit_code(capsys):
    code, _, _ = run(capsys, "enumerate", "tilings", "--n", "30", "--r", "2")
    assert code == 3


@pytest.mark.parametrize("raw", ["-3", "0", "abc"])
def test_invalid_cap_override_is_a_usage_error(capsys, monkeypatch, raw):
    monkeypatch.setenv("DETREC_MAX_N", raw)
    code, _, err = run(capsys, "enumerate", "tilings", "--n", "0", "--r", "2")
    assert code == 2
    assert "DETREC_MAX_N" in err


def test_closed_pipe_exits_quietly():
    # The 0.6 MB of output outgrows the pipe buffer, so the writer is still
    # writing when the reader closes its end after the first line.
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
    proc = subprocess.Popen(
        [sys.executable, "-m", "detrec", "enumerate", "tilings", "--n", "20",
         "--r", "2", "--coeffs", "1,1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
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
