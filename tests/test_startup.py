"""The start-up timer, ``tools/startup.py``."""

import importlib.util
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("startup", _ROOT / "tools" / "startup.py")
startup = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(startup)


def test_summary_subtracts_each_rounds_bare_run():
    runs = {"src": {"bare": [(20.0, 9.0), (30.0, 9.0), (25.0, 9.0)],
                    "import detrec": [(28.0, 12.0), (39.0, 12.5), (31.0, 12.0)],
                    "worker": [(50.0, 14.0)] * 3, "compute fib": [(60.0, 15.0)] * 3}}
    header, bare, imported, worker, fib = startup.summary(runs)
    assert header.split() == ["src", "command", "ms", "q1", "q3", "VmHWM", "MB"]
    assert bare.split() == ["src", "bare", "25.00", "22.50", "27.50", "9.00"]
    # 8, 9 and 6 ms over the bare runs of their rounds
    assert imported.split() == ["src", "import", "detrec", "-", "bare", "8.00", "7.00", "8.50",
                                "12.00"]
    assert worker.split()[-4:] == ["25.00", "22.50", "27.50", "14.00"]
    assert fib.split()[1:3] == ["compute", "fib"]


def test_each_command_runs_and_reports_its_peak_memory(capsys):
    assert startup.main(["-n", "1", str(_ROOT / "src")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[1] for line in lines[1:]] == ["bare", "import", "worker", "compute"]
    for line in lines[1:]:
        assert float(line.split()[-1]) > 1  # a VmHWM in MB
