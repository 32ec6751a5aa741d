"""The fixed size caps, and the rule that no module reads the environment."""

import ast
from pathlib import Path

import pytest

from detrec.caps import _CAPS
from detrec.combi import (
    enumerate_circular_tilings,
    enumerate_cyclic_words,
    enumerate_tilings,
    pie_cyclic_sum,
    pie_linear_sum,
)
from detrec.detmat import build_F
from detrec.digraph import det_via_lsd, enumerate_lsds
from detrec.errors import TooLarge
from detrec.recurrence import racci_multinomial

SRC = Path(__file__).resolve().parents[1] / "src" / "detrec"

# public function -> (the enumeration it caps, the cap, a call of the capped size)
CAPPED_CALLS = {
    "det_via_lsd": ("lsd", 12, lambda n: det_via_lsd(build_F(n))),
    "enumerate_lsds": ("lsd", 12, lambda n: enumerate_lsds(build_F(n))),
    "enumerate_tilings": ("tilings", 20, lambda n: enumerate_tilings(n, 2)),
    "enumerate_circular_tilings": ("circular_tilings", 20, enumerate_circular_tilings),
    "pie_linear_sum": ("pie_linear", 10, lambda n: pie_linear_sum(n, 2)),
    "enumerate_cyclic_words": ("cyclic_words", 20, enumerate_cyclic_words),
    "pie_cyclic_sum": ("pie_cyclic", 16, pie_cyclic_sum),
    "racci_multinomial": ("racci_sum", 30, lambda n: racci_multinomial(n, 2)),
}


def test_the_table_holds_every_cap():
    assert {name: cap for name, cap, _ in CAPPED_CALLS.values()} == _CAPS


# a DETREC_MAX_N in the environment, a number or not, changes no cap
@pytest.mark.parametrize("env", ["14", "abc"])
@pytest.mark.parametrize("name, cap, call", CAPPED_CALLS.values(), ids=list(CAPPED_CALLS))
def test_every_cap_is_fixed(monkeypatch, env, name, cap, call):
    monkeypatch.setenv("DETREC_MAX_N", env)
    call(cap)
    with pytest.raises(TooLarge) as exc:
        call(cap + 1)
    assert str(exc.value) == f"{name}: size {cap + 1} exceeds cap {cap}"


ENVIRONMENT_READS = {"environ", "environb", "getenv"}


def environment_reads(path: Path) -> list[str]:
    """Each ``os.environ``/``os.environb``/``os.getenv`` the module names, or imports from ``os``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if (isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT_READS
                and isinstance(node.value, ast.Name) and node.value.id == "os"):
            found.append(f"{path.name}:{node.lineno}: os.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [f"{path.name}:{node.lineno}: from os import {alias.name}"
                      for alias in node.names if alias.name in ENVIRONMENT_READS]
    return found


def test_no_module_reads_the_environment():
    # so the output depends on the arguments alone
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    assert [read for path in modules for read in environment_reads(path)] == []


def test_environment_reads_are_found(tmp_path):
    module = tmp_path / "knob.py"
    module.write_text("import os\nfrom os import getenv\nN = os.environ.get('N')\n")
    assert environment_reads(module) == ["knob.py:2: from os import getenv",
                                         "knob.py:3: os.environ"]
