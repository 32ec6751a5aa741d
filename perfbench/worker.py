"""Op executor: a fresh interpreter that imports only detrec and the stdlib.

(Besides detrec it loads only this directory's ``workloads``, ``speed`` and,
when tracing, ``tracing``, which use the standard library alone.)

Started by ``run.py`` with the op list of one round on its first stdin line.
It builds the inputs (matrices, coefficient lists, argument vectors),
answers ``{"ready": true}``, and then serves one JSON request per line:

- ``{"cmd": "op", "i": 3}`` runs op 3 and answers ``{"ms", "ref_ms", "out"}``
  or ``{"ms", "ref_ms", "error"}``; ``ms`` is the op's own wall time and
  ``ref_ms`` that of the reference task in ``speed``, run right after it;
- ``{"cmd": "ref", "n": 15}`` answers ``{"ms": [...]}``, n timed runs of the
  reference task;
- ``{"cmd": "rss"}`` answers the peak resident set of this process, in KiB
  (``VmHWM``, which, unlike ``ru_maxrss``, starts afresh at ``exec`` and so
  holds nothing of the parent's memory);
- ``{"cmd": "trace", "on": true}`` patches the tracer onto detrec for the
  ops after it, and ``"on": false`` takes it off again;
- ``{"cmd": "trace_report", "path": p}`` writes the spans to ``p`` and
  answers the aggregates;
- ``{"cmd": "quit"}`` ends the process.

Ops look detrec functions up by module attribute at call time, so the
tracer's patched functions are the ones called once it is installed.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time

from detrec import cli, detmat, digraph, identities, poly, recurrence, symfunc
from speed import reference_ms
from workloads import VERIFIERS

ROUTES = {"det_bareiss": detmat, "det_cofactor": detmat, "det_via_lsd": digraph}


def _c_names(i: int) -> str:
    return f"c{i + 1}"


def build_matrix(spec: dict):
    """The matrix an op spec names, and the variable names to print it with."""
    family = spec["family"]
    if family == "E":
        return symfunc.build_E(spec["m"], spec["vars"]), None
    n = spec["n"]
    if family == "Csym":
        coeffs = [k * poly.MultiPoly.var(t) for t, k in enumerate(spec["mult"])]
        return detmat.build_C(coeffs, n), _c_names
    if family == "S":
        a = spec["a"] * poly.MultiPoly.var(0)
        b = spec["b"] * poly.MultiPoly.var(1)
        return detmat.build_S(a, b, n), ("a", "b")
    if family == "G":
        return detmat.build_G(n, spec["r"]), None
    if family == "C":
        return detmat.build_C(spec["coeffs"], n), None
    if family == "A":
        return detmat.build_A(n), None
    raise ValueError(f"unknown family {family!r}")


def _verify_args(identity: str, p: dict) -> tuple:
    if identity == "hom-det":
        return p["m"], p["vars"]
    if identity == "sury":
        return p["n"], p["k"]
    if identity == "racci":
        return p["n"], p["r"]
    if identity == "recurrence-det":
        coeffs = p["coeffs"]
        if coeffs == "symbolic":
            coeffs = identities.symbolic_coeffs(p["r"])
        return coeffs, p["n"]
    return (p["n"],)


class Runner:
    """Holds the round's prebuilt inputs and runs its ops one at a time."""

    def __init__(self, ops: list[dict]):
        self.ops = ops
        self.tracer = None
        matrices: dict[str, tuple] = {}
        self.inputs = []
        for op in ops:
            kind = op["kind"]
            if kind == "verify":
                self.inputs.append(_verify_args(op["identity"], op["params"]))
            elif kind == "det":
                # ops on the same matrix share one instance
                key = json.dumps(op["matrix"], sort_keys=True)
                if key not in matrices:
                    matrices[key] = build_matrix(op["matrix"])
                self.inputs.append(matrices[key])
            elif kind == "cli":
                self.inputs.append(op["argv"])
            else:
                self.inputs.append(None)
        self._execute_op = self._execute

    def set_tracing(self, on: bool) -> None:
        """Patch the tracer onto detrec, or take it off, for the ops after this.

        One tracer serves the whole run, so its aggregates cover every traced
        op however often tracing is switched on and off.
        """
        if not on:
            self.tracer.uninstall()
            self._execute_op = self._execute
            return
        if self.tracer is None:
            from tracing import Tracer

            self.tracer = Tracer()
        self.tracer.install()
        self._execute_op = self.tracer.wrap("bench.op", self._execute)

    def run(self, i: int) -> dict:
        if self.tracer is not None:
            self.tracer.op_id = i
        started = time.perf_counter()
        try:
            reply = {"out": self._execute_op(i)}
        except Exception as exc:  # a failing op is data for the harness
            reply = {"error": f"{type(exc).__name__}: {exc}"}
        reply["ms"] = (time.perf_counter() - started) * 1e3
        reply["ref_ms"] = reference_ms()
        return reply

    def _execute(self, i: int):
        op, data = self.ops[i], self.inputs[i]
        kind = op["kind"]
        if kind == "verify":
            rep = getattr(identities, VERIFIERS[op["identity"]])(*data)
            return [rep.lhs, rep.rhs, rep.passed]
        if kind == "det":
            matrix, names = data
            value = getattr(ROUTES[op["route"]], op["route"])(matrix)
            return poly.scalar_str(value, names)
        if kind == "schur":
            return poly.poly_str(symfunc.schur(op["parts"], op["vars"]))
        if kind in ("binet_fib", "binet_lucas"):
            return poly.scalar_str(getattr(recurrence, kind)(op["n"]))
        if kind == "cli":
            drain = Drain()
            with contextlib.redirect_stdout(drain):
                code = cli.main(data)
            if self.tracer is not None:
                self.tracer.count("cli.main.stdout_bytes", drain.bytes)
            return {"code": code, "lines": drain.lines, "bytes": drain.bytes,
                    "last": drain.last}
        raise ValueError(f"unknown op kind {kind!r}")


class Drain(io.TextIOBase):
    """Stdout stand-in that, like a drained pipe, keeps nothing but counts.

    It remembers the line count, the byte count and the last line, which is
    the summary line of ``detrec enumerate`` and the value of ``compute``.
    """

    def __init__(self):
        super().__init__()
        self.lines = self.bytes = 0
        self.last = ""
        self._partial = ""

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        self.bytes += len(text.encode())
        *done, self._partial = (self._partial + text).split("\n")
        if done:
            self.lines += len(done)
            self.last = done[-1]
        return len(text)


def peak_rss_kib() -> int:
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main() -> int:
    config = json.loads(sys.stdin.readline())
    runner = Runner(config["ops"])

    def reply(obj) -> None:
        sys.stdout.write(json.dumps(obj) + "\n")
        sys.stdout.flush()

    reply({"ready": True})
    for line in sys.stdin:
        msg = json.loads(line)
        cmd = msg["cmd"]
        if cmd == "op":
            reply(runner.run(msg["i"]))
        elif cmd == "ref":
            reply({"ms": [reference_ms() for _ in range(msg["n"])]})
        elif cmd == "rss":
            reply({"kib": peak_rss_kib()})
        elif cmd == "trace":
            runner.set_tracing(msg["on"])
            reply({"tracing": msg["on"]})
        elif cmd == "trace_report":
            runner.tracer.write_spans(msg["path"])
            reply(runner.tracer.report())
        elif cmd == "quit":
            break
    return 0


if __name__ == "__main__":
    sys.exit(main())
