"""Layer tracing for the traced benchmark run.

`LayerTracer.install` wraps every public function of each cuspgate layer
module, and rebinds every name under which a cuspgate module holds one of
them (``searches._conductor`` is ``tate.conductor``, ``cli.factor`` is
``arith.factor``, ...), so nested calls such as searches -> tate -> arith
become child spans.  Spans are aggregated as they close: a function's self
time is its span's duration minus the time its child spans cover.

Process-pool workers forked from a traced process inherit the wrappers;
each one writes its tables to a spool directory when it exits and
`collect_children` merges them.  Run as a script, this module is the
traced form of the `cuspgate` command: it installs the tracer, runs
``cuspgate.cli.main`` on its arguments and writes the tables to stderr on
a line starting with ``TRACE_MARK``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from collections import defaultdict
from multiprocessing import util as mp_util
from pathlib import Path

LAYERS = (
    "arith",
    "lattice",
    "cusps",
    "eta",
    "atkin_lehner",
    "curves",
    "tate",
    "gates",
    "searches",
    "cli",
)
TRACE_MARK = "PERFBENCH-TRACE "


class LayerTracer:
    def __init__(self, spool: Path | None = None) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object]] = []
        self._spool = spool

    def _wrap(self, name: str, fn):
        stack, self_s, calls, clock = self._stack, self.self_s, self.calls, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[name] += elapsed - stack.pop()
                calls[name] += 1
                if stack:
                    stack[-1] += elapsed

        return traced

    def install(self) -> None:
        import cuspgate

        modules = [cuspgate] + [importlib.import_module(f"cuspgate.{m}") for m in LAYERS]
        wrappers = {}
        for layer, mod in zip(LAYERS, modules[1:]):
            for name, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and name[0] != "_":
                    wrappers[obj] = self._wrap(f"{layer}.{name}", obj)
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((mod, name, obj))
                    setattr(mod, name, wrappers[obj])
        if self._spool is not None:
            mp_util.register_after_fork(self, LayerTracer._after_fork)

    def uninstall(self) -> None:
        for mod, name, obj in reversed(self._patches):
            setattr(mod, name, obj)
        self._patches.clear()

    def abandon_open_spans(self) -> None:
        """Drop spans left open by an operation cut off by its time limit."""
        self._stack.clear()

    def tables(self) -> dict:
        return {"self_s": dict(self.self_s), "calls": dict(self.calls)}

    def merge(self, tables: dict) -> None:
        for name, value in tables["self_s"].items():
            self.self_s[name] += value
        for name, value in tables["calls"].items():
            self.calls[name] += value

    def _after_fork(self) -> None:
        self.self_s.clear()
        self.calls.clear()
        self._stack.clear()
        mp_util.Finalize(self, self._dump, exitpriority=10)

    def _dump(self) -> None:
        path = self._spool / f"{os.getpid()}.json"
        path.write_text(json.dumps(self.tables()))

    def collect_children(self) -> int:
        """Merge and delete the tables that forked workers left; returns how many."""
        if self._spool is None:
            return 0
        files = sorted(self._spool.glob("*.json"))
        for path in files:
            self.merge(json.loads(path.read_text()))
            path.unlink()
        return len(files)


def main(argv: list[str]) -> int:
    tracer = LayerTracer()
    tracer.install()
    from cuspgate import cli

    try:
        return cli.main(argv)
    finally:
        sys.stdout.flush()
        sys.stderr.write(TRACE_MARK + json.dumps(tracer.tables()) + "\n")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
