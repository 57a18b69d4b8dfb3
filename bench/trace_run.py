#!/usr/bin/env python3
"""Run one recdiv CLI command in this process with its layer calls timed.

    PYTHONPATH=src python3 bench/trace_run.py sweep --poly 1,-1,-1,-1 ...

Every public function named in run.TRACED_FUNCTIONS is replaced by a timing
wrapper in each recdiv module that holds it, because detect, sweep,
orderstats and cli bind their callees with `from .x import f`. A span's
self time is its duration minus that of the traced spans it encloses.
Writes trace.json (calls, self_s, brute_steps) to the working directory and
exits with the CLI's exit code.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

from run import TRACED_FUNCTIONS


class Tracer:
    """Calls and self time per traced function, kept in memory."""

    def __init__(self):
        self.open = []  # child time accumulated by each open span
        self.calls = dict.fromkeys(TRACED_FUNCTIONS, 0)
        self.self_s = dict.fromkeys(TRACED_FUNCTIONS, 0.0)
        self.brute_steps = {"divisor": 0, "nondivisor": 0, "capped": 0}

    def wrap(self, name: str, fn):
        open_spans, calls, self_s = self.open, self.calls, self.self_s
        clock = time.perf_counter

        def traced(*args, **kwargs):
            child = [0.0]
            open_spans.append(child)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span = clock() - t0
                open_spans.pop()
                calls[name] += 1
                self_s[name] += span - child[0]
                if open_spans:
                    open_spans[-1][0] += span

        return traced

    def wrap_brute(self, name: str, fn):
        """has_zero_bruteforce, also summing BruteResult.steps by kind."""
        timed = self.wrap(name, fn)
        steps = self.brute_steps

        def traced(*args, **kwargs):
            result = timed(*args, **kwargs)
            steps[result.kind] += result.steps
            return result

        return traced


def install(tracer: Tracer) -> None:
    """Patch every recdiv module attribute bound to a traced function."""
    wrappers = {}
    for name in TRACED_FUNCTIONS:
        module, func = name.split(".")
        # import_module, not `import recdiv.detect`: the package re-exports
        # a function named detect that shadows the submodule attribute.
        fn = getattr(importlib.import_module(f"recdiv.{module}"), func)
        wrap = tracer.wrap_brute if func == "has_zero_bruteforce" else tracer.wrap
        wrappers[id(fn)] = wrap(name, fn)  # the wrapper keeps fn, and its id, alive
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "recdiv" and not mod_name.startswith("recdiv."):
            continue
        for attr, value in list(vars(mod).items()):
            if id(value) in wrappers:
                setattr(mod, attr, wrappers[id(value)])


def main() -> int:
    import recdiv.cli  # noqa: F401 - imports every layer before patching

    tracer = Tracer()
    install(tracer)
    code = sys.modules["recdiv.cli"].cli(sys.argv[1:])
    with open("trace.json", "w") as fh:
        json.dump(
            {
                "calls": tracer.calls,
                "self_s": tracer.self_s,
                "brute_steps": tracer.brute_steps,
            },
            fh,
        )
    return code


if __name__ == "__main__":
    sys.exit(main())
