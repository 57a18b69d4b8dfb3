"""The benchmark's tracer patches library functions by name; keep the names valid."""

import dataclasses
import importlib
import importlib.util
import sys
from pathlib import Path

from recdiv.recurrence import BruteResult

BENCH_RUN = Path(__file__).resolve().parents[1] / "bench" / "run.py"


def test_traced_functions_resolve(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_run", BENCH_RUN)
    bench_run = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules while loading
    monkeypatch.setitem(sys.modules, "bench_run", bench_run)
    spec.loader.exec_module(bench_run)
    names = bench_run.TRACED_FUNCTIONS
    assert names
    for name in names:
        mod, fn = name.split(".")
        assert callable(getattr(importlib.import_module(f"recdiv.{mod}"), fn)), name


def test_brute_result_has_traced_fields():
    # bench/trace_run.py sums BruteResult.steps by BruteResult.kind
    fields = {f.name for f in dataclasses.fields(BruteResult)}
    assert {"kind", "steps"} <= fields
