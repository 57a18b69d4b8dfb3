import importlib.util
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run_main(name, argv, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", [f"{name}.py", *argv])
    module.main()
    return capsys.readouterr().out.splitlines()


def test_order_index_report_runs(monkeypatch, capsys):
    lines = _run_main("order_index_report", ["2000"], monkeypatch, capsys)
    assert lines[:2] == ["primes <= 2000, fraction with index <= C", "C     root of P   detector base G"]
    assert [l.split()[0] for l in lines[2:10]] == ["1", "2", "3", "4", "6", "8", "16", "32"]


def test_tribonacci_sweep_script_runs(monkeypatch, capsys):
    lines = _run_main("run_tribonacci_sweep", ["2000", "1"], monkeypatch, capsys)
    # 303 primes up to 2000; Tribonacci's discriminant -44 excludes 2 and 11
    assert lines[0] == "primes <= 2000: 303 (2 excluded)"
    assert lines[1].split() == ["pattern", "freq", "predicted", "divisor-share", "indeterminate"]
    assert {l.split()[0] for l in lines[2:5]} == {"1-1-1", "2-1", "3"}
    assert lines[5].startswith("overall divisor fraction: ")
