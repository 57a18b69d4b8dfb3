import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_tribonacci_sweep_script_skips_the_fraction_when_every_prime_is_excluded(monkeypatch, capsys):
    # 2 is the only prime up to 2 and it is ramified, so no fraction exists
    lines = _run_main("run_tribonacci_sweep", ["2", "1"], monkeypatch, capsys)
    assert lines[0] == "primes <= 2: 1 (1 excluded)"
    assert not any(l.startswith("overall divisor fraction") for l in lines)


@pytest.mark.parametrize(
    "name, argv, message",
    [
        ("run_tribonacci_sweep", ["5_0", "1"], "not a decimal integer: '5_0'"),
        ("run_tribonacci_sweep", ["100", "0"], "workers must be between 1 and 64, got 0"),
        ("order_index_report", ["٢٠٠"], "not a decimal integer: '٢٠٠'"),
        ("order_index_report", ["50"], "limit must be at least 100"),
    ],
    ids=["sweep-underscore", "sweep-no-workers", "report-arabic-digits", "report-below-min"],
)
def test_scripts_reject_what_the_cli_rejects(name, argv, message):
    # int() would read 5_0 as 50 and ٢٠٠ as 200; the CLI reads neither
    env = dict(os.environ, PYTHONPATH=str(SCRIPTS.parent / "src"))
    proc = subprocess.run([sys.executable, str(SCRIPTS / f"{name}.py"), *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", f"error: {message}\n")
