import json

import pytest

from recdiv.cli import cli


def test_analyze_prints_profile(capsys):
    assert cli(["analyze", "--poly", "1,-1,-1,-1"]) == 0
    out = capsys.readouterr().out
    assert "discriminant:            -44" in out
    assert "certified" in out


def test_non_monic_is_usage_error(capsys):
    assert cli(["sweep", "--poly", "2,1", "--init", "1", "--limit", "10"]) == 1
    assert "characteristic polynomial must be monic" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args",
    [
        ["analyze"],
        ["sweep", "--init", "", "--limit", "100"],
        ["detect", "--init", "", "-p", "7"],
        ["order-stats", "--limit", "100"],
    ],
)
def test_constant_poly_is_usage_error(capsys, args):
    assert cli([*args, "--poly", "1"]) == 1
    assert "--poly must have degree at least 1" in capsys.readouterr().err


def test_wrong_init_length_is_usage_error(capsys):
    assert cli(["sweep", "--poly", "1,-1,-1,-1", "--init", "1,1", "--limit", "10"]) == 1
    assert "initial terms" in capsys.readouterr().err


def test_missing_subcommand_is_usage_error(capsys):
    assert cli([]) == 1


def test_detect_single_prime(capsys):
    rc = cli(["detect", "--poly", "1,-1,-1,-1", "--init", "1,1,1", "-p", "7"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "pattern 2-1" in out
    assert "verdict: divisor" in out
    assert "a_9 == 0 mod 7" in out


def test_sweep_writes_outputs(tmp_path, capsys):
    csv_p = tmp_path / "rows.csv"
    json_p = tmp_path / "summary.json"
    rc = cli(
        [
            "sweep",
            "--poly",
            "1,-1,-1,-1",
            "--init",
            "1,1,1",
            "--limit",
            "100",
            "--csv",
            str(csv_p),
            "--json",
            str(json_p),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "pattern" in out and "overall divisor fraction" in out
    header = csv_p.read_text().splitlines()[0]
    assert header == "p,pattern,squarefree,excluded_reason,verdict,method,witness_n,ord_G,index_G,Q"
    assert json.loads(json_p.read_text())["meta"]["limit"] == 100


def test_sweep_stamps_unverified_hypotheses(capsys):
    rc = cli(["sweep", "--poly", "1,-11,37,-35", "--init", "3,11,47", "--limit", "50"])
    assert rc == 0
    assert "hypotheses unverified" in capsys.readouterr().out


def test_seed_env_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("RECDIV_SEED", "12345")
    json_p = tmp_path / "s.json"
    rc = cli(
        ["sweep", "--poly", "1,-1,-1,-1", "--init", "1,1,1", "--limit", "50",
         "--json", str(json_p)]
    )
    assert rc == 0
    assert json.loads(json_p.read_text())["meta"]["seed"] == 12345
    monkeypatch.setenv("RECDIV_SEED", "not-a-number")
    assert cli(["sweep", "--poly", "1,-1,-1,-1", "--init", "1,1,1", "--limit", "50"]) == 1


def test_order_stats_base(capsys):
    rc = cli(["order-stats", "--base", "2", "--limit", "2000", "--c-grid", "1,2,4"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "primitive-root fraction for 2" in out
    assert out.count("\n") >= 4


def test_order_stats_base_fraction_is_artin_fraction(capsys):
    from recdiv.orderstats import artin_fraction

    want = f"primitive-root fraction for 2: {float(artin_fraction(2, 2000)):.4f}"
    assert cli(["order-stats", "--base", "2", "--limit", "2000"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == want
    assert [l.split()[0] for l in lines[1:-1]] == ["1", "2", "4", "8", "16"]
    # the fraction is not read off the user's grid, which may lack C = 1
    assert cli(["order-stats", "--base", "2", "--limit", "2000", "--c-grid", "2,4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == want
    assert [l.split()[0] for l in lines[1:-1]] == ["2", "4"]


def test_order_stats_limit_below_minimum_is_usage_error(capsys, monkeypatch):
    import recdiv.cli

    def no_scan(*args):
        raise AssertionError("scanned before rejecting the limit")

    monkeypatch.setattr(recdiv.cli, "index_histogram", no_scan)
    for args in (["--base", "2"], ["--poly", "1,-1,-1,-1"]):
        assert cli(["order-stats", *args, "--limit", "99"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--limit must be at least 100" in err


@pytest.mark.parametrize(
    "args, message",
    [
        (["--base", "0"], "no qualifying primes up to 100"),  # the root is always 0
        (["--poly", "1,0,0"], "no qualifying primes up to 100"),  # every prime ramifies
    ],
)
def test_order_stats_without_qualifying_primes_is_usage_error(capsys, args, message):
    assert cli(["order-stats", *args, "--limit", "100"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err


def test_order_stats_poly(capsys):
    rc = cli(["order-stats", "--poly", "1,-1,-1,-1", "--limit", "2000", "--c-grid", "1,8"])
    assert rc == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l and l[0].isdigit()]
    fracs = [float(l.split()[1]) for l in lines]
    assert fracs == sorted(fracs)


def test_demo_check_passes(capsys):
    assert cli(["demo", "--check", "--limit", "300"]) == 0
    out = capsys.readouterr().out
    assert "25/7" in out
    assert "check passed" in out


def test_failed_prime_names_prime_and_sequence(capsys, monkeypatch):
    import recdiv.sweep

    real = recdiv.sweep.detect_full

    def faulty(spec, p, policy):
        if p == 7:
            raise RuntimeError("injected fault")
        return real(spec, p, policy)

    monkeypatch.setattr(recdiv.sweep, "detect_full", faulty)
    rc = cli(["sweep", "--poly", "1,-1,-1,-1", "--init", "1,1,1", "--limit", "50",
              "--workers", "1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "p=7" in err and "c=-1,-1,-1;a=1,1,1" in err and "injected fault" in err


def test_limit_beyond_guard_is_usage_error(capsys):
    # the sweep guard rejects the limit when the config is built, before any scan
    rc = cli(["sweep", "--poly", "1,-1,-1,-1", "--init", "1,1,1", "--limit", "9999999"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "sweep guard" in err


def test_scan_caps_below_one_rejected(capsys):
    rc = cli(["sweep", "--poly", "1,-1,-1,-1", "--init", "1,1,1", "--limit", "60",
              "--brute-cap", "-5"])
    assert rc == 1
    assert "brute_cap" in capsys.readouterr().err
    rc = cli(["detect", "--poly", "1,-1,-1,-1", "--init", "1,1,1", "-p", "7",
              "--brute-cap", "-1"])
    assert rc == 1
    assert "brute_cap" in capsys.readouterr().err


def test_detect_rejects_non_prime(capsys, monkeypatch):
    import recdiv.cli

    def no_detect(*args):
        raise AssertionError("detect_full ran on a non-prime")

    monkeypatch.setattr(recdiv.cli, "detect_full", no_detect)
    for n in ("9", "1", "0", "-7"):
        rc = cli(["detect", "--poly", "1,-1,-1,-1", "--init", "1,1,1", "-p", n])
        assert rc == 1, n
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"got {n}" in err, n
