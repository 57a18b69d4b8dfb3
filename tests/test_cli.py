import json
import re

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


def _detect_csv_line(seq, p, capture) -> str:
    """What `recdiv detect` prints for p, as the sweep's CSV line for p."""
    assert cli(["detect", *seq, "-p", str(p)]) == 0
    out = capture()

    def grab(pattern):
        m = re.search(pattern, out, re.MULTILINE)
        return m.groups() if m else ("",) * re.compile(pattern).groups

    key, squarefree = grab(r"^p = \d+: pattern (\S+), squarefree (yes|no)$")
    ord_g, index_g, q = grab(r"^  structural context: .*, ord (\d+), index (\d+), Q (\d+)$")
    verdict, method = grab(r"^  verdict: (\w+) \(method (\w+)\)$")
    (reason,) = grab(r"^  excluded: (\S+)$")
    (witness,) = grab(rf"^  witness: a_(\d+) == 0 mod {p}$")
    fields = (p, key, "1" if squarefree == "yes" else "0", reason, verdict, method,
              witness, ord_g, index_g, q)
    return ",".join(map(str, fields))


@pytest.mark.parametrize(
    "seq",
    [("--poly", "1,-1,-1,-1", "--init", "1,1,1"), ("--poly", "1,0,0,-2", "--init", "1,2,3")],
    ids=["tribonacci", "x3-2"],
)
def test_detect_prints_the_sweep_row(seq, tmp_path, capsys):
    # both commands report one decision per prime: the pattern, verdict,
    # method, witness, ord, index and Q that detect prints are the prime's
    # line of the sweep CSV
    csv_p = tmp_path / "rows.csv"
    assert cli(["sweep", *seq, "--limit", "300", "--csv", str(csv_p)]) == 0
    capsys.readouterr()
    lines = csv_p.read_text().splitlines()[1:]
    assert len(lines) == 62
    methods = set()
    for line in lines:
        p = int(line.split(",")[0])
        assert _detect_csv_line(seq, p, lambda: capsys.readouterr().out) == line, p
        methods.add(line.split(",")[5])
    assert methods == {"structural", "brute", "none"}


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


def test_seed_env_changes_no_output_byte(tmp_path, capsys, monkeypatch):
    # nothing reads RECDIV_SEED, so not even a malformed value is an error
    monkeypatch.chdir(tmp_path)
    outputs = set()
    for raw in (None, "12345", "not-a-number"):
        if raw is None:
            monkeypatch.delenv("RECDIV_SEED", raising=False)
        else:
            monkeypatch.setenv("RECDIV_SEED", raw)
        assert cli(["sweep", *TRIB, "--limit", "50", "--csv", "r.csv", "--json", "s.json"]) == 0
        outputs.add((capsys.readouterr(), (tmp_path / "r.csv").read_bytes(),
                     (tmp_path / "s.json").read_bytes()))
    assert len(outputs) == 1
    assert json.loads((tmp_path / "s.json").read_text())["meta"]["seed"] == 0


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


def test_order_stats_limit_above_cap_is_usage_error(capsys, monkeypatch):
    # memory grows with the limit, so the cap is checked before the sieve runs
    import recdiv.orderstats
    from recdiv.orderstats import MAX_LIMIT

    def no_sieve(*args):
        raise AssertionError("sieved before rejecting the limit")

    monkeypatch.setattr(recdiv.orderstats, "prime_flags", no_sieve)
    for args in (["--base", "2"], ["--poly", "1,-1,-1,-1"]):
        assert cli(["order-stats", *args, "--limit", str(MAX_LIMIT + 1)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"--limit must be at most {MAX_LIMIT}" in err


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


@pytest.mark.parametrize("grid", ["0,-3", "1,0", "-1"])
def test_order_stats_c_grid_below_one_is_usage_error(capsys, monkeypatch, grid):
    # no index is below 1, so such a C would only print a 0/1 row
    import recdiv.cli

    def no_scan(*args):
        raise AssertionError("scanned before rejecting the grid")

    monkeypatch.setattr(recdiv.cli, "index_histogram", no_scan)
    assert cli(["order-stats", "--base", "2", "--limit", "100", "--c-grid", grid]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--c-grid" in err and repr(grid) in err


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
    # 3 is the least limit: p = 2 is ramified, p = 3 is checked
    assert cli(["demo", "--check", "--limit", "3"]) == 0
    assert "check passed: 1 primes" in capsys.readouterr().out


@pytest.mark.parametrize("limit", ["-5", "2"])
def test_demo_limit_below_three_is_usage_error(capsys, limit):
    # no prime below 3 is checked, so a check there could only fail with no mismatch
    assert cli(["demo", "--check", "--limit", limit]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and f"--limit must be at least 3, got {limit}" in err


def test_demo_limit_above_sweep_cap_is_usage_error(capsys, monkeypatch):
    # the cap is checked before the demo builds a sieve of that size
    import recdiv.cli
    from recdiv.sweep import MAX_LIMIT

    def no_sieve(*args, **kwargs):
        raise AssertionError("sieved the primes before rejecting the limit")

    monkeypatch.setattr(recdiv.cli, "sieve_primes", no_sieve)
    assert cli(["demo", "--check", "--limit", str(MAX_LIMIT + 1)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"--limit must be at most {MAX_LIMIT}" in err


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


def test_one_block_sweep_starts_no_pool(monkeypatch, tmp_path):
    # 25 primes make one block, which leaves a pool nothing to share out
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise AssertionError("started a pool for one block")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    blobs = []
    for workers in (1, 2):
        csv_p, json_p = tmp_path / f"w{workers}.csv", tmp_path / f"w{workers}.json"
        rc = cli(["sweep", "--poly", "1,-1,-1,-1", "--init", "1,1,1", "--limit", "100",
                  "--workers", str(workers), "--csv", str(csv_p), "--json", str(json_p)])
        assert rc == 0
        blobs.append((csv_p.read_bytes(), json_p.read_bytes()))
    assert blobs[0] == blobs[1]


def test_pool_has_no_more_workers_than_blocks(monkeypatch):
    # 46 primes make two blocks of at most 32, so 8 workers shrink to 2
    import concurrent.futures

    started = []

    class SerialPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        map = staticmethod(map)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    assert cli(["sweep", "--poly", "1,-1,-1,-1", "--init", "1,1,1", "--limit", "200",
                "--workers", "8"]) == 0
    assert started == [2]


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


@pytest.mark.parametrize("prime", [str(2**64), "18446744073709551629"])
def test_detect_rejects_prime_from_2_to_the_64(capsys, monkeypatch, prime):
    # is_prime is exact only below 2^64, and the scans pack terms in 64-bit words
    import recdiv.cli

    def no_detect(*args):
        raise AssertionError("detect_full ran on a modulus above 2^64")

    monkeypatch.setattr(recdiv.cli, "detect_full", no_detect)
    rc = cli(["detect", "--poly", "1,-1,-1,-1", "--init", "1,1,1", "-p", prime])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"below 2**64, got {prime}" in err


@pytest.mark.parametrize("limit", ["-5", "1"])
def test_sweep_limit_below_two_is_usage_error(capsys, limit):
    rc = cli(["sweep", "--poly", "1,-1,-1,-1", "--init", "1,1,1", "--limit", limit])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"got {limit}" in err


@pytest.mark.parametrize("budget", ["-1", "0"])
def test_analyze_prime_budget_below_one_is_usage_error(capsys, budget):
    assert cli(["analyze", "--poly", "1,-1,-1,-1", "--prime-budget", budget]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"--prime-budget must be at least 1, got {budget}" in err


def test_analyze_prime_budget_beyond_sample_is_usage_error(capsys, monkeypatch):
    import recdiv.charpoly

    def no_pattern(*args):
        raise AssertionError("pattern computed before the budget was checked")

    monkeypatch.setattr(recdiv.charpoly, "pattern", no_pattern)
    # x^3 - 3x + 1 is a cyclic cubic, so no sampled prime ever certifies S_3;
    # 3 is the only prime below 1e5 that divides its discriminant 81
    assert cli(["analyze", "--poly", "1,0,-3,1", "--prime-budget", "20000"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --prime-budget too large:")
    assert "20000" in err and "9591" in err


def _refuse(*args):
    raise AssertionError("ratio test work done before the bounds were checked")


@pytest.fixture
def no_power_sums(monkeypatch):
    import recdiv.charpoly

    monkeypatch.setattr(recdiv.charpoly, "_power_sums", _refuse)


@pytest.mark.parametrize("degree", [17, 200])
def test_analyze_beyond_degree_bound_is_usage_error(capsys, monkeypatch, no_power_sums, degree):
    # the ratio orders of degree d run to 2(d(d-1))^2, so the degree is
    # checked before they are computed
    import recdiv.charpoly

    monkeypatch.setattr(recdiv.charpoly, "_ratio_orders", _refuse)
    poly = ",".join(["1", *["0"] * (degree - 2), "-1", "-1"])  # x^d - x - 1
    assert cli(["analyze", "--poly", poly]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"degree {degree} exceeds the analysis bound of 16" in err


def test_analyze_beyond_power_sum_bound_is_usage_error(capsys, no_power_sums):
    # x^5 + (10^300 - 1) x^4 - x - 1: about 8 x 66 x 997 bits of power sums
    assert cli(["analyze", "--poly", f"1,{'9' * 300},0,0,-1,-1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "526416 bits, above the analysis bound of 65536" in err


def test_sweep_beyond_power_sum_bound_writes_nothing(tmp_path, capsys, no_power_sums):
    # the discriminant of this cubic has about 6,000 digits, more than the
    # JSON writer can print
    csv, json_ = tmp_path / "x.csv", tmp_path / "x.json"
    rc = cli(["sweep", "--poly", f"1,{'7' * 1500},-1,-1", "--init", "1,1,1", "--limit", "100",
              "--csv", str(csv), "--json", str(json_)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "above the analysis bound of 65536" in err
    assert not csv.exists() and not json_.exists()


@pytest.mark.parametrize(
    "flag, target",
    [
        pytest.param("--csv", "missing/out", id="--csv"),
        pytest.param("--json", "missing/out", id="--json"),
        pytest.param("--csv", "", id="--csv-existing-directory"),
        pytest.param("--json", "", id="--json-existing-directory"),
    ],
)
def test_sweep_output_in_missing_directory_is_usage_error(tmp_path, capsys, monkeypatch, flag, target):
    import recdiv.cli

    def no_sweep(*args):
        raise AssertionError("the sweep ran before the output path was checked")

    monkeypatch.setattr(recdiv.cli, "run_sweep", no_sweep)
    path = str(tmp_path / target)  # tmp_path itself exists and is a directory
    rc = cli(["sweep", "--poly", "1,-1,-1,-1", "--init", "1,1,1", "--limit", "100", flag, path])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and path in err


@pytest.mark.parametrize("flag, what", [("--csv", "CSV"), ("--json", "JSON")])
def test_sweep_empty_output_path_is_usage_error(tmp_path, capsys, monkeypatch, flag, what):
    # an empty path once ran the sweep, wrote nothing and exited 0
    import recdiv.cli

    def no_sweep(*args):
        raise AssertionError("the sweep ran before the output path was checked")

    monkeypatch.setattr(recdiv.cli, "run_sweep", no_sweep)
    monkeypatch.chdir(tmp_path)
    rc = cli(["sweep", "--poly", "1,-1,-1,-1", "--init", "1,1,1", "--limit", "100", flag, ""])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: cannot write the {what}: its path is empty\n"
    assert captured.out == "" and not any(tmp_path.iterdir())


@pytest.mark.parametrize("csv, json_", [("x", "x"), ("d/x", "d/./x")])
def test_sweep_csv_and_json_to_one_file_is_usage_error(tmp_path, capsys, monkeypatch, csv, json_):
    # the JSON once overwrote the CSV, and the run still reported the rows written
    import recdiv.cli

    def no_sweep(*args):
        raise AssertionError("the sweep ran before the output paths were checked")

    monkeypatch.setattr(recdiv.cli, "run_sweep", no_sweep)
    (tmp_path / "d").mkdir()
    monkeypatch.chdir(tmp_path)
    rc = cli(["sweep", "--poly", "1,-1,-1,-1", "--init", "1,1,1", "--limit", "100",
              "--csv", csv, "--json", json_])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and json_ in err
    assert not (tmp_path / "x").exists() and not (tmp_path / "d" / "x").exists()


@pytest.mark.parametrize("field", ["1,,2", "1,2,"])
@pytest.mark.parametrize(
    "option, args",
    [
        ("--poly", ["detect", "--init", "1,1", "-p", "7", "--poly"]),
        ("--init", ["detect", "--poly", "1,-1,-1,-1", "-p", "7", "--init"]),
        ("--c-grid", ["order-stats", "--base", "2", "--limit", "100", "--c-grid"]),
    ],
)
def test_empty_list_field_is_usage_error(capsys, option, args, field):
    # an empty field was once dropped, so 1,,-1,-1,-1 ran as Tribonacci
    assert cli([*args, field]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and option in err and repr(field) in err


@pytest.mark.parametrize("workers", [65, 10**9])
def test_worker_count_above_cap_is_usage_error(capsys, monkeypatch, tribonacci, workers):
    # the count is checked when the config is built, so no pool is ever started
    import recdiv.cli
    from recdiv.sweep import MAX_WORKERS, SweepConfig

    def no_sweep(*args):
        raise AssertionError("the sweep ran before the worker count was checked")

    monkeypatch.setattr(recdiv.cli, "run_sweep", no_sweep)
    assert SweepConfig(spec=tribonacci, limit=100, workers=MAX_WORKERS).workers == 64
    with pytest.raises(ValueError, match=f"between 1 and 64, got {workers}"):
        SweepConfig(spec=tribonacci, limit=100, workers=workers)
    rc = cli(["sweep", "--poly", "1,-1,-1,-1", "--init", "1,1,1", "--limit", "100",
              "--workers", str(workers)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"got {workers}" in err


TRIB = ["--poly", "1,-1,-1,-1", "--init", "1,1,1"]


@pytest.mark.parametrize(
    "args, bad",
    [
        pytest.param(["sweep", "--poly", "1,-1_0,-1,-1", "--init", "1,1,1", "--limit", "50"],
                     "1,-1_0,-1,-1", id="poly-digit-separator"),
        pytest.param(["detect", *TRIB, "-p", "٧"], "٧", id="prime-arabic-indic-digit"),
        pytest.param(["sweep", "--poly", "1,-1,-1,-1", "--init", "１,1,1", "--limit", "50"],
                     "１,1,1", id="init-fullwidth-digit"),
        pytest.param(["order-stats", "--base", "2", "--limit", "1_000"], "1_000", id="limit-separator"),
        pytest.param(["order-stats", "--base", "2", "--limit", "1000", "--c-grid", "1,1_6"],
                     "1,1_6", id="c-grid-separator"),
        pytest.param(["sweep", *TRIB, "--limit", " 50"], " 50", id="limit-blank"),
        pytest.param(["sweep", "--poly", "1, -1, -1, -1", "--init", "1,1,1", "--limit", "50"],
                     "1, -1, -1, -1", id="poly-blanks"),
    ],
)
def test_integer_beyond_ascii_decimal_is_usage_error(capsys, monkeypatch, args, bad):
    # int() reads 1_000, blanks and non-ASCII digits; no option may, so
    # 1,-1_0,-1,-1 is not x^3 - 10x^2 - x - 1 and -p ٧ is not p = 7
    import recdiv.cli

    def no_sweep(*args):
        raise AssertionError("the sweep ran on a malformed integer")

    monkeypatch.setattr(recdiv.cli, "run_sweep", no_sweep)
    assert cli(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and repr(bad) in err


def test_signed_ascii_integers_are_accepted(tmp_path, capsys):
    json_p = tmp_path / "s.json"
    assert cli(["sweep", "--poly", "+1,-1,-1,-1", "--init", "+1,1,1", "--limit", "+50",
                "--json", str(json_p)]) == 0
    meta = json.loads(json_p.read_text())["meta"]
    assert (meta["limit"], meta["init"]) == (50, [1, 1, 1])
    assert cli(["detect", *TRIB, "-p", "+7"]) == 0
    assert "p = 7: pattern 2-1" in capsys.readouterr().out
