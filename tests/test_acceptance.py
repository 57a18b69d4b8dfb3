"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The Tribonacci sweep to
100000 is shared across criteria 3, 4, 5 and 10 through a session fixture
that runs it at worker counts 1, 2 and 4.
"""

import pytest

from recdiv.arith import sieve_primes
from recdiv.charpoly import _least_ratio_order, analyze_poly, discriminant
from recdiv.cli import DEMO_SPEC
from recdiv.detect import StructuralContext, build_context
from recdiv.orderstats import artin_fraction, index_histogram
from recdiv.recurrence import RecurrenceSpec
from recdiv.sweep import SweepConfig, run_sweep

from oracles import cross_validate, period_mod

TRIB = RecurrenceSpec.from_char_poly([1, -1, -1, -1], [1, 1, 1])
CUBE2_POWER_SUMS = RecurrenceSpec.from_char_poly([1, 0, 0, -2], [3, 0, 0])


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"CRITERION {num:>2} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="session")
def tribonacci_sweep_100k(tmp_path_factory):
    """The criterion-3 sweep at worker counts 1, 2, 4: summaries and bytes."""
    results = {}
    for workers in (1, 2, 4):
        out = tmp_path_factory.mktemp(f"sweep_w{workers}")
        csv_path = out / "rows.csv"
        json_path = out / "summary.json"
        rows, summary = run_sweep(
            SweepConfig(
                spec=TRIB,
                limit=100_000,
                workers=workers,
                csv_path=str(csv_path),
                json_path=str(json_path),
            )
        )
        results[workers] = {
            "summary": summary,
            "csv": csv_path.read_bytes(),
            "json": json_path.read_bytes(),
        }
    return results


def test_criterion_1_demo_base_reproduction():
    checked = 0
    bad = []
    for p in sieve_primes(1000):
        ctx = build_context(DEMO_SPEC, p)
        if not isinstance(ctx, StructuralContext):
            continue
        checked += 1
        if ctx.base != 25 * pow(7, -1, p) % p:
            bad.append(p)
    _report(
        1,
        "demo base 25/7",
        checked > 0 and not bad,
        f"{checked} structural primes <= 1000, {len(bad)} mismatches (zero tolerance)",
    )


def test_criterion_2_oracle_equivalence():
    disagreements = []
    for name, spec in (
        ("tribonacci", TRIB),
        ("x^3-2 power sums", CUBE2_POWER_SUMS),
        ("demo", DEMO_SPEC),
    ):
        found = cross_validate(spec, 2000, cap=10_000_000)
        disagreements.extend((name, *t) for t in found)
    _report(
        2,
        "oracle equivalence",
        not disagreements,
        f"structural vs full-period brute force to 2000 on 3 sequences: "
        f"{len(disagreements)} disagreements (zero tolerance)",
    )


def test_criterion_3_chebotarev_frequencies(tribonacci_sweep_100k):
    summary = tribonacci_sweep_100k[1]["summary"]
    targets = {"1-1-1": 1 / 6, "2-1": 1 / 2, "3": 1 / 3}
    deltas = {
        key: abs(summary["patterns"][key]["frequency"] - want)
        for key, want in targets.items()
    }
    _report(
        3,
        "pattern frequencies",
        all(d <= 0.02 for d in deltas.values()),
        "max deviation from 1/6, 1/2, 1/3 at X=1e5: "
        f"{max(deltas.values()):.4f} (tolerance 0.02)",
    )


def test_criterion_4_structural_divisor_share(tribonacci_sweep_100k):
    cell = tribonacci_sweep_100k[1]["summary"]["patterns"]["2-1"]
    frac = cell["divisor_fraction"]
    _report(
        4,
        "(1,2)-pattern divisor share",
        frac >= 0.95 and cell["indeterminate"] == 0,
        f"divisor fraction {frac:.4f} (need >= 0.95), "
        f"{cell['indeterminate']} indeterminate (need 0)",
    )


def test_criterion_5_overall_divisor_share(tribonacci_sweep_100k):
    frac = tribonacci_sweep_100k[1]["summary"]["overall_divisor_fraction"]
    _report(
        5,
        "overall divisor share",
        frac >= 0.47,
        f"overall divisor fraction {frac:.4f} (need >= 0.47 at d=3)",
    )


def test_criterion_6_artin_calibration():
    frac = float(artin_fraction(2, 10**6))
    _report(
        6,
        "primitive-root fraction",
        abs(frac - 0.374) <= 0.005,
        f"fraction for base 2 up to 1e6: {frac:.6f} (need 0.374 +- 0.005)",
    )


def test_criterion_7_order_index_trend():
    hist = index_histogram([-1, -1, -1, 1], 100_000, [1, 2, 4, 8])
    fracs = [float(f) for _, f in hist]
    tail = 1 - fracs[-1]
    _report(
        7,
        "order index trend",
        fracs == sorted(fracs) and tail <= 0.2,
        f"histogram nondecreasing, fraction with index > 8 is {tail:.4f} (need <= 0.2)",
    )


def test_criterion_8_period_law():
    bad = []
    for p in sieve_primes(500):
        if TRIB.coeffs[0] % p == 0 or discriminant([-1, -1, -1, 1]) % p == 0:
            continue
        if period_mod(TRIB, p, "brute") != period_mod(TRIB, p, "root-orders"):
            bad.append(p)
    _report(
        8,
        "period law",
        not bad,
        f"brute == lcm-of-root-orders on all squarefree primes <= 500: "
        f"{len(bad)} failures (zero tolerance)",
    )


def test_criterion_9_hypothesis_checks():
    checks = {
        "disc(x^3-x^2-x-1) == -44": discriminant([-1, -1, -1, 1]) == -44,
        "nondegeneracy(x^4+1) == no": _least_ratio_order([1, 0, 0, 0, 1])[0] == "no",
        "sd(x^3-x^2-x-1) certified": analyze_poly([-1, -1, -1, 1]).sd_certified == "certified",
        "sd(x^3+x^2-2x-1) unknown": analyze_poly([-1, -2, 1, 1]).sd_certified == "unknown",
    }
    failing = [k for k, v in checks.items() if not v]
    _report(9, "hypothesis checks", not failing, f"failing: {failing or 'none'}")


def test_criterion_10_worker_determinism(tribonacci_sweep_100k):
    r = tribonacci_sweep_100k
    same_csv = r[1]["csv"] == r[2]["csv"] == r[4]["csv"]
    same_json = r[1]["json"] == r[2]["json"] == r[4]["json"]
    _report(
        10,
        "worker determinism",
        same_csv and same_json,
        f"byte-identical CSV: {same_csv}, JSON: {same_json} for workers 1, 2, 4",
    )
