import json

import pytest

from recdiv.arith import sieve_primes
from recdiv.detect import DetectPolicy, detect_full
from recdiv.recurrence import RecurrenceSpec
from recdiv.sweep import (
    _block_rows,
    CSV_HEADER,
    PrimeRow,
    SweepConfig,
    csv_lines,
    run_sweep,
    summarize,
    write_csv,
    write_json,
)


@pytest.fixture(scope="module")
def small_sweep(tribonacci):
    return run_sweep(SweepConfig(spec=tribonacci, limit=100))


def test_rows_match_individual_detect(tribonacci, small_sweep):
    rows, _ = small_sweep
    assert [r.p for r in rows] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97]
    for row in rows:
        assert row == detect_full(tribonacci, row.p)


def test_limit_two_only_excludes_ramified(tribonacci):
    rows, summary = run_sweep(SweepConfig(spec=tribonacci, limit=2))
    assert len(rows) == 1
    assert rows[0].verdict == "excluded" and rows[0].reason == "ramified"
    assert summary["p_min"] == summary["p_max"] == 2
    assert summary["excluded"] == {"ramified": 1}
    assert summary["excluded_total"] == summary["primes_total"] == 1
    assert summary["unexcluded_total"] == summary["divisor_total"] == 0
    assert summary["patterns"] == {}
    assert summary["overall_divisor_fraction"] is None


def test_schema_exact_lines(small_sweep):
    rows, _ = small_sweep
    lines = list(csv_lines(rows))
    assert lines[0] == CSV_HEADER
    by_p = {int(line.split(",")[0]): line for line in lines[1:]}
    assert by_p[2] == "2,1-1-1,0,ramified,excluded,none,,,,"
    assert by_p[7] == "7,2-1,1,,divisor,structural,9,2,3,8"


def test_summary_equals_fold_of_rows(tribonacci, small_sweep):
    rows, summary = small_sweep
    assert summarize(tribonacci.fingerprint(), rows, summary["meta"]) == summary
    # p_min and p_max are the least and greatest p, not the first and last row
    shuffled = summarize(tribonacci.fingerprint(), rows[::-1], summary["meta"])
    assert (shuffled["p_min"], shuffled["p_max"]) == (2, 97)


def _parse_csv(text: str) -> list[PrimeRow]:
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    rows = []
    for line in lines[1:]:
        p, pat, sq, reason, verdict, method, wit, ordg, idxg, q = line.split(",")
        rows.append(
            PrimeRow(
                p=int(p),
                pattern=pat,
                squarefree=sq == "1",
                reason=reason or None,
                verdict=verdict,
                method=method,
                witness=int(wit) if wit else None,
                ord_g=int(ordg) if ordg else None,
                index_g=int(idxg) if idxg else None,
                q=int(q) if q else None,
            )
        )
    return rows


X3_MINUS_2 = RecurrenceSpec.from_char_poly([1, 0, 0, -2], [1, 2, 3])
TRIBONACCI_011 = RecurrenceSpec.from_char_poly([1, -1, -1, -1], [0, 1, 1])


def test_folding_csv_reproduces_summary(tribonacci, tmp_path):
    # the CSV reads back to the very rows the sweep decided, and the JSON is
    # a function of those rows: summarize over them, with the run's meta, is
    # the written JSON. At 2 workers the 95 primes make three blocks, so a
    # pool runs. The capped and degenerate runs give rows with a note for
    # `recdiv detect`, which the CSV drops and equality ignores.
    cases = [
        (tribonacci, DetectPolicy(), 1),
        (tribonacci, DetectPolicy(), 2),
        (X3_MINUS_2, DetectPolicy(r_cap=1, brute_cap=1), 1),  # indeterminate
        (TRIBONACCI_011, DetectPolicy(), 1),  # a_0 = 0: degenerate
    ]
    for i, (spec, policy, workers) in enumerate(cases):
        csv_p = tmp_path / f"{i}.csv"
        json_p = tmp_path / f"{i}.json"
        rows, _ = run_sweep(
            SweepConfig(
                spec=spec,
                limit=500,
                policy=policy,
                workers=workers,
                csv_path=str(csv_p),
                json_path=str(json_p),
            )
        )
        written = json.loads(json_p.read_text())
        parsed = _parse_csv(csv_p.read_text())
        assert parsed == rows
        if spec is not tribonacci:
            assert all(row.detail for row in rows if row.verdict != "excluded")
            assert {row.detail for row in parsed} == {None}
        assert summarize(spec.fingerprint(), parsed, written["meta"]) == written


def test_run_twice_byte_identical(tribonacci, tmp_path):
    outputs = []
    for tag in ("a", "b"):
        csv_p = tmp_path / f"{tag}.csv"
        json_p = tmp_path / f"{tag}.json"
        run_sweep(
            SweepConfig(
                spec=tribonacci, limit=200, csv_path=str(csv_p), json_path=str(json_p)
            )
        )
        outputs.append((csv_p.read_bytes(), json_p.read_bytes()))
    assert outputs[0] == outputs[1]


def test_worker_count_does_not_change_output(tribonacci, tmp_path):
    blobs = []
    for workers in (1, 2):
        csv_p = tmp_path / f"w{workers}.csv"
        json_p = tmp_path / f"w{workers}.json"
        run_sweep(
            SweepConfig(
                spec=tribonacci,
                limit=500,
                workers=workers,
                csv_path=str(csv_p),
                json_path=str(json_p),
            )
        )
        blobs.append((csv_p.read_bytes(), json_p.read_bytes()))
    assert blobs[0] == blobs[1]


def test_guard_rejects_oversized_limits(tribonacci):
    with pytest.raises(ValueError, match="sweep guard"):
        run_sweep(SweepConfig(spec=tribonacci, limit=4_000_000))
    wide = RecurrenceSpec((1,) * 5, (1,) * 5)
    with pytest.raises(ValueError, match="sweep guard"):
        run_sweep(SweepConfig(spec=wide, limit=3_000_001))
    # order 5 is no longer capped where limit^4 reaches 2^63 (from 55,109)
    assert SweepConfig(spec=wide, limit=60_000).limit == 60_000
    sextic = RecurrenceSpec.from_char_poly([1, 0, 0, 0, 0, 0, -2], [1, 0, 0, 0, 0, 0])
    with pytest.raises(ValueError, match="order 6"):
        run_sweep(SweepConfig(spec=sextic, limit=50))
    with pytest.raises(ValueError, match="brute_cap must be at least 1"):
        run_sweep(SweepConfig(spec=tribonacci, limit=60, policy=DetectPolicy(brute_cap=0)))
    with pytest.raises(ValueError, match="r_cap must be at least 1"):
        run_sweep(SweepConfig(spec=tribonacci, limit=60, policy=DetectPolicy(r_cap=-3)))


PENTANACCI = RecurrenceSpec.from_char_poly([1, -1, -1, -1, -1, -1], [1, 1, 1, 1, 1])


def test_order_five_rows_past_the_old_word_guard():
    # the first five primes above 55,108, where p^4 >= 2^63
    primes = [p for p in sieve_primes(56_000) if p > 55_108][:5]
    rows = _block_rows((PENTANACCI, primes, DetectPolicy()))
    assert [r.p for r in rows] == primes
    assert {r.method for r in rows} == {"structural", "brute"}
    for row in rows:
        assert row == detect_full(PENTANACCI, row.p)
        assert (row.ord_g is None) == (row.method != "structural")


def test_csv_prints_q_above_63_bits_exactly():
    p = 2_999_957  # a (4, 1) prime of Pentanacci below the 3e6 sweep cap
    rows = _block_rows((PENTANACCI, [p], DetectPolicy(r_cap=1000, brute_cap=1000)))
    q = (p**4 - 1) // (p - 1)
    assert rows[0].q == q > 2**63
    assert list(csv_lines(rows))[1].split(",")[-1] == str(q) == "26998848016385922300"


def test_indeterminate_rows_never_count_as_decided(tribonacci):
    rows, summary = run_sweep(
        SweepConfig(spec=tribonacci, limit=100, policy=DetectPolicy(brute_cap=1, r_cap=1))
    )
    for key, cell in summary["patterns"].items():
        assert cell["total"] == cell["divisor"] + cell["nondivisor"] + cell["indeterminate"]
        assert cell["indeterminate"] > 0
        assert cell["divisor_fraction"] == cell["divisor"] / cell["total"]
    assert summary["divisor_total"] == sum(
        1 for r in rows if r.verdict == "divisor"
    )


def test_degenerate_spec_marks_every_prime_trivial_divisor():
    spec = RecurrenceSpec((-1, -1, -1), (0, 0, 1))
    rows, summary = run_sweep(SweepConfig(spec=spec, limit=50))
    assert summary["meta"]["degenerate_zero_term"]
    assert summary["meta"]["zero_term_indices"][:2] == [0, 1]
    for row in rows:
        assert row.verdict == "divisor" and row.method == "none" and row.witness == 0


def test_json_is_stable_and_parseable(tribonacci, tmp_path):
    _, summary = run_sweep(SweepConfig(spec=tribonacci, limit=100))
    path = tmp_path / "s.json"
    write_json(summary, str(path))
    loaded = json.loads(path.read_text())
    assert loaded["fingerprint"] == tribonacci.fingerprint()
    assert loaded["meta"]["hypotheses"]["sd_certified"] == "certified"
    assert loaded["excluded"] == {"ramified": 2}
    assert set(loaded["patterns"]) == {"1-1-1", "2-1", "3"}


def test_csv_write_failure_reports_path(tribonacci, small_sweep):
    rows, _ = small_sweep
    with pytest.raises(OSError, match="/nonexistent-dir/out.csv"):
        write_csv(rows, "/nonexistent-dir/out.csv")


def test_csv_is_written_line_by_line(tmp_path):
    # the whole file is never held as one string: 50,000 rows peak far below
    # the 7.7 MiB that joining their lines took
    import tracemalloc

    rows = [
        PrimeRow(p, "2-1", True, None, "divisor", "structural", 9, 2, 3, p + 1)
        for p in range(10**6, 10**6 + 50_000)
    ]
    path = tmp_path / "rows.csv"
    tracemalloc.start()
    try:
        write_csv(rows, str(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert path.read_text() == "\n".join(csv_lines(rows)) + "\n"
