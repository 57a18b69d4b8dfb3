import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recdiv.arith import sieve_primes
from recdiv.recurrence import (
    BruteResult,
    RecurrenceSpec,
    has_zero_bruteforce,
    period_mod,
    term_int,
    term_iter,
    term_mod,
    term_stream,
    zero_term_scan,
)


def test_spec_validation():
    with pytest.raises(ValueError):
        RecurrenceSpec((), ())
    with pytest.raises(ValueError):
        RecurrenceSpec((-1, -1, -1), (1, 1))
    with pytest.raises(ValueError):
        RecurrenceSpec.from_char_poly([2, 1], [1])


def test_char_poly_round_trip(tribonacci):
    assert tribonacci.coeffs == (-1, -1, -1)
    assert tribonacci.char_poly() == (-1, -1, -1, 1)
    assert tribonacci.order == 3


def test_term_int_tribonacci(tribonacci):
    # oracle: direct iteration 1,1,1,3,5,9,17,31,57
    seq = [1, 1, 1]
    for _ in range(6):
        seq.append(seq[-1] + seq[-2] + seq[-3])
    assert seq == [1, 1, 1, 3, 5, 9, 17, 31, 57]
    assert term_int(tribonacci, 8) == 57
    assert term_int(tribonacci, 0) == 1


def test_term_int_geometric():
    spec = RecurrenceSpec((-2,), (3,))  # a_{n+1} = 2 a_n
    assert term_int(spec, 5) == 3 * 2**5


def test_term_int_guard():
    spec = RecurrenceSpec((-2,), (3,))
    with pytest.raises(ValueError, match="term_mod"):
        term_int(spec, 10_001)


def test_term_mod_examples(tribonacci):
    assert term_mod(tribonacci, 8, 5) == 57 % 5 == 2
    assert term_mod(tribonacci, 0, 5) == 1
    # oracle: iteration mod 7 gives 1,1,1,3,5,2,3,3,1,0
    seq = [1, 1, 1]
    for _ in range(7):
        seq.append((seq[-1] + seq[-2] + seq[-3]) % 7)
    assert seq == [1, 1, 1, 3, 5, 2, 3, 3, 1, 0]
    assert term_mod(tribonacci, 9, 7) == 0


def test_term_mod_huge_index(tribonacci):
    # consistency across the two periods: a_n == a_{n + period} mod p
    period = period_mod(tribonacci, 7)
    n = 2**62
    assert term_mod(tribonacci, n, 7) == term_mod(tribonacci, n + period, 7)


small_spec = st.builds(
    RecurrenceSpec,
    st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=4).map(tuple),
    st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=4).map(tuple),
).filter(lambda s: len(s.coeffs) == len(s.init))


@given(
    st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=4),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_term_mod_agrees_with_term_int(coeffs, data):
    init = data.draw(
        st.lists(
            st.integers(min_value=-5, max_value=5),
            min_size=len(coeffs),
            max_size=len(coeffs),
        )
    )
    spec = RecurrenceSpec(tuple(coeffs), tuple(init))
    it = term_iter(spec)
    for n in range(120):
        exact = next(it)
        for p in (3, 5, 7, 11):
            assert term_mod(spec, n, p) == exact % p


@given(
    st.integers(min_value=1, max_value=5).flatmap(
        lambda d: st.tuples(*[st.lists(st.integers(-9, 9), min_size=d, max_size=d)] * 2)
    ),
    st.sampled_from([2, 3, 5, 7, 11, 101, 9973]),
)
@settings(max_examples=40, deadline=None)
def test_term_mod_agrees_with_term_stream(terms, p):
    # oracle: the step-by-step recurrence mod p
    coeffs, init = terms
    spec = RecurrenceSpec(tuple(coeffs), tuple(init))
    for n, want in zip(range(2000), term_stream(spec, p)):
        assert term_mod(spec, n, p) == want, n


def test_period_examples():
    spec = RecurrenceSpec.from_char_poly([1, -3], [1])  # a_{n+1} = 3 a_n
    assert period_mod(spec, 7) == 6  # order of 3 mod 7
    const = RecurrenceSpec.from_char_poly([1, -1], [5])
    assert period_mod(const, 11) == 1


def test_period_methods_agree_on_tribonacci(tribonacci):
    assert period_mod(tribonacci, 7, "brute") == period_mod(tribonacci, 7, "root-orders")


def test_period_rejects_non_periodic():
    spec = RecurrenceSpec.from_char_poly([1, 0, 0, -35], [1, 2, 3])
    with pytest.raises(ValueError, match="not purely periodic"):
        period_mod(spec, 5)
    with pytest.raises(ValueError, match="not purely periodic"):
        has_zero_bruteforce(spec, 5, 10)


def test_period_root_orders_rejects_ramified(tribonacci):
    with pytest.raises(ValueError, match="ramified"):
        period_mod(tribonacci, 11, "root-orders")  # 11 divides disc -44


def test_period_divides_root_order_period(tribonacci):
    # brute period divides the root-order lcm; equal when no gamma vanishes
    for p in (3, 5, 7, 13, 17, 19, 23):
        brute = period_mod(tribonacci, p, "brute")
        upper = period_mod(tribonacci, p, "root-orders")
        assert upper % brute == 0


def test_has_zero_examples(tribonacci):
    r = has_zero_bruteforce(tribonacci, 3, 10**6)
    assert r.kind == "divisor" and r.witness == 3  # a_3 = 3
    r = has_zero_bruteforce(tribonacci, 2, 10**6)
    assert r.kind == "nondivisor"  # all terms odd
    r = has_zero_bruteforce(tribonacci, 7, 0)
    assert r.kind == "capped"


def test_has_zero_scans_whole_period(tribonacci):
    # a capped scan one step short of the period must not claim nondivisor
    period = period_mod(tribonacci, 2)
    r = has_zero_bruteforce(tribonacci, 2, period)
    assert r.kind == "nondivisor" and r.period == period
    r = has_zero_bruteforce(tribonacci, 2, period - 1) if period > 1 else None
    if r is not None:
        assert r.kind == "capped"


def test_no_repeated_state_within_period(tribonacci):
    for p in (3, 5, 7):
        period = period_mod(tribonacci, p)
        start = tuple(term_mod(tribonacci, n, p) for n in range(3))
        states = set()
        state = start
        for _ in range(period):
            assert state not in states
            states.add(state)
            state = (state[1], state[2], sum(state) % p)
        assert state == start


def test_zero_term_scan_examples(tribonacci):
    assert zero_term_scan(tribonacci, 200) == []
    spec = RecurrenceSpec((-1, -1, -1), (0, 0, 1))
    assert zero_term_scan(spec, 2) == [0, 1]
    with pytest.raises(ValueError):
        zero_term_scan(tribonacci, 10**5)


def _reference_zero_scan(spec, p, cap):
    """The zero scan written as a plain list walk: the oracle for the walker."""
    ks = [(-c) % p for c in spec.coeffs]
    start = [v % p for v in spec.init]
    state = list(start)
    n = 0
    while n < cap:
        if state[0] == 0:
            return BruteResult("divisor", witness=n, steps=n + 1)
        state = state[1:] + [sum(k * v for k, v in zip(ks, state)) % p]
        n += 1
        if state == start:
            return BruteResult("nondivisor", period=n, steps=n)
    return BruteResult("capped", steps=cap)


def _oracle_specs(d):
    """8 fixed order-d specs with coefficients and initial terms in [-5, 5]."""
    rng = random.Random(d)
    specs = []
    while len(specs) < 8:
        coeffs = tuple(rng.randint(-5, 5) for _ in range(d))
        if coeffs[0]:
            specs.append(RecurrenceSpec(coeffs, tuple(rng.randint(-5, 5) for _ in range(d))))
    return specs


def test_bruteforce_walker_matches_reference_scan():
    cases = 0
    for d in range(1, 7):
        primes = sieve_primes(300 if d <= 3 else 60)
        for spec in _oracle_specs(d):
            for p in primes:
                if spec.coeffs[0] % p == 0:
                    continue
                for cap in (0, 1, 5, 10**6):
                    got = has_zero_bruteforce(spec, p, cap)
                    want = _reference_zero_scan(spec, p, cap)
                    assert got == want, (spec.fingerprint(), p, cap)
                    cases += 1
    assert cases > 5000
