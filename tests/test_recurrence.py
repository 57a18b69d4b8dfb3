import random
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recdiv.arith import all_divisors, factor_integer, is_prime, mult_order, sieve_primes
from recdiv.fppoly import _mul, _rem, pattern
from recdiv.recurrence import (
    BLOCK,
    BruteResult,
    RecurrenceSpec,
    has_zero_bruteforce,
    term_mod,
    term_stream,
)
from recdiv.recurrence import _block_scan, _lane_bits, _lane_masks, _scan_kernel

from oracles import period_mod, term_int, term_iter


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


# characteristic polynomials of orders 1-5, highest degree first
ROOT_ORDER_POLYS = {
    "2^n": [1, -2],
    "fibonacci": [1, -1, -1],
    "x^2+1": [1, 0, 1],
    "tribonacci": [1, -1, -1, -1],
    "x^3-2": [1, 0, 0, -2],
    "tetranacci": [1, -1, -1, -1, -1],
    "x^4+1": [1, 0, 0, 0, 1],
    "pentanacci": [1, -1, -1, -1, -1, -1],
    "x^5-x-1": [1, 0, 0, 0, -1, -1],
}


def _unramified(spec, bound, count=5):
    """The largest `count` primes p with p^d <= bound that keep the orbit
    purely periodic and f mod p squarefree."""
    primes = sieve_primes(int(bound ** (1 / spec.order)) + 1)
    good = [
        p
        for p in primes
        if p**spec.order <= bound and spec.coeffs[0] % p and pattern(spec.char_poly(), p).squarefree
    ]
    return good[-count:]


def _spec(name):
    poly = ROOT_ORDER_POLYS[name]
    return RecurrenceSpec.from_char_poly(poly, [1] * (len(poly) - 1))


def test_root_order_period_matches_stepping():
    # oracle: the least n >= 1 with x^n = 1 mod f, stepping x^n by one
    # multiplication at a time; for squarefree f this is the lcm of the root orders
    for name in ROOT_ORDER_POLYS:
        spec = _spec(name)
        primes = _unramified(spec, 20_000)
        assert len(primes) >= 3, name
        for p in primes:
            f = [c % p for c in spec.char_poly()]
            xn, n = [0, 1], 1
            while xn != [1]:
                xn, n = _rem(_mul(xn, [0, 1], p), f, p), n + 1
            assert period_mod(spec, p, "root-orders") == n, (name, p)


def test_period_divides_root_order_period():
    # brute period divides the root-order lcm; equal when no gamma vanishes
    for name in ("tribonacci", "tetranacci", "pentanacci", "x^5-x-1"):
        spec = _spec(name)
        for p in _unramified(spec, 30_000, count=8):
            brute = period_mod(spec, p, "brute")
            upper = period_mod(spec, p, "root-orders")
            assert upper % brute == 0, (name, p)


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
    assert r.kind == "nondivisor" and r.steps == period
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


def _reference_zero_scan(spec, p, cap):
    """The zero scan written as a plain list walk: the oracle for has_zero_bruteforce."""
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
            return BruteResult("nondivisor", steps=n)
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
    # odd primes whose scan ends in the first packed block: a zero in lane 0,
    # a return in lane 1, the last zero lane BLOCK - 1, the last return lane BLOCK
    for spec, p, end in _first_block_cases():
        assert _reference_zero_scan(spec, p, 10**6) == end, (spec.fingerprint(), p)
        for cap in (0, 1, 2, BLOCK - 1, BLOCK, BLOCK + 1, 10**6):
            got = has_zero_bruteforce(spec, p, cap)
            assert got == _reference_zero_scan(spec, p, cap), (spec.fingerprint(), p, cap)
            cases += 1
    assert cases > 5000


def _first_block_cases():
    """(spec, p, full scan) for odd p: a_0 = 0, a constant nonzero sequence,
    a least zero at BLOCK - 1 and a zero-free period of exactly BLOCK."""
    rng = random.Random(18)
    zero = BruteResult("divisor", witness=0, steps=1)
    one = BruteResult("nondivisor", steps=1)
    last_zero = BruteResult("divisor", witness=BLOCK - 1, steps=BLOCK)
    last_return = BruteResult("nondivisor", steps=BLOCK)
    return [
        (RecurrenceSpec((-3,), (0,)), 5, zero),
        (RecurrenceSpec((-1, -1, -1), (0, 1, 1)), 7, zero),
        (RecurrenceSpec((-1,) * 4, (0, 1, 1, 1)), 1_000_003, zero),
        (RecurrenceSpec((-1,), (5,)), 3, one),
        (RecurrenceSpec((1, -1, -1), (2, 2, 2)), 1_000_003, one),
        (RecurrenceSpec((-1, 0, 0, 0), (4, 4, 4, 4)), 101, one),
        (_zero_at(3, 1_000_003, BLOCK - 1, rng), 1_000_003, last_zero),
        (_zero_at(4, 999_983, BLOCK - 1, rng), 999_983, last_zero),
        (_long_period(1, 12289, BLOCK), 12289, last_return),  # r^n, r of order BLOCK
        (_long_period(3, 12289, BLOCK), 12289, last_return),  # no r^n of order 3: no zero
    ]


def test_p2_settles_within_d_plus_1_terms():
    # mod 2 with c_0 odd: no zero means every term is 1, so the state returns at once
    cases = 0
    for d in range(1, 13):
        for spec in _oracle_specs(d):
            if spec.coeffs[0] % 2 == 0:
                continue
            for cap in [*range(d + 3), 10**6]:
                got = has_zero_bruteforce(spec, 2, cap)
                assert got == _reference_zero_scan(spec, 2, cap), (spec.fingerprint(), cap)
                assert got.steps <= d + 1, (spec.fingerprint(), cap)
                cases += 1
    assert cases > 300


def test_block_scan_rejects_even_modulus():
    with pytest.raises(ValueError, match="odd modulus, got 2"):
        _block_scan([1], [1] * (BLOCK + 1), 2, 10**6)


@pytest.mark.parametrize("d", range(1, 7))
def test_term_stream_matches_term_iter(d):
    # oracle: the exact integer terms, reduced mod p
    for spec in _oracle_specs(d):
        for p in (2, 3, 7, 101, 9973):
            exact = (v % p for v in term_iter(spec))
            assert list(islice(term_stream(spec, p), 300)) == list(islice(exact, 300)), (
                spec.fingerprint(), p)


def _roots_power_sums(p, roots):
    """The recurrence whose terms are sum_r r^n mod p, from its roots."""
    poly = [1]
    for r in roots:
        poly = [(a - r * b) % p for a, b in zip([0] + poly, poly + [0])]
    init = [sum(pow(r, n, p) for r in roots) % p for n in range(len(roots))]
    return RecurrenceSpec(tuple(poly[:-1]), tuple(init))


def _block_edge_cases():
    """Scans whose period or witness lies on a block edge: power sums of
    r, r^2, ..., r^d with r of order 2*BLOCK mod 12289, and r of order
    3*BLOCK mod 18433."""
    cases = []
    for p, blocks, orders in ((12289, 2, range(1, 6)), (18433, 3, (1,))):
        g = next(a for a in range(2, p) if mult_order(a, p) == p - 1)
        r = pow(g, (p - 1) // (blocks * BLOCK), p)
        for d in orders:
            cases.append((_roots_power_sums(p, [pow(r, j, p) for j in range(1, d + 1)]), p))
    return cases


def test_block_scan_matches_reference_scan():
    rng = random.Random(7)
    primes = [p for p in sieve_primes(4000) if p >= 500]
    cases = _block_edge_cases()
    for d in range(1, 6):
        for spec in _oracle_specs(d):
            for p in rng.sample(primes, 4):
                if spec.coeffs[0] % p:
                    cases.append((spec, p))
    kinds = set()
    for spec, p in cases:
        full = _reference_zero_scan(spec, p, 60_000)
        if full.kind == "capped":
            continue  # a long nondivisor period: too slow for the reference scan
        steps = full.steps
        end = full.witness if full.kind == "divisor" else steps
        kinds.add((full.kind, steps > BLOCK, end % BLOCK == 0))
        for cap in {1, 5, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK, 2 * BLOCK + 1,
                    steps - 1, steps, steps + 1, 10**7}:
            got = has_zero_bruteforce(spec, p, cap)
            assert got == _reference_zero_scan(spec, p, cap), (spec.fingerprint(), p, cap)
    # witnesses and periods past the first block, and on a block edge
    for kind in ("divisor", "nondivisor"):
        assert {(kind, True, False), (kind, True, True)} <= kinds


@pytest.mark.parametrize("p", [999983, 1000003])
def test_block_scan_matches_walker_near_1e6(p):
    for spec in (RecurrenceSpec((-1, -1, -1), (1, 1, 1)), RecurrenceSpec((-1,) * 4, (1,) * 4)):
        want = _reference_zero_scan(spec, p, 10**7)
        assert want.kind == "divisor" and want.steps > 50 * BLOCK
        assert has_zero_bruteforce(spec, p, 10**7) == want
        assert has_zero_bruteforce(spec, p, want.steps) == want
        short = want.steps - 1
        assert has_zero_bruteforce(spec, p, short) == BruteResult("capped", steps=short)


def _zero_at(d, p, n0, rng):
    """An order-d spec with random multipliers mod p and a_{n0} = 0: a state
    starting with 0 stepped back n0 times. Its least zero may come earlier."""
    ks = [rng.randrange(1, p)] + [rng.randrange(p) for _ in range(d - 1)]
    state = [0] + [rng.randrange(p) for _ in range(d - 1)]
    inv = pow(ks[0], -1, p)
    for _ in range(n0):
        state = [(state[-1] - sum(k * v for k, v in zip(ks[1:], state))) * inv % p] + state[:-1]
    return RecurrenceSpec(tuple(-k for k in ks), tuple(state))


def _long_order(p):
    """The largest divisor of p - 1 in (BLOCK, 8 * BLOCK], or None."""
    orders = [t for t in all_divisors(factor_integer(p - 1)) if BLOCK < t <= 8 * BLOCK]
    return orders[-1] if orders else None


def _long_period(d, p, order):
    """Power sums of r, r^2, ..., r^d with r of the given order: that is the period."""
    g = next(a for a in range(2, p) if mult_order(a, p) == p - 1)
    r = pow(g, (p - 1) // order, p)
    return _roots_power_sums(p, [pow(r, j, p) for j in range(1, d + 1)])


def _scan_cases(d, p, rng):
    cases = [_zero_at(d, p, BLOCK + 97, rng)] if d > 1 else []  # order 1 has no zero past a_0
    if order := _long_order(p):
        cases.append(_long_period(d, p, order))
    return cases


def _check_scan(spec, p):
    """has_zero_bruteforce equals the reference at caps around the end of the
    full scan; True when that scan ends past the first block."""
    full = _reference_zero_scan(spec, p, 10**5)
    for cap in {BLOCK + 1, 2 * BLOCK, full.steps - 1, full.steps, 10**5}:
        got = has_zero_bruteforce(spec, p, cap)
        assert got == _reference_zero_scan(spec, p, cap), (spec.fingerprint(), p, cap)
    return full.kind != "capped" and full.steps > BLOCK


def test_block_scan_matches_reference_at_every_lane_width():
    # orders 1-5 at primes from 3 to 3e6, the sweep limit: the smallest and
    # the largest prime of each lane width whose p - 1 has a divisor in
    # (BLOCK, 8 * BLOCK]. Below 514 none has, and a scan runs past the first
    # block only on a zero-free orbit longer than BLOCK.
    rng = random.Random(12)
    primes = sieve_primes(3_000_000)[1:]
    for d in range(1, 6):
        by_width = {}
        for p in primes:
            by_width.setdefault(_lane_bits(d, p)[1], []).append(p)
        covered = set()
        for width, group in by_width.items():
            for seq in (group, group[::-1]):
                p = next((p for p in seq if _long_order(p)), None)
                if p is not None and any([_check_scan(spec, p) for spec in _scan_cases(d, p, rng)]):
                    covered.add(width)
        assert covered == set(range(4 if d == 1 else 5, 10)), (d, sorted(covered))
    p = 2**32 + 15  # the least prime above 2^32
    assert is_prime(p)
    for d in range(1, 6):
        assert _lane_bits(d, p)[1] > max(_lane_bits(d, q)[1] for q in (3, 2_999_999))
        assert all([_check_scan(spec, p) for spec in _scan_cases(d, p, rng)]), d


def test_scan_kernel_compiles_and_scans_for_orders_1_to_8():
    rng = random.Random(8)
    p = 1_000_003
    for d in range(1, 9):
        assert callable(_scan_kernel(d))
        spec = _zero_at(d, p, 3 * BLOCK + d, rng) if d > 1 else RecurrenceSpec((-2,), (5,))
        for cap in (2 * BLOCK, 4 * BLOCK):
            assert has_zero_bruteforce(spec, p, cap) == _reference_zero_scan(spec, p, cap), (d, cap)


def _false_return(p, rng):
    """An order-3 spec with a_3 = a_0 and a_4 = a_1 but a_5 != a_2, and no
    zero among a_0..a_{BLOCK-1}: lane 3 of the first block is a return
    candidate whose state check fails in its last lane."""
    while True:
        a0, a1, a2, k0 = (rng.randrange(1, p) for _ in range(4))
        det = (a1 * a0 - a2 * a2) % p
        if not det:
            continue
        # k1 a1 + k2 a2 = (1 - k0) a0 and k1 a2 + k2 a0 = (1 - k0) a1, by Cramer
        r1, r2, inv = (1 - k0) * a0, (1 - k0) * a1, pow(det, -1, p)
        k1, k2 = (r1 * a0 - r2 * a2) * inv % p, (a1 * r2 - a2 * r1) * inv % p
        spec = RecurrenceSpec((-k0, -k1, -k2), (a0, a1, a2))
        head = list(islice(term_stream(spec, p), BLOCK))
        if head[3:5] == [a0, a1] and head[5] != a2 and 0 not in head:
            return spec


def test_block_scan_alternates_orders_and_lane_widths():
    # one process scans orders 3 and 4 in turn at lane widths 6 (p = 12289,
    # where w is 30 at order 3 and 31 at order 4) and 7 (p = 40961), so lane
    # masks cached for one (d, w, width) must not serve another. Caps fall
    # inside blocks that yield: before a zero or a return in the same block,
    # and around a return candidate whose state check fails
    _lane_masks.cache_clear()
    rng = random.Random(20)
    cases = [(_false_return(p, rng), p) for p in (12289, 40961)]
    for p in (12289, 40961):  # BLOCK divides p - 1
        for d in (3, 4):
            cases += [(_zero_at(d, p, BLOCK + 97, rng), p), (_long_period(d, p, BLOCK), p)]
    assert {_lane_bits(spec.order, p) for spec, p in cases} == {(30, 6), (31, 6), (34, 7)}
    full = [_reference_zero_scan(spec, p, 10**6) for spec, p in cases]
    assert "capped" not in {r.kind for r in full}
    assert full[2::2] == [BruteResult("divisor", witness=BLOCK + 97, steps=BLOCK + 98)] * 4
    # r, r^2, r^3 with r of order BLOCK: no zero; the fourth sum vanishes at BLOCK / 4
    assert full[3::2] == [BruteResult("nondivisor", steps=BLOCK),
                          BruteResult("divisor", witness=BLOCK // 4, steps=BLOCK // 4 + 1)] * 2
    caps = [sorted({1, 3, 4, 5, BLOCK - 1, BLOCK, BLOCK + 1,
                    r.steps - 40, r.steps - 1, r.steps, r.steps + 1, 10**6}) for r in full]
    for k in range(max(map(len, caps))):
        for (spec, p), cs in zip(cases, caps):
            cap = cs[min(k, len(cs) - 1)]
            got = has_zero_bruteforce(spec, p, cap)
            assert got == _reference_zero_scan(spec, p, cap), (spec.fingerprint(), p, cap)


def test_block_scan_rejects_modulus_from_2_to_the_64():
    for p in (2**64 + 1, 2**64 + 13):
        with pytest.raises(ValueError, match=f"below 2\\*\\*64, got {p}"):
            _block_scan([1], [1] * (BLOCK + 1), p, 10**6)
    p = 2**64 - 59  # the largest prime below 2^64
    head = [pow(3, n, p) for n in range(BLOCK + 1)]
    assert _block_scan([3], head, p, 4 * BLOCK) == BruteResult("capped", steps=4 * BLOCK)
