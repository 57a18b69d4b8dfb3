import pytest

from recdiv.arith import sieve_primes
from recdiv.cli import DEMO_SPEC, cli
from recdiv.detect import (
    ZERO_SCAN_BOUND,
    DetectPolicy,
    StructuralContext,
    build_context,
    detect_full,
    exact_zeros,
    structural_detect,
)
from recdiv.detect import PrimeRow, _verified
from recdiv.fppoly import _pow_mod, factor_mod_p, solve_gamma
from recdiv.recurrence import RecurrenceSpec, has_zero_bruteforce, term_mod

from oracles import cross_validate, term_int

TETRANACCI = RecurrenceSpec.from_char_poly([1, -1, -1, -1, -1], [1, 1, 1, 1])
PENTANACCI = RecurrenceSpec.from_char_poly([1, -1, -1, -1, -1, -1], [1, 1, 1, 1, 1])

STRUCTURAL_SPECS = {
    "tribonacci": RecurrenceSpec.from_char_poly([1, -1, -1, -1], [1, 1, 1]),
    "tribonacci-2-5-1": RecurrenceSpec.from_char_poly([1, -1, -1, -1], [2, 5, 1]),
    "demo": DEMO_SPEC,
    "x^3-2": RecurrenceSpec.from_char_poly([1, 0, 0, -2], [1, 2, 3]),
    "tetranacci": TETRANACCI,
    "pentanacci": PENTANACCI,
    "x^5-x-1": RecurrenceSpec.from_char_poly([1, 0, 0, 0, -1, -1], [1, 2, 3, 4, 5]),
}


def _big_factor(spec, p):
    return list(factor_mod_p(spec.char_poly(), p)[-1][0])


def _vandermonde_gamma1(spec, p):
    """gamma1 solved in F_p[x]/(g) = F_{p^(d-1)}, or None off the (d-1, 1) pattern."""
    d = spec.order
    factors = factor_mod_p(spec.char_poly(), p)
    if [(len(g) - 1, m) for g, m in factors] != [(1, 1), (d - 1, 1)]:
        return None
    g = list(factors[1][0])
    conj = [[0, 1]]  # x and its Frobenius images x^p, x^(p^2), ...
    for _ in range(d - 2):
        conj.append(_pow_mod(conj[-1], p, g, p))
    roots = [[-factors[0][0][0] % p]] + conj
    gamma1 = solve_gamma(roots, list(spec.init), g, p)[0]
    return gamma1[0] if gamma1 else 0


def test_build_context_tribonacci_p7(tribonacci):
    ctx = build_context(tribonacci, 7)
    assert isinstance(ctx, StructuralContext)
    assert ctx.root_base == 3
    assert ctx.nloc == 1  # (-1)^3 * c0 = -(-1)
    assert ctx.base == 27 % 7 == 6
    assert ctx.ord_base == 2
    assert ctx.q == (7**2 - 1) // 6 == 8
    assert ctx.index_base == 3


def test_build_context_demo_bases():
    # the worked-example base 25/7 mod p
    ctx = build_context(DEMO_SPEC, 11)
    assert ctx.base == 25 * pow(7, -1, 11) % 11 == 2
    ctx = build_context(DEMO_SPEC, 13)
    assert ctx.base == 11  # 7^{-1} = 2 mod 13, and 50 mod 13 = 11


def test_build_context_exclusions(tribonacci):
    assert build_context(tribonacci, 2) == "ramified"
    assert build_context(DEMO_SPEC, 5) == "divides-c0"
    assert build_context(tribonacci, 5) == "pattern-mismatch"  # pattern {3} mod 5
    short = RecurrenceSpec((-1, -1), (1, 1))
    assert build_context(short, 7) == "pattern-mismatch"


def test_build_context_gamma1_vanishes(tribonacci):
    # init (2, 5, 1) mod 7 is theta^n + theta^(7n): the base-root coefficient is 0
    spec = RecurrenceSpec(tribonacci.coeffs, (2, 5, 1))
    assert build_context(spec, 7) == "gamma1-vanishes"
    assert _vandermonde_gamma1(spec, 7) == 0
    # the same spec at other structural primes is generically fine
    assert isinstance(build_context(spec, 13), StructuralContext)


def test_context_invariants(tribonacci):
    for p in sieve_primes(300):
        ctx = build_context(tribonacci, p)
        if not isinstance(ctx, StructuralContext):
            continue
        d = tribonacci.order
        assert ctx.q % (p - 1) == (d - 1) % (p - 1)
        assert (p - 1) % ctx.ord_base == 0
        # norm identity: (-1)^d c0 = a1 * N(theta), theta a root of the big factor
        g = _big_factor(tribonacci, p)
        k = len(g) - 1
        norm = _pow_mod([0, 1], (p**k - 1) // (p - 1), g, p)
        assert len(norm) == 1, p  # N(theta) = theta^((p^k - 1)/(p - 1)) lies in F_p
        assert ctx.nloc == ctx.root_base * norm[0] % p
        assert ctx.gamma1 != 0
        assert ctx.base != 0


def test_structural_detect_tribonacci_p7(tribonacci):
    ctx = build_context(tribonacci, 7)
    v = structural_detect(ctx, tribonacci, r_cap=ctx.q)
    assert v.verdict == "divisor"
    assert v.witness == 9  # decomposes as r=1, k=1 with Q=8
    assert term_mod(tribonacci, 9, 7) == 0


def test_structural_detect_demo_p11():
    # base 2 is a primitive root mod 11, so the first nonzero step hits
    ctx = build_context(DEMO_SPEC, 11)
    assert ctx.ord_base == 10
    v = structural_detect(ctx, DEMO_SPEC, r_cap=ctx.q)
    assert v.verdict == "divisor"
    assert term_mod(DEMO_SPEC, v.witness, 11) == 0


def test_structural_detect_empty_scan(tribonacci):
    ctx = build_context(tribonacci, 7)
    v = structural_detect(ctx, tribonacci, r_cap=0)
    assert v.verdict == "indeterminate"


@pytest.mark.parametrize(
    "p, witness, r", [(4201, 25698, 486), (5167, 10620, 284), (12421, 758892, 1150)]
)
def test_structural_detect_long_scan_witnesses(tribonacci, p, witness, r):
    # hits hundreds of residues into the scan, recovered by BSGS within <G>
    ctx = build_context(tribonacci, p)
    v = structural_detect(ctx, tribonacci, r_cap=ctx.q)
    assert v.verdict == "divisor" and v.witness == witness
    assert v.witness % ctx.q == r
    assert has_zero_bruteforce(tribonacci, p, 10**7).kind == "divisor"


@pytest.mark.parametrize("p", [5, 11])
def test_structural_detect_base_of_order_one(p):
    spec = RecurrenceSpec.from_char_poly([1, 0, 0, -2], [3, 0, 0])  # power sums
    ctx = build_context(spec, p)
    assert ctx.ord_base == 1
    v = structural_detect(ctx, spec, r_cap=ctx.q)
    assert v.verdict == "divisor" and v.witness == 1


@pytest.mark.parametrize("name", sorted(STRUCTURAL_SPECS))
def test_build_context_gamma1_matches_vandermonde(name):
    # the closed form sum_k g_k a_k / g(a1) against the extension-field solve
    spec = STRUCTURAL_SPECS[name]
    checked = 0
    for p in sieve_primes(1000):
        if spec.coeffs[0] % p == 0:
            continue
        want = _vandermonde_gamma1(spec, p)
        res = build_context(spec, p)
        if want is None:
            assert res in ("ramified", "pattern-mismatch"), p
        elif want == 0:
            assert res == "gamma1-vanishes", p
        else:
            assert isinstance(res, StructuralContext) and res.gamma1 == want, p
            checked += 1
    assert checked >= 20


def test_build_context_draws_no_random_numbers(tribonacci, monkeypatch):
    # at a (2, 1) prime the root is unique, so no seeded split is drawn
    roots = {}
    for p in sieve_primes(2000):
        res = build_context(tribonacci, p)
        if isinstance(res, StructuralContext):
            roots[p] = res.root_base

    def no_rng(*args):
        raise AssertionError("random.Random built on the structural path")

    monkeypatch.setattr("recdiv.fppoly.random.Random", no_rng)
    for p, root in roots.items():
        ctx = build_context(tribonacci, p)
        assert ctx.root_base == root, p
        assert sum(c * root**i for i, c in enumerate(tribonacci.char_poly())) % p == 0
    assert len(roots) > 100


def test_structural_nondivisor_full_scan():
    # a_n = 9^(n+1) style shifted sequence on x^3-2: only p = 3 ever divides,
    # so every structural prime must come back nondivisor after a full scan
    spec = RecurrenceSpec.from_char_poly([1, 0, 0, -2], [1, 2, 3])
    seen = 0
    for p in sieve_primes(300):
        ctx = build_context(spec, p)
        if not isinstance(ctx, StructuralContext):
            continue
        v = structural_detect(ctx, spec, r_cap=ctx.q)
        assert v.verdict == "nondivisor", p
        b = has_zero_bruteforce(spec, p, 10**7)
        assert b.kind == "nondivisor"
        seen += 1
    assert seen > 10


def test_detect_dispatch(tribonacci):
    v = detect_full(tribonacci, 7)
    assert v.verdict == "divisor" and v.method == "structural" and v.witness == 9
    v = detect_full(tribonacci, 3)  # pattern {3}: brute path
    b = has_zero_bruteforce(tribonacci, 3, 10**7)
    assert v.verdict == b.kind == "divisor" and v.witness == b.witness == 3
    assert v.method == "brute"
    v = detect_full(tribonacci, 2)
    assert v.verdict == "excluded" and v.reason == "ramified"


def test_detect_order_two_exclusions_and_brute_path():
    # x^2 - x - 3: c0 = -3, discriminant 13; 5 leaves it irreducible, 17 splits it
    spec = RecurrenceSpec((-3, -1), (1, 1))
    for p, reason in ((3, "divides-c0"), (13, "ramified")):
        v = detect_full(spec, p)
        assert (v.verdict, v.reason, v.detail) == ("excluded", reason, None), p
    for p in (5, 17):
        v = detect_full(spec, p)
        assert v.ord_g is None and v.method == "brute", p
        assert v.verdict == has_zero_bruteforce(spec, p, 10**7).kind, p
    assert detect_full(spec, 17).pattern == "1-1"


def test_detect_degenerate_zero_short_circuit():
    spec = RecurrenceSpec((-1, -1, -1), (1, 0, 4))  # a_1 = 0 exactly
    for p in (2, 3, 7, 11):
        v = detect_full(spec, p)
        assert v.verdict == "divisor" and v.method == "none" and v.witness == 1


def test_detect_indeterminate_on_tiny_brute_cap(tribonacci):
    policy = DetectPolicy(brute_cap=1)
    v = detect_full(tribonacci, 5, policy)  # pattern {3}, first zero is later
    assert v.verdict == "indeterminate" and v.method == "brute"


def test_detect_full_exposes_pattern_and_context(tribonacci):
    v = detect_full(tribonacci, 7)
    assert v.pattern == "2-1" and v.squarefree
    assert (v.ord_g, v.index_g, v.q) == (2, 3, 8)
    v = detect_full(tribonacci, 2)
    assert v.pattern == "1-1-1" and not v.squarefree
    assert (v.ord_g, v.index_g, v.q) == (None, None, None) and v.verdict == "excluded"


def test_every_divisor_verdict_carries_verified_witness(tribonacci):
    specs = [
        tribonacci,
        DEMO_SPEC,
        RecurrenceSpec.from_char_poly([1, 0, 1, -1], [5, 1, 2]),
    ]
    for spec in specs:
        for p in sieve_primes(200):
            v = detect_full(spec, p)
            if v.verdict == "divisor":
                assert v.witness is not None
                assert term_mod(spec, v.witness, p) == 0


def test_wrong_divisor_witness_raises_naming_p_and_sequence(tribonacci):
    # a_3 = 3 vanishes mod 3 but not mod 7, so 3 is no witness at p = 7
    def row(p):
        return PrimeRow(p, "3", True, None, "divisor", "brute", 3, None, None, None)

    _verified(tribonacci, row(3))
    with pytest.raises(RuntimeError, match=r"a_3 of c=-1,-1,-1;a=1,1,1 .* mod p=7"):
        _verified(tribonacci, row(7))


def test_cross_validate_empty_on_small_ranges(tribonacci):
    assert cross_validate(tribonacci, 300) == []
    assert cross_validate(DEMO_SPEC, 300) == []
    assert cross_validate(tribonacci, 2) == []
    assert cross_validate(TETRANACCI, 2000) == []
    assert cross_validate(PENTANACCI, 2000) == []


def test_cross_validate_rejects_insufficient_cap(tribonacci):
    with pytest.raises(ValueError, match="cap too small"):
        cross_validate(tribonacci, 300, cap=10)


def test_demo_base_table_and_check(capsys):
    assert cli(["demo", "--limit", "100"]) == 0
    # "  p=11    base=2     25/7 mod p=2     ok" or "  p=2     skipped (ramified)"
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[3:]]
    by_p = {int(row[0][2:]): row[1:] for row in rows}
    assert sorted(by_p) == sieve_primes(100)
    assert by_p[2] == ["skipped", "(ramified)"]
    assert by_p[5] == by_p[7] == ["skipped", "(divides-c0)"]
    assert by_p[11] == ["base=2", "25/7", "mod", "p=2", "ok"]
    assert by_p[13] == ["base=11", "25/7", "mod", "p=11", "ok"]
    for p, row in by_p.items():
        if row[0] != "skipped":
            want = 25 * pow(7, -1, p) % p
            assert row == [f"base={want}", "25/7", "mod", f"p={want}", "ok"], p
    assert cli(["demo", "--check", "--limit", "300"]) == 0
    assert "check passed" in capsys.readouterr().out


def test_structural_and_brute_agree_on_sampled_primes():
    # every 97th prime in (1e4, 1e5], orders 3-5: wherever the brute scan
    # decides, it agrees with the structural verdict and its least witness
    # is at most the structural one
    primes = [p for p in sieve_primes(10**5) if p > 10**4][::97]
    r_cap = DetectPolicy().r_cap
    specs = {
        name: STRUCTURAL_SPECS[name]
        for name in ("tribonacci", "tetranacci", "pentanacci", "x^3-2", "x^5-x-1")
    }
    for name, spec in specs.items():
        compared = 0
        for p in primes:
            ctx = build_context(spec, p)
            if not isinstance(ctx, StructuralContext):
                continue
            sv = structural_detect(ctx, spec, r_cap)
            bv = has_zero_bruteforce(spec, p, 10**6)
            if bv.kind == "capped":
                continue
            assert sv.verdict == bv.kind, (name, p)
            if bv.kind == "divisor":
                assert bv.witness <= sv.witness, (name, p)
            compared += 1
        assert compared >= 10, name


def test_exact_zeros_match_term_int():
    # orders 1-3, with the first zero at n = 0, at n = d - 1, at a later index, or none
    cases = {
        RecurrenceSpec((-2,), (0,)): 0,  # a_n = 0 for every n
        RecurrenceSpec((0,), (5,)): 1,  # 5, 0, 0, ...
        RecurrenceSpec((-2,), (3,)): None,
        RecurrenceSpec((-1, -1), (0, 1)): 0,  # Fibonacci
        RecurrenceSpec((-1, -1), (1, 0)): 1,
        RecurrenceSpec((-1, -1), (-3, 2)): 4,  # -3, 2, -1, 1, 0, 1, 1, ...
        RecurrenceSpec((1, 0), (0, 1)): 0,  # a_{n+2} = -a_n: every even n
        RecurrenceSpec((-1, -1, -1), (0, 1, 1)): 0,
        RecurrenceSpec((-1, -1, -1), (1, 1, 0)): 2,
        RecurrenceSpec((-1, -1, -1), (1, -2, 1)): 3,  # 1, -2, 1, 0, -1, 0, -1, ...
        RecurrenceSpec((-1, -1, -1), (1, 1, 1)): None,  # Tribonacci
    }
    for spec, first in cases.items():
        want = tuple(n for n in range(ZERO_SCAN_BOUND + 1) if term_int(spec, n) == 0)
        assert exact_zeros(spec) == want, spec.fingerprint()
        assert (want[0] if want else None) == first, spec.fingerprint()
