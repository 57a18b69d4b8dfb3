import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recdiv.arith import sieve_primes
from recdiv.charpoly import analyze_poly, discriminant, expected_pattern_density
from recdiv.cli import DEMO_SPEC
from recdiv.fppoly import (
    _add,
    _ddf,
    _divmod,
    _gcd_poly,
    _mul,
    _pow_mod,
    _rem,
    _sub,
    _x_pow_mod,
    factor_mod_p,
    fp_root,
    pattern,
    solve_gamma,
)
from recdiv.orderstats import index_histogram
from recdiv.recurrence import term_mod

from conftest import TRIB_POLY


def _is_squarefree(f, p):
    # oracle: f of degree >= 1 is squarefree exactly when f' != 0 and gcd(f, f') = 1
    deriv = [i * c % p for i, c in enumerate(f)][1:]
    while deriv and deriv[-1] == 0:
        deriv.pop()
    return bool(deriv) and _gcd_poly(f, deriv, p) == [1]


def _is_irreducible(g, p):
    """Rabin's test: monic g of degree k >= 1 is irreducible over F_p exactly
    when x^(p^k) = x mod g and gcd(x^(p^(k/q)) - x, g) = 1 for each prime q | k."""
    k = len(g) - 1
    x = _rem([0, 1], g, p)
    if k < 1 or _pow_mod([0, 1], p**k, g, p) != x:
        return False
    primes = [q for q in range(2, k + 1) if k % q == 0 and all(q % r for r in range(2, q))]
    return all(_gcd_poly(_sub(_pow_mod([0, 1], p ** (k // q), g, p), x, p), g, p) == [1] for q in primes)


def test_factor_cube_of_linear_mod_2():
    # oracle: (x+1)^3 = x^3 + 3x^2 + 3x + 1 == x^3+x^2+x+1 mod 2
    cube = _mul(_mul([1, 1], [1, 1], 2), [1, 1], 2)
    assert cube == [1, 1, 1, 1]
    assert factor_mod_p([1, 1, 1, 1], 2) == [((1, 1), 3)]


def test_factor_tribonacci_mod_7():
    # oracle: expand (x-3)(x^2+2x+5) mod 7 and compare
    assert _mul([4, 1], [5, 2, 1], 7) == [6, 6, 6, 1]
    assert factor_mod_p(TRIB_POLY, 7) == [((4, 1), 1), ((5, 2, 1), 1)]


def test_factor_tribonacci_mod_5_irreducible():
    # oracle: no root among 0..4, and a cubic with no roots is irreducible
    assert all(sum(c * x**i for i, c in enumerate(TRIB_POLY)) % 5 for x in range(5))
    got = factor_mod_p(TRIB_POLY, 5)
    assert len(got) == 1 and len(got[0][0]) - 1 == 3 and got[0][1] == 1


def test_factor_rejects_zero():
    with pytest.raises(ValueError):
        factor_mod_p([], 5)
    with pytest.raises(ValueError):
        factor_mod_p([14, 7], 7)  # 7x + 14 vanishes mod 7


def test_pattern_examples():
    pat = pattern(TRIB_POLY, 7)
    assert pat.degrees == (2, 1) and pat.squarefree
    pat = pattern(TRIB_POLY, 2)
    assert pat.degrees == (1, 1, 1) and not pat.squarefree
    pat = pattern([-2, 0, 0, 1], 5)  # x^3 - 2; 356 % 5: 3**3 == 27 == 2 mod 5
    assert pow(3, 3, 5) == 2
    assert pat.degrees == (2, 1) and pat.squarefree
    assert pat.key == "2-1"


def test_pattern_rejects_vanishing_leading_coefficient():
    with pytest.raises(ValueError, match="pattern needs a monic polynomial"):
        pattern([1, 5], 5)


def test_integer_prologue_errors_name_the_caller():
    # pattern and fp_root share one prologue but keep their own messages
    with pytest.raises(ValueError, match="root search needs a monic polynomial"):
        fp_root([1, 5], 5)
    for fn in (pattern, fp_root):
        with pytest.raises(ValueError, match="zero polynomial"):
            fn([0, 0], 5)
    # integer zeros above the leading coefficient are trimmed first
    assert pattern([1, 1, 0], 5).degrees == (1,)
    assert fp_root([1, 1, 0], 5) == 4


# every public entry point that takes an integer polynomial
_POLY_ENTRY_POINTS = {
    "discriminant": discriminant,
    "pattern": lambda coeffs: pattern(coeffs, 7),
    "fp_root": lambda coeffs: fp_root(coeffs, 7),
    "index_histogram": lambda coeffs: index_histogram(coeffs, 100, [1]),
    "analyze_poly": analyze_poly,
}


# a unit, a multiple of the prime and a negative leading coefficient
@pytest.mark.parametrize("coeffs", ([1, 1, 2], [1, 1, 7], [-1, -1, -1, -1]), ids=str)
@pytest.mark.parametrize("entry", sorted(_POLY_ENTRY_POINTS))
def test_entry_points_reject_non_monic(entry, coeffs):
    with pytest.raises(ValueError, match="monic"):
        _POLY_ENTRY_POINTS[entry](coeffs)


def test_fp_root_examples():
    assert fp_root(TRIB_POLY, 7) == 3
    assert fp_root(TRIB_POLY, 5) is None
    assert fp_root([-2, 1], 11) == 2
    for p in (2, 3, 7):  # a constant has no distinct-degree block, and no root
        assert fp_root([1], p) is None


def test_fp_root_smallest():
    # oracle: x^2 - 1 has roots 1 and p-1; smallest must be returned
    assert fp_root([-1, 0, 1], 13) == 1
    # (x-2)(x-5) mod 11
    assert fp_root([10, -7, 1], 11) == 2


# lowest degree first: Tribonacci, x^3-2, the demo, Tetranacci, Pentanacci, x^5-x-1
_ROOT_POLYS = [
    TRIB_POLY,
    (-2, 0, 0, 1),
    DEMO_SPEC.char_poly(),
    (-1, -1, -1, -1, 1),
    (-1, -1, -1, -1, -1, 1),
    (-1, -1, 0, 0, 0, 1),
]


@pytest.mark.parametrize("coeffs", _ROOT_POLYS)
def test_pattern_root_is_the_lone_root(coeffs):
    # oracle: fp_root splits gcd(x^p - x, f) on its own
    lone = 0
    for p in sieve_primes(2000):
        pat = pattern(coeffs, p)
        if pat.degrees.count(1) == 1:
            assert pat.root == fp_root(coeffs, p), p
            lone += 1
        else:
            assert pat.root is None, p
    assert lone > 50


@pytest.mark.parametrize("d", range(1, 7))
def test_x_pow_mod_matches_generic_pow_mod(d):
    # oracle: the generic square-and-multiply on coefficient lists
    rng = random.Random(d)
    primes = [2, 3, 5, 7] + rng.sample(sieve_primes(10_000)[4:], 16)
    for p in primes:
        def monic(k):
            return [rng.randrange(p) for _ in range(k)] + [1]

        polys = [monic(d), [0] + monic(d - 1)]  # the second has f0 = 0
        if d >= 2:
            g = monic(1)
            polys.append(_mul(_mul(g, g, p), monic(d - 2), p))  # repeated factor
        exps = {0, 1, d - 1, d, p, p**2, p**3, rng.randrange(2**64), rng.randrange(2**64)}
        for f in polys:
            for e in exps:
                assert _x_pow_mod(e, f, p) == _pow_mod([0, 1], e, f, p), (p, f, e)


def test_x_pow_mod_rejects_non_monic_or_constant_modulus():
    for f in ([1, 2], [3], []):
        with pytest.raises(ValueError, match="monic"):
            _x_pow_mod(5, f, 7)


_SYMPY_POLYS = [
    "x**3 - x**2 - x - 1",  # Tribonacci
    "x**4 - x**3 - x**2 - x - 1",  # Tetranacci
    "x**5 - x**4 - x**3 - x**2 - x - 1",  # Pentanacci
    "x**3 - 2",
    "x**5 - x - 1",
    "(x**2 + x + 1)**2 * (x - 2)",  # not squarefree
    "(x**2 + 1)**3",  # derivative 0 mod 3
    "(x - 1)**5",
    "(x**3 - x - 1)**2 * (x + 2)",
]


# sympy 1.14 sorts its factors by comparing modular integers, which it deprecates
@pytest.mark.filterwarnings("ignore::DeprecationWarning")
@pytest.mark.parametrize("text", _SYMPY_POLYS)
def test_pattern_matches_sympy_factor_list(text):
    # oracle: sympy's factorization over F_p, an independent implementation
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    expr = sympy.expand(sympy.sympify(text))
    coeffs = [int(c) for c in reversed(sympy.Poly(expr, x).all_coeffs())]
    for p in sieve_primes(1000):
        _, factors = sympy.factor_list(expr, x, modulus=p)
        want = sorted((sympy.degree(g, x) for g, m in factors for _ in range(m)), reverse=True)
        linear = [sympy.Poly(g, x).all_coeffs() for g, m in factors if sympy.degree(g, x) == 1]
        root = -linear[0][1] * pow(linear[0][0], -1, p) % p if want.count(1) == 1 else None
        pat = pattern(coeffs, p)
        assert pat.degrees == tuple(want), p
        assert pat.squarefree == all(m == 1 for _, m in factors), p
        assert pat.root == root, p


_G49 = [5, 2, 1]  # x^2 + 2x + 5, irreducible mod 7: F_7[x]/(g) is F_49
_THETA_7 = _pow_mod([0, 1], 7, _G49, 7)  # the Frobenius image of x, the other root of g


def test_solve_gamma_geometric():
    # sequence 2 * 3^n: gamma = (2, 0) against roots (3, 5)
    assert solve_gamma([[3], [5]], [2, 6], _G49, 7) == [[2], []]


def test_solve_gamma_power_sums():
    # power sums of x^3-x^2-x-1: e1=1, e2=-1, so p0=3, p1=1, p2=1+2=3
    # oracle for the Frobenius image: the roots of g sum to -2, so x^7 = -2 - x
    assert _THETA_7 == [5, 6]
    gammas = solve_gamma([[3], [0, 1], _THETA_7], [3, 1, 3], _G49, 7)
    assert gammas == [[1], [1], [1]]


def test_solve_gamma_reconstructs_tribonacci_mod_7(tribonacci):
    roots = [[3], [0, 1], _THETA_7]
    gammas = solve_gamma(roots, [1, 1, 1], _G49, 7)
    for n in range(6):
        acc = []
        for g, r in zip(gammas, roots):
            acc = _add(acc, _rem(_mul(g, _pow_mod(r, n, _G49, 7), 7), _G49, 7), 7)
        assert len(acc) <= 1  # the term lies in F_7
        assert (acc[0] if acc else 0) == term_mod(tribonacci, n, 7)


def test_solve_gamma_rejects_repeated_roots():
    with pytest.raises(ValueError, match="ramified"):
        solve_gamma([[3], [3]], [1, 2], _G49, 7)


_PRIMES = sieve_primes(200)[2:]  # odd primes > 3 for random factoring

poly_strategy = st.tuples(
    st.sampled_from(_PRIMES),
    st.lists(st.integers(min_value=0, max_value=10**6), min_size=2, max_size=6),
)


@given(poly_strategy)
@settings(max_examples=150, deadline=None)
def test_factor_product_reconstructs_and_factors_irreducible(args):
    p, coeffs = args
    f = [c % p for c in coeffs]
    while f and f[-1] == 0:
        f.pop()
    if len(f) < 2:
        return
    factors = factor_mod_p(coeffs, p)
    prod = [f[-1]]
    for g, m in factors:
        assert _is_irreducible(list(g), p), g
        for _ in range(m):
            prod = _mul(prod, list(g), p)
    assert prod == f
    assert sum((len(g) - 1) * m for g, m in factors) == len(f) - 1


@given(poly_strategy)
@settings(max_examples=150, deadline=None)
def test_pattern_degrees_sum_and_squarefree_flag(args):
    p, coeffs = args
    coeffs = [*coeffs[:-1], 1]
    deg = len(coeffs) - 1
    pat = pattern(coeffs, p)
    assert sum(pat.degrees) == deg
    assert pat.squarefree == _is_squarefree([c % p for c in coeffs], p)
    full = sorted((len(g) - 1 for g, m in factor_mod_p(coeffs, p) for _ in range(m)), reverse=True)
    assert pat.degrees == tuple(full)
    assert pat.root == (fp_root(coeffs, p) if full.count(1) == 1 else None)


_monic_factor = st.lists(st.integers(min_value=0, max_value=10), min_size=1, max_size=3)


@given(
    st.sampled_from([2, 3, 5, 7, 11]),
    st.lists(st.tuples(_monic_factor, st.integers(min_value=1, max_value=4)), min_size=1, max_size=4),
)
@settings(max_examples=200, deadline=None)
def test_ddf_blocks_multiply_to_f_and_nest(p, factors):
    f = [1]
    for low, mult in factors:
        g = [c % p for c in low] + [1]
        for _ in range(mult):
            f = _mul(f, g, p)
    blocks = _ddf(f, p)
    prod = [1]
    for block, e in blocks:
        prod = _mul(prod, block, p)
        assert (len(block) - 1) % e == 0, (block, e)
        assert _is_squarefree(block, p), (block, e)
    assert prod == f
    for e in {e for _, e in blocks}:
        same = [block for block, k in blocks if k == e]
        for outer, inner in zip(same, same[1:]):
            assert _divmod(outer, inner, p)[1] == [], (outer, inner)


def test_pattern_frequencies_coarse_chebotarev():
    # frequencies over 50 < p < 2000 within 0.1 of the cycle-type densities
    counts = {"1-1-1": 0, "2-1": 0, "3": 0}
    total = 0
    for p in sieve_primes(2000):
        if p <= 50:
            continue
        pat = pattern(TRIB_POLY, p)
        counts[pat.key] += 1
        total += 1
    for key, expect in (("1-1-1", 1 / 6), ("2-1", 1 / 2), ("3", 1 / 3)):
        assert abs(counts[key] / total - expect) < 0.1
        assert float(expected_pattern_density(3, [int(v) for v in key.split("-")])) == expect


def _gauss_count(n, p):
    """Number of monic irreducibles of degree n over F_p: sum_{d | n} mu(d) p^(n/d) / n."""

    def mu(m):
        sign, q = 1, 2
        while m > 1:
            if m % q == 0:
                m //= q
                if m % q == 0:
                    return 0
                sign = -sign
            q += 1
        return sign

    return sum(mu(d) * p ** (n // d) for d in range(1, n + 1) if n % d == 0) // n


@pytest.mark.parametrize(("p", "max_deg"), [(2, 8), (3, 6)])
def test_every_small_monic_polynomial_factors_and_roots(p, max_deg):
    # all monic f of degree <= max_deg: at p = 2 this splits blocks of two
    # cubics and of two quartics with the trace map, and of several roots
    for n in range(max_deg + 1):
        irreducible = 0
        for code in range(p**n):
            f = [code // p**i % p for i in range(n)] + [1]
            factors = factor_mod_p(f, p)
            prod = [1]
            for g, m in factors:
                assert _is_irreducible(list(g), p), (f, g)
                for _ in range(m):
                    prod = _mul(prod, list(g), p)
            assert prod == f, f
            if factors == [(tuple(f), 1)]:
                irreducible += 1
            assert _is_irreducible(f, p) == (factors == [(tuple(f), 1)]), f
            zeros = [x for x in range(p) if sum(c * x**i for i, c in enumerate(f)) % p == 0]
            assert fp_root(f, p) == min(zeros, default=None), f
        if n:
            assert irreducible == _gauss_count(n, p), n
