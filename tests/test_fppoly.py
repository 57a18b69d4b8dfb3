import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recdiv.arith import factor_integer, sieve_primes
from recdiv.charpoly import expected_pattern_density
from recdiv.demo import DEMO_SPEC
from recdiv.fppoly import (
    ExtField,
    FpPoly,
    _gcd_poly,
    _mul,
    _pow_mod,
    _x_pow_mod,
    ext_elem_order,
    ext_norm,
    factor_mod_p,
    fp_root,
    frobenius,
    pattern,
    reduce_poly,
    solve_gamma,
)
from recdiv.recurrence import term_mod

from conftest import TRIB_POLY


def _poly(coeffs, p):
    return FpPoly.from_list(list(coeffs), p)


def test_reduce_poly_examples():
    assert reduce_poly(TRIB_POLY, 2).coeffs == (1, 1, 1, 1)
    assert reduce_poly(TRIB_POLY, 7).coeffs == (6, 6, 6, 1)
    assert reduce_poly([14, 7], 7).coeffs == ()  # 7x + 14 vanishes


def test_factor_cube_of_linear_mod_2():
    # oracle: (x+1)^3 = x^3 + 3x^2 + 3x + 1 == x^3+x^2+x+1 mod 2
    cube = _mul(_mul([1, 1], [1, 1], 2), [1, 1], 2)
    assert cube == [1, 1, 1, 1]
    assert factor_mod_p(_poly([1, 1, 1, 1], 2)) == [(_poly([1, 1], 2), 3)]


def test_factor_tribonacci_mod_7():
    # oracle: expand (x-3)(x^2+2x+5) mod 7 and compare
    assert _mul([4, 1], [5, 2, 1], 7) == [6, 6, 6, 1]
    got = factor_mod_p(reduce_poly(TRIB_POLY, 7))
    assert got == [(_poly([4, 1], 7), 1), (_poly([5, 2, 1], 7), 1)]


def test_factor_tribonacci_mod_5_irreducible():
    # oracle: no root among 0..4, and a cubic with no roots is irreducible
    assert all(sum(c * x**i for i, c in enumerate(TRIB_POLY)) % 5 for x in range(5))
    got = factor_mod_p(reduce_poly(TRIB_POLY, 5))
    assert len(got) == 1 and got[0][0].degree == 3 and got[0][1] == 1


def test_factor_rejects_zero():
    with pytest.raises(ValueError):
        factor_mod_p(_poly([], 5))


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
    with pytest.raises(ValueError, match="pattern undefined"):
        pattern([1, 5], 5)


def test_fp_root_examples():
    assert fp_root(TRIB_POLY, 7) == 3
    assert fp_root(TRIB_POLY, 5) is None
    assert fp_root([-2, 1], 11) == 2


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
        if coeffs[-1] % p == 0:
            continue
        _, factors = sympy.factor_list(expr, x, modulus=p)
        want = sorted((sympy.degree(g, x) for g, m in factors for _ in range(m)), reverse=True)
        assert pattern(coeffs, p).degrees == tuple(want), p


_F49 = ExtField(7, FpPoly.from_list([5, 2, 1], 7))


def test_ext_field_rejects_reducible_modulus():
    with pytest.raises(ValueError, match="not irreducible"):
        ExtField(7, FpPoly.from_list([6, 6, 6, 1], 7))  # has root 3 mod 7


def test_ext_norm_examples():
    theta = _F49.gen()
    # norm of a root of a monic quadratic is its constant term
    assert ext_norm(theta) == 5
    assert ext_norm(_F49.one()) == 1
    # scalar norm is c^k
    assert ext_norm(_F49.embed(3)) == 3**2 % 7


def test_ext_norm_zero():
    assert ext_norm(_F49.zero()) == 0


def test_ext_norm_equals_product_of_conjugates():
    for c in ([1, 1], [2, 3], [4, 6], [0, 5]):
        a = _F49.elem(c)
        prod = a * frobenius(a)
        assert prod.is_base() and prod.base_value() == ext_norm(a)


def test_frobenius_fixes_base_and_permutes_roots():
    assert frobenius(_F49.embed(4)) == _F49.embed(4)
    theta = _F49.gen()
    img = frobenius(theta)
    # image must be the other root of the modulus: check by evaluation
    val = img * img + _F49.embed(2) * img + _F49.embed(5)
    assert val.is_zero()
    assert img != theta


@given(st.lists(st.integers(min_value=0, max_value=6), min_size=2, max_size=2))
@settings(max_examples=100, deadline=None)
def test_frobenius_power_is_identity(coeffs):
    a = _F49.elem(coeffs)
    assert frobenius(frobenius(a)) == a


@given(
    st.lists(st.integers(min_value=0, max_value=6), min_size=2, max_size=2),
    st.lists(st.integers(min_value=0, max_value=6), min_size=2, max_size=2),
)
@settings(max_examples=200, deadline=None)
def test_ext_norm_multiplicative(c1, c2):
    a, b = _F49.elem(c1), _F49.elem(c2)
    assert ext_norm(a * b) == ext_norm(a) * ext_norm(b) % 7


def test_ext_elem_order_examples():
    assert ext_elem_order(_F49.one(), factor_integer(48)) == 1
    # generator of F_4^*: the class of x in F_2[x]/(x^2+x+1) has order 3
    f4 = ExtField(2, FpPoly.from_list([1, 1, 1], 2))
    assert ext_elem_order(f4.gen(), factor_integer(3)) == 3
    # base-field embedding preserves the order: 2 has order 3 mod 7
    assert ext_elem_order(_F49.embed(2), factor_integer(48)) == 3


def test_ext_elem_order_zero_rejected():
    with pytest.raises(ValueError):
        ext_elem_order(_F49.zero(), factor_integer(48))


def test_solve_gamma_geometric():
    # sequence 2 * 3^n: gamma = (2, 0) against roots (3, 5)
    roots = [_F49.embed(3), _F49.embed(5)]
    gammas = solve_gamma(roots, [2, 6])
    assert [g.base_value() for g in gammas] == [2, 0]


def test_solve_gamma_power_sums():
    # power sums of x^3-x^2-x-1: e1=1, e2=-1, so p0=3, p1=1, p2=1+2=3
    theta = _F49.gen()
    roots = [_F49.embed(3), theta, frobenius(theta)]
    gammas = solve_gamma(roots, [3, 1, 3])
    assert all(g == _F49.one() for g in gammas)


def test_solve_gamma_reconstructs_tribonacci_mod_7(tribonacci):
    theta = _F49.gen()
    roots = [_F49.embed(3), theta, frobenius(theta)]
    gammas = solve_gamma(roots, [1, 1, 1])
    for n in range(6):
        acc = _F49.zero()
        for g, r in zip(gammas, roots):
            acc = acc + g * r**n
        assert acc.is_base()
        assert acc.base_value() == term_mod(tribonacci, n, 7)


def test_solve_gamma_rejects_repeated_roots():
    with pytest.raises(ValueError, match="ramified"):
        solve_gamma([_F49.embed(3), _F49.embed(3)], [1, 2])


_PRIMES = sieve_primes(200)[2:]  # odd primes > 3 for random factoring

poly_strategy = st.tuples(
    st.sampled_from(_PRIMES),
    st.lists(st.integers(min_value=0, max_value=10**6), min_size=2, max_size=6),
)


@given(poly_strategy)
@settings(max_examples=150, deadline=None)
def test_factor_product_reconstructs_and_factors_irreducible(args):
    p, coeffs = args
    f = FpPoly.from_list([c % p for c in coeffs], p)
    if f.degree < 1:
        return
    factors = factor_mod_p(f)
    prod = [pow(f.coeffs[-1], 1, p)] if f.coeffs[-1] == 1 else [f.coeffs[-1]]
    for g, m in factors:
        # certify irreducibility via the x^(p^e) == x criterion
        field = ExtField(p, g)  # construction runs the certificate
        assert field.degree == g.degree
        for _ in range(m):
            prod = _mul(prod, list(g.coeffs), p)
    assert prod == list(f.coeffs)
    assert sum(g.degree * m for g, m in factors) == f.degree


@given(poly_strategy)
@settings(max_examples=150, deadline=None)
def test_pattern_degrees_sum_and_squarefree_flag(args):
    p, coeffs = args
    coeffs = list(coeffs)
    if coeffs[-1] % p == 0:
        coeffs[-1] = 1
    deg = len(coeffs) - 1
    pat = pattern(coeffs, p)
    assert sum(pat.degrees) == deg
    from recdiv.fppoly import _deriv

    f = reduce_poly(coeffs, p)
    d = _deriv(list(f.coeffs), p)
    assert pat.squarefree == (bool(d) and _gcd_poly(list(f.coeffs), d, p) == [1])
    full = sorted((g.degree for g, m in factor_mod_p(f) for _ in range(m)), reverse=True)
    assert pat.degrees == tuple(full)
    assert pat.root == (fp_root(coeffs, p) if full.count(1) == 1 else None)


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
