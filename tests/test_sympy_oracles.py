"""Differential tests against sympy, an independent implementation.

sympy is a test-only oracle: the module is skipped when it is absent.
"""

import random

import pytest

from recdiv.arith import mult_order, sieve_primes
from recdiv.charpoly import _least_ratio_order, discriminant

sympy = pytest.importorskip("sympy")
X, Y = sympy.symbols("x y")


def _expr(coeffs, var):
    return sum(c * var**i for i, c in enumerate(coeffs))


def _ratio_nondegeneracy(coeffs):
    """The ratio-polynomial search: the least m with Phi_m dividing the ratios.

    Res_y(P(y), P(x y)) vanishes at every ratio of two roots; after the
    diagonal factor (x - 1)^d is divided out, a ratio of two distinct roots
    is a primitive m-th root of unity exactly when Phi_m shares a root with
    what is left. Needs P(0) != 0, so that every ratio is defined.
    """
    d = len(coeffs) - 1
    ratio = sympy.resultant(_expr(coeffs, Y), _expr(coeffs, X * Y), Y)
    ratio = sympy.quo(sympy.Poly(ratio, X), sympy.Poly((X - 1) ** d, X))
    bound = d * (d - 1)
    for m in range(1, 2 * bound * bound + 1):
        if sympy.totient(m) <= bound:
            if sympy.resultant(ratio, sympy.Poly(sympy.cyclotomic_poly(m, X), X)) == 0:
                return ("no", m)
    return ("yes", None)


def _mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] += u * v
    return out


def _monic(coeffs):
    """lead^(d-1) P(x / lead), the monic polynomial whose roots are lead
    times those of P: it keeps their ratios, and its discriminant is
    lead^((d-1)(d-2)) times that of P."""
    d, lead = len(coeffs) - 1, coeffs[-1]
    return [c * lead ** (d - 1 - i) for i, c in enumerate(coeffs[:-1])] + [1]


def _cases(count=60, seed=8):
    """Squarefree polynomials P of degree 2-5 with P(0) != 0, some non-monic.

    Half are random; the other half carry a quadratic factor whose two
    roots have a ratio of order 2, 3, 4 or 6, times a random factor. The
    library takes monic polynomials only, so it is handed _monic(P), while
    sympy works on P itself: a non-monic P also checks the scaling.
    """
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        if len(out) % 2:
            b = rng.choice([1, 2, 3])
            quad = rng.choice([[b * b, b, 1], [b * b, -b, 1], [b, 0, 1], [3, -3, 1], [2, -2, 1]])
            extra = [rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(rng.randint(0, 3))]
            coeffs = _mul(quad, extra + [rng.choice([1, 2])]) if extra else quad
        else:
            d = rng.randint(2, 5)
            coeffs = [rng.choice([-3, -2, -1, 1, 2, 3])]
            coeffs += [rng.randint(-3, 3) for _ in range(d - 1)]
            coeffs += [rng.choice([1, 1, -1, 2, 3])]
        if sympy.discriminant(_expr(coeffs, X), X) != 0:
            out.append(coeffs)
    return out


CASES = _cases()


def test_cases_cover_degrees_leads_and_degenerate_orders():
    assert {len(c) - 1 for c in CASES} == {2, 3, 4, 5}
    assert any(abs(c[-1]) > 1 for c in CASES)
    orders = {_least_ratio_order(_monic(c))[1] for c in CASES}
    assert {None, 2, 3, 4, 6} <= orders


@pytest.mark.parametrize("coeffs", CASES, ids=str)
def test_nondegeneracy_matches_ratio_polynomial(coeffs):
    assert _least_ratio_order(_monic(coeffs)) == _ratio_nondegeneracy(coeffs)


@pytest.mark.parametrize("coeffs", CASES, ids=str)
def test_discriminant_matches_sympy(coeffs):
    d, lead = len(coeffs) - 1, coeffs[-1]
    want = lead ** ((d - 1) * (d - 2)) * sympy.discriminant(_expr(coeffs, X), X)
    assert discriminant(_monic(coeffs)) == want


def test_mult_order_matches_n_order():
    rng = random.Random(8)
    primes = sieve_primes(10**6)
    for p in rng.sample(primes, 200):
        a = rng.randrange(1, p)
        assert mult_order(a, p) == sympy.n_order(a, p), (a, p)
