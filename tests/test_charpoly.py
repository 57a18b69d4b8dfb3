from fractions import Fraction

import pytest

from recdiv.arith import sieve_primes
from recdiv.charpoly import analyze_poly, discriminant, expected_pattern_density
from recdiv.charpoly import _least_ratio_order, _ratio_orders
from recdiv.fppoly import pattern

from conftest import TRIB_POLY
from oracles import euler_phi

CYCLIC_CUBIC = (-1, -2, 1, 1)  # x^3 + x^2 - 2x - 1, discriminant 49


def _cubic_disc(b, c, d):
    # independent oracle: 18abcd - 4b^3d + b^2c^2 - 4ac^3 - 27a^2d^2 with a=1
    return 18 * b * c * d - 4 * b**3 * d + b**2 * c**2 - 4 * c**3 - 27 * d**2


def test_discriminant_examples():
    assert _cubic_disc(-1, -1, -1) == -44
    assert discriminant(TRIB_POLY) == -44
    assert _cubic_disc(0, 0, -2) == -108
    assert discriminant([-2, 0, 0, 1]) == -108
    # (x-1)(x-2)(x-3): squared product of the root differences
    assert ((1 - 2) * (1 - 3) * (2 - 3)) ** 2 == 4
    assert discriminant([-6, 11, -6, 1]) == 4
    assert discriminant(CYCLIC_CUBIC) == 49


def test_discriminant_needs_degree_two():
    with pytest.raises(ValueError):
        discriminant([1, 1])


def test_discriminant_detects_ramified_primes():
    for poly in (TRIB_POLY, (-2, 0, 0, 1), (1, 0, 0, 0, 1), (-35, 37, -11, 1)):
        disc = discriminant(poly)
        for p in sieve_primes(500):
            assert (disc % p == 0) == (not pattern(poly, p).squarefree), (poly, p)


def test_irreducibility_examples():
    profile = analyze_poly([-1, 0, 0, 1])  # x^3 - 1
    assert (profile.irreducible, profile.irreducible_witness) == ("no", 1)
    assert analyze_poly(TRIB_POLY).irreducible == "yes"
    assert analyze_poly([-2, 0, 0, 1]).irreducible == "yes"
    # degree-sum analysis cannot decide x^4 + 1, which never stays irreducible mod p
    assert analyze_poly([1, 0, 0, 0, 1]).irreducible == "unknown"


def test_irreducibility_degree_sum_path():
    # (x^2+1)(x^2+3) is reducible but has no rational root; must not say yes
    poly = [3, 0, 4, 0, 1]
    assert analyze_poly(poly).irreducible in ("no", "unknown")


def test_nondegeneracy_examples():
    verdict, m = _least_ratio_order([1, 0, 0, 0, 1])  # x^4 + 1
    assert verdict == "no" and m == 2  # -1 is a ratio of two 8th roots of unity
    assert _least_ratio_order(list(TRIB_POLY)) == ("yes", None)
    verdict, m = _least_ratio_order([2, -2, 1])  # roots 1 +- i
    assert verdict == "no" and m == 4
    assert _least_ratio_order([1, 1, 1]) == ("no", 3)  # primitive cube roots of unity
    assert _least_ratio_order([3, -3, 1]) == ("no", 6)  # roots sqrt(3) e^(+-i pi/6)
    assert _least_ratio_order([-2, 0, 0, 1]) == ("no", 3)  # cube roots of 2
    assert _least_ratio_order([0, 1, 0, 1]) == ("no", 2)  # 0 and +-i
    assert _least_ratio_order([0, 1, 1]) == ("yes", None)  # 0 and -1


def test_nondegeneracy_flags_repeated_roots():
    # a repeated root is a ratio of order 1; analyze_poly reports it as
    # degenerate with root-of-unity order 1
    assert _least_ratio_order([1, 2, 1]) == ("no", 1)  # (x+1)^2
    profile = analyze_poly([1, 2, 1])
    assert (profile.nondegenerate, profile.degeneracy_order) == ("no", 1)


def test_nondegeneracy_reversal_invariance():
    # replacing P by its (sign-normalized) reciprocal inverts the ratios
    cases = [
        (TRIB_POLY, (-1, 1, 1, 1)),  # x^3+x^2+x-1, the reciprocal of Tribonacci
        ((1, 0, 0, 0, 1), (1, 0, 0, 0, 1)),  # x^4+1 is self-reciprocal
        # (x^2 + 1)(x^2 - 3x - 1) and its reciprocal, whose roots +-i have ratio -1
        ((-1, -3, 0, -3, 1), (-1, 3, 0, 3, 1)),
    ]
    for poly, rev in cases:
        assert _least_ratio_order(list(poly))[0] == _least_ratio_order(list(rev))[0]


def test_ratio_orders_match_euler_phi_filter():
    # oracle: phi(m) by factorization, for every m up to 2 (d(d-1))^2
    for d in range(2, 9):
        bound = d * (d - 1)
        want = [1] + [m for m in range(2, 2 * bound * bound + 1) if euler_phi(m) <= bound]
        assert list(_ratio_orders(d)) == want, d
    assert _ratio_orders(3)[-1] == 18 and len(_ratio_orders(8)) == 108


def test_sd_certificate_examples():
    profile = analyze_poly(TRIB_POLY)
    assert profile.sd_certified == "certified"
    assert "2-1" in profile.witness_primes
    assert pattern(TRIB_POLY, profile.witness_primes["2-1"]).degrees == (2, 1)
    profile = analyze_poly([-1, 0, 0, 1])  # reducible
    assert (profile.sd_certified, profile.witness_primes) == ("unknown", {})


def test_sd_certificate_negative_control():
    # cyclic cubic: square discriminant, the pattern {2,1} never occurs
    profile = analyze_poly(CYCLIC_CUBIC)
    assert profile.sd_certified == "unknown"
    assert "2-1" not in profile.witness_primes


def test_expected_density_examples():
    assert expected_pattern_density(3, (1, 2)) == Fraction(1, 2)
    assert expected_pattern_density(3, (3,)) == Fraction(1, 3)
    assert expected_pattern_density(3, (1, 1, 1)) == Fraction(1, 6)
    with pytest.raises(ValueError):
        expected_pattern_density(3, (2, 2))


def _partitions(n, largest=None):
    if n == 0:
        yield ()
        return
    largest = largest or n
    for part in range(min(n, largest), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part,) + rest


def test_expected_densities_sum_to_one():
    for d in (3, 4, 5):
        total = sum(expected_pattern_density(d, parts) for parts in _partitions(d))
        assert total == 1


def test_analyze_poly_profiles():
    prof = analyze_poly(list(TRIB_POLY))
    assert prof.discriminant == -44
    assert prof.irreducible == "yes"
    assert prof.nondegenerate == "yes"
    assert prof.sd_certified == "certified"
    assert prof.all_verified
    assert prof.multiplicative_independence == "not checked"

    demo = analyze_poly([-35, 37, -11, 1])
    assert demo.irreducible == "no" and demo.irreducible_witness == 5
    assert demo.nondegenerate == "yes"
    assert demo.sd_certified == "unknown"
    assert not demo.all_verified
