"""Hypothesis checks on characteristic polynomials.

The characteristic polynomial of an integer recurrence is monic, and so is
every polynomial here: `discriminant` and `analyze_poly` reject any other.
Exact integer arithmetic throughout, with no Sylvester matrices: for a
monic polynomial with roots r_1..r_d and power sums s_k, the Hankel matrix
[s_(m(i+j))] for 0 <= i, j < d is V V^T with V the Vandermonde matrix of the
r^m, so its determinant is the product of (r_i^m - r_j^m)^2 over i < j. At
m = 1 that is the discriminant; it vanishes exactly when two m-th powers
coincide, which decides degeneracy (a ratio of two roots being a root of
unity). The power sums come from Newton's identities, and every determinant
is fraction-free Bareiss elimination.

Irreducibility and symmetric-group certificates come from factorization
patterns sampled at squarefree primes, in one walk inside `analyze_poly`
that takes each pattern once; its `PolyProfile` carries both verdicts and
their witness primes. The pattern-based checks are sound but incomplete, so
they answer yes / no / unknown."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .arith import all_divisors, factor_integer, sieve_primes
from .fppoly import _trim, pattern

# ---------------------------------------------------------------------------
# integer polynomial helpers (dense lists, lowest degree first)


def _ipoly(coeffs) -> list[int]:
    return _trim([int(c) for c in coeffs])


def _ip_eval(a: list[int], x: int) -> int:
    v = 0
    for c in reversed(a):
        v = v * x + c
    return v


# ---------------------------------------------------------------------------
# fraction-free determinants


def _bareiss_det(mat: list[list[int]]) -> int:
    """Determinant of an integer matrix of size >= 2, by fraction-free elimination."""
    m = [row[:] for row in mat]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k]:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _disc(poly: list[int]) -> int:
    """The discriminant of a trimmed polynomial, taken as 1 below degree 2."""
    return discriminant(poly) if len(poly) > 2 else 1


def discriminant(coeffs) -> int:
    """Exact discriminant of a monic P of degree d >= 2: the Hankel
    determinant of its power sums."""
    poly = _ipoly(coeffs)
    d = len(poly) - 1
    if d < 2:
        raise ValueError("discriminant needs degree >= 2")
    if poly[-1] != 1:
        raise ValueError(f"discriminant needs a monic polynomial, got {poly}")
    return _hankel_det(_power_sums(poly, 2 * d - 2), d, 1)


# ---------------------------------------------------------------------------
# power sums and non-degeneracy


def _power_sums(monic: list[int], count: int) -> list[int]:
    """Power sums s_0..s_count of the roots of a monic integer polynomial.

    Newton's identities: s_k = -(k c_{d-k} + sum_{i=1}^{k-1} c_{d-i} s_{k-i}),
    where c_j = 0 for j < 0.
    """
    d = len(monic) - 1
    sums = [d]
    for k in range(1, count + 1):
        v = k * monic[d - k] if k <= d else 0
        v += sum(monic[d - i] * sums[k - i] for i in range(1, min(k - 1, d) + 1))
        sums.append(-v)
    return sums


def _hankel_det(sums: list[int], d: int, m: int) -> int:
    """det[s_(m(i+j))] for 0 <= i, j < d: the product of (r_i^m - r_j^m)^2, i < j."""
    return _bareiss_det([[sums[m * (i + j)] for j in range(d)] for i in range(d)])


@lru_cache(maxsize=None)
def _ratio_orders(d: int) -> tuple[int, ...]:
    """1, then every m >= 2 with phi(m) <= d(d-1): the orders a root of unity
    of degree at most d(d-1) over Q can have. phi(m) >= sqrt(m/2) bounds m by
    2(d(d-1))^2, and one totient sieve to that bound gives every phi(m)."""
    bound = d * (d - 1)
    limit = 2 * bound * bound
    phi = list(range(limit + 1))
    for q in range(2, limit + 1):
        if phi[q] == q:  # no smaller prime divides q
            for m in range(q, limit + 1, q):
                phi[m] -= phi[m] // q
    # m = 1 compares the roots themselves, which coincide at a repeated root
    return (1, *(m for m in range(2, limit + 1) if phi[m] <= bound))


def _least_ratio_order(poly: list[int]) -> tuple[str, int | None]:
    """Whether no ratio of two distinct roots of poly (trimmed, monic) is a root of unity.

    Two distinct roots have a ratio of order dividing m exactly when their
    m-th powers coincide, that is, when the Hankel determinant
    det[s_(m(i+j))] of the power sums vanishes. A ratio lies in a field of
    degree at most d(d-1), so its order m has phi(m) <= d(d-1), and the
    least such m is the least order of a ratio. Returns ("no", m) for that
    m, or ("yes", None); a repeated root gives ("no", 1). poly is monic. A
    root at 0 needs no care: its powers are 0 and no other root's are.
    """
    d = len(poly) - 1
    if d < 2:
        return ("yes", None)
    orders = _ratio_orders(d)
    sums = _power_sums(poly, (2 * d - 2) * orders[-1])
    for m in orders:
        if _hankel_det(sums, d, m) == 0:
            return ("no", m)
    return ("yes", None)


# ---------------------------------------------------------------------------
# irreducibility and S_d certificates from sampled factorization patterns


def _subset_sums(parts: tuple[int, ...], limit: int) -> set[int]:
    sums = {0}
    for v in parts:
        sums |= {s + v for s in sums}
    return {s for s in sums if 1 <= s <= limit}


SAMPLE_LIMIT = 100_000


class PrimeBudgetTooLarge(ValueError):
    """The prime budget asks for more unramified primes than the sample holds."""


@lru_cache(maxsize=1)
def _sample_primes() -> tuple[int, ...]:
    return tuple(sieve_primes(SAMPLE_LIMIT))


def _squarefree_primes(disc: int, budget: int) -> list[int]:
    """The first `budget` sample primes that do not divide the discriminant."""
    usable = [p for p in _sample_primes() if disc % p]
    if budget > len(usable):
        raise PrimeBudgetTooLarge(
            f"asked for {budget} primes, but only {len(usable)} primes below "
            f"{SAMPLE_LIMIT} do not divide the discriminant"
        )
    return usable[:budget]


def _rational_root(poly: list[int]) -> int | None:
    """An integer root of a monic integer polynomial of degree >= 2, or None;
    a constant term of 2^48 or more is only tested at 1 and -1."""
    if poly[0] == 0:
        return 0
    if abs(poly[0]) < 2**48:
        candidates = [r for dv in all_divisors(factor_integer(abs(poly[0]))) for r in (dv, -dv)]
    else:
        candidates = [1, -1]
    return next((r for r in candidates if _ip_eval(poly, r) == 0), None)


def expected_pattern_density(d: int, parts) -> Fraction:
    """Chebotarev-predicted frequency: permutations of that cycle type / d!."""
    parts = tuple(sorted(int(v) for v in parts))
    if not parts or any(v < 1 for v in parts) or sum(parts) != d:
        raise ValueError(f"{parts} is not a partition of {d}")
    denom = 1
    for j in set(parts):
        m = parts.count(j)
        denom *= j**m * factorial(m)
    return Fraction(1, denom)


# ---------------------------------------------------------------------------
# profile

# analyze_poly computes a Hankel determinant for each order in
# _ratio_orders(d), from power sums up to s_((2d-2) max order). Its work
# grows fast in the degree (2.65 s at x^16 - x - 1, 16 s at degree 20) and
# with the bit length of those power sums (8 s for a quintic with one
# 300-digit coefficient), so it refuses a polynomial beyond either bound.
MAX_DEGREE = 16
MAX_POWER_SUM_BITS = 2**16


class PolyTooLarge(ValueError):
    """The polynomial is beyond analyze_poly's degree or power-sum bound."""


def check_bounds(poly: list[int]) -> None:
    """Raise PolyTooLarge unless analyze_poly's work on poly (trimmed) is bounded.

    The degree is checked first, so a high degree never reaches
    _ratio_orders. The power sums are estimated at (2d - 2) times the
    largest ratio order times the bit length of 1 + max |c_i|.
    """
    d = len(poly) - 1
    if d > MAX_DEGREE:
        raise PolyTooLarge(f"degree {d} exceeds the analysis bound of {MAX_DEGREE}")
    bits = (2 * d - 2) * _ratio_orders(d)[-1] * (1 + max(map(abs, poly))).bit_length()
    if bits > MAX_POWER_SUM_BITS:
        raise PolyTooLarge(
            f"coefficients too large: the ratio test's power sums would reach about "
            f"{bits} bits, above the analysis bound of {MAX_POWER_SUM_BITS}"
        )


@dataclass(frozen=True)
class PolyProfile:
    """Hypothesis summary for one characteristic polynomial."""

    poly: tuple[int, ...]
    discriminant: int
    irreducible: str
    irreducible_witness: int | None
    nondegenerate: str
    degeneracy_order: int | None
    sd_certified: str
    witness_primes: dict[str, int] = field(default_factory=dict)
    multiplicative_independence: str = "not checked"

    @property
    def all_verified(self) -> bool:
        return (
            self.irreducible == "yes"
            and self.nondegenerate == "yes"
            and self.sd_certified == "certified"
        )


def analyze_poly(coeffs, prime_budget: int = 200) -> PolyProfile:
    """Full hypothesis profile: discriminant, irreducibility, degeneracy, S_d.

    Irreducibility is "no" with a rational root witness when one exists, and
    "yes" from an irreducible pattern at some prime or from degree-sum
    analysis across sampled squarefree primes; otherwise "unknown". The S_d
    search looks for a transposition pattern (one quadratic factor, the rest
    distinct linears) and a (d-1)-cycle pattern {1, d-1}: a transitive group
    containing both is the full symmetric group. Witness primes stop being
    recorded at certification; they are kept when certification fails, and
    dropped unless the polynomial is proved irreducible. One walk over the
    sampled primes serves both searches, taking each pattern once. A
    polynomial beyond check_bounds raises PolyTooLarge before any of that.
    """
    poly = _ipoly(coeffs)
    d = len(poly) - 1
    if d < 1 or poly[-1] != 1:
        raise ValueError("need a monic polynomial of degree >= 1")
    check_bounds(poly)
    disc = _disc(poly)
    nondeg, deg_order = _least_ratio_order(poly)
    witnesses: dict[str, int] = {}
    certified = d <= 2  # no witness needed
    if d == 1:
        irr, irr_witness = "yes", None
    elif (root := _rational_root(poly)) is not None:
        irr, irr_witness = "no", root
    elif disc == 0:
        # shares a factor with its derivative, hence a proper factor over Q
        irr, irr_witness = "no", None
    else:
        transposition = tuple([2] + [1] * (d - 2))
        wanted = {transposition, (d - 1, 1), (d,)}
        keys = {"-".join(map(str, transposition)), f"{d - 1}-1"}
        feasible = set(range(1, d))
        irr, irr_witness = "unknown", None
        for p in _squarefree_primes(disc, prime_budget):
            pat = pattern(poly, p)
            if not certified:
                if pat.degrees in wanted:
                    witnesses.setdefault(pat.key, p)
                certified = keys <= witnesses.keys()
            if irr == "unknown":
                feasible &= _subset_sums(pat.degrees, d - 1)
                if pat.degrees == (d,) or not feasible:
                    irr, irr_witness = "yes", p
            if irr == "yes" and certified:
                break
    if irr != "yes":
        witnesses = {}
    sd = "certified" if irr == "yes" and certified else "unknown"
    return PolyProfile(
        poly=tuple(poly),
        discriminant=disc,
        irreducible=irr,
        irreducible_witness=irr_witness,
        nondegenerate=nondeg,
        degeneracy_order=deg_order,
        sd_certified=sd,
        witness_primes=witnesses,
    )
