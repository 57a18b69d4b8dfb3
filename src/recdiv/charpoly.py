"""Hypothesis checks on characteristic polynomials.

Exact integer arithmetic throughout: discriminants and resultants go
through fraction-free Bareiss elimination on Sylvester matrices, and
degeneracy (a ratio of two roots being a root of unity) is decided by the
discriminants of the polynomials whose roots are the m-th powers of the
roots, built from power sums with Newton's identities. Irreducibility and
symmetric-group certificates come from factorization patterns sampled at
squarefree primes, in one walk inside `analyze_poly` that takes each
pattern once; `is_irreducible_over_Q` and `sd_certificate` read its
profile. The pattern-based checks are sound but incomplete, so they answer
yes / no / unknown."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .arith import all_divisors, euler_phi, factor_integer, sieve_primes
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


def _ip_deriv(a: list[int]) -> list[int]:
    return _trim([i * c for i, c in enumerate(a)][1:])


# ---------------------------------------------------------------------------
# fraction-free determinants and resultants


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


def _sylvester(f: list[int], g: list[int]) -> list[list[int]]:
    """Sylvester matrix rows (coefficients highest degree first)."""
    n, m = len(f) - 1, len(g) - 1
    rows = [[0] * i + f[::-1] + [0] * (m - 1 - i) for i in range(m)]
    return rows + [[0] * j + g[::-1] + [0] * (n - 1 - j) for j in range(n)]


def resultant_int(f, g) -> int:
    """Resultant of two integer polynomials, exact."""
    f, g = _ipoly(f), _ipoly(g)
    if not f or not g:
        return 0
    if len(f) == 1:
        return f[0] ** (len(g) - 1)
    if len(g) == 1:
        return g[0] ** (len(f) - 1)
    return _bareiss_det(_sylvester(f, g))


def _disc(poly: list[int]) -> int:
    """The discriminant of a trimmed polynomial, taken as 1 below degree 2."""
    return discriminant(poly) if len(poly) > 2 else 1


def discriminant(coeffs) -> int:
    """Exact discriminant via the resultant of P and P'."""
    p = _ipoly(coeffs)
    d = len(p) - 1
    if d < 2:
        raise ValueError("discriminant needs degree >= 2")
    res = resultant_int(p, _ip_deriv(p))
    sign = -1 if (d * (d - 1) // 2) % 2 else 1
    return sign * res // p[-1]


# ---------------------------------------------------------------------------
# non-degeneracy


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


def _root_power_poly(sums: list[int], d: int, m: int) -> list[int]:
    """The monic polynomial whose roots are the m-th powers of the roots.

    Newton's identities again, run backwards from the power sums s_{km} of
    the m-th powers to the coefficients; every division is exact.
    """
    out = [0] * d + [1]
    for k in range(1, d + 1):
        v = sums[k * m] + sum(out[d - i] * sums[(k - i) * m] for i in range(1, k))
        out[d - k] = -v // k
    return out


def nondegeneracy(coeffs) -> tuple[str, int | None]:
    """Whether no ratio of two distinct roots is a root of unity.

    Two distinct roots have a ratio of order dividing m exactly when their
    m-th powers coincide, that is, when the polynomial of m-th powers of the
    roots has discriminant 0. A ratio lies in a field of degree at most
    d(d-1), so its order m has phi(m) <= d(d-1), and the least such m is the
    least order of a ratio. Returns ("no", m) for that m, or ("yes", None).
    The roots are first scaled by the leading coefficient, which keeps their
    ratios and makes the polynomial monic. A root at 0 needs no care: its
    powers are 0 and no other root's are. Requires squarefree input.
    """
    poly = _ipoly(coeffs)
    if len(poly) < 3:
        return ("yes", None)
    if discriminant(poly) == 0:
        raise ValueError("repeated roots")
    return _least_ratio_order(poly)


def _least_ratio_order(poly: list[int]) -> tuple[str, int | None]:
    """nondegeneracy for a trimmed squarefree polynomial of degree >= 2."""
    d = len(poly) - 1
    lead = poly[-1]
    # lead^(d-1) P(x / lead): its roots are lead times P's roots
    monic = [c * lead ** (d - 1 - i) for i, c in enumerate(poly[:-1])] + [1]
    bound = d * (d - 1)
    # m = 1 would compare the roots themselves, which are distinct
    orders = [m for m in range(2, 2 * bound * bound + 1) if euler_phi(m) <= bound]
    sums = _power_sums(monic, d * orders[-1])
    for m in orders:
        if discriminant(_root_power_poly(sums, d, m)) == 0:
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
    sampled primes serves both searches, taking each pattern once.
    """
    poly = _ipoly(coeffs)
    d = len(poly) - 1
    if d < 1 or poly[-1] != 1:
        raise ValueError("need a monic polynomial of degree >= 1")
    disc = _disc(poly)
    if d < 2:
        nondeg, deg_order = "yes", None
    elif disc == 0:
        nondeg, deg_order = "no", 1  # a repeated root has ratio 1
    else:
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


def is_irreducible_over_Q(coeffs, prime_budget: int = 200) -> tuple[str, int | None]:
    """Sound, incomplete irreducibility test for a monic integer polynomial,
    read off analyze_poly: ("yes" | "no" | "unknown", witness)."""
    profile = analyze_poly(coeffs, prime_budget)
    return profile.irreducible, profile.irreducible_witness


def sd_certificate(coeffs, prime_budget: int = 200) -> tuple[str, dict[str, int]]:
    """Certify the Galois group is the full symmetric group, via witnesses,
    read off analyze_poly: ("certified" | "unknown", {pattern: witness prime}).
    """
    profile = analyze_poly(coeffs, prime_budget)
    return profile.sd_certified, profile.witness_primes
