"""Hypothesis checks on characteristic polynomials.

Exact integer arithmetic throughout: discriminants and resultants go
through fraction-free Bareiss elimination on Sylvester matrices, degeneracy
(a ratio of two roots being a root of unity) is decided by testing the
ratio polynomial Res_y(P(y), P(x*y)) against cyclotomic polynomials, and
irreducibility / symmetric-group certificates come from factorization
patterns sampled at squarefree primes. The pattern-based checks are sound
but incomplete, so they answer yes / no / unknown.
"""

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


def _ip_mul(a: list[int], b: list[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _trim(out)


def _ip_sub(a: list[int], b: list[int]) -> list[int]:
    out = list(a) + [0] * max(0, len(b) - len(a))
    for i, y in enumerate(b):
        out[i] -= y
    return _trim(out)


def _ip_divexact(a: list[int], b: list[int]) -> list[int]:
    """Exact division in Z[x]; raises if the division leaves a remainder."""
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    a = list(a)
    q = [0] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b):
        if a[-1] % b[-1] != 0:
            raise ArithmeticError("inexact polynomial division")
        c = a[-1] // b[-1]
        k = len(a) - len(b)
        q[k] = c
        for i, y in enumerate(b):
            a[k + i] -= c * y
        _trim(a)
        if not a:
            break
    if a:
        raise ArithmeticError("inexact polynomial division")
    return q


def _ip_eval(a: list[int], x: int) -> int:
    v = 0
    for c in reversed(a):
        v = v * x + c
    return v


def _ip_deriv(a: list[int]) -> list[int]:
    return _trim([i * c for i, c in enumerate(a)][1:])


# ---------------------------------------------------------------------------
# fraction-free determinants and resultants


def _bareiss_det(mat: list[list], mul, sub, divexact, is_zero, zero, one):
    m = [row[:] for row in mat]
    n = len(m)
    if n == 0:
        return one
    sign = 1
    prev = one
    for k in range(n - 1):
        if is_zero(m[k][k]):
            for r in range(k + 1, n):
                if not is_zero(m[r][k]):
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return zero
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = divexact(sub(mul(m[i][j], m[k][k]), mul(m[i][k], m[k][j])), prev)
            m[i][k] = zero
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return det if sign == 1 else sub(zero, det)


def _sylvester(f: list, g: list, zero) -> list[list]:
    """Sylvester matrix rows (coefficients highest degree first)."""
    n, m = len(f) - 1, len(g) - 1
    size = n + m
    rows = []
    fr = list(reversed(f))
    gr = list(reversed(g))
    for i in range(m):
        rows.append([zero] * i + fr + [zero] * (m - 1 - i))
    for j in range(n):
        rows.append([zero] * j + gr + [zero] * (n - 1 - j))
    return rows


def resultant_int(f, g) -> int:
    """Resultant of two integer polynomials, exact."""
    f, g = _ipoly(f), _ipoly(g)
    if not f or not g:
        return 0
    if len(f) == 1:
        return f[0] ** (len(g) - 1)
    if len(g) == 1:
        return g[0] ** (len(f) - 1)
    mat = _sylvester(f, g, 0)
    return _bareiss_det(
        mat,
        lambda a, b: a * b,
        lambda a, b: a - b,
        lambda a, b: a // b,
        lambda a: a == 0,
        0,
        1,
    )


def _resultant_in_y(f_rows: list[list[int]], g_rows: list[list[int]]) -> list[int]:
    """Resultant in y of two polynomials whose y-coefficients are in Z[x]."""
    mat = _sylvester(f_rows, g_rows, [])
    det = _bareiss_det(
        mat,
        _ip_mul,
        _ip_sub,
        _ip_divexact,
        lambda a: not a,
        [],
        [1],
    )
    return det


def discriminant(coeffs) -> int:
    """Exact discriminant via the resultant of P and P'."""
    p = _ipoly(coeffs)
    d = len(p) - 1
    if d < 2:
        raise ValueError("discriminant needs degree >= 2")
    res = resultant_int(p, _ip_deriv(p))
    sign = -1 if (d * (d - 1) // 2) % 2 else 1
    return sign * res // p[-1]


@lru_cache(maxsize=None)
def _cyclotomic(m: int) -> tuple[int, ...]:
    if m == 1:
        return (-1, 1)
    f = [-1] + [0] * (m - 1) + [1]  # x^m - 1
    for d in range(1, m):
        if m % d == 0:
            f = _ip_divexact(f, list(_cyclotomic(d)))
    return tuple(f)


def cyclotomic(m: int) -> list[int]:
    """The m-th cyclotomic polynomial, lowest degree first."""
    return list(_cyclotomic(m))


# ---------------------------------------------------------------------------
# non-degeneracy


def _ratio_poly(poly: list[int]) -> list[int]:
    """Res_y(P(y), P(x*y)): a polynomial whose roots include all root ratios."""
    d = len(poly) - 1
    f_rows = [[c] if c else [] for c in poly]  # P(y), constants in x
    g_rows = []
    for i, c in enumerate(poly):  # P(x*y): coefficient of y^i is c * x^i
        g_rows.append(([0] * i + [c]) if c else [])
    return _resultant_in_y(f_rows, g_rows)


def nondegeneracy(coeffs) -> tuple[str, int | None]:
    """Whether no ratio of two distinct roots is a root of unity.

    Returns ("no", m) with the least m whose cyclotomic polynomial divides
    the ratio polynomial, or ("yes", None). Requires squarefree input; the
    forced diagonal (x-1)^d factor of the ratio polynomial is removed
    before testing. A root at 0 is stripped first (its ratios are 0 or
    undefined, neither a root of unity).
    """
    poly = _ipoly(coeffs)
    d = len(poly) - 1
    if d < 2:
        return ("yes", None)
    if discriminant(poly) == 0:
        raise ValueError("repeated roots")
    work = list(poly)
    if work[0] == 0:
        work = work[1:]
        if len(work) - 1 < 2:
            return ("yes", None)
    k = len(work) - 1
    ratio = _ratio_poly(work)
    for _ in range(k):
        # synthetic division by (x - 1); the diagonal pairs force the factor
        out = []
        acc = 0
        for c in reversed(ratio):
            acc = acc + c
            out.append(acc)
        assert out[-1] == 0, "ratio polynomial must vanish at 1"
        ratio = list(reversed(out[:-1]))
    bound = d * (d - 1)
    for m in range(1, 2 * bound * bound + 1):
        if euler_phi(m) <= bound and resultant_int(ratio, cyclotomic(m)) == 0:
            return ("no", m)
    return ("yes", None)


# ---------------------------------------------------------------------------
# irreducibility and S_d certificates from sampled factorization patterns


def _subset_sums(parts: tuple[int, ...], limit: int) -> set[int]:
    sums = {0}
    for v in parts:
        sums |= {s + v for s in sums}
    return {s for s in sums if 1 <= s <= limit}


@lru_cache(maxsize=1)
def _sample_primes() -> tuple[int, ...]:
    return tuple(sieve_primes(100_000))


def _squarefree_primes(disc: int, budget: int):
    count = 0
    for p in _sample_primes():
        if disc % p == 0:
            continue
        yield p
        count += 1
        if count >= budget:
            return
    raise RuntimeError("prime budget exceeded the sieve range")


def is_irreducible_over_Q(coeffs, prime_budget: int = 200) -> tuple[str, int | None]:
    """Sound, incomplete irreducibility test for a monic integer polynomial.

    "no" comes with a rational root witness when one exists; "yes" either
    from an irreducible pattern at some prime or from degree-sum analysis
    across sampled squarefree primes; otherwise "unknown".
    """
    poly = _ipoly(coeffs)
    d = len(poly) - 1
    if d < 1:
        raise ValueError("need degree >= 1")
    if poly[-1] != 1:
        raise ValueError("polynomial must be monic")
    if d == 1:
        return ("yes", None)
    if poly[0] == 0:
        return ("no", 0)
    if abs(poly[0]) < 2**48:
        for dv in all_divisors(factor_integer(abs(poly[0]))):
            for r in (dv, -dv):
                if _ip_eval(poly, r) == 0:
                    return ("no", r)
    else:
        for r in (1, -1):
            if _ip_eval(poly, r) == 0:
                return ("no", r)
    disc = discriminant(poly)
    if disc == 0:
        # shares a factor with its derivative, hence a proper factor over Q
        return ("no", None)
    feasible = set(range(1, d))
    for p in _squarefree_primes(disc, prime_budget):
        pat = pattern(poly, p)
        if pat.degrees == (d,):
            return ("yes", p)
        feasible &= _subset_sums(pat.degrees, d - 1)
        if not feasible:
            return ("yes", p)
    return ("unknown", None)


def sd_certificate(coeffs, prime_budget: int = 200) -> tuple[str, dict[str, int]]:
    """Certify the Galois group is the full symmetric group, via witnesses.

    Searches squarefree primes for a transposition pattern (one quadratic
    factor, the rest distinct linears) and a (d-1)-cycle pattern {1, d-1}.
    A transitive group containing both is the full symmetric group. Returns
    ("certified" | "unknown", {pattern: witness prime}); the {1, d-1}
    witness is recorded even when certification fails.
    """
    poly = _ipoly(coeffs)
    d = len(poly) - 1
    verdict, _ = is_irreducible_over_Q(poly, prime_budget)
    if verdict != "yes":
        return ("unknown", {})
    if d <= 2:
        return ("certified", {})
    disc = discriminant(poly)
    transposition = tuple([2] + [1] * (d - 2))
    long_cycle = (d - 1, 1)
    wanted = {transposition, long_cycle, (d,)}
    transposition_key = "-".join(map(str, transposition))
    long_cycle_key = "-".join(map(str, long_cycle))
    witnesses: dict[str, int] = {}
    for p in _squarefree_primes(disc, prime_budget):
        pat = pattern(poly, p)
        if pat.degrees in wanted and pat.key not in witnesses:
            witnesses[pat.key] = p
        if transposition_key in witnesses and long_cycle_key in witnesses:
            return ("certified", witnesses)
    return ("unknown", witnesses)


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
    """Full hypothesis profile: discriminant, irreducibility, degeneracy, S_d."""
    poly = _ipoly(coeffs)
    d = len(poly) - 1
    if d < 1 or poly[-1] != 1:
        raise ValueError("need a monic polynomial of degree >= 1")
    disc = discriminant(poly) if d >= 2 else 1
    irr, irr_witness = is_irreducible_over_Q(poly, prime_budget)
    if d < 2:
        nondeg, deg_order = "yes", None
    elif disc == 0:
        nondeg, deg_order = "no", 1  # a repeated root has ratio 1
    else:
        nondeg, deg_order = nondegeneracy(poly)
    sd, witnesses = sd_certificate(poly, prime_budget)
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
