"""Per-prime divisorship decision for primes with factorization pattern (1, d-1).

For such a prime, the characteristic polynomial splits mod p as a linear
factor x - a1 times an irreducible factor g of degree d-1. Over the
splitting field every term decomposes along powers of the roots, and
writing n = k*Q + r with Q = (p^{d-1}-1)/(p-1) collapses the extension
roots through the norm map. The zero condition a_n = 0 mod p then becomes a
pure base-field statement: for some r < Q, the ratio

    RHS_r = -(a_r - gamma1 * a1^r) / (gamma1 * a1^r)

lies in the cyclic subgroup generated by the base G = a1^d / ((-1)^d c_0).
The scan over r < Q is therefore a complete decision procedure; the tests
check it against the brute-force period scan. Only base-field numbers
enter: gamma1, the coefficient of a1^n in a_n, has the closed form
sum_k g_k a_k / g(a1), because g annihilates every root but a1.

Membership is the power test RHS^ord(G) = 1, one modular power per residue.
On a hit the exponent k of the witness n = k*Q + r is the discrete log of
RHS_r within <G>, found by baby-step giant-step in O(sqrt(ord G)) steps.

detect_full decides one prime and returns its PrimeRow, the row the sweep
writes to its CSV: a_n = 0 exactly for some n <= ZERO_SCAN_BOUND
(exact_zeros, cached per sequence and read by the sweep's metadata too)
makes it a trivial divisor; otherwise build_context excludes it or gives the
structural context, and a pattern other than (d-1, 1) is brute-forced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

from .arith import mult_order
from .fppoly import FactorPattern, _eval, pattern
from .recurrence import RecurrenceSpec, has_zero_bruteforce, term_mod, term_stream

ZERO_SCAN_BOUND = 200


@dataclass(frozen=True)
class StructuralContext:
    """Everything the structural detector needs at one prime.

    root_base is the residue a1 of the linear factor's root, gamma1 the
    coefficient of a1^n in a_n, nloc = (-1)^d c0, base the subgroup
    generator a1^d / nloc, and q the exponent split (p^{d-1}-1)/(p-1).
    """

    p: int
    root_base: int
    gamma1: int
    nloc: int
    base: int
    ord_base: int
    q: int

    @property
    def index_base(self) -> int:
        return (self.p - 1) // self.ord_base


@dataclass(frozen=True)
class PrimeRow:
    """One prime's decision, which is also its CSV row.

    ord_g, index_g and q come from the structural context and are None off
    the structural path. detail is the note `recdiv detect` prints; the CSV
    has no column for it, so it takes no part in equality and a row read
    back from the CSV equals the decided row.
    """

    p: int
    pattern: str
    squarefree: bool
    reason: str | None
    verdict: str  # "divisor" | "nondivisor" | "excluded" | "indeterminate"
    method: str  # "structural" | "brute" | "none"
    witness: int | None
    ord_g: int | None
    index_g: int | None
    q: int | None
    detail: str | None = field(default=None, compare=False)


@dataclass(frozen=True)
class DetectPolicy:
    """Scan budgets for detection; each must be at least 1."""

    r_cap: int = 2_000_000
    brute_cap: int = 10_000_000

    def __post_init__(self):
        low = [f"{name} must be at least 1, got {cap}"
               for name, cap in (("r_cap", self.r_cap), ("brute_cap", self.brute_cap))
               if cap < 1]
        if low:
            raise ValueError("; ".join(low))


DEFAULT_POLICY = DetectPolicy()


def _verified(spec: RecurrenceSpec, row: PrimeRow) -> None:
    if term_mod(spec, row.witness, row.p) != 0:
        raise RuntimeError(
            f"witness a_{row.witness} of {spec.fingerprint()} does not vanish mod p={row.p}")


def _row(
    spec: RecurrenceSpec, p: int, key: str, squarefree: bool, verdict: str,
    method: str = "none", witness: int | None = None, *, reason: str | None = None,
    detail: str | None = None, ctx: StructuralContext | None = None,
) -> PrimeRow:
    """The row of p; ctx fills ord, index and Q, and a divisor's witness is
    re-verified with term_mod."""
    ord_g = index_g = q = None
    if ctx is not None:
        ord_g, index_g, q = ctx.ord_base, ctx.index_base, ctx.q
    row = PrimeRow(p, key, squarefree, reason, verdict, method, witness, ord_g, index_g, q, detail)
    if verdict == "divisor":
        _verified(spec, row)
    return row


def build_context(
    spec: RecurrenceSpec, p: int, pat: FactorPattern | None = None
) -> StructuralContext | str:
    """Structural context at p, or the reason the structural detector refuses p.

    The one place a prime is excluded, checked in order: p | c0
    ("divides-c0"), ramified ("ramified"), order < 3 or a pattern other
    than (d-1, 1) ("pattern-mismatch"), vanishing gamma1
    ("gamma1-vanishes"). pat, when given, must be the pattern of the
    characteristic polynomial at p.
    """
    d = spec.order
    if spec.coeffs[0] % p == 0:
        return "divides-c0"
    cp = spec.char_poly()
    if pat is None:
        pat = pattern(cp, p)
    if not pat.squarefree:
        return "ramified"
    if d < 3 or pat.degrees != (d - 1, 1):
        return "pattern-mismatch"
    a1 = pat.root
    # g = char poly / (x - a1) by synthetic division, lowest degree first
    g = [1] * d
    for k in range(d - 1, 0, -1):
        g[k - 1] = (cp[k] + a1 * g[k]) % p
    # g kills every root but a1, so sum_k g_k a_k = gamma1 * g(a1)
    gamma1 = sum(gk * a for gk, a in zip(g, spec.init)) * pow(_eval(g, a1, p), -1, p) % p
    if gamma1 == 0:
        return "gamma1-vanishes"
    nloc = (-1) ** d * spec.coeffs[0] % p
    base = pow(a1, d, p) * pow(nloc, -1, p) % p
    ord_base = mult_order(base, p)
    q = (p ** (d - 1) - 1) // (p - 1)
    if __debug__:
        assert nloc == a1 * (-1) ** (d - 1) * g[0] % p, "norm identity violated"
        assert q % (p - 1) == (d - 1) % (p - 1), "exponent congruence violated"
    return StructuralContext(
        p=p,
        root_base=a1,
        gamma1=gamma1,
        nloc=nloc,
        base=base,
        ord_base=ord_base,
        q=q,
    )


def _bsgs(base: int, target: int, order: int, p: int) -> int:
    """Least k in [0, order) with base^k = target; target must lie in <base>."""
    m = math.isqrt(order - 1) + 1
    baby: dict[int, int] = {}
    v = 1
    for j in range(m):
        baby.setdefault(v, j)
        v = v * base % p
    ginv = pow(v, -1, p)  # base^(-m)
    cur = target
    for i in range(m):
        j = baby.get(cur)
        if j is not None:
            return i * m + j
        cur = cur * ginv % p
    raise RuntimeError("discrete log not found in subgroup")


def structural_detect(
    ctx: StructuralContext,
    spec: RecurrenceSpec,
    r_cap: int,
) -> PrimeRow:
    """Scan r = 0..min(Q, r_cap)-1 for a subgroup membership hit.

    A divisor verdict carries the witness n = k*Q + r (re-verified); a
    nondivisor verdict is only reported after the full range r < Q has been
    scanned. A context exists only at a squarefree (d-1, 1) prime, which
    fixes the row's pattern.
    """
    p = ctx.p
    key = f"{spec.order - 1}-1"
    full = ctx.q
    limit = min(full, r_cap)
    a1 = ctx.root_base
    g1 = ctx.gamma1
    ordg = ctx.ord_base
    a1o = pow(a1, ordg, p)
    pw = g1  # gamma1 * a1^r
    pwo = pow(g1, ordg, p)  # pw^ordg, maintained multiplicatively
    stream = term_stream(spec, p)
    for r in range(limit):
        t = (next(stream) - pw) % p
        if t and pow(p - t, ordg, p) == pwo:
            rhs = (p - t) * pow(pw, -1, p) % p
            n = _bsgs(ctx.base, rhs, ordg, p) * full + r
            return _row(spec, p, key, True, "divisor", "structural", n, ctx=ctx)
        pw = pw * a1 % p
        pwo = pwo * a1o % p
    if limit == full:
        return _row(spec, p, key, True, "nondivisor", "structural", ctx=ctx)
    return _row(spec, p, key, True, "indeterminate", "structural", ctx=ctx,
                detail=f"scanned {limit} of {full} residues")


@lru_cache(maxsize=64)
def exact_zeros(spec: RecurrenceSpec) -> tuple[int, ...]:
    """Indices n <= ZERO_SCAN_BOUND with a_n = 0 over the integers, by
    walking the exact terms a_0..a_ZERO_SCAN_BOUND."""
    zeros = []
    window = list(spec.init)  # a_n..a_{n+d-1}
    for n in range(ZERO_SCAN_BOUND + 1):
        if window[0] == 0:
            zeros.append(n)
        window = window[1:] + [-sum(c * v for c, v in zip(spec.coeffs, window))]
    return tuple(zeros)


def detect_full(
    spec: RecurrenceSpec, p: int, policy: DetectPolicy = DEFAULT_POLICY
) -> PrimeRow:
    """The row of p; a pattern mismatch is brute-forced."""
    pat = pattern(spec.char_poly(), p)
    zeros = exact_zeros(spec)
    if zeros:
        return _row(spec, p, pat.key, pat.squarefree, "divisor", witness=zeros[0],
                    detail="degenerate: zero term")
    res = build_context(spec, p, pat)
    if isinstance(res, StructuralContext):
        return structural_detect(res, spec, policy.r_cap)
    if res != "pattern-mismatch":
        return _row(spec, p, pat.key, pat.squarefree, "excluded", reason=res)
    scan = has_zero_bruteforce(spec, p, policy.brute_cap)
    if scan.kind == "capped":
        return _row(spec, p, pat.key, pat.squarefree, "indeterminate", "brute",
                    detail=f"cap {policy.brute_cap} reached")
    return _row(spec, p, pat.key, pat.squarefree, scan.kind, "brute", scan.witness)
