"""Linear recurrence engine over Z and over F_p.

A recurrence of order d is stored by the coefficients c_0..c_{d-1} of
a_{n+d} + c_{d-1} a_{n+d-1} + ... + c_0 a_n = 0 together with the initial
terms a_0..a_{d-1}. Sequences are indexed from 0, and "prime divisor"
means p divides a_n for some n >= 0.

Modular terms use binary powering of x mod the characteristic polynomial,
which is the companion-matrix action written in the quotient algebra. The
powering is `fppoly._x_pow_mod`, generated once per order for the same
reason as the walker below: every divisor witness is re-verified with
`term_mod`, and x^n mod a cubic took about 15 us at n near 1e4 against
163 us for the generic list arithmetic (CPython 3.11.7, 2-core VM).
Brute-force period and zero scans walk the state orbit directly; the orbit
is purely periodic exactly when p does not divide c_0.

The zero scan decides every prime the structural detector does not, so it
runs one generated walker per order: its source is written out for d state
and d multiplier locals and compiled once. A generic step that rebuilds the
state list and sums a generator took about 1.8 us at order 4, against about
0.3 us unrolled (CPython 3.11, 2-core VM), and a scan may take a whole
period, up to p^d - 1 steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import lcm

from .arith import factor_integer, mult_order
from .fppoly import ExtField, _x_pow_mod, ext_elem_order, factor_mod_p, reduce_poly

# Exact integer terms are only computed below this index; entries grow
# exponentially in bit size, so large n must go through term_mod.
TERM_INT_GUARD = 10_000


@dataclass(frozen=True)
class RecurrenceSpec:
    """An integer linear recurrence: coefficients c_0..c_{d-1} and initial terms."""

    coeffs: tuple[int, ...]
    init: tuple[int, ...]

    def __post_init__(self):
        if len(self.coeffs) < 1:
            raise ValueError("order must be at least 1")
        if len(self.init) != len(self.coeffs):
            raise ValueError("need exactly d initial terms")

    @property
    def order(self) -> int:
        return len(self.coeffs)

    def char_poly(self) -> tuple[int, ...]:
        """Monic characteristic polynomial, lowest degree first."""
        return self.coeffs + (1,)

    @classmethod
    def from_char_poly(cls, high_first: list[int], init: list[int]) -> "RecurrenceSpec":
        """Build from characteristic polynomial coefficients, highest degree first."""
        if not high_first or high_first[0] != 1:
            raise ValueError("characteristic polynomial must be monic")
        low_first = list(reversed(high_first))
        return cls(tuple(low_first[:-1]), tuple(init))

    def fingerprint(self) -> str:
        c = ",".join(str(v) for v in self.coeffs)
        a = ",".join(str(v) for v in self.init)
        return f"c={c};a={a}"


def term_iter(spec: RecurrenceSpec):
    """Yields the exact integer terms a_0, a_1, ... indefinitely."""
    window = list(spec.init)
    d = spec.order
    for v in window:
        yield v
    while True:
        nxt = -sum(c * v for c, v in zip(spec.coeffs, window))
        yield nxt
        window = window[1:] + [nxt] if d > 1 else [nxt]


def term_int(spec: RecurrenceSpec, n: int) -> int:
    """Exact integer a_n by iteration, guarded against runaway bit growth."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    if n > TERM_INT_GUARD:
        raise ValueError(f"index {n} exceeds the exact-term guard; use term_mod")
    it = term_iter(spec)
    for _ in range(n):
        next(it)
    return next(it)


def term_mod(spec: RecurrenceSpec, n: int, p: int) -> int:
    """a_n mod p for any n >= 0, via binary powering in F_p[x]/(char poly)."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    d = spec.order
    if n < d:
        return spec.init[n] % p
    cp = [c % p for c in spec.char_poly()]  # monic, so no trailing zero
    xn = _x_pow_mod(n, cp, p)
    return sum(c * (spec.init[i] % p) for i, c in enumerate(xn)) % p


def _mod_recurrence(spec: RecurrenceSpec, p: int) -> tuple[list[int], list[int]]:
    """(step multipliers k_i, initial state) with a_{n+d} = sum k_i a_{n+i} mod p."""
    ks = [(-c) % p for c in spec.coeffs]
    state = [v % p for v in spec.init]
    return ks, state


def term_stream(spec: RecurrenceSpec, p: int):
    """Yields a_0, a_1, ... mod p indefinitely."""
    ks, window = _mod_recurrence(spec, p)
    while True:
        yield window[0]
        window = window[1:] + [sum(k * v for k, v in zip(ks, window)) % p]


def _walk_period(spec: RecurrenceSpec, p: int) -> int:
    ks, s0 = _mod_recurrence(spec, p)
    bound = p**spec.order + 1
    state = s0[1:] + [sum(k * v for k, v in zip(ks, s0)) % p]
    steps = 1
    while state != s0:
        state = state[1:] + [sum(k * v for k, v in zip(ks, state)) % p]
        steps += 1
        if steps > bound:
            raise RuntimeError("period walk exceeded the state count")
    return steps


def _root_order_period(spec: RecurrenceSpec, p: int) -> int:
    cp = reduce_poly(spec.char_poly(), p)
    factors = factor_mod_p(cp)
    if any(m > 1 for _, m in factors):
        raise ValueError("ramified prime: characteristic polynomial not squarefree")
    period = 1
    for g, _ in factors:
        if g.degree == 1:
            root = -g.coeffs[0] % p
            period = lcm(period, mult_order(root, p))
        else:
            field = ExtField(p, g)
            order = ext_elem_order(field.gen(), factor_integer(field.group_order))
            period = lcm(period, order)
    return period


def period_mod(spec: RecurrenceSpec, p: int, method: str = "brute") -> int:
    """Least period of the state orbit mod p.

    method "brute" walks the orbit until the initial state recurs; method
    "root-orders" returns the lcm of the multiplicative orders of the roots
    of the characteristic polynomial in their splitting fields, which is a
    multiple of the brute period and equals it when no gamma coefficient
    vanishes.
    """
    if spec.coeffs[0] % p == 0:
        raise ValueError("not purely periodic")
    if method == "brute":
        return _walk_period(spec, p)
    if method == "root-orders":
        return _root_order_period(spec, p)
    raise ValueError(f"unknown method {method!r}")


@dataclass(frozen=True)
class BruteResult:
    """Outcome of a brute-force zero scan over one period."""

    kind: str  # "divisor" | "nondivisor" | "capped"
    witness: int | None = None
    period: int | None = None
    steps: int = 0


# The zero scan for order d, as source: _walker names the state s0..s{d-1},
# the multipliers k0..k{d-1} and the initial state t0..t{d-1}, so a step is
# one tuple shift and the period test compares locals. Only names built
# from the integer d are substituted.
_WALKER_TEMPLATE = """
def walk(ks, state, p, cap):
    {ks} = ks
    {ss} = state
    {ts} = state
    for n in range(cap):
        if not s0:
            return BruteResult("divisor", witness=n, steps=n + 1)
        {ss} = {shift}
        if {same}:
            return BruteResult("nondivisor", period=n + 1, steps=n + 1)
    return BruteResult("capped", steps=cap)
"""


@lru_cache(maxsize=None)
def _walker(d: int):
    """The zero scan unrolled for order d (see _WALKER_TEMPLATE)."""
    ks, ss, ts = ([f"{v}{i}" for i in range(d)] for v in "kst")
    step = " + ".join(f"{k} * {s}" for k, s in zip(ks, ss))
    src = _WALKER_TEMPLATE.format(
        ks=", ".join(ks) + ",",
        ss=", ".join(ss) + ",",
        ts=", ".join(ts) + ",",
        shift=", ".join(ss[1:] + [f"({step}) % p"]) + ",",
        same=" and ".join(f"{s} == {t}" for s, t in zip(ss, ts)),
    )
    namespace = {"BruteResult": BruteResult}
    exec(src, namespace)  # noqa: S102 - src depends on d alone
    return namespace["walk"]


def has_zero_bruteforce(spec: RecurrenceSpec, p: int, cap: int) -> BruteResult:
    """Scan a_n mod p for n = 0..min(period, cap)-1 for a zero.

    Divisor carries the least witness index; NonDivisor is only reported
    after a full period was scanned, so an uncapped run is a complete
    decision procedure.
    """
    if spec.coeffs[0] % p == 0:
        raise ValueError("not purely periodic")
    ks, s0 = _mod_recurrence(spec, p)
    return _walker(spec.order)(ks, s0, p, cap)


def zero_term_scan(spec: RecurrenceSpec, bound: int) -> list[int]:
    """Indices n <= bound with a_n = 0 exactly (over the integers)."""
    if bound > TERM_INT_GUARD:
        raise ValueError("bound exceeds the exact-term guard")
    out = []
    it = term_iter(spec)
    for n in range(bound + 1):
        if next(it) == 0:
            out.append(n)
    return out
