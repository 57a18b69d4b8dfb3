"""Reference implementations that only the tests call.

Each one computes, by a route of its own, a quantity that the library
decides another way, so the tests can compare the two:

- `term_iter` and `term_int`: exact integer terms, against which
  `term_stream`, `term_mod` and `detect.exact_zeros` are checked;
- `period_mod`: the period mod p by walking the state orbit ("brute") or
  as the lcm of the orders of x modulo the distinct-degree blocks of the
  characteristic polynomial ("root-orders"), each found by stripping primes
  of p^e - 1 with the library's x^e mod f kernel: the period law;
- `cross_validate`: the structural and brute-force deciders side by side;
- `euler_phi`: phi(m) by factorization, the oracle for the totient sieve of
  `charpoly._ratio_orders`.
"""

from __future__ import annotations

from math import lcm

from recdiv.arith import factor_integer, sieve_primes
from recdiv.detect import StructuralContext, build_context, structural_detect
from recdiv.fppoly import _ddf, _x_pow_mod
from recdiv.recurrence import RecurrenceSpec, _mod_recurrence, has_zero_bruteforce

# Exact integer terms are only computed below this index; entries grow
# exponentially in bit size, so large n must go through term_mod.
TERM_INT_GUARD = 10_000


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
    """lcm over the distinct-degree blocks h of f of the order of x mod h.

    A block h is a product of irreducibles of one degree e, so x^(p^e - 1)
    is 1 mod h, and the order of x comes from stripping each prime of
    p^e - 1 while the smaller power is still 1.
    """
    blocks = _ddf([c % p for c in spec.char_poly()], p)  # monic
    if len({e for _, e in blocks}) < len(blocks):
        raise ValueError("ramified prime: characteristic polynomial not squarefree")
    period = 1
    for h, e in blocks:
        order = p**e - 1
        for q, _ in factor_integer(order).factors:
            while order % q == 0 and _x_pow_mod(order // q, h, p) == [1]:
                order //= q
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


def cross_validate(
    spec: RecurrenceSpec, prime_limit: int, cap: int = 10_000_000
) -> list[tuple[int, str, str]]:
    """Run both detectors on every unexcluded (1, d-1) prime; list mismatches.

    The brute scan must complete a full period at every tested prime, so
    prime_limit has to be small enough for the cap; a capped scan raises.
    """
    mismatches = []
    for p in sieve_primes(prime_limit):
        res = build_context(spec, p)
        if not isinstance(res, StructuralContext):
            continue
        sv = structural_detect(res, spec, r_cap=res.q)
        bv = has_zero_bruteforce(spec, p, cap)
        if bv.kind == "capped":
            raise ValueError(f"brute-force cap too small for a full period at p={p}")
        if sv.verdict != bv.kind:
            mismatches.append((p, sv.verdict, bv.kind))
    return mismatches


def euler_phi(n: int) -> int:
    """Euler totient, via factorization."""
    phi = 1
    for q, e in factor_integer(n).factors:
        phi *= (q - 1) * q ** (e - 1)
    return phi
