"""Integer linear recurrences and their terms mod p.

A recurrence of order d is stored by the coefficients c_0..c_{d-1} of
a_{n+d} + c_{d-1} a_{n+d-1} + ... + c_0 a_n = 0 together with the initial
terms a_0..a_{d-1}. Sequences are indexed from 0, and "prime divisor"
means p divides a_n for some n >= 0.

Modular terms use binary powering of x mod the characteristic polynomial,
which is the companion-matrix action written in the quotient algebra. The
powering is `fppoly._x_pow_mod`, generated once per order for the same
reason as the term stream below: every divisor witness is re-verified with
`term_mod`, and x^n mod a cubic took about 15 us at n near 1e4 against
163 us for the generic list arithmetic (CPython 3.11.7, 2-core VM).
The zero scan walks the state orbit directly; the orbit is purely periodic
exactly when p does not divide c_0.

A scan of a_n mod p steps one generator per order, `term_stream`: its
source is written out for d state and d multiplier locals and compiled
once. A generic step that rebuilds the state list and sums a generator took
about 0.9-1.5 us at orders 3 and 4, against 0.17-0.33 us unrolled. The
structural scan reads it term by term. The zero scan decides every prime
the structural detector does not, and a scan may take a whole period, up to
p^d - 1 steps. At an odd prime it hands its head, the first BLOCK + 2d - 1
terms (BLOCK = 512), to `_block_scan`. The head is a reduction of one
integer sequence, the same at every prime, so its exact terms are walked
once per sequence and cached (`_exact_prefix`, up to the first term past
the initial ones wider than HEAD_BITS = 1024 bits), and each prime reduces
them in one comprehension; the stream continues from the last d residues
only when the prefix stops short of the head. `_block_scan` tests BLOCK
terms per step from n = 0: every term of a block is a fixed combination of
d packed windows of the first terms, weighted by the coefficients u of x^n
mod f, and an exact divisibility test by multiplication with p^-1 mod 2^w
marks the zeros in all lanes at once. The packing needs an odd modulus;
p = 2 is decided from its first d + 1 terms. The block loop is generated once
per order as well (`_scan_kernel`): the windows, the rows of x^BLOCK and u
are locals, a block is one expression (u0*w0 + ... + u{d-1}*w{d-1}) & low,
two comparisons with all-set bit patterns and d dot products mod p. A block
that misses a bit is yielded with the missing bits, its zeros or else its
return candidates, so the caller locates lanes without redoing the tests,
and checks a candidate on a slice of d lanes, not on shifts of the whole
block. The lane masks that depend only on (d, w, width) come from a small
cache. The head is packed by one array('Q'), one strided bytearray
assignment per byte of p and one int.from_bytes, not one int.to_bytes per
term. For Tribonacci at p from 2e4 to 2.9e6 a block costs 9-11 us (18-21 ns
per term), against 12-16 us for the generic loop with per-term packing
(both loaded in one process, alternated, best of 12, CPython 3.11.7, 2-core
VM). Every scan at an odd prime pays a fixed cost, however early it ends: a
Tribonacci call whose least zero is a_1 took 54 us at p = 101, 66 us at
20,011 and 73 us at 1,000,003, of which the 517-term head took 26-30 us and
`_block_scan` the rest; the head off the stream had taken 35, 62 and 62 us,
and the whole call 62, 99 and 107 us. At order 4 the call took 62-82 us
with a 29-31 us head, against 94-147 us with a 58-94 us stream head (best
of 15 rounds of 300 calls, both versions loaded in one process and
alternated, same machine). The stream costs 0.14-0.25 us per term at orders
3 and 4.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice

from .fppoly import _seq, _x_pow_mod


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


# The terms a_0, a_1, ... mod p for order d, as source: the multipliers sit
# in k0..k{d-1} and the state in s0..s{d-1}, so a step is one tuple shift.
# Only names built from the integer d are substituted.
_STREAM_TEMPLATE = """
def stream(ks, state, p):
    {ks} = ks
    {ss} = state
    while True:
        yield s0
        {ss} = {shift}
"""


@lru_cache(maxsize=None)
def _stream(d: int):
    """The generator function of term_stream, unrolled for order d."""
    ks, ss = ([f"{v}{i}" for i in range(d)] for v in "ks")
    step = " + ".join(f"{k} * {s}" for k, s in zip(ks, ss))
    src = _STREAM_TEMPLATE.format(
        ks=", ".join(ks) + ",",
        ss=", ".join(ss) + ",",
        shift=", ".join(ss[1:] + [f"({step}) % p"]) + ",",
    )
    namespace = {}
    exec(src, namespace)  # noqa: S102 - src depends on d alone
    return namespace["stream"]


def term_stream(spec: RecurrenceSpec, p: int):
    """Yields a_0, a_1, ... mod p indefinitely."""
    ks, state = _mod_recurrence(spec, p)
    return _stream(spec.order)(ks, state, p)


@dataclass(frozen=True)
class BruteResult:
    """Outcome of a brute-force zero scan over one period."""

    kind: str  # "divisor" | "nondivisor" | "capped"
    witness: int | None = None
    steps: int = 0  # terms scanned: a nondivisor's is its period


# Terms the packed zero scan tests per big-integer step (see _block_scan).
BLOCK = 512

# The block loop of _block_scan for order d, as source: the coefficients of
# x^n mod f sit in u0..u{d-1}, the packed windows in w0..w{d-1} and the
# coefficients of x^(BLOCK+k) mod f in r{k}_0..r{k}_{d-1}, so a block is one
# combination of the windows and d dot products mod p. A block yields only
# when a zero bit or a period bit is missing, with the missing bits: zeros,
# or else the return candidates, the lanes that equal a_0. The caller then
# finds the lanes. Only names built from the integer d are substituted.
_SCAN_TEMPLATE = """
def blocks(u, rows, windows, p, cap, low, above, to_a0, zero_bits, period_bits):
    {us} = u
    {rs} = rows
    {ws} = windows
    for n in range(0, cap, {block}):
        x = ({combo}) & low
        zeros = (x + above) & zero_bits
        if zeros != zero_bits:
            yield n, x, zeros ^ zero_bits, 0
        else:
            starts = ((x + to_a0 & low) + above) & period_bits
            if starts != period_bits:
                yield n, x, 0, starts ^ period_bits
        {us} = {step}
"""


@lru_cache(maxsize=None)
def _scan_kernel(d: int):
    """The block loop of _block_scan unrolled for order d (see _SCAN_TEMPLATE)."""
    us, ws = ([f"{v}{c}" for c in range(d)] for v in "uw")
    src = _SCAN_TEMPLATE.format(
        us=_seq(us),
        rs=_seq(f"r{k}_{c}" for k in range(d) for c in range(d)),
        ws=_seq(ws),
        block=BLOCK,
        combo=" + ".join(f"{u} * {w}" for u, w in zip(us, ws)),
        step=_seq(f"({' + '.join(f'u{k} * r{k}_{c}' for k in range(d))}) % p" for c in range(d)),
    )
    namespace = {}
    exec(src, namespace)  # noqa: S102 - src depends on d alone
    return namespace["blocks"]


def _lane_bits(d: int, p: int) -> tuple[int, int]:
    """(w, width) of _block_scan at order d: a lane keeps its test value in its
    low w bits and is width bytes wide, room for a sum of d products u_c A_c."""
    w = (d * (p - 1) ** 2).bit_length() + 1
    return w, -(-(w + (d * p).bit_length() + 1) // 8)


@lru_cache(maxsize=16)
def _lane_masks(d: int, w: int, width: int) -> tuple[int, int, int, int, int]:
    """The masks of _block_scan that depend on p only through (w, width):
    ones (1 in each of its BLOCK + d lanes), low (the low w bits of each),
    the selector of the head's BLOCK + 2d - 1 lanes, and the zero and
    period bits (bit w of lanes 0..BLOCK-1 and of lanes 1..BLOCK)."""
    shift = 8 * width
    mask = (1 << w) - 1
    ones = int.from_bytes(b"\1".ljust(width, b"\0") * (BLOCK + d), "little")
    zero_bits = (1 << w) * (ones >> d * shift)
    return ones, mask * ones, mask * (ones << (d - 1) * shift | ones), zero_bits, zero_bits << shift


def _pack(head: list[int], p: int, width: int) -> int:
    """The terms of head, each below p < 2^64, as one integer of width-byte lanes."""
    words = array("Q", head)
    if sys.byteorder == "big":
        words.byteswap()
    raw = words.tobytes()
    lanes = bytearray(width * len(head))
    for b in range((p.bit_length() + 7) // 8):  # byte b of every lane at once
        lanes[b::width] = raw[b::8]
    return int.from_bytes(lanes, "little")


def _block_scan(ks: list[int], head: list[int], p: int, cap: int) -> BruteResult:
    """The zero scan for n = 0..cap-1, one block of BLOCK terms per step.

    head holds a_0..a_{BLOCK+2d-2} mod p. With u the coefficients of x^n mod
    f, a_{n+i} = sum_c u_c a_{c+i}, an integer x_i <= d (p-1)^2 < 2^(w-1).
    Lane i of the packed window A_c holds a_{c+i} p^-1 mod 2^w, so the low w
    bits of lane i of sum_c u_c A_c are x_i p^-1 mod 2^w, which is at most
    floor((2^w-1)/p) exactly when p | x_i (exact division by an odd
    invariant: Granlund and Montgomery, PLDI 1994, sec. 9). Lanes are wide
    enough that the sum never carries into the next. The first block has
    u = x^0 and reads the head itself; each next one multiplies u by x^BLOCK.
    The block at n tests a_{n+i} = 0 in lanes 0..BLOCK-1, and state_{n+i} =
    state_0 in lanes 1..BLOCK: each lane with a_{n+i} = a_0 is checked
    against the d-1 lanes after it. The blocks come from _scan_kernel; only
    a block with a missing zero or period bit reaches the lane search here,
    and the kernel hands over those bits with it: its zero lanes or, when
    it has none, its return candidates. Its least zero bit decides it: a
    zero z past a return P would repeat at z - P < z, so the least zero of
    the first block that has one precedes every return.
    An even p raises, since p^-1 mod 2^w would not exist, and so does
    p >= 2^64, which the 64-bit words of the packing cannot hold.
    """
    if p % 2 == 0:
        raise ValueError(f"the packed zero scan needs an odd modulus, got {p}")
    if p >> 64:
        raise ValueError(f"the packed zero scan needs a modulus below 2**64, got {p}")
    d = len(ks)
    s0 = head[:d]
    w, width = _lane_bits(d, p)
    shift = 8 * width
    mask = (1 << w) - 1
    bound = mask // p
    span = (1 << d * shift) - 1  # d lanes
    inv = pow(p, -1, 1 << w)
    ones, low, select, zero_bits, period_bits = _lane_masks(d, w, width)
    packed = _pack(head, p, width) * inv & select
    windows = [packed >> c * shift & low for c in range(d)]
    above = (mask - bound) * ones  # a lane plus this reaches bit w iff it exceeds bound
    to_a0 = ((p - s0[0]) * inv & mask) * ones  # a lane plus this is <= bound iff it is a_0

    step = _x_pow_mod(BLOCK, [-k % p for k in ks] + [1], p)
    rows = [step + [0] * (d - len(step))]  # x^k * x^BLOCK mod f for k < d
    for _ in range(d - 1):
        top = rows[-1][-1]
        rows.append([(a + top * k) % p for a, k in zip([0] + rows[-1][:-1], ks)])
    flat = [v for row in rows for v in row]
    u = [1] + [0] * (d - 1)  # x^0: the first block reads the head itself
    blocks = _scan_kernel(d)(u, flat, windows, p, cap, low, above, to_a0, zero_bits, period_bits)
    for n, x, zeros, starts in blocks:
        if zeros:  # the least zero comes before any return in this block
            zero = n + ((zeros & -zeros).bit_length() - 1 - w) // shift
            if zero < cap:
                return BruteResult("divisor", witness=zero, steps=zero + 1)
        while starts:
            i = ((starts & -starts).bit_length() - 1 - w) // shift
            state = x >> i * shift & span  # lanes i..i+d-1
            if all(((state >> k * shift & mask) * p & mask) % p == s0[k] for k in range(1, d)):
                if n + i <= cap:
                    return BruteResult("nondivisor", steps=n + i)
                break
            starts &= starts - 1
    # a zero or return past the cap lies in the last block, so the loop ends
    return BruteResult("capped", steps=cap)


# The widest exact term, in bits, that the zero scan's head reduces mod p
# (_exact_prefix). Reducing a b-bit integer took about 35 + 0.2 b ns and a
# stream step 140, 210 and 240 ns at orders 3, 4 and 5 (CPython 3.11.7,
# 2-core VM), which break even near 500, 900 and 1050 bits. The cap also
# bounds the cache: 64 heads of 1024-bit terms are about 5 MB.
HEAD_BITS = 1024


@lru_cache(maxsize=64)
def _exact_prefix(spec: RecurrenceSpec) -> tuple[int, ...]:
    """The exact terms a_0..a_{BLOCK+2d-2}, stopping before the first term
    past the initial ones that is wider than HEAD_BITS bits."""
    d = spec.order
    terms = list(spec.init)
    for _ in range(BLOCK + d - 1):
        t = -sum(c * v for c, v in zip(spec.coeffs, terms[-d:]))
        if t.bit_length() > HEAD_BITS:
            break
        terms.append(t)
    return tuple(terms)


def _head(spec: RecurrenceSpec, ks: list[int], p: int, m: int) -> list[int]:
    """a_0..a_{m-1} mod p, m <= BLOCK + 2d - 1: the exact prefix reduced,
    then the stream from the prefix's last d residues for the terms past it."""
    head = [v % p for v in _exact_prefix(spec)[:m]]
    if len(head) < m:
        d = spec.order
        head += islice(_stream(d)(ks, head[-d:], p), d, d + m - len(head))
    return head


def has_zero_bruteforce(spec: RecurrenceSpec, p: int, cap: int) -> BruteResult:
    """Scan a_n mod p for n = 0..min(period, cap)-1 for a zero.

    A "divisor" result carries the least witness index; "nondivisor" is
    only reported after a full period was scanned, so an uncapped run is a
    complete decision procedure. An odd p hands its head a_0..a_{BLOCK+2d-2}
    mod p (_head) to _block_scan, which scans from n = 0. The head is the
    sequence's cached exact prefix reduced mod p, continued by the stream
    where the prefix stops short, so a call pays about 30 us for it at
    orders 3 and 4, where 517-519 stream steps took 35-94 us; the whole
    call takes 54-82 us at p = 101 to 1,000,003 when it ends in the first
    block. The packing needs an odd modulus, so p = 2 is decided from
    a_0..a_d: with c_0 odd and no zero among a_0..a_{d-1}, every one of
    them is 1, so a_d is either the least zero or 1, and then the initial
    state returns after one step.
    """
    if spec.coeffs[0] % p == 0:
        raise ValueError("not purely periodic")
    d = spec.order
    ks, _ = _mod_recurrence(spec, p)
    if p != 2:
        return _block_scan(ks, _head(spec, ks, p, BLOCK + 2 * d - 1), p, cap)
    head = _head(spec, ks, p, d + 1)
    if 0 in head:
        zero = head.index(0)
        if zero < cap:
            return BruteResult("divisor", witness=zero, steps=zero + 1)
    elif cap >= 1:
        return BruteResult("nondivisor", steps=1)
    return BruteResult("capped", steps=cap)
