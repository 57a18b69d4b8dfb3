"""Polynomial arithmetic over F_p on coefficient lists.

A polynomial is a dense list of residues mod p, lowest degree first, with
no trailing zeros; the empty list is the zero polynomial. Every helper
takes the modulus p, and an element of F_p[x]/(g) is a list reduced mod g.
`FactorPattern` is the only class.

The library needs two things of a monic integer polynomial mod p, and
both reject any other: its factorization pattern (`pattern`) and its
smallest root (`fp_root`). Patterns need only distinct-degree splitting
(`_ddf`), which returns a repeated factor as a repeated block, with no
derivative, so `pattern` is deterministic. `fp_root` takes only its first
step, gcd(x^p - x, f) (`_ddf_gcd`), and reads a unique root off it; only
several roots need equal-degree splitting (`_edf`, Cantor-Zassenhaus,
trace-based for p = 2). Taking the first block off a lazy `_ddf` instead
would make a polynomial with no root pay the next degree's x^(p^2) mod f:
the order statistics of Tetranacci and of x^5 - x - 1 to 5e4 took
0.69-0.88 s that way against 0.56-0.68 s (interleaved in one process,
CPython 3.11.7, 2-core VM).

`factor_mod_p` (full factorization) and `solve_gamma` (the Vandermonde
system a_n = sum gamma_i root_i^n, solved in F_p[x]/(g)) serve the tests as
independent oracles: no library path calls them, and the benchmark traces
them by name.

The split draws its random polynomials from a `random.Random` seeded by p
and the coefficients, so every result is reproducible. A fixed sequence of
shifts x + a, a = 0, 1, ..., finds the same roots but splits worse: on
Tribonacci at the primes up to 1e5 it needed 8,343 splitting powers
instead of 5,281, because after the first split x + 1 and x + 2 never
separated the remaining pair of roots, and `order-stats --poly 1,-1,-1,-1
--limit 100000` took 2.12 s instead of 1.43 s (medians of 6 alternating
runs, CPython 3.11.7, 2-core VM).

Every power of x mod f goes through `_x_pow_mod`: x^(p^e) in
distinct-degree splitting, x^n in `recurrence.term_mod`
and x^512, the block step, in the packed zero scan. Those powers are most
of the per-prime F_p[x] work of a sweep, so the square-and-multiply is
generated once per degree d, the way
`recurrence._stream` generates the term stream mod p: the coefficients sit
in d locals, the reductions of x^d..x^(2d-2) mod f are computed at entry,
and multiplying by x is a shift plus one reduction. For d = 3, 4, 5, x^p
mod f took 15, 27, 38 us at p = 9973 and 30, 53, 78 us at p = 3,000,017,
against 163, 219, 350 us and 307, 423, 564 us for the generic list
arithmetic of `_pow_mod` (best of 5, CPython 3.11.7, 2-core VM). `_pow_mod`
stays for general bases (equal-degree splitting, `solve_gamma`) and as the
kernel's test oracle.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache


# ---------------------------------------------------------------------------
# low-level list arithmetic


def _trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _add(a: list[int], b: list[int], p: int) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, x in enumerate(b):
        out[i] = (out[i] + x) % p
    return _trim(out)


def _sub(a: list[int], b: list[int], p: int) -> list[int]:
    out = list(a) + [0] * (len(b) - len(a))
    for i, x in enumerate(b):
        out[i] = (out[i] - x) % p
    return _trim(out)


def _mul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _trim([v % p for v in out])


def _divmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    inv = pow(lb, -1, p)
    q = [0] * max(0, len(a) - db)
    while len(a) - 1 >= db and a:
        k = len(a) - 1 - db
        c = a[-1] * inv % p
        q[k] = c
        for i, x in enumerate(b):
            a[k + i] = (a[k + i] - c * x) % p
        _trim(a)
    return _trim(q), a


def _rem(a: list[int], b: list[int], p: int) -> list[int]:
    return _divmod(a, b, p)[1]


def _monic(a: list[int], p: int) -> list[int]:
    if not a or a[-1] == 1:
        return list(a)
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _gcd_poly(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = list(a), list(b)
    while b:
        a, b = b, _rem(a, b, p)
    return _monic(a, p)


def _pow_mod(a: list[int], e: int, g: list[int], p: int) -> list[int]:
    result = [1]
    base = _rem(a, g, p)
    while e:
        if e & 1:
            result = _rem(_mul(result, base, p), g, p)
        base = _rem(_mul(base, base, p), g, p)
        e >>= 1
    return result


# x^e mod f for monic f of degree d, as source: the coefficients of x^k mod f
# for k = d..2d-2 sit in the locals q{k}_0..q{k}_{d-1}, computed at entry,
# and the running result in r0..r{d-1}. A step squares the result, folding
# the high half of the square back with those rows, and multiplies by x when
# the exponent bit is set: a shift plus the row of x^d. Only names built
# from the integer d are substituted.
_X_POW_TEMPLATE = """
def x_pow(f, e, p):
    {cs} = f[:{d}]
    {rows}
    {rs} = {one}
    for bit in bin(e)[2:]:
        {square}
        if bit == "1":
            t = r{top}
            {rs} = {times_x}
    return _trim([{rs}])
"""


def _seq(items) -> str:
    return ", ".join(items) + ","


def _times_x(src: list[str], d: int) -> list[str]:
    """x * src mod f as expressions, with t the top coefficient of src."""
    return [f"t * q{d}_0 % p"] + [f"({src[i - 1]} + t * q{d}_{i}) % p" for i in range(1, d)]


@lru_cache(maxsize=None)
def _x_pow_kernel(d: int):
    """The square-and-multiply for x^e mod f unrolled for degree d (see _X_POW_TEMPLATE)."""
    rs = [f"r{i}" for i in range(d)]
    high = range(d, 2 * d - 1)  # degrees of a square that f reduces

    def row(k):
        return [f"q{k}_{i}" for i in range(d)]

    rows = [f"{_seq(row(d))} = {_seq(f'-c{i} % p' for i in range(d))}"]
    for k in high[1:]:
        rows += [f"t = q{k - 1}_{d - 1}", f"{_seq(row(k))} = {_seq(_times_x(row(k - 1), d))}"]
    square = []
    for k in range(2 * d - 1):
        terms = [f"r{k // 2} * r{k // 2}"] if k % 2 == 0 else []
        cross = [f"r{i} * r{k - i}" for i in range(max(0, k - d + 1), (k + 1) // 2)]
        if cross:
            terms.append(f"2 * ({' + '.join(cross)})")
        square.append(f"z{k} = {' + '.join(terms)}" + (" % p" if k in high else ""))
    folded = [" + ".join([f"z{i}"] + [f"z{k} * q{k}_{i}" for k in high]) for i in range(d)]
    square.append(f"{_seq(rs)} = {_seq(f'({v}) % p' for v in folded)}")
    src = _X_POW_TEMPLATE.format(
        d=d,
        cs=_seq(f"c{i}" for i in range(d)),
        rows="\n    ".join(rows),
        rs=_seq(rs),
        one=_seq(["1"] + ["0"] * (d - 1)),
        square="\n        ".join(square),
        top=d - 1,
        times_x=_seq(_times_x(rs, d)),
    )
    namespace = {"_trim": _trim}
    exec(src, namespace)  # noqa: S102 - src depends on d alone
    return namespace["x_pow"]


def _x_pow_mod(e: int, f: list[int], p: int) -> list[int]:
    """x^e mod f over F_p for monic f of degree >= 1; equals _pow_mod([0, 1], e, f, p)."""
    if len(f) < 2 or f[-1] != 1:
        raise ValueError("x^e mod f needs a monic f of degree >= 1")
    return _x_pow_kernel(len(f) - 1)(f, e, p)


def _eval(a: list[int], x: int, p: int) -> int:
    v = 0
    for c in reversed(a):
        v = (v * x + c) % p
    return v


@dataclass(frozen=True)
class FactorPattern:
    """Multiset of irreducible factor degrees of a polynomial mod p."""

    degrees: tuple[int, ...]  # sorted descending, counted with multiplicity
    squarefree: bool
    root: int | None = None  # a if x - a is the only linear factor (with multiplicity)

    @property
    def key(self) -> str:
        return "-".join(str(d) for d in self.degrees)


# ---------------------------------------------------------------------------
# factorization mod p


def _mix_seed(p: int, coeffs) -> int:
    h = p
    for c in coeffs:
        h = (h * 1000003 + c + 1) & 0xFFFFFFFFFFFFFFFF
    return h


def _ddf_gcd(f: list[int], e: int, p: int) -> list[int]:
    """gcd(x^(p^e) - x, f) for monic f of degree >= 1: the product of the
    distinct irreducible factors of f whose degree divides e. At e = 1 it is
    the product of x - a over the distinct roots a, the first block of _ddf
    when f has a root."""
    return _gcd_poly(_sub(_x_pow_mod(p**e, f, p), [0, 1], p), f, p)


def _ddf(f: list[int], p: int) -> list[tuple[list[int], int]]:
    """Distinct-degree blocks (g, e) of monic f, repeated factors included.

    Once the smaller degrees are gone, g = _ddf_gcd(f, e, p) is the product
    of the distinct irreducibles of degree e. Dividing f by g and taking
    gcd(g, f) again until it is 1 puts an irreducible of multiplicity m in m
    nested blocks of its degree. The blocks are squarefree and multiply to
    f; a rest of degree below 2e is one irreducible.
    """
    out = []
    e = 1
    f = list(f)
    while len(f) - 1 >= 2 * e:
        g = _ddf_gcd(f, e, p)
        while len(g) > 1:
            out.append((g, e))
            f = _divmod(f, g, p)[0]
            g = _gcd_poly(g, f, p)
        e += 1
    if len(f) > 1:
        out.append((f, len(f) - 1))
    return out


def _edf(f: list[int], e: int, p: int, rng: random.Random) -> list[list[int]]:
    """Cantor-Zassenhaus split of monic squarefree f, all factors of degree e."""
    n = len(f) - 1
    if n == e:
        return [f]
    while True:
        r = [rng.randrange(p) for _ in range(n)]
        r = _trim(r)
        if len(r) <= 1:
            continue
        if p == 2:
            s = list(r)
            acc = list(r)
            for _ in range(e - 1):
                acc = _rem(_mul(acc, acc, p), f, p)
                s = _add(s, acc, p)
        else:
            s = _sub(_pow_mod(r, (p**e - 1) // 2, f, p), [1], p)
        h = _gcd_poly(s, f, p)
        if 0 < len(h) - 1 < n:
            rest = _divmod(f, h, p)[0]
            return _edf(h, e, p, rng) + _edf(rest, e, p, rng)


def _reduce(coeffs: list[int] | tuple[int, ...], p: int, what: str) -> list[int]:
    """A monic integer polynomial mod p, rejecting any other."""
    coeffs = _trim(list(coeffs))
    if not coeffs:
        raise ValueError("zero polynomial")
    if coeffs[-1] != 1:
        raise ValueError(f"{what} needs a monic polynomial, got {coeffs}")
    return [c % p for c in coeffs]


def pattern(coeffs: list[int] | tuple[int, ...], p: int) -> FactorPattern:
    """Factorization pattern of a monic integer polynomial mod p.

    Degrees come from distinct-degree splitting alone: a block of degree
    k*e at degree e holds k irreducible factors of degree e, a lone linear
    one gives the root, and f is squarefree when no degree has two blocks.
    """
    blocks = _ddf(_reduce(coeffs, p, "pattern"), p)
    degrees = sorted((e for g, e in blocks for _ in range((len(g) - 1) // e)), reverse=True)
    # a lone linear factor is the first block, x - root
    root = -blocks[0][0][0] % p if degrees.count(1) == 1 else None
    squarefree = len({e for _, e in blocks}) == len(blocks)
    return FactorPattern(tuple(degrees), squarefree, root)


def fp_root(coeffs: list[int] | tuple[int, ...], p: int) -> int | None:
    """Smallest root of a monic integer polynomial mod p, or None.

    The fixed choice of root for order statistics; any other deterministic
    choice would do. The roots are those of gcd(x^p - x, f), the first
    distinct-degree block when f has a root. A unique root is read off it,
    as in FactorPattern.root; only several roots need the seeded split.
    """
    f = _reduce(coeffs, p, "root search")
    if len(f) == 1:
        return None
    lin = _ddf_gcd(f, 1, p)
    if len(lin) <= 1:
        return None
    if len(lin) == 2:
        return -lin[0] % p
    rng = random.Random(_mix_seed(p, f))
    roots = [-g[0] % p for g in _edf(lin, 1, p, rng)]
    return min(roots)


# ---------------------------------------------------------------------------
# test oracles: no library path calls these


def factor_mod_p(coeffs: list[int] | tuple[int, ...], p: int) -> list[tuple[tuple[int, ...], int]]:
    """Monic irreducible factors of an integer polynomial mod p, with multiplicities.

    The product of factor**multiplicity equals f mod p up to the leading
    unit. Factors are coefficient tuples, lowest degree first, sorted by
    degree and then by coefficients.
    """
    f = _trim([c % p for c in coeffs])
    if not f:
        raise ValueError("cannot factor the zero polynomial")
    work = _monic(f, p)
    rng = random.Random(_mix_seed(p, f))
    mult: dict[tuple[int, ...], int] = {}
    for block, e in _ddf(work, p):
        for irr in _edf(block, e, p, rng):
            mult[tuple(irr)] = mult.get(tuple(irr), 0) + 1
    found = sorted(mult.items(), key=lambda t: (len(t[0]), t[0]))
    if __debug__:
        check = [1]
        for g, m in found:
            for _ in range(m):
                check = _mul(check, list(g), p)
        assert check == work, "factor product mismatch"
    return found


def solve_gamma(roots: list[list[int]], init: list[int], g: list[int], p: int) -> list[list[int]]:
    """Coefficients gamma with sum(gamma_i * roots_i**n) = init_n for n < d.

    Solves the Vandermonde system by Gaussian elimination in F_p[x]/(g),
    for g monic irreducible of degree k, where each root and each gamma is
    a residue list reduced mod g; a nonzero a is inverted as a^(p^k - 2).
    The roots must be pairwise distinct; the first coefficient is checked
    to lie in F_p.
    """
    d = len(roots)
    if len(init) != d:
        raise ValueError("need as many initial terms as roots")
    if len(set(map(tuple, roots))) < d:
        raise ValueError("ramified prime; exclude")
    unit = p ** (len(g) - 1) - 2

    def mul(a, b):
        return _rem(_mul(a, b, p), g, p)

    rows = [[_pow_mod(r, n, g, p) for r in roots] + [_trim([init[n] % p])] for n in range(d)]
    for col in range(d):
        piv = next(r for r in range(col, d) if rows[r][col])
        rows[col], rows[piv] = rows[piv], rows[col]
        inv = _pow_mod(rows[col][col], unit, g, p)
        rows[col] = [mul(v, inv) for v in rows[col]]
        for r in range(d):
            if r != col and rows[r][col]:
                c = rows[r][col]
                rows[r] = [_sub(v, mul(c, w), p) for v, w in zip(rows[r], rows[col])]
    gammas = [rows[i][d] for i in range(d)]
    if __debug__:
        for n in range(d):
            acc = []
            for gam, r in zip(gammas, roots):
                acc = _add(acc, mul(gam, _pow_mod(r, n, g, p)), p)
            assert acc == _trim([init[n] % p]), "gamma reconstruction failed"
    assert len(gammas[0]) <= 1, "leading coefficient must be in the base field"
    return gammas
