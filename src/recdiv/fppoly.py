"""Polynomial arithmetic over F_p and arithmetic in extension fields F_{p^k}.

Polynomials are dense coefficient lists, lowest degree first, with no
trailing zeros; the empty list is the zero polynomial. The underscore
helpers work on bare lists plus an explicit modulus p; the dataclasses
FpPoly, FactorPattern, ExtField and ExtElem wrap them for the public
surface.

Factorization patterns need only distinct-degree splitting, which returns
a repeated factor as a repeated block, with no derivative; so `pattern` is
deterministic. Full factorization (`factor_mod_p`) splits those blocks by
Cantor-Zassenhaus equal-degree splitting (trace-based for p = 2); that
stage is randomized but seeded from (seed, p, coefficients), and factor
lists are sorted by degree then coefficients, so its output is reproducible
too. No library path needs full factorization or an extension field:
`factor_mod_p`, `solve_gamma`, `frobenius`, `ext_norm`, ExtField and
ExtElem serve the tests as independent oracles.

Every power of x mod f goes through `_x_pow_mod`: x^(p^e) in
distinct-degree splitting, x^p in `fp_root` and the irreducibility test,
x^n in `recurrence.term_mod`, x^512, the block step, in the packed zero
scan, and x^((p^e - 1)/q), the order of x mod a distinct-degree block, in
`recurrence.period_mod`. Those powers are most of the per-prime F_p[x] work of a sweep, so
the square-and-multiply is generated once per degree d, the way
`recurrence._stream` generates the term stream mod p: the coefficients
sit in d locals, the reductions of x^d..x^(2d-2) mod f are computed at
entry, and multiplying by x is a shift plus one reduction. For d = 3, 4,
5, x^p mod f took 15, 27, 38 us at p = 9973 and 30, 53, 78 us at
p = 3,000,017, against 163, 219, 350 us and 307, 423, 564 us for the
generic list arithmetic of `_pow_mod` (best of 5, CPython 3.11.7, 2-core
VM). `_pow_mod` stays for general bases (equal-degree splitting, ExtElem
powers in the test oracles) and as the kernel's test oracle.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache

from .arith import factor_integer


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


def _ext_gcd_poly(a, b, p):
    # returns (g, u, v) with u*a + v*b = g, g monic
    r0, r1 = list(a), list(b)
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = _divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _sub(s0, _mul(q, s1, p), p)
        t0, t1 = t1, _sub(t0, _mul(q, t1, p), p)
    if r0 and r0[-1] != 1:
        inv = pow(r0[-1], -1, p)
        r0 = [c * inv % p for c in r0]
        s0 = [c * inv % p for c in s0]
        t0 = [c * inv % p for c in t0]
    return r0, s0, t0


# ---------------------------------------------------------------------------
# public polynomial types


@dataclass(frozen=True)
class FpPoly:
    """Dense polynomial over F_p, lowest degree first, no trailing zeros."""

    p: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if any(not 0 <= c < self.p for c in self.coeffs):
            raise ValueError("coefficients out of range")
        if self.coeffs and self.coeffs[-1] == 0:
            raise ValueError("trailing zero coefficient")

    @classmethod
    def from_list(cls, coeffs: list[int], p: int) -> "FpPoly":
        return cls(p, tuple(_trim([c % p for c in coeffs])))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*x" if c != 1 else "x")
            else:
                parts.append(f"{c}*x^{i}" if c != 1 else f"x^{i}")
        return " + ".join(reversed(parts))


def reduce_poly(coeffs: list[int] | tuple[int, ...], p: int) -> FpPoly:
    """Coefficientwise reduction of an integer polynomial mod p."""
    return FpPoly.from_list([c % p for c in coeffs], p)


@dataclass(frozen=True)
class FactorPattern:
    """Multiset of irreducible factor degrees of a polynomial mod p."""

    p: int
    degrees: tuple[int, ...]  # sorted descending, counted with multiplicity
    squarefree: bool
    root: int | None = None  # a if x - a is the only linear factor (with multiplicity)

    @property
    def key(self) -> str:
        return "-".join(str(d) for d in self.degrees)


# ---------------------------------------------------------------------------
# factorization mod p


def _mix_seed(seed: int, p: int, coeffs) -> int:
    h = (seed * 0x9E3779B97F4A7C15 + p) & 0xFFFFFFFFFFFFFFFF
    for c in coeffs:
        h = (h * 1000003 + c + 1) & 0xFFFFFFFFFFFFFFFF
    return h


def _ddf(f: list[int], p: int) -> list[tuple[list[int], int]]:
    """Distinct-degree blocks (g, e) of monic f, repeated factors included.

    Once the smaller degrees are gone, g = gcd(x^(p^e) - x, f) is the product
    of the distinct irreducibles of degree e. Dividing f by g and taking
    gcd(g, f) again until it is 1 puts an irreducible of multiplicity m in m
    nested blocks of its degree. The blocks are squarefree and multiply to
    f; a rest of degree below 2e is one irreducible.
    """
    out = []
    e = 1
    f = list(f)
    while len(f) - 1 >= 2 * e:
        w = _x_pow_mod(p**e, f, p)
        g = _gcd_poly(_sub(w, [0, 1], p), f, p)
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


def factor_mod_p(f: FpPoly, seed: int = 0) -> list[tuple[FpPoly, int]]:
    """Monic irreducible factors of f with multiplicities, sorted.

    The product of factor**multiplicity equals f up to the leading unit.
    Sorted by degree, then coefficient tuple, so output is deterministic.
    """
    if f.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    p = f.p
    work = _monic(list(f.coeffs), p)
    if len(work) == 1:
        return []
    rng = random.Random(_mix_seed(seed, p, f.coeffs))
    mult: dict[tuple[int, ...], int] = {}
    for block, e in _ddf(work, p):
        for irr in _edf(block, e, p, rng):
            mult[tuple(irr)] = mult.get(tuple(irr), 0) + 1
    found = sorted(mult.items(), key=lambda t: (len(t[0]), t[0]))
    result = [(FpPoly(p, g), m) for g, m in found]
    if __debug__:
        check = [1]
        for g, m in found:
            for _ in range(m):
                check = _mul(check, g, p)
        assert check == work, "factor product mismatch"
    return result


def pattern(coeffs: list[int] | tuple[int, ...], p: int) -> FactorPattern:
    """Factorization pattern of an integer polynomial mod p.

    Degrees come from distinct-degree splitting alone: a block of degree
    k*e at degree e holds k irreducible factors of degree e, a lone linear
    one gives the root, and f is squarefree when no degree has two blocks.
    """
    coeffs = _trim(list(coeffs))
    if coeffs and coeffs[-1] % p == 0:
        raise ValueError("pattern undefined at this prime")
    f = _trim([c % p for c in coeffs])
    if not f:
        raise ValueError("zero polynomial")
    blocks = _ddf(_monic(f, p), p)
    degrees = sorted((e for g, e in blocks for _ in range((len(g) - 1) // e)), reverse=True)
    # a lone linear factor is the first block, x - root
    root = -blocks[0][0][0] % p if degrees.count(1) == 1 else None
    squarefree = len({e for _, e in blocks}) == len(blocks)
    return FactorPattern(p, tuple(degrees), squarefree, root)


def fp_root(coeffs: list[int] | tuple[int, ...], p: int) -> int | None:
    """Smallest root of an integer polynomial mod p, or None.

    The fixed choice of root for order statistics; any other deterministic
    choice would do. A unique root is read off gcd(x^p - x, f), as in
    FactorPattern.root; only several roots need the seeded split.
    """
    coeffs = _trim(list(coeffs))
    if coeffs and coeffs[-1] % p == 0:
        raise ValueError("root search undefined at this prime")
    f = _trim([c % p for c in coeffs])
    if not f:
        raise ValueError("zero polynomial")
    if len(f) == 1:
        return None
    if len(f) == 2:
        return -f[0] * pow(f[1], -1, p) % p
    f = _monic(f, p)
    xp = _x_pow_mod(p, f, p)
    lin = _gcd_poly(_sub(xp, [0, 1], p), f, p)
    if len(lin) <= 1:
        return None
    if len(lin) == 2:
        return -lin[0] % p
    rng = random.Random(_mix_seed(0, p, tuple(f)))
    roots = [-g[0] % p for g in _edf(lin, 1, p, rng)]
    return min(roots)


# ---------------------------------------------------------------------------
# extension fields


def _is_irreducible(g: list[int], p: int) -> bool:
    k = len(g) - 1
    if k < 1:
        return False
    if k == 1:
        return True
    if _x_pow_mod(p**k, g, p) != [0, 1]:
        return False
    for q in factor_integer(k).prime_divisors():
        w = _x_pow_mod(p ** (k // q), g, p)
        if len(_gcd_poly(_sub(w, [0, 1], p), g, p)) > 1:
            return False
    return True


@dataclass(frozen=True)
class ExtField:
    """F_{p^k} realized as F_p[x]/(modulus), modulus monic irreducible."""

    p: int
    modulus: FpPoly

    def __post_init__(self):
        g = list(self.modulus.coeffs)
        if self.modulus.p != self.p:
            raise ValueError("modulus is over a different prime field")
        if not g or g[-1] != 1 or len(g) < 2:
            raise ValueError("modulus must be monic of degree >= 1")
        if not _is_irreducible(g, self.p):
            raise ValueError("modulus is not irreducible")

    @property
    def degree(self) -> int:
        return self.modulus.degree

    def elem(self, coeffs: list[int]) -> "ExtElem":
        c = [v % self.p for v in coeffs]
        c = _rem(c, list(self.modulus.coeffs), self.p)
        return ExtElem(self, tuple(c) + (0,) * (self.degree - len(c)))

    def embed(self, c: int) -> "ExtElem":
        return self.elem([c])

    def gen(self) -> "ExtElem":
        """The residue class of x."""
        return self.elem([0, 1])

    def zero(self) -> "ExtElem":
        return self.elem([])

    def one(self) -> "ExtElem":
        return self.elem([1])


@dataclass(frozen=True)
class ExtElem:
    """Element of an ExtField in power-basis coordinates (length = degree)."""

    field: ExtField
    coeffs: tuple[int, ...]

    def _lift(self) -> list[int]:
        return _trim(list(self.coeffs))

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_base(self) -> bool:
        return not any(self.coeffs[1:])

    def base_value(self) -> int:
        if not self.is_base():
            raise ValueError("element does not lie in the base field")
        return self.coeffs[0] if self.coeffs else 0

    def _wrap(self, c: list[int]) -> "ExtElem":
        return ExtElem(self.field, tuple(c) + (0,) * (self.field.degree - len(c)))

    def __add__(self, other: "ExtElem") -> "ExtElem":
        assert self.field == other.field
        return self._wrap(_add(self._lift(), other._lift(), self.field.p))

    def __sub__(self, other: "ExtElem") -> "ExtElem":
        assert self.field == other.field
        return self._wrap(_sub(self._lift(), other._lift(), self.field.p))

    def __neg__(self) -> "ExtElem":
        return self._wrap(_sub([], self._lift(), self.field.p))

    def __mul__(self, other: "ExtElem") -> "ExtElem":
        assert self.field == other.field
        p = self.field.p
        prod = _mul(self._lift(), other._lift(), p)
        return self._wrap(_rem(prod, list(self.field.modulus.coeffs), p))

    def __pow__(self, e: int) -> "ExtElem":
        if e < 0:
            return self.inverse() ** (-e)
        p = self.field.p
        c = _pow_mod(self._lift(), e, list(self.field.modulus.coeffs), p)
        return self._wrap(c)

    def inverse(self) -> "ExtElem":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        p = self.field.p
        g, u, _ = _ext_gcd_poly(self._lift(), list(self.field.modulus.coeffs), p)
        assert g == [1]
        return self._wrap(u)

    def __truediv__(self, other: "ExtElem") -> "ExtElem":
        return self * other.inverse()


def frobenius(a: ExtElem) -> ExtElem:
    """The field automorphism x -> x**p; applying it degree-many times is id."""
    return a ** a.field.p


def ext_norm(a: ExtElem) -> int:
    """Norm down to F_p: the product of all Frobenius conjugates, as a residue.

    Equals a**((p^k - 1)/(p - 1)) for nonzero a, and 0 for a = 0.
    """
    if a.is_zero():
        return 0
    k = a.field.degree
    p = a.field.p
    q = (p**k - 1) // (p - 1)
    b = a**q
    return b.base_value()


def solve_gamma(roots: list[ExtElem], init: list[int]) -> list[ExtElem]:
    """Coefficients gamma with sum(gamma_i * roots_i**n) = init_n for n < d.

    Solves the Vandermonde system by Gaussian elimination over the extension
    field. The roots must be pairwise distinct; the first coefficient is
    checked to lie in the base field.
    """
    d = len(roots)
    if len(init) != d:
        raise ValueError("need as many initial terms as roots")
    field = roots[0].field
    for i in range(d):
        for j in range(i + 1, d):
            if roots[i] == roots[j]:
                raise ValueError("ramified prime; exclude")
    rows = []
    for n in range(d):
        row = [r**n for r in roots]
        row.append(field.embed(init[n]))
        rows.append(row)
    for col in range(d):
        piv = next(r for r in range(col, d) if not rows[r][col].is_zero())
        rows[col], rows[piv] = rows[piv], rows[col]
        inv = rows[col][col].inverse()
        rows[col] = [v * inv for v in rows[col]]
        for r in range(d):
            if r != col and not rows[r][col].is_zero():
                c = rows[r][col]
                rows[r] = [v - c * w for v, w in zip(rows[r], rows[col])]
    gammas = [rows[i][d] for i in range(d)]
    if __debug__:
        for n in range(d):
            acc = field.zero()
            for g, r in zip(gammas, roots):
                acc = acc + g * r**n
            assert acc == field.embed(init[n]), "gamma reconstruction failed"
    assert gammas[0].is_base(), "leading coefficient must be in the base field"
    return gammas
