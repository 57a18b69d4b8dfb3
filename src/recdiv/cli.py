"""Command-line surface: analyze, sweep, detect, order-stats, demo.

Exit codes: 0 success, 1 usage error, 2 internal error, 3 check failure.
"""

from __future__ import annotations

import argparse
import re
import sys

from .arith import is_prime, sieve_primes
from .charpoly import PolyTooLarge, PrimeBudgetTooLarge, analyze_poly
from .detect import DEFAULT_POLICY, DetectPolicy, StructuralContext, build_context, detect_full
from .orderstats import MAX_LIMIT, MIN_LIMIT, NoQualifyingPrimes, index_histogram
from .recurrence import RecurrenceSpec
from .sweep import MAX_LIMIT as SWEEP_MAX_LIMIT, SweepConfig, run_sweep


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _decimal(text: str) -> int:
    """An ASCII decimal integer, [+-]?[0-9]+. int() alone also reads 1_000,
    surrounding blanks and non-ASCII digits."""
    if not re.fullmatch(r"[+-]?[0-9]+", text):
        raise argparse.ArgumentTypeError(f"not a decimal integer: {text!r}")
    return int(text)


def _parse_ints(text: str, option: str) -> list[int]:
    fields = text.split(",")
    if "" in fields:
        raise UsageError(f"{option} has an empty field: {text!r}")
    try:
        return [_decimal(v) for v in fields]
    except (argparse.ArgumentTypeError, ValueError) as exc:
        raise UsageError(f"bad {option}: {text!r}") from exc


def _parse_poly(text: str) -> list[int]:
    coeffs = _parse_ints(text, "--poly")
    if coeffs[0] != 1:
        raise UsageError("characteristic polynomial must be monic")
    if len(coeffs) < 2:
        raise UsageError("--poly must have degree at least 1")
    return coeffs


def _make_spec(poly_text: str, init_text: str) -> RecurrenceSpec:
    poly = _parse_poly(poly_text)
    init = _parse_ints(init_text, "--init")
    if len(init) != len(poly) - 1:
        raise UsageError(
            f"need {len(poly) - 1} initial terms for a degree-{len(poly) - 1} polynomial"
        )
    return RecurrenceSpec.from_char_poly(poly, init)


def _cmd_analyze(args) -> int:
    poly = _parse_poly(args.poly)
    if args.prime_budget < 1:
        raise UsageError(f"--prime-budget must be at least 1, got {args.prime_budget}")
    try:
        profile = analyze_poly(list(reversed(poly)), prime_budget=args.prime_budget)
    except PrimeBudgetTooLarge as exc:
        raise UsageError(f"--prime-budget too large: {exc}") from exc
    except PolyTooLarge as exc:
        raise UsageError(str(exc)) from exc
    print(f"polynomial (low to high): {list(profile.poly)}")
    print(f"discriminant:            {profile.discriminant}")
    wit = f" (witness {profile.irreducible_witness})" if profile.irreducible_witness is not None else ""
    print(f"irreducible over Q:      {profile.irreducible}{wit}")
    deg = f" (root-of-unity order {profile.degeneracy_order})" if profile.degeneracy_order else ""
    print(f"non-degenerate:          {profile.nondegenerate}{deg}")
    print(f"symmetric group:         {profile.sd_certified}")
    for key, p in sorted(profile.witness_primes.items()):
        print(f"  pattern {key} witnessed at p = {p}")
    print(f"mult. independence:      {profile.multiplicative_independence}")
    return 0


def _make_policy(args) -> DetectPolicy:
    try:
        return DetectPolicy(r_cap=args.r_cap, brute_cap=args.brute_cap)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _cmd_sweep(args) -> int:
    spec = _make_spec(args.poly, args.init)
    policy = _make_policy(args)
    try:
        config = SweepConfig(
            spec=spec,
            limit=args.limit,
            policy=policy,
            workers=args.workers,
            csv_path=args.csv,
            json_path=args.json,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    _, report = run_sweep(config)  # report: the dict --json writes
    meta = report["meta"]
    if meta["degenerate_zero_term"]:
        print("NOTE: degenerate run, the sequence has an exact zero term;")
        print("      every prime is a trivial divisor.")
    hyp = meta["hypotheses"]
    if not hyp["all_verified"]:
        print("NOTE: hypotheses unverified "
              f"(irreducible={hyp['irreducible']}, "
              f"nondegenerate={hyp['nondegenerate']}, "
              f"symmetric group={hyp['sd_certified']})")
    print(f"primes <= {args.limit}: {report['primes_total']}"
          f" ({report['excluded_total']} excluded)")
    for key, c in report["patterns"].items():
        print(
            f"  pattern {key:>9}: {c['total']:>7} primes"
            f"  freq {c['frequency']:.4f}"
            f"  divisor {c['divisor_fraction']:.4f}"
            f"  indeterminate {c['indeterminate']}"
        )
    frac = report["overall_divisor_fraction"]
    if frac is not None:
        print(f"overall divisor fraction: {frac:.4f}")
    if args.csv:
        print(f"rows written to {args.csv}")
    if args.json:
        print(f"summary written to {args.json}")
    return 0


def _cmd_detect(args) -> int:
    spec = _make_spec(args.poly, args.init)
    p = args.prime
    if p >= 1 << 64:  # where is_prime stops being exact
        raise UsageError(f"-p must be below 2**64, got {p}")
    if not is_prime(p):
        raise UsageError(f"-p must be a prime, got {p}")
    row = detect_full(spec, p, _make_policy(args))
    print(f"p = {p}: pattern {row.pattern}, squarefree {'yes' if row.squarefree else 'no'}")
    if row.method == "structural":  # the structural path ran, so p has a context
        ctx = build_context(spec, p)
        print(
            f"  structural context: root {ctx.root_base}, norm {ctx.nloc}, "
            f"base {ctx.base}, ord {row.ord_g}, index {row.index_g}, Q {row.q}"
        )
    print(f"  verdict: {row.verdict} (method {row.method})")
    if row.reason:
        print(f"  excluded: {row.reason}")
    if row.witness is not None:
        print(f"  witness: a_{row.witness} == 0 mod {p}")
    if row.detail:
        print(f"  note: {row.detail}")
    return 0


def _cmd_order_stats(args) -> int:
    grid = _parse_ints(args.c_grid, "--c-grid")
    if min(grid) < 1:  # every index is at least 1
        raise UsageError(f"--c-grid values must be at least 1, got {args.c_grid!r}")
    if args.limit < MIN_LIMIT:
        raise UsageError(f"--limit must be at least {MIN_LIMIT}, got {args.limit}")
    if args.limit > MAX_LIMIT:
        raise UsageError(f"--limit must be at most {MAX_LIMIT}, got {args.limit}")
    if args.poly is not None:
        poly = list(reversed(_parse_poly(args.poly)))
    else:
        poly = [-args.base, 1]
    try:
        # the extra C = 1 entry is the primitive-root fraction for --base
        *table, (_, artin) = index_histogram(poly, args.limit, [*grid, 1])
    except NoQualifyingPrimes as exc:
        raise UsageError(
            f"{exc} up to {args.limit} (no odd unramified prime gives a nonzero root)"
        ) from exc
    print("C    fraction with index <= C")
    for c, frac in table:
        print(f"{c:<4} {float(frac):.4f}  ({frac.numerator}/{frac.denominator})")
    if args.base is not None:
        print(f"primitive-root fraction for {args.base}: {float(artin):.4f}")
    return 0


# The worked example, a_n = 5^n + (3+sqrt(2))^n + (3-sqrt(2))^n: the power
# sums of the roots of (x-5)(x^2-6x+7) = x^3 - 11x^2 + 37x - 35. Whenever the
# quadratic factor stays irreducible mod p, the structural base must come
# out as 25/7 mod p.
DEMO_SPEC = RecurrenceSpec.from_char_poly([1, -11, 37, -35], [3, 11, 47])


def _cmd_demo(args) -> int:
    if args.limit < 3:  # 2 is ramified, so 3 is the first prime the demo checks
        raise UsageError(f"--limit must be at least 3, got {args.limit}")
    if args.limit > SWEEP_MAX_LIMIT:
        raise UsageError(f"--limit must be at most {SWEEP_MAX_LIMIT}, got {args.limit}")
    print("sequence: a_n = 5^n + (3+sqrt(2))^n + (3-sqrt(2))^n")
    print(f"coefficients {list(DEMO_SPEC.coeffs)}, initial terms {list(DEMO_SPEC.init)}")
    print("whenever x^2-6x+7 stays irreducible mod p, the detector base must be 25/7 mod p:")
    checked = bad = 0
    for p in sieve_primes(args.limit):
        ctx = build_context(DEMO_SPEC, p)
        if not isinstance(ctx, StructuralContext):
            print(f"  p={p:<5} skipped ({ctx})")
            continue
        want = 25 * pow(7, -1, p) % p
        status = "ok" if ctx.base == want else "mismatch"
        print(f"  p={p:<5} base={ctx.base:<5} 25/7 mod p={want:<5} {status}")
        checked += 1
        if status != "ok":
            bad += 1
    if args.check:
        if bad or not checked:
            print(f"check FAILED: {bad} mismatching primes")
            return 3
        print(f"check passed: {checked} primes reproduce 25/7")
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="recdiv", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser("analyze", help="hypothesis profile of a characteristic polynomial")
    s.add_argument("--poly", required=True, help="coefficients, highest degree first, e.g. 1,-1,-1,-1")
    s.add_argument("--prime-budget", type=_decimal, default=200)
    s.set_defaults(func=_cmd_analyze)

    s = sub.add_parser("sweep", help="classify every prime up to a bound")
    s.add_argument("--poly", required=True)
    s.add_argument("--init", required=True, help="initial terms a_0..a_{d-1}")
    s.add_argument("--limit", type=_decimal, required=True)
    s.add_argument("--r-cap", type=_decimal, default=DEFAULT_POLICY.r_cap)
    s.add_argument("--brute-cap", type=_decimal, default=DEFAULT_POLICY.brute_cap)
    s.add_argument("--workers", type=_decimal, default=1)
    s.add_argument("--csv", default=None)
    s.add_argument("--json", default=None)
    s.set_defaults(func=_cmd_sweep)

    s = sub.add_parser("detect", help="verdict for a single prime, with explanation")
    s.add_argument("--poly", required=True)
    s.add_argument("--init", required=True)
    s.add_argument("-p", "--prime", type=_decimal, required=True)
    s.add_argument("--r-cap", type=_decimal, default=DEFAULT_POLICY.r_cap)
    s.add_argument("--brute-cap", type=_decimal, default=DEFAULT_POLICY.brute_cap)
    s.set_defaults(func=_cmd_detect)

    s = sub.add_parser("order-stats", help="root order and index statistics over primes")
    group = s.add_mutually_exclusive_group(required=True)
    group.add_argument("--poly")
    group.add_argument("--base", type=_decimal)
    s.add_argument("--limit", type=_decimal, required=True)
    s.add_argument("--c-grid", default="1,2,4,8,16")
    s.set_defaults(func=_cmd_order_stats)

    s = sub.add_parser("demo", help="reproduce the 25/7 base table for the worked example")
    s.add_argument("--check", action="store_true")
    s.add_argument("--limit", type=_decimal, default=1000)
    s.set_defaults(func=_cmd_demo)

    return parser


def cli(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        return 0
    except Exception as exc:  # noqa: BLE001 - surface as exit code 2
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli(sys.argv[1:]))
