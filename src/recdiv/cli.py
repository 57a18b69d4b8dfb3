"""Command-line surface: analyze, sweep, detect, order-stats, demo.

Exit codes: 0 success, 1 usage error, 2 internal error, 3 check failure.
The environment variable RECDIV_SEED (a decimal integer) is recorded as the
sweep's meta.seed; nothing is random, so it changes no result.
"""

from __future__ import annotations

import argparse
import os
import sys

from .arith import is_prime
from .charpoly import analyze_poly
from .demo import DEMO_SPEC, base_table
from .detect import DEFAULT_POLICY, DetectPolicy, detect_full
from .orderstats import MIN_LIMIT, NoQualifyingPrimes, index_histogram
from .recurrence import RecurrenceSpec
from .sweep import SweepConfig, run_sweep


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parse_ints(text: str, what: str) -> list[int]:
    try:
        return [int(v.strip()) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise UsageError(f"bad {what}: {text!r}") from exc


def _parse_poly(text: str) -> list[int]:
    coeffs = _parse_ints(text, "polynomial")
    if not coeffs or coeffs[0] != 1:
        raise UsageError("characteristic polynomial must be monic")
    if len(coeffs) < 2:
        raise UsageError("--poly must have degree at least 1")
    return coeffs


def _make_spec(poly_text: str, init_text: str) -> RecurrenceSpec:
    poly = _parse_poly(poly_text)
    init = _parse_ints(init_text, "initial terms")
    if len(init) != len(poly) - 1:
        raise UsageError(
            f"need {len(poly) - 1} initial terms for a degree-{len(poly) - 1} polynomial"
        )
    return RecurrenceSpec.from_char_poly(poly, init)


def _seed_from_env(default: int = 0) -> int:
    raw = os.environ.get("RECDIV_SEED")
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError as exc:
        raise UsageError(f"RECDIV_SEED must be a decimal integer, got {raw!r}") from exc


def _cmd_analyze(args) -> int:
    poly = _parse_poly(args.poly)
    profile = analyze_poly(list(reversed(poly)), prime_budget=args.prime_budget)
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
    seed = _seed_from_env()
    try:
        config = SweepConfig(
            spec=spec,
            limit=args.limit,
            policy=policy,
            workers=args.workers,
            seed=seed,
            csv_path=args.csv,
            json_path=args.json,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    rows, summary = run_sweep(config)
    meta = summary.meta or {}
    if meta.get("degenerate_zero_term"):
        print("NOTE: degenerate run, the sequence has an exact zero term;")
        print("      every prime is a trivial divisor.")
    hyp = meta.get("hypotheses", {})
    if not hyp.get("all_verified", False):
        print("NOTE: hypotheses unverified "
              f"(irreducible={hyp.get('irreducible')}, "
              f"nondegenerate={hyp.get('nondegenerate')}, "
              f"symmetric group={hyp.get('sd_certified')})")
    print(f"primes <= {args.limit}: {summary.excluded_total + summary.unexcluded_total}"
          f" ({summary.excluded_total} excluded)")
    for key in sorted(summary.patterns):
        c = summary.patterns[key]
        print(
            f"  pattern {key:>9}: {c['total']:>7} primes"
            f"  freq {summary.pattern_frequency(key):.4f}"
            f"  divisor {summary.divisor_fraction(key):.4f}"
            f"  indeterminate {c['indeterminate']}"
        )
    frac = summary.overall_divisor_fraction
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
    if not is_prime(p):
        raise UsageError(f"-p must be a prime, got {p}")
    pat, ctx, verdict = detect_full(spec, p, _make_policy(args))
    print(f"p = {p}: pattern {pat.key}, squarefree {'yes' if pat.squarefree else 'no'}")
    if ctx is not None:
        print(
            f"  structural context: root {ctx.root_base}, norm {ctx.nloc}, "
            f"base {ctx.base}, ord {ctx.ord_base}, index {ctx.index_base}, Q {ctx.q}"
        )
    print(f"  verdict: {verdict.kind} (method {verdict.method})")
    if verdict.reason:
        print(f"  excluded: {verdict.reason}")
    if verdict.witness is not None:
        print(f"  witness: a_{verdict.witness} == 0 mod {p}")
    if verdict.detail:
        print(f"  note: {verdict.detail}")
    return 0


def _cmd_order_stats(args) -> int:
    grid = _parse_ints(args.c_grid, "C grid")
    if args.limit < MIN_LIMIT:
        raise UsageError(f"--limit must be at least {MIN_LIMIT}, got {args.limit}")
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


def _cmd_demo(args) -> int:
    print("sequence: a_n = 5^n + (3+sqrt(2))^n + (3-sqrt(2))^n")
    print(f"coefficients {list(DEMO_SPEC.coeffs)}, initial terms {list(DEMO_SPEC.init)}")
    print("whenever x^2-6x+7 stays irreducible mod p, the detector base must be 25/7 mod p:")
    rows = base_table(limit=args.limit)
    bad = 0
    for row in rows:
        if row.base is None:
            print(f"  p={row.p:<5} skipped ({row.status})")
        else:
            print(f"  p={row.p:<5} base={row.base:<5} 25/7 mod p={row.expected:<5} {row.status}")
            if row.status != "ok":
                bad += 1
    if args.check:
        checked = sum(1 for r in rows if r.base is not None)
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
    s.add_argument("--prime-budget", type=int, default=200)
    s.set_defaults(func=_cmd_analyze)

    s = sub.add_parser("sweep", help="classify every prime up to a bound")
    s.add_argument("--poly", required=True)
    s.add_argument("--init", required=True, help="initial terms a_0..a_{d-1}")
    s.add_argument("--limit", type=int, required=True)
    s.add_argument("--r-cap", type=int, default=DEFAULT_POLICY.r_cap)
    s.add_argument("--brute-cap", type=int, default=DEFAULT_POLICY.brute_cap)
    s.add_argument("--workers", type=int, default=1)
    s.add_argument("--csv", default=None)
    s.add_argument("--json", default=None)
    s.set_defaults(func=_cmd_sweep)

    s = sub.add_parser("detect", help="verdict for a single prime, with explanation")
    s.add_argument("--poly", required=True)
    s.add_argument("--init", required=True)
    s.add_argument("-p", "--prime", type=int, required=True)
    s.add_argument("--r-cap", type=int, default=DEFAULT_POLICY.r_cap)
    s.add_argument("--brute-cap", type=int, default=DEFAULT_POLICY.brute_cap)
    s.set_defaults(func=_cmd_detect)

    s = sub.add_parser("order-stats", help="root order and index statistics over primes")
    group = s.add_mutually_exclusive_group(required=True)
    group.add_argument("--poly")
    group.add_argument("--base", type=int)
    s.add_argument("--limit", type=int, required=True)
    s.add_argument("--c-grid", default="1,2,4,8,16")
    s.set_defaults(func=_cmd_order_stats)

    s = sub.add_parser("demo", help="reproduce the 25/7 base table for the worked example")
    s.add_argument("--check", action="store_true")
    s.add_argument("--limit", type=int, default=1000)
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
