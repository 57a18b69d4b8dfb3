#!/usr/bin/env python3
"""The recdiv benchmark: end-to-end timing of the CLI, or a traced layer run.

    python3 bench/run.py --workload trib-sweep --seed 0 --seconds 35 --trace 0

Run it from anywhere; it needs the checkout's src/recdiv beside this
directory, and exits 2 without a result when that is missing.

Every repetition is a fresh `python -m recdiv ...` process, as a user runs
it, given only the workload's arguments and RECDIV_SEED=<seed>. Its CSV,
JSON (less meta.seed) and stdout are checked against bench/reference.json.

--trace 0 reports the end-to-end metrics, each a median over repetitions:
  wall_s       wall time of the command
  cpu_s        user+sys time of the command and its reaped workers
  peak_rss_mb  largest peak resident set of any process of the command
               (ru_maxrss from wait4, so no earlier run carries over)
  setup_s      wall time of the same command at --limit 100
--trace 1 runs the command at one worker under bench/trace_run.py, which
times the calls into each layer's public functions, and reports per-layer
calls, self time and exact work counts (see PER_LAYER below).

A fixed pure-Python kernel is timed before every repetition and printed as
host.calib_ms: it shows when host speed, not code, moved a number.

The last stdout line is {"correct", "attempted", "failed", "metrics"}.
attempted/failed count primes for the sweeps (a prime fails when it ends
indeterminate or its run exits non-zero or fails the output check) and
runs for order-stats.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFERENCE = BENCH / "reference.json"

SETUP_LIMIT = 100  # the smallest size order-stats accepts
SETUP_REPS = 3  # per full run
MIN_REPS = 3  # timed repetitions per run, whatever --seconds says
MIN_TRACED = 2  # traced runs per run, at seeds s and s+1
TIME_LIMIT_S = 170  # a repetition still running this long after start is killed
STARTED = time.monotonic()


@dataclass(frozen=True)
class Workload:
    """A recdiv command line; --limit, --workers and outputs are added per run."""

    args: tuple[str, ...]
    limit: int
    workers: int | None = None  # None: not a sweep, so no pool and no CSV/JSON

    @property
    def is_sweep(self) -> bool:
        return self.workers is not None

    def argv(self, limit: int, workers: int | None = None) -> list[str]:
        out = [*self.args, "--limit", str(limit)]
        if self.is_sweep:
            out += ["--workers", str(workers or self.workers)]
            out += ["--csv", "rows.csv", "--json", "summary.json"]
        return out


# Why each workload is here is recorded in BENCHMARK.json.
WORKLOADS = {
    "trib-sweep": Workload(
        ("sweep", "--poly", "1,-1,-1,-1", "--init", "1,1,1"), 30_000, workers=2
    ),
    "tetra-sweep": Workload(
        ("sweep", "--poly", "1,-1,-1,-1,-1", "--init", "1,1,1,1"), 10_000, workers=1
    ),
    "artin-orderstats": Workload(("order-stats", "--base", "2"), 1_000_000),
}

TRACED_FUNCTIONS = (
    "arith.factor_integer",
    "arith.mult_order",
    "arith.sieve_primes",
    "fppoly.pattern",
    "fppoly.factor_mod_p",
    "fppoly.solve_gamma",
    "fppoly.fp_root",
    "charpoly.analyze_poly",
    "detect.detect_full",
    "detect.build_context",
    "detect.structural_detect",
    "recurrence.has_zero_bruteforce",
    "recurrence.term_mod",
    "orderstats.index_histogram",
    "orderstats.artin_fraction",
    "sweep.write_csv",
    "sweep.write_json",
)

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

# Exact counts must repeat across traced runs and seeds; timings need not.
EXACT_COUNTS = {
    **{f"{f}.calls": "count" for f in TRACED_FUNCTIONS},
    "recurrence.brute_steps.divisor": "count",
    "recurrence.brute_steps.nondivisor": "count",
    "detect.structural_scan_steps": "count",
    "detect.long_scans": "count",
}
PER_LAYER = {
    **EXACT_COUNTS,
    **{f"{f}.self_s": "s" for f in TRACED_FUNCTIONS},
    "fppoly.factorizations_per_prime": "ratio",
    "sweep.cores_busy": "cores",
    "trace.overhead": "ratio",
    "host.calib_ms": "ms",
}

# Structural scans longer than this build an O(p) dlog table (detect.py).
DLOG_TABLE_THRESHOLD = 256


def calibrate() -> float:
    """Milliseconds for a fixed 400k-step pure-Python kernel."""
    t0 = time.perf_counter()
    x = 1
    for i in range(400_000):
        x = (x * 48271 + i) % 2147483647
    return (time.perf_counter() - t0) * 1e3


@dataclass(frozen=True)
class Rep:
    """One finished process: its exit code and what it cost."""

    exit_code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_process(cmd: list[str], work: Path, seed: int) -> Rep:
    """Run cmd in work with the checkout's src first on the path.

    stdout goes to work/stdout. wait4 gives the rusage of this child and of
    the workers it reaped, and of nothing else. The child leads its own
    process group, which is killed once the child has ended or when the
    benchmark's time is up, so no worker outlives its run.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), RECDIV_SEED=str(seed))
    with open(work / "stdout", "wb") as out, open(work / "stderr", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=work, env=env, stdout=out, stderr=err, start_new_session=True
        )
        left = TIME_LIMIT_S - (time.monotonic() - STARTED)
        timer = threading.Timer(max(1.0, left), _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        _kill_group(proc.pid)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Rep(
        proc.returncode,
        wall,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024,
    )


def run_cli(argv: list[str], work: Path, seed: int, traced: bool = False) -> Rep:
    """One fresh recdiv process; traced runs go through bench/trace_run.py."""
    for name in ("rows.csv", "summary.json", "trace.json"):
        (work / name).unlink(missing_ok=True)
    if traced:
        cmd = [sys.executable, str(BENCH / "trace_run.py"), *argv]
    else:
        cmd = [sys.executable, "-m", "recdiv", *argv]
    return run_process(cmd, work, seed)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def output_digests(work: Path, is_sweep: bool) -> dict:
    """Digests of what the command wrote; the JSON is taken without meta.seed."""
    out = {"stdout_sha256": sha256((work / "stdout").read_bytes())}
    if is_sweep:
        out["csv_sha256"] = sha256((work / "rows.csv").read_bytes())
        summary = json.loads((work / "summary.json").read_text())
        del summary["meta"]["seed"]
        out["json_sha256"] = sha256(json.dumps(summary, indent=2).encode())
    return out


def csv_rows(work: Path) -> list[list[str]]:
    lines = (work / "rows.csv").read_text().splitlines()
    return [line.split(",") for line in lines[1:]]


class Tally:
    """attempted/failed over every repetition, and the output check."""

    def __init__(self, workload: Workload, expected: dict):
        self.workload = workload
        self.expected = expected  # size name -> reference digests and primes
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def check(self, rep: Rep, work: Path, size: str) -> bool:
        ref = self.expected[size]
        units = ref["primes"] if self.workload.is_sweep else 1
        ok = rep.exit_code == 0
        if ok:
            try:
                digests = output_digests(work, self.workload.is_sweep)
            except (OSError, ValueError, KeyError, TypeError):
                digests = None
            ok = digests == {k: v for k, v in ref.items() if k.endswith("_sha256")}
        self.attempted += units
        if not ok:
            self.failed += units
            self.correct = False
            print(f"FAILED output check: {size} run exit {rep.exit_code}", file=sys.stderr)
        elif self.workload.is_sweep:
            self.failed += sum(row[4] == "indeterminate" for row in csv_rows(work))
        return ok


def more(done: int, minimum: int, start: float, seconds: float) -> bool:
    """Whether to start another cycle: below the minimum, or one more fits."""
    elapsed = time.perf_counter() - start
    return done < minimum or elapsed + elapsed / done <= seconds


def time_runs(wl: Workload, tally: Tally, work: Path, seed: int, seconds: float):
    """Cycles of SETUP_REPS set-up runs and one full run, for `seconds`.

    Set-up runs are spread over the whole run, so that both medians sample
    the same drift in host speed.
    """
    calib, reps, setup = [], [], []
    full, small = wl.argv(wl.limit), wl.argv(SETUP_LIMIT)
    # An untimed first run writes the bytecode caches and warms the file cache.
    tally.check(run_cli(small, work, seed), work, "setup")
    start = time.perf_counter()
    while more(len(reps), MIN_REPS, start, seconds):
        for _ in range(SETUP_REPS):
            setup.append(run_cli(small, work, seed))
            tally.check(setup[-1], work, "setup")
        calib.append(calibrate())
        reps.append(run_cli(full, work, seed))
        tally.check(reps[-1], work, "full")
    metrics = {
        "wall_s": median(r.wall_s for r in reps),
        "cpu_s": median(r.cpu_s for r in reps),
        "peak_rss_mb": median(r.peak_rss_mb for r in reps),
        "setup_s": median(r.wall_s for r in setup),
    }
    print(
        f"{len(reps)} timed runs, walls "
        + " ".join(f"{r.wall_s:.3f}" for r in reps)
        + f"; host.calib_ms {median(calib):.1f}"
    )
    return metrics, END_TO_END


def scan_counts(work: Path) -> dict:
    """Structural scan lengths from the CSV: witness mod Q + 1, or Q."""
    steps = long_scans = 0
    for row in csv_rows(work):
        verdict, method, witness, q = row[4], row[5], row[6], row[9]
        if method != "structural" or verdict not in ("divisor", "nondivisor"):
            continue
        n = int(witness) % int(q) + 1 if verdict == "divisor" else int(q)
        steps += n
        long_scans += n > DLOG_TABLE_THRESHOLD
    return {"detect.structural_scan_steps": steps, "detect.long_scans": long_scans}


def trace_runs(wl: Workload, tally: Tally, work: Path, seed: int, seconds: float):
    """Traced runs at one worker (seeds alternate s, s+1) and untraced controls."""
    calib, traced, counts, self_s = [], [], [], []
    one_worker = wl.argv(wl.limit, workers=1)
    tally.check(run_cli(wl.argv(SETUP_LIMIT), work, seed), work, "setup")
    start = time.perf_counter()

    def traced_run():
        calib.append(calibrate())
        rep = run_cli(one_worker, work, seed + len(traced) % 2, traced=True)
        traced.append(rep)
        if not tally.check(rep, work, "full"):
            return
        trace = json.loads((work / "trace.json").read_text())
        self_s.append(trace["self_s"])
        exact = {f"{f}.calls": trace["calls"][f] for f in TRACED_FUNCTIONS}
        for kind in ("divisor", "nondivisor"):
            exact[f"recurrence.brute_steps.{kind}"] = trace["brute_steps"][kind]
        if wl.is_sweep:
            exact.update(scan_counts(work))
        else:
            exact.update({"detect.structural_scan_steps": 0, "detect.long_scans": 0})
        counts.append(exact)

    traced_run()
    calib.append(calibrate())
    untraced = run_cli(one_worker, work, seed)
    tally.check(untraced, work, "full")
    while more(len(traced), MIN_TRACED, start, seconds):
        traced_run()
    native = untraced
    if wl.workers != 1 and wl.is_sweep:
        calib.append(calibrate())
        native = run_cli(wl.argv(wl.limit), work, seed)
        tally.check(native, work, "full")

    if not counts or any(c != counts[0] for c in counts):
        tally.correct = False
        print("FAILED exact-repeat check of the traced counts", file=sys.stderr)
    metrics = dict(counts[0]) if counts else dict.fromkeys(EXACT_COUNTS, 0)
    for f in TRACED_FUNCTIONS:
        metrics[f"{f}.self_s"] = median(s[f] for s in self_s) if self_s else 0.0
    primes = tally.expected["full"]["primes"]
    metrics["fppoly.factorizations_per_prime"] = (
        metrics["fppoly.factor_mod_p.calls"] / primes
    )
    metrics["sweep.cores_busy"] = native.cpu_s / native.wall_s
    metrics["trace.overhead"] = median(r.wall_s for r in traced) / untraced.wall_s
    metrics["host.calib_ms"] = median(calib)
    return metrics, PER_LAYER


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "recdiv" / "__main__.py").is_file():
        print(f"error: no recdiv sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    expected = json.loads(REFERENCE.read_text())["outputs"][args.workload]
    tally = Tally(wl, expected)
    scratch = ROOT / ".bench_run"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=scratch))
    try:
        measure = trace_runs if args.trace else time_runs
        metrics, units = measure(wl, tally, work, args.seed, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(
        json.dumps(
            {
                "correct": tally.correct,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
