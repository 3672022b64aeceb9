"""Benchmark for schurquot: one workload per process, one JSON line out.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py [--seed N --seconds S --trace 0|1]   # every workload

Run from anywhere; the library is imported from the `src/` directory next
to this one.  With `--trace 0` the last line of standard output carries
the end-to-end metrics of the run; with `--trace 1` it carries the
per-layer metrics of one traced round.  See README.md in this directory.
"""

import time

_START = time.perf_counter()

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"
WORKLOAD_NAMES = ("search", "inject", "deriv", "gamma0")


class Round:
    """Outcome of one round: timed wall, per-operation latencies, failures."""

    def __init__(self, ops):
        self.wall = 0.0
        self.latencies: list[float] = []
        self.failed = 0
        self.problems: list[str] = []
        for op in ops:
            start = time.perf_counter()
            try:
                out = op.run()
            except Exception as exc:  # an operation that raises counts as failed
                self.failed += 1
                print(f"operation raised {exc!r}", file=sys.stderr)
                continue
            finally:
                elapsed = time.perf_counter() - start
                self.wall += elapsed
                self.latencies.append(elapsed)
            bad = op.check(out)
            if bad:
                self.failed += 1
                self.problems.extend(bad)


def measure(make_round, inputs, seconds: int) -> list[Round]:
    """Whole rounds until the next one would end past `seconds` (at least one)."""
    rounds = []
    start = time.perf_counter()
    while True:
        begun = time.perf_counter()
        rounds.append(Round(make_round(inputs)))
        now = time.perf_counter()
        if now - start + (now - begun) > seconds:
            return rounds


def result_line(rounds: list[Round], metrics: dict) -> dict:
    problems = [p for r in rounds for p in r.problems]
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": sum(len(r.latencies) for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    if not (SRC / "schurquot" / "__init__.py").is_file():
        raise SystemExit(f"error: no schurquot source under {SRC}")
    sys.path.insert(0, str(SRC))
    import workloads  # imports schurquot

    make_inputs, make_round = workloads.WORKLOADS[name]
    inputs = make_inputs(seed)
    setup_s = time.perf_counter() - _START

    if trace:
        from tracer import Tracer

        plain = Round(make_round(inputs))
        tracing = Tracer()
        tracing.install()
        try:
            traced = Round(make_round(inputs))
        finally:
            tracing.uninstall()
        return result_line([plain, traced], tracing.metrics(traced.wall, plain.wall))

    rounds = measure(make_round, inputs, seconds)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    latencies = [t for r in rounds for t in r.latencies]
    metrics = {
        "wall_s": {"value": statistics.median(r.wall for r in rounds), "unit": "s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": peak_kib / 1024, "unit": "MB"},
        "query_p50_ms": {"value": statistics.median(latencies) * 1000, "unit": "ms"},
    }
    return result_line(rounds, metrics)


def run_all(seed: int, seconds: int, trace: int) -> int:
    """Every workload in its own process; results also go to out/latest.json."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or not lines:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
        print(name, lines[-1], flush=True)
    OUT_DIR.mkdir(exist_ok=True)
    meta = {"python": sys.version.split()[0], "nproc": os.cpu_count(),
            "seed": seed, "seconds": seconds, "trace": trace}
    (OUT_DIR / "latest.json").write_text(json.dumps({"meta": meta, "results": results}, indent=1))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        parser.error("need --seed >= 0 and 1 <= --seconds <= 600")
    if args.workload is None:
        return run_all(args.seed, args.seconds, args.trace)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
