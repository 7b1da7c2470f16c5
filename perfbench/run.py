"""rootarr benchmark: runs one workload and prints its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload survey-serial --seed 1 --seconds 20 --trace 0

Workloads: survey-serial, classify-cold, verify-suites (see
``workloads.py``).  With ``--trace 0`` the run measures end-to-end metrics;
with ``--trace 1`` it runs one untraced and one traced pass and reports
per-layer metrics.  Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The program is imported from ``src``; nothing
is installed.  Files the run leaves go to ``.bench_build/perfbench``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from functools import cached_property
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"

sys.path.insert(0, str(SRC))
try:
    from checks import Reference
    from traced import TYPES, UNITS, Tracer, layer_metrics
    from workloads import WORKLOADS, ClassifyCold, Survey, make_workload
except ImportError as exc:  # not run from a rootarr checkout
    sys.exit(f"perfbench: cannot import rootarr from {SRC}: {exc}")

# setup_s is the median of this many fresh start-ups.
SETUP_REPEATS = 3
SETUP_SCRIPT = """
import sys, time
cpu, started = time.process_time(), time.perf_counter()
import rootarr
from rootarr import Arrangement, build_root_system, enumerate_ideals
for type_str in sys.argv[1:]:
    rs = build_root_system(type_str)
    sum(1 for _ in enumerate_ideals(rs))
    Arrangement(rs, range(rs.nroots)).flats()
print(repr(time.process_time() - cpu), repr(time.perf_counter() - started))
"""

# A traced pass may take this share longer than the untraced one before the
# run fails.  Tracing itself costs a few per cent, and two single passes
# differ by less than 10 % in CPU seconds; a replica that does much
# work the program no longer does (such as the system flat lattice, 75-90 %
# of a classify-cold request) shows above it.
TRACE_OVERHEAD_LIMIT = 0.5

# End-to-end metrics that are times, also printed in wall seconds.
TIME_METRICS = ("cpu_s", "setup_s", "latency_p50_s", "latency_p90_s") + tuple(
    f"survey_s.{t}" for t in TYPES
)

END_TO_END_UNITS = {
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ideals_per_s": "1/s",
    "survey_s.A5": "s",
    "survey_s.D5": "s",
    "survey_s.F4": "s",
    "survey_s.B4": "s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description="rootarr benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measure for about this long")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def percentile(values, q: float) -> float:
    """Linear interpolation between the closest ranks."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def source_digest() -> str:
    import hashlib  # not before the passes: it adds 3.5 MB to their peak RSS

    h = hashlib.sha256()
    for path in sorted((SRC / "rootarr").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def context(args, digest: str) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = done.stdout.strip() or None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit,
        "source_digest": digest,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def measure_setup(types) -> tuple[float, float]:
    """Median CPU and median wall seconds of fresh start-ups."""
    env = {k: v for k, v in os.environ.items() if k != "ROOTARR_CACHE_DIR"}
    env["PYTHONPATH"] = str(SRC)
    times, walls = [], []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_SCRIPT, *types],
            env=env,
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=150,
            check=True,
        )
        seconds, wall = map(float, done.stdout.split())
        times.append(seconds)
        walls.append(wall)
    return statistics.median(times), statistics.median(walls)


def peak_rss_mb() -> float:
    """Peak RSS of this process, which runs every timed command itself."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def pass_metrics(wl, passes, raw: bool) -> dict:
    """Medians over passes of the pass metrics, in CPU seconds or, with
    ``raw``, in wall seconds."""
    seconds = (lambda x: x.wall) if raw else (lambda x: x.seconds)
    total = statistics.median(seconds(p) for p in passes)
    metrics = {"cpu_s": total, "ideals_per_s": wl.ideals_per_pass / total}
    for t in TYPES:
        metrics[f"survey_s.{t}"] = statistics.median(
            (p.per_type_wall if raw else p.per_type)[t] for p in passes
        )
    for q in (50, 90):
        metrics[f"latency_p{q}_s"] = statistics.median(
            percentile([seconds(o) for o in p.outcomes], q) for p in passes
        )
    return metrics


def pass_rng(seed: int, index: int) -> random.Random:
    return random.Random(f"{seed}:{index}")


class Run:
    """One benchmark run: passes, checks, metrics."""

    def __init__(self, args, out_dir: Path):
        self.args = args
        self.checker = Reference()  # loaded when first used, after the passes
        self.out_dir = out_dir
        self.workload = make_workload(args.workload, self.checker, out_dir)
        self.failed: dict[str, list[str]] = {}
        self.attempted = 0
        self.notes: dict = {}

    @cached_property
    def digest(self) -> str:
        return source_digest()

    def fail(self, index: int, failed: dict[str, list[str]]) -> None:
        """Record failing items of pass ``index``; an item failing several
        checks counts once per pass, as it is attempted once per pass."""
        self.failed.update({f"pass {index}: {key}": why for key, why in failed.items()})

    def check(self, index: int, p) -> None:
        for o in p.outcomes:
            o.output = self.workload.parse(o)
        attempted, failed = self.workload.failures(p)
        self.attempted += attempted
        self.fail(index, failed)

    def timed(self) -> dict:
        wl = self.workload
        passes, sent = [], []
        self.notes["rss_before_first_pass_mb"] = peak_rss_mb()
        started = time.perf_counter()
        while True:
            commands = wl.commands(pass_rng(self.args.seed, len(passes)))
            sent += commands
            passes.append(wl.run(commands))
            if len(passes) == 1:
                rss = peak_rss_mb()  # one pass's peak, however many passes fit
            if time.perf_counter() - started + passes[-1].wall > self.args.seconds:
                break
        setup, setup_wall = measure_setup(TYPES)
        for index, p in enumerate(passes):
            self.check(index, p)
        if isinstance(wl, ClassifyCold):
            sizes = wl.sizes(sent)
            self.notes["request_mix"] = {
                "per_type": {t: sum(c.type == t for c in sent) for t in TYPES},
                "ideal_size_min_q1_median_q3_max": [percentile(sizes, q) for q in (0, 25, 50, 75, 100)],
            }
        self.notes["passes"] = len(passes)
        self.notes["latency_samples_per_pass"] = len(passes[0].outcomes)
        self.notes["pass_wall_seconds"] = [p.wall for p in passes]
        self.notes["pass_cpu_seconds"] = [p.seconds for p in passes]
        raw = pass_metrics(wl, passes, raw=True)
        self.notes["raw_wall_seconds"] = {"setup_s": setup_wall} | {
            name: raw[name] for name in TIME_METRICS if name in raw
        }
        return {"setup_s": setup, "peak_rss_mb": rss} | pass_metrics(wl, passes, raw=False)

    def traced(self) -> dict:
        wl = self.workload
        commands = wl.commands(pass_rng(self.args.seed, 0))
        untraced = wl.run(commands)
        tr = Tracer()
        outputs, traced_seconds, traced_wall = wl.traced(tr, commands)
        busy = sum(tr.self_seconds())
        metrics = layer_metrics(tr)
        metrics["cli.parallel_efficiency"] = 0.0
        parallel = None
        if isinstance(wl, Survey):
            # The same surveys with a pool of two workers.  Their CPU time
            # is not this process's, so the wall seconds of the serial and
            # the parallel pass are compared.
            pooled = Survey(self.checker, self.out_dir, jobs=2)
            parallel = pooled.run(pooled.commands(pass_rng(self.args.seed, 0)))
            metrics["cli.parallel_efficiency"] = untraced.wall / (pooled.jobs * parallel.wall)
            self.notes["parallel_pass_wall_seconds"] = parallel.wall
        # Outputs are parsed only now, so every pass ran on the same heap.
        self.check(0, untraced)
        if parallel is not None:
            for o in parallel.outcomes:
                o.output = pooled.parse(o)
            self.fail(0, pooled.versus(parallel, {o.command.type: o.output for o in untraced.outcomes}))
        self.fail(0, wl.traced_mismatches(untraced, outputs))
        overhead = traced_seconds - untraced.seconds
        if overhead > TRACE_OVERHEAD_LIMIT * untraced.seconds:
            self.fail(0, {"trace overhead": [
                f"traced pass took {overhead:.3g} s longer than the untraced one "
                f"({untraced.seconds:.3g} s); the limit is {TRACE_OVERHEAD_LIMIT:.0%}"
            ]})
        metrics["trace.overhead_s"] = overhead
        metrics["trace.unaccounted_s"] = traced_seconds - busy
        self.notes["traced_pass_wall_seconds"] = traced_wall
        self.notes["untraced_pass_wall_seconds"] = untraced.wall
        trace_file = OUT / f"trace-{self.args.workload}-seed{self.args.seed}.json"
        trace_file.write_text(json.dumps(tr.dump()))
        self.notes["trace_file"] = str(trace_file.relative_to(ROOT))
        return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    # Hermetic: no survey cache (its key would serve stale records), and
    # temporary files stay in the checkout.
    os.environ.pop("ROOTARR_CACHE_DIR", None)
    OUT.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(OUT)

    out_dir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        run = Run(args, out_dir)
        metrics = run.traced() if args.trace else run.timed()
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    units = UNITS if args.trace else END_TO_END_UNITS
    failed = min(len(run.failed), run.attempted)
    summary = {
        "context": context(args, run.digest),
        **run.notes,
        "attempted": run.attempted,
        "failed": failed,
        "error_rate": failed / run.attempted,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        "failures": dict(sorted(run.failed.items())[:50]),
    }
    result_file = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_file.write_text(json.dumps(summary, indent=1))
    for key in ("context", "request_mix"):
        if key in summary:
            print(f"{key}: {json.dumps(summary[key])}")
    for key, why in list(run.failed.items())[:10]:
        print(f"FAILED {key}: {'; '.join(str(w) for w in why)[:300]}")
    print(f"error_rate {summary['error_rate']} ({failed} of {run.attempted} failed)")
    raw = run.notes.get("raw_wall_seconds", {})
    for name, entry in summary["metrics"].items():
        wall = f" (raw wall {raw[name]:.6g} s)" if name in raw else ""
        print(f"{name} {entry['value']} {entry['unit']}{wall}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": run.attempted,
                "failed": failed,
                "metrics": summary["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
