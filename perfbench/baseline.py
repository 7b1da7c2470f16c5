"""Run every workload over several seeds and write the spread of each metric.

Run from the repository root:

    python3 perfbench/baseline.py --out perfbench/baseline.json

For each workload of ``BENCHMARK.json`` this makes ten untraced runs of
``run_seconds`` with seeds 1 to 10 and one traced run, then records for
every end-to-end metric the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
distance between the quartiles as a share of the median, and for every
time the median in raw wall seconds.  From the traced run it keeps
``trace.overhead_s``, ``trace.unaccounted_s`` and, for ``survey-serial``,
``cli.parallel_efficiency``.  The runs go one after another; each is a
fresh process.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = ROOT / ".bench_build" / "perfbench"
SEEDS = range(1, 11)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """The result file of one run (see run.py), with the run's elapsed
    seconds."""
    started = time.perf_counter()
    subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT,
        capture_output=True,
        check=True,
    )
    result = json.loads((RESULTS / f"result-{workload}-seed{seed}-trace{trace}.json").read_text())
    return result | {"elapsed": time.perf_counter() - started}


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", type=Path, help="write the summary here as JSON")
    args = p.parse_args(argv)

    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"run_seconds": seconds, "seeds": list(SEEDS), "workloads": {}}
    for w in spec["workloads"]:
        workload = w["name"]
        results = [run_once(workload, seed, seconds, 0) for seed in SEEDS]
        traced = run_once(workload, SEEDS[0], seconds, 1)
        summary["context"] = {k: v for k, v in results[0]["context"].items() if k not in ("workload", "seed", "trace")}
        entry = {
            "why": w["why"],
            "correct": not any(r["failed"] for r in results + [traced]),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "elapsed_seconds": [r["elapsed"] for r in results],
            "traced_elapsed_seconds": traced["elapsed"],
            "metrics": {},
        }
        for name in results[0]["metrics"]:
            entry["metrics"][name] = summarize([r["metrics"][name]["value"] for r in results])
            entry["metrics"][name]["unit"] = results[0]["metrics"][name]["unit"]
            if name in results[0]["raw_wall_seconds"]:
                entry["metrics"][name]["raw_wall_median"] = statistics.median(
                    r["raw_wall_seconds"][name] for r in results
                )
        for name in ("trace.overhead_s", "trace.unaccounted_s", "cli.parallel_efficiency"):
            if traced["metrics"][name]["value"]:
                entry["metrics"][name] = traced["metrics"][name]
        summary["workloads"][workload] = entry
        print(f"{workload}: correct {entry['correct']}, {entry['failed']} of {entry['attempted']} failed")
        for name, m in entry["metrics"].items():
            if "spread" in m:
                flag = "" if m["spread"] <= bounds[name] / 3 else "  <-- above a third of the bound"
                raw = f"  (raw wall {m['raw_wall_median']:.6g} s)" if "raw_wall_median" in m else ""
                print(f"  {name:16} median {m['median']:.6g} {m['unit']}{raw}  spread {m['spread']:.3f}{flag}")
            else:
                print(f"  {name:16} {m['value']:.6g} {m['unit']}")
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
