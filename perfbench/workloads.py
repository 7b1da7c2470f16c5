"""The three workloads: their commands, untraced passes and output checks.

Every workload is a closed loop with one client: each command is run
in-process through ``rootarr.cli.main`` and the next starts when it has
returned.  A pass is one seeded sequence of commands over the types A5,
D5, F4 and B4; a run repeats passes while another one fits in its time.

* ``survey-serial``: ``rootarr survey --type T --jobs 1 --out FILE`` per
  type.  A5 and B4 ideals are all line-closed (full scans), D5 and F4 have
  bad ideals (early exits), F4 is doubly laced.
  Its traced run also surveys with ``--jobs 2`` (untimed), whose reports
  must equal the serial ones.
* ``classify-cold``: ``rootarr classify --type T --ideal GENERATORS`` for
  a seeded sample of ideals; each request builds a fresh system, so the
  system flat lattice dominates instead of line-closedness.
* ``verify-suites``: ``rootarr verify --types T`` with all six suites; the
  2-closed-subset oracle, the characteristic polynomial and the suites'
  own bonded-pair scan run only here.
"""

from __future__ import annotations

import gc
import io
import json
import random
import re
import statistics
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

from rootarr import build_root_system, enumerate_ideals, format_root
from rootarr.cli import main as cli_main

from checks import (
    differing_records,
    ideal_key,
    record_problems,
    survey_failures,
)
from traced import SUITE_NAMES, TYPES, Tracer, classify_traced, survey_traced, verify_traced

# Requests per classify-cold pass: the 90th percentile of 100 latencies has
# ten samples above it.
COLD_REQUESTS = 100

_VERIFY_LINE = re.compile(r"^(\S+) (\S+): (PASS|FAIL) \(checked (\d+)\)$")


@dataclass
class Command:
    type: str
    argv: list[str]
    key: str = ""  # classify-cold: the ideal the request names


@dataclass
class Outcome:
    command: Command
    seconds: float  # CPU seconds of this process while the command ran
    wall: float
    code: int | None
    stdout: str
    error: str | None  # traceback, when cli.main raised
    output: object = None  # parsed after the pass, outside the timing


@dataclass
class Pass:
    seconds: float  # CPU seconds of all commands
    wall: float
    outcomes: list[Outcome]
    per_type: dict[str, float] = field(default_factory=dict)  # CPU seconds
    per_type_wall: dict[str, float] = field(default_factory=dict)


def run_cli(argv: list[str]) -> tuple[int | None, str, str | None]:
    out = io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = cli_main(argv)
    except Exception:  # a crash fails the command's ideals; the run goes on
        return None, out.getvalue(), traceback.format_exc()
    return code, out.getvalue(), None


def measured(call):
    """``call()`` after a full collection, so that every command starts on
    a collected heap as in a fresh ``rootarr`` process; returns its result,
    CPU seconds and wall seconds."""
    gc.collect()
    cpu, started = time.process_time(), time.perf_counter()
    result = call()
    return result, time.process_time() - cpu, time.perf_counter() - started


def generators(rs, mask: int) -> str:
    """The ideal's maximal roots, as ``rootarr classify --ideal`` takes them."""
    tops = [i for i in range(rs.nroots) if mask >> i & 1 and rs.up_masks[i] & mask == 1 << i]
    return ",".join(format_root(rs, i) for i in tops)


def stratified_counts(sizes: dict[str, int], total: int) -> dict[str, int]:
    """Split ``total`` in proportion to ``sizes`` (largest remainders)."""
    whole = sum(sizes.values())
    counts = {k: total * n // whole for k, n in sizes.items()}
    by_remainder = sorted(sizes, key=lambda k: (-(total * sizes[k] % whole), k))
    for k in by_remainder[: total - sum(counts.values())]:
        counts[k] += 1
    return counts


class Workload:
    #: ideals one pass classifies or checks, the base of ``ideals_per_s``
    ideals_per_pass = 0

    def __init__(self, checker, out_dir: Path):
        self.checker = checker
        self.out_dir = out_dir

    #: a pass's seconds on one type, from its commands' seconds
    type_seconds = staticmethod(sum)

    def commands(self, rng: random.Random) -> list[Command]:
        raise NotImplementedError

    def before(self, command: Command) -> None:
        """Untimed preparation for a command."""

    def run(self, commands: list[Command]) -> Pass:
        """Run the commands one after another, timing each in CPU and wall
        seconds."""
        outcomes = []
        for command in commands:
            self.before(command)
            (code, stdout, error), cpu, wall = measured(lambda: run_cli(command.argv))
            outcomes.append(Outcome(command, cpu, wall, code, stdout, error))
        p = Pass(sum(o.seconds for o in outcomes), sum(o.wall for o in outcomes), outcomes)
        for t in TYPES:
            mine = [o for o in outcomes if o.command.type == t]
            p.per_type[t] = self.type_seconds([o.seconds for o in mine])
            p.per_type_wall[t] = self.type_seconds([o.wall for o in mine])
        return p

    def parse(self, outcome: Outcome) -> object:
        raise NotImplementedError

    def failures(self, p: Pass) -> tuple[int, dict[str, list[str]]]:
        """(attempted, failing items with reasons) of a parsed pass."""
        raise NotImplementedError

    def traced(self, tr: Tracer, commands: list[Command]) -> tuple[list, float, float]:
        """Traced replicas of the commands, timed like :meth:`run`: their
        outputs, CPU seconds and wall seconds."""
        outputs, cpu, wall = [], 0.0, 0.0
        for n, command in enumerate(commands):
            output, c, w = measured(lambda: self.traced_command(tr, n, command))
            outputs.append(output)
            cpu += c
            wall += w
        return outputs, cpu, wall

    def traced_command(self, tr: Tracer, n: int, command: Command):
        raise NotImplementedError

    def traced_mismatches(self, p: Pass, traced: list) -> dict[str, list[str]]:
        """Items whose traced output, certificates and witnesses included,
        differs from the untraced pass: the replica no longer makes the
        program's calls."""
        raise NotImplementedError


class Survey(Workload):
    ideals_per_pass = 132 + 182 + 105 + 70

    def __init__(self, checker, out_dir: Path, jobs: int):
        super().__init__(checker, out_dir)
        self.jobs = jobs
        self._passes = 0
        self._checked = {}  # (type, report text) -> failures; passes repeat reports

    def commands(self, rng):
        order = list(TYPES)
        rng.shuffle(order)
        self._passes += 1
        out = self.out_dir / f"survey-jobs{self.jobs}-{self._passes}"
        return [
            Command(t, ["survey", "--type", t, "--jobs", str(self.jobs), "--out", f"{out}-{t}.json"])
            for t in order
        ]

    def before(self, command):
        Path(command.argv[-1]).unlink(missing_ok=True)

    def parse(self, outcome):
        path = Path(outcome.command.argv[-1])
        if outcome.error is not None or not path.is_file():
            return None
        report = json.loads(path.read_text())
        report.pop("timing_seconds", None)
        return report

    def failures(self, p):
        attempted, failed = 0, {}
        for o in p.outcomes:
            t = o.command.type
            expected = self.checker.ideals(t)
            attempted += len(expected)
            text = json.dumps(o.output, sort_keys=True)
            if (t, text) not in self._checked:
                self._checked[t, text] = survey_failures(self.checker.system(t), o.output, expected)
            for key, why in self._checked[t, text].items():
                failed[f"{t} {key}"] = why
        return attempted, failed

    def versus(self, p: Pass, reports: dict[str, dict]) -> dict[str, list[str]]:
        """Ideals whose records differ from other reports of the same types."""
        failed = {}
        for o in p.outcomes:
            t = o.command.type
            if o.output is None:
                continue
            if reports[t] is None:
                failed[f"{t} report"] = ["no serial report to compare with"]
                continue
            for key in differing_records(o.output, reports[t]):
                failed[f"{t} {key}"] = ["record differs from the serial survey"]
            if {**o.output, "records": None} != {**reports[t], "records": None}:
                failed[f"{t} report"] = ["report fields differ from the serial survey"]
        return failed

    def traced_command(self, tr, n, command):
        """The traced report's path; it is read after the timing."""
        path = self.out_dir / f"traced-{command.type}.json"
        survey_traced(tr, command.type, path)
        return path

    def traced_mismatches(self, p, traced):
        failed = {}
        for o, path in zip(p.outcomes, traced):
            t = o.command.type
            report = json.loads(path.read_text())
            untraced = {ideal_key(r["ideal"]): r for r in (o.output or {"records": []})["records"]}
            for r in report["records"]:
                key = ideal_key(r["ideal"])
                if r != untraced.get(key):
                    failed[f"{t} {key}"] = ["traced record differs"]
            if len(report["records"]) != len(untraced):
                failed[f"{t} count"] = ["traced record count differs"]
        return failed


class ClassifyCold(Workload):
    ideals_per_pass = COLD_REQUESTS
    # The median request: a sum over a type's requests moves with the few
    # largest ideals drawn.
    type_seconds = staticmethod(statistics.median)

    def __init__(self, checker, out_dir):
        super().__init__(checker, out_dir)
        self.pool = {}
        for t in TYPES:
            rs = build_root_system(t)
            self.pool[t] = [
                (ideal_key(i.coordinate_strings()), generators(rs, i.mask), i.size)
                for i in enumerate_ideals(rs)
            ]  # enumerate_ideals yields ideals by size
        self.mix = stratified_counts({t: len(v) for t, v in self.pool.items()}, COLD_REQUESTS)

    def commands(self, rng):
        picked = []
        for t in TYPES:
            # One ideal from each of mix[t] equal slices of the size-sorted
            # pool, so that the sizes drawn, and with them the per-type
            # times, hardly change with the seed.
            pool, n = self.pool[t], self.mix[t]
            for k in range(n):
                picked.append((t, rng.choice(pool[k * len(pool) // n : (k + 1) * len(pool) // n])))
        rng.shuffle(picked)
        return [
            Command(t, ["classify", "--type", t, "--ideal", gens], key)
            for t, (key, gens, _) in picked
        ]

    def sizes(self, commands) -> list[int]:
        size = {(t, key): n for t, pool in self.pool.items() for key, _, n in pool}
        return [size[c.type, c.key] for c in commands]

    def parse(self, outcome):
        if outcome.code != 0:
            return None
        try:
            return json.loads(outcome.stdout)
        except ValueError:
            return None

    def failures(self, p):
        failed = {}
        for n, o in enumerate(p.outcomes):
            c = o.command
            record = o.output
            if record is None:
                why = [f"exit {o.code}", o.error or o.stdout[-500:]]
            elif ideal_key(record["ideal"]) != c.key:
                why = ["answered another ideal"]
            else:
                why = record_problems(self.checker.system(c.type), record, self.checker.ideals(c.type)[c.key])
            if why:
                failed[f"request {n} {c.type} {c.key}"] = why
        return len(p.outcomes), failed

    def traced_command(self, tr, n, command):
        return classify_traced(tr, command.type, command.argv[-1], f"request-{n}")

    def traced_mismatches(self, p, traced):
        return {
            f"request {n} {o.command.type} {o.command.key}": ["traced record differs"]
            for n, (o, record) in enumerate(zip(p.outcomes, traced))
            if json.loads(json.dumps(record)) != o.output
        }


class Verify(Workload):
    ideals_per_pass = 132 + 182 + 105 + 70

    def commands(self, rng):
        order = list(TYPES)
        rng.shuffle(order)
        suite_args = [arg for name in SUITE_NAMES for arg in ("--suite", name)]
        return [Command(t, ["verify", "--types", t, *suite_args]) for t in order]

    def parse(self, outcome):
        """{suite: (status, checked, counterexamples)} from the printed lines."""
        results, current = {}, None
        for line in outcome.stdout.splitlines():
            match = _VERIFY_LINE.match(line)
            if match:
                current = match.group(1)
                results[current] = [match.group(3), int(match.group(4)), 0]
            elif line.startswith("    counterexample:") and current is not None:
                results[current][2] += 1
        return {name: tuple(v) for name, v in results.items()}

    def failures(self, p):
        attempted, failed = 0, {}
        for o in p.outcomes:
            t = o.command.type
            expected = self.checker.verify_checked(t)
            for name in SUITE_NAMES:
                attempted += 1
                got = o.output.get(name)
                if o.error is not None:
                    why = [o.error]
                elif got is None:
                    why = ["no result line"]
                elif got != ("PASS", expected[name], 0):
                    why = [f"{got[0]}, checked {got[1]} (reference {expected[name]}), {got[2]} counterexamples"]
                else:
                    continue
                failed[f"{name} {t}"] = why
        return attempted, failed

    def traced_command(self, tr, n, command):
        return verify_traced(tr, command.type)

    def traced_mismatches(self, p, traced):
        failed = {}
        for o, results in zip(p.outcomes, traced):
            for name, (checked, failures) in results.items():
                got = o.output.get(name)
                if got is None or (got[1], got[2]) != (checked, failures):
                    failed[f"{name} {o.command.type}"] = ["traced suite result differs"]
        return failed


def make_workload(name: str, checker, out_dir: Path) -> Workload:
    if name == "survey-serial":
        return Survey(checker, out_dir, jobs=1)
    if name == "classify-cold":
        return ClassifyCold(checker, out_dir)
    if name == "verify-suites":
        return Verify(checker, out_dir)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("survey-serial", "classify-cold", "verify-suites")
