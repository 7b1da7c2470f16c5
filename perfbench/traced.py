"""Traced replicas of the benchmarked commands, and the per-layer metrics.

The traced pass records spans from this file around calls into the public
functions of each rootarr module; nothing inside the package is touched.
To do that it re-states the steps of ``rootarr survey``, ``rootarr
classify``, ``classify_ideal`` and the verification suites, making the
same calls in the same order, so memos fill the same way and the records
come out the same.  The run compares them, certificates and witnesses
included, with the untraced pass, and fails when the traced pass takes
much longer than the untraced one (``run.TRACE_OVERHEAD_LIMIT``): a
replica that has drifted from the program shows in one or the other.

Two calls are made early, in spans of their own, so that their time is not
hidden inside another layer: ``matroid._system_flats`` (every command that
classifies a non-empty ideal computes it once per system) and an ideal's
``Arrangement.flats()`` (the generic search computes it first thing, for
every non-empty ideal).  Both are memoized, so the later call inside the
program is a lookup and the work done is unchanged.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from rootarr import (
    ClassificationRecord,
    EquivalenceViolation,
    Ideal,
    build_root_system,
    chain_peeling,
    enumerate_ideals,
    exponents,
    format_root,
    is_supersolvable_generic,
    is_supersolvable_rootideal,
    validate_supersolving,
)
from rootarr import classify, matroid, suites
from rootarr.cli import SCHEMA

TYPES = ("A5", "D5", "F4", "B4")
SUITE_NAMES = (
    "chainroot",
    "exponents-vs-chi",
    "line-closed-oracle",
    "peel-implies-ss",
    "rank2",
    "twocases",
)


@dataclass(slots=True)
class Span:
    name: str
    trace_id: str
    type: str
    parent: int | None
    start: float
    end: float = 0.0
    count: int = 0  # work done inside the span, where the layer has a count

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans kept in memory, timed in CPU seconds of this process.  All
    spans of one ideal or request share ``trace_id``; ``type`` is the root
    system they belong to."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.trace_id = ""
        self.type = ""

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        span = Span(name, self.trace_id, self.type, parent, time.process_time())
        self._open.append(len(self.spans))
        self.spans.append(span)
        try:
            yield span
        finally:
            span.end = time.process_time()
            self._open.pop()

    def self_seconds(self) -> list[float]:
        """Each span's duration minus the time its children cover."""
        own = [s.seconds for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.seconds
        return own

    def dump(self) -> list[dict]:
        return [
            {
                "name": s.name,
                "id": s.trace_id,
                "type": s.type,
                "parent": s.parent,
                "start": s.start,
                "end": s.end,
                "count": s.count,
            }
            for s in self.spans
        ]


# -- replicas ------------------------------------------------------------------


def classify_ideal_traced(tr: Tracer, ideal: Ideal) -> ClassificationRecord:
    """``classify.classify_ideal`` with a span around each predicate."""
    system = ideal.system
    with tr.span("classify.classify_ideal"):
        with tr.span("ideals.bad_scan") as s:
            bad = classify._bad_ideal(ideal)
            s.count = bad is not None
        with tr.span("classify.peel"):
            peel = chain_peeling(ideal)
        with tr.span("classify.ss_fast"):
            ss_fast = is_supersolvable_rootideal(ideal)
        arr = classify._arr(system, ideal.mask)
        if ideal.mask:
            with tr.span("matroid.ideal_flats") as s:
                s.count = len(arr.flats())
        with tr.span("classify.ss_generic"):
            ss_generic = is_supersolvable_generic(arr)
        with tr.span("matroid.line_closed") as s:
            line_closed, lc_witness = arr.is_line_closed()
            s.count = line_closed
        verdicts = {
            peel is not None,
            ss_fast is not None,
            ss_generic is not None,
            line_closed,
            bad is None,
        }
        if len(verdicts) != 1:
            raise EquivalenceViolation(f"predicates disagree on ideal {ideal.coordinate_strings()}")
        supersolvable = ss_fast is not None
        return ClassificationRecord(
            ideal=ideal.coordinate_strings(),
            size=ideal.size,
            chain_peelable=peel is not None,
            supersolvable=supersolvable,
            line_closed=line_closed,
            koszul=supersolvable,
            bad_ideal=bad,
            exponents=exponents(ss_fast) if supersolvable else None,
            peeling=peel,
            supersolving=ss_fast,
            non_flat_witness=(
                tuple(format_root(system, i) for i in sorted(lc_witness))
                if lc_witness is not None
                else None
            ),
        )


def _system_flats(tr: Tracer, rs) -> None:
    with tr.span("matroid.system_flats") as s:
        s.count = len(matroid._system_flats(rs))


def survey_traced(tr: Tracer, type_str: str, out: Path) -> None:
    """``rootarr survey --type T --jobs 1 --out OUT``."""
    tr.type = tr.trace_id = type_str
    with tr.span("cli.survey"):
        with tr.span("rootsystem.build"):
            rs = build_root_system(type_str)
        with tr.span("ideals.enumerate") as s:
            masks = [ideal.mask for ideal in enumerate_ideals(rs)]
            s.count = len(masks)
        # run_survey classifies on a second system, built like a worker's.
        with tr.span("rootsystem.build"):
            rs = build_root_system(type_str)
        _system_flats(tr, rs)
        records, violations = [], []
        for mask in masks:
            tr.trace_id = f"{type_str}:{mask:x}"
            ideal = Ideal(rs, mask)
            try:
                record = classify_ideal_traced(tr, ideal)
            except EquivalenceViolation as exc:
                violations.append(str(exc))
                continue
            with tr.span("cli.record"):
                records.append(record.to_dict(rs))
        tr.trace_id = type_str
        report = {
            "schema": SCHEMA,
            "type": type_str,
            "ideal_count": len(records),
            "records": records,
            "equivalence_ok": not violations,
            "violations": violations,
        }
        with tr.span("cli.json"):
            out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")


def classify_traced(tr: Tracer, type_str: str, generators: str, request_id: str) -> dict:
    """``rootarr classify --type T --ideal GENERATORS``; returns the record."""
    tr.type, tr.trace_id = type_str, request_id
    with tr.span("cli.classify"):
        with tr.span("rootsystem.build"):
            rs = build_root_system(type_str)
        with tr.span("ideals.parse"):
            ideal = Ideal.parse(rs, generators)
        if ideal.mask:
            _system_flats(tr, rs)
        record = classify_ideal_traced(tr, ideal)
        with tr.span("cli.record"):
            data = record.to_dict(rs)
        with tr.span("cli.json"):
            json.dumps(data, indent=2, sort_keys=True)
    return data


def _ideals(tr: Tracer, rs) -> list[Ideal]:
    with tr.span("ideals.enumerate") as s:
        ideals = list(enumerate_ideals(rs))
        s.count = len(ideals)
    return ideals


def _exponents_vs_chi(tr: Tracer, rs) -> tuple[int, int]:
    checked = failures = 0
    _system_flats(tr, rs)
    for ideal in _ideals(tr, rs):
        with tr.span("classify.ss_fast"):
            cert = is_supersolvable_rootideal(ideal)
        if cert is None:
            continue
        checked += 1
        arr = classify._arr(rs, ideal.mask)
        with tr.span("matroid.ideal_flats") as s:
            s.count = len(arr.flats())
        with tr.span("matroid.chi"):
            chi = arr.characteristic_polynomial()
        failures += chi != suites.poly_from_block_sizes(cert.block_sizes(), arr.rank())
        with tr.span("classify.peel"):
            peel = chain_peeling(ideal)
        failures += peel is None or peel.block_sizes() != cert.block_sizes()
    return checked, failures


def _line_closed_oracle(tr: Tracer, rs) -> tuple[int, int]:
    checked = failures = 0
    for ideal in _ideals(tr, rs):
        checked += 1
        arr = classify._arr(rs, ideal.mask)
        with tr.span("matroid.line_closed") as s:
            fast, witness = arr.is_line_closed()
            s.count = fast
        with tr.span("matroid.line_closed_oracle"):
            slow, _ = arr.line_closed_by_definition()
        if fast != slow:
            failures += 1
        elif not fast:
            wmask = sum(1 << i for i in witness)
            failures += arr.two_closure_mask(wmask) != wmask or arr.is_flat_mask(wmask)
    return checked, failures


def _peel_implies_ss(tr: Tracer, rs) -> tuple[int, int]:
    checked = failures = 0
    for ideal in _ideals(tr, rs):
        with tr.span("classify.peel"):
            cert = chain_peeling(ideal)
        if cert is None:
            continue
        checked += 1
        with tr.span("classify.validate"):
            failures += not validate_supersolving(rs, cert.blocks)
    return checked, failures


def _twocases(tr: Tracer, rs) -> tuple[int, int]:
    checked = failures = 0
    for ideal in _ideals(tr, rs):
        arr = classify._arr(rs, ideal.mask)
        with tr.span("classify.ss_generic"):
            cert = is_supersolvable_generic(arr)
        if cert is None or not cert.blocks:
            continue
        checked += 1
        top = frozenset(cert.blocks[-1])
        top_mask = sum(1 << i for i in top)
        with tr.span("suites.ab_scan"):
            shaped = False
            for kind, _, candidate in suites._top_block_candidates(rs, ideal):
                if candidate == top and (kind != "F" or rs.is_chain_mask(top_mask)):
                    shaped = True
                    break
        failures += not shaped
    return checked, failures


_SUITE_REPLICAS = {
    "exponents-vs-chi": _exponents_vs_chi,
    "line-closed-oracle": _line_closed_oracle,
    "peel-implies-ss": _peel_implies_ss,
    "twocases": _twocases,
}


def verify_traced(tr: Tracer, type_str: str) -> dict[str, tuple[int, int]]:
    """``rootarr verify --types T`` over the six suites; returns
    (checked, failures) per suite."""
    tr.type = tr.trace_id = type_str
    results = {}
    with tr.span("cli.verify"):
        with tr.span("rootsystem.build"):
            rs = build_root_system(type_str)
        for name in SUITE_NAMES:
            with tr.span(f"suites.{name}"):
                replica = _SUITE_REPLICAS.get(name)
                if replica is None:
                    result = suites.SUITES[name](rs)
                    results[name] = (result.checked, len(result.failures))
                else:
                    results[name] = replica(tr, rs)
    return results


# -- per-layer metrics -----------------------------------------------------------

# Spans whose summed self time is a layer metric "<span>_s".
TIMED_SPANS = (
    "rootsystem.build",
    "ideals.enumerate",
    "ideals.parse",
    "ideals.bad_scan",
    "matroid.system_flats",
    "matroid.ideal_flats",
    "matroid.line_closed",
    "matroid.line_closed_oracle",
    "matroid.chi",
    "classify.peel",
    "classify.ss_fast",
    "classify.ss_generic",
    "classify.validate",
    "cli.record",
    "cli.json",
    "suites.ab_scan",
) + tuple(f"suites.{name}" for name in SUITE_NAMES)

# Layer metrics that are also reported per type, as "<metric>.<type>".
PER_TYPE = (
    "rootsystem.build_s",
    "ideals.enumerate_s",
    "ideals.count",
    "ideals.bad_scan_s",
    "ideals.bad_count",
    "matroid.line_closed_s",
    "matroid.line_closed_max_s",
    "matroid.line_closed_count",
    "matroid.system_flats_s",
    "matroid.system_flats",
    "matroid.ideal_flats_s",
    "matroid.flats_per_ideal_mean",
    "matroid.flats_per_ideal_max",
    "classify.peel_s",
    "classify.ss_fast_s",
    "classify.ss_generic_s",
    "cli.record_s",
    "cli.json_s",
)

# Unit of every metric the traced run reports, in report order.
UNITS = {f"{name}_s": "s" for name in TIMED_SPANS} | {
    "ideals.count": "count",
    "ideals.bad_count": "count",
    "matroid.line_closed_max_s": "s",
    "matroid.line_closed_count": "count",
    "matroid.system_flats": "count",
    "matroid.flats_per_ideal_mean": "count",
    "matroid.flats_per_ideal_max": "count",
    "cli.parallel_efficiency": "ratio",
    "trace.overhead_s": "s",
    "trace.unaccounted_s": "s",
}
UNITS |= {f"{name}.{t}": UNITS[name] for name in PER_TYPE for t in TYPES}


def _layer_values(spans: list[Span], own: list[float]) -> dict[str, float]:
    values = {f"{name}_s": 0.0 for name in TIMED_SPANS}
    counts = {"ideals.enumerate": 0, "ideals.bad_scan": 0, "matroid.line_closed": 0, "matroid.system_flats": 0}
    flats, line_closed_max = [], 0.0
    for span, seconds in zip(spans, own):
        key = f"{span.name}_s"
        if key in values:
            values[key] += seconds
        if span.name in counts:
            counts[span.name] += span.count
        if span.name == "matroid.ideal_flats":
            flats.append(span.count)
        elif span.name == "matroid.line_closed":
            line_closed_max = max(line_closed_max, span.seconds)
    values.update(
        {
            "ideals.count": counts["ideals.enumerate"],
            "ideals.bad_count": counts["ideals.bad_scan"],
            "matroid.line_closed_max_s": line_closed_max,
            "matroid.line_closed_count": counts["matroid.line_closed"],
            "matroid.system_flats": counts["matroid.system_flats"],
            "matroid.flats_per_ideal_mean": sum(flats) / len(flats) if flats else 0.0,
            "matroid.flats_per_ideal_max": max(flats, default=0),
        }
    )
    return values


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """Per-layer values of a traced pass, in total and per type.

    Times are self times.  The caller adds ``cli.parallel_efficiency`` and
    the two ``trace.*`` metrics, which need the untraced pass.
    """
    own = tr.self_seconds()
    metrics = _layer_values(tr.spans, own)
    for type_str in TYPES:
        picked = [(s, o) for s, o in zip(tr.spans, own) if s.type == type_str]
        per_type = _layer_values([s for s, _ in picked], [o for _, o in picked])
        for name in PER_TYPE:
            metrics[f"{name}.{type_str}"] = per_type[name]
    return metrics
