"""Correctness checks for what the benchmarked commands print.

A classification record passes when

* its verdicts, bad-ideal kind and exponents equal the committed
  reference (``reference.json``), which was itself checked against proven
  numbers when it was written (see :func:`check_reference`);
* its chain peeling validates (``validate_chain_peeling``) and its
  supersolving partition validates (``validate_supersolving``);
* its non-flat witness, if any, lies in the ideal, is 2-closed and is not
  a flat;
* its exponents are the dual of the ideal's height partition
  (Sommers--Tymoczko; Abe--Barakat--Cuntz--Hoge--Terao).

Certificates and witnesses are validated, never compared byte for byte
with the reference, so an algorithm that finds other witnesses still
passes.
"""

from __future__ import annotations

import json
from functools import cached_property
from pathlib import Path

from rootarr import (
    Arrangement,
    Ideal,
    PartitionCertificate,
    build_root_system,
    parse_root,
    validate_chain_peeling,
    validate_supersolving,
)

REFERENCE = Path(__file__).with_name("reference.json")

VERDICTS = ("chain_peelable", "supersolvable", "line_closed", "koszul")

# Proven numbers the reference must reproduce: the ideal count of a type is
# its W-Catalan number, every ideal of types A and B is supersolvable, and
# D4 and F4 have exactly 3 and 22 ideals that are not.
CATALAN = {"A5": 132, "B4": 70, "D4": 50, "D5": 182, "F4": 105}
NOT_SUPERSOLVABLE = {"A5": 0, "B4": 0, "D4": 3, "F4": 22}


def ideal_key(roots) -> str:
    """Reference key of an ideal: its member roots, space-separated."""
    return " ".join(roots)


def reference_entry(record: dict) -> dict:
    """The part of a record that the reference pins down."""
    return {
        "supersolvable": record["supersolvable"],
        "bad_ideal": record["bad_ideal"]["kind"] if record["bad_ideal"] else None,
        "exponents": record["exponents"],
    }


def dual_height_partition(rs, members) -> list[int]:
    """Exponents the ideal exponent theorem predicts, ascending.

    Parts of the height partition count the ideal's roots of each height;
    its dual has one part per simple root in the ideal.
    """
    per_height: dict[int, int] = {}
    for i in members:
        per_height[rs.heights[i]] = per_height.get(rs.heights[i], 0) + 1
    counts = per_height.values()
    dual = [sum(1 for c in counts if c >= j) for j in range(1, max(counts, default=0) + 1)]
    return sorted(dual)


class Reference:
    """The committed reference, checked on first use, plus systems to check
    with.  Loading it late keeps it out of the peak RSS of the passes."""

    def __init__(self, path: Path = REFERENCE):
        self._path = path
        self._systems = {}

    @cached_property
    def _data(self) -> dict:
        data = json.loads(self._path.read_text())
        check_reference(data)
        return data

    def ideals(self, type_str: str) -> dict[str, dict]:
        return self._data["ideals"][type_str]

    def verify_checked(self, type_str: str) -> dict[str, int]:
        return self._data["verify_checked"][type_str]

    def system(self, type_str: str):
        if type_str not in self._systems:
            self._systems[type_str] = build_root_system(type_str)
        return self._systems[type_str]


def check_reference(data: dict) -> None:
    """Raise ``ValueError`` unless the reference reproduces the proven numbers."""
    for type_str, count in CATALAN.items():
        ideals = data["ideals"][type_str]
        if len(ideals) != count:
            raise ValueError(f"{type_str}: {len(ideals)} ideals, Catalan number is {count}")
        rs = build_root_system(type_str)
        not_ss = 0
        for key, entry in ideals.items():
            if not entry["supersolvable"]:
                not_ss += 1
                continue
            members = [parse_root(rs, r) for r in key.split()]
            if entry["exponents"] != dual_height_partition(rs, members):
                raise ValueError(f"{type_str} {key}: exponents are not the dual height partition")
        expected = NOT_SUPERSOLVABLE.get(type_str)
        if expected is not None and not_ss != expected:
            raise ValueError(f"{type_str}: {not_ss} ideals not supersolvable, expected {expected}")


def _blocks(rs, cert: dict) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(parse_root(rs, r) for r in block) for block in cert["blocks"])


def validation_problems(rs, record: dict) -> list[str]:
    """Check a record's certificates, witness and exponents from scratch."""
    members = [parse_root(rs, r) for r in record["ideal"]]
    ideal = Ideal.from_roots(rs, members)
    problems = []
    peeling, supersolving = record["peeling"], record["supersolving"]
    if (peeling is not None) != record["chain_peelable"]:
        problems.append("peeling present iff chain peelable fails")
    elif peeling is not None:
        blocks = _blocks(rs, peeling)
        cert = PartitionCertificate("peeling", blocks, (None,) * len(blocks))
        if not validate_chain_peeling(ideal, cert):
            problems.append("peeling does not validate")
    if (supersolving is not None) != record["supersolvable"]:
        problems.append("supersolving certificate present iff supersolvable fails")
    elif supersolving is not None and not validate_supersolving(rs, _blocks(rs, supersolving)):
        problems.append("supersolving partition does not validate")
    witness = record["non_flat_witness"]
    if (witness is not None) == record["line_closed"]:
        problems.append("non-flat witness present iff not line-closed fails")
    elif witness is not None:
        wmask = 0
        for r in witness:
            wmask |= 1 << parse_root(rs, r)
        arr = Arrangement(rs, members)
        if wmask & ~ideal.mask:
            problems.append("witness leaves the ideal")
        elif arr.two_closure_mask(wmask) != wmask:
            problems.append("witness is not 2-closed")
        elif arr.is_flat_mask(wmask):
            problems.append("witness is a flat")
    if record["exponents"] is not None and record["exponents"] != dual_height_partition(rs, members):
        problems.append("exponents differ from the dual height partition")
    return problems


def record_problems(rs, record: dict, expected: dict) -> list[str]:
    """Everything wrong with one record, given its reference entry."""
    problems = [
        f"{name} is {record[name]}, reference says {expected['supersolvable']}"
        for name in VERDICTS
        if record[name] is not expected["supersolvable"]
    ]
    got = reference_entry(record)
    for name in ("bad_ideal", "exponents"):
        if got[name] != expected[name]:
            problems.append(f"{name} is {got[name]}, reference says {expected[name]}")
    try:
        problems += validation_problems(rs, record)
    except (ValueError, KeyError, TypeError) as exc:
        problems.append(f"record does not parse: {exc!r}")
    return problems


def survey_failures(rs, report: dict | None, expected: dict[str, dict]) -> dict[str, list[str]]:
    """Failing ideals of one survey report, keyed by ideal, with reasons.

    Every reference ideal without a passing record fails, which covers
    ideals lost to an ``EquivalenceViolation``; every ideal the reference
    lacks fails too.
    """
    if report is None:
        return {key: ["no report"] for key in expected}
    records = {ideal_key(r["ideal"]): r for r in report["records"]}
    failures = {}
    for key, entry in expected.items():
        record = records.get(key)
        problems = ["missing"] if record is None else record_problems(rs, record, entry)
        if problems:
            failures[key] = problems
    for key in records.keys() - expected.keys():
        failures[key] = ["not in the reference"]
    return failures


def differing_records(report: dict, other: dict) -> set[str]:
    """Ideals whose records differ between two reports of one type."""
    mine = {ideal_key(r["ideal"]): r for r in report["records"]}
    theirs = {ideal_key(r["ideal"]): r for r in other["records"]}
    return {key for key in mine.keys() | theirs.keys() if mine.get(key) != theirs.get(key)}
