"""Command-line surface: show root data, classify ideals, run surveys.

Exit codes: 0 on success, 1 when a property suite or the predicate
equivalence fails, 2 on usage errors (unknown type, unparsable roots).
Only input parsing is mapped to exit 2: an exception raised inside
classification or a suite is a fault and propagates with its traceback.

Surveys classify every ideal of a type and write a JSON report
(``schema: 3``); identical invocations produce byte-identical output
except for the ``timing_seconds`` field.  ``--format csv`` with ``--out
R.json`` writes the JSON report to ``R.json`` and the CSV table to
``R.csv``.  ``--jobs N`` starts at most one worker per CPU and per ideal.
Before any ideal is classified, the survey exits 2 if ``--out`` ends in
``.csv`` in any case (the table would overwrite the report, or would on a
case-insensitive file system), is a directory, lies in
a directory that does not exist, or, with ``--format csv``, if ``R.csv``
is a directory.  Types of rank 7 and up are refused without ``--force``
(an E8 survey classifies 25080 ideals of up to 120 roots; expect hours,
not minutes).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from pathlib import Path

from . import __version__
from .rootsystem import RootSystem, TypeLabel, build_root_system, format_root
from .ideals import Ideal, enumerate_ideals
from .classify import EquivalenceViolation, classify_ideal
from .suites import SUITES

SCHEMA = 3


def _err(msg: str) -> None:
    print(f"rootarr: error: {msg}", file=sys.stderr)


class _UsageError(Exception):
    """Bad command-line input; ``main`` prints it and exits 2."""


def _parse(parse, *args):
    """``parse(*args)``, its ``ValueError`` raised as a usage error.

    Only input parsing goes through here, so a ``ValueError`` from inside
    classification or a suite is a fault and propagates as one.
    """
    try:
        return parse(*args)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


def _load_system(type_str: str) -> RootSystem:
    return build_root_system(_parse(TypeLabel.parse, type_str))


# -- show ---------------------------------------------------------------------


def cmd_show(args) -> int:
    rs = _load_system(args.type)
    if args.format == "json":
        payload = {
            "type": str(rs.label),
            "rank": rs.rank,
            "positive_root_count": rs.nroots,
            "roots": [
                {"index": i, "coordinates": format_root(rs, i), "height": rs.heights[i]}
                for i in range(rs.nroots)
            ],
            "covers": [
                [format_root(rs, a), format_root(rs, b)] for a, b in rs.cover_pairs
            ],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(f"type {rs.label}: rank {rs.rank}, {rs.nroots} positive roots")
    for i in range(rs.nroots):
        print(f"  {i:3d}  {format_root(rs, i):>10}  height {rs.heights[i]}")
    print("covers:")
    for a, b in rs.cover_pairs:
        print(f"  {format_root(rs, a)} -> {format_root(rs, b)}")
    return 0


# -- classify -------------------------------------------------------------------


def cmd_classify(args) -> int:
    rs = _load_system(args.type)
    ideal = _parse(Ideal.parse, rs, args.ideal)
    try:
        record = classify_ideal(ideal)
    except EquivalenceViolation as exc:
        _err(str(exc))
        return 1
    print(json.dumps(record.to_dict(rs), indent=2, sort_keys=True))
    return 0


# -- survey ---------------------------------------------------------------------

_WORKER_SYSTEM: RootSystem | None = None


def _worker_init(type_str: str) -> None:
    global _WORKER_SYSTEM
    _WORKER_SYSTEM = _load_system(type_str)


def _classify_mask(rs: RootSystem, mask: int) -> tuple[dict | None, str | None]:
    """(record, None), or (None, violation message) for one ideal of ``rs``."""
    ideal = Ideal(rs, mask)
    try:
        record = classify_ideal(ideal)
    except EquivalenceViolation as exc:
        return None, str(exc)
    except Exception as exc:
        raise RuntimeError(
            f"classifying ideal {ideal.coordinate_strings()} of {rs.label} failed: "
            f"{type(exc).__name__}: {exc}"
        ) from exc
    return record.to_dict(rs), None


def _classify_in_worker(mask: int) -> tuple[dict | None, str | None]:
    return _classify_mask(_WORKER_SYSTEM, mask)


def run_survey(type_str: str, jobs: int = 1) -> dict:
    """Classify every ideal of a type; returns the report as a dict.

    Records follow ``enumerate_ideals``' (size, mask) order, which
    ``pool.map`` keeps, so serial and parallel runs give identical lists.
    A serial survey classifies on the system it enumerated and releases it
    (and its memos) on return; each worker builds its own.  The pool has at
    most one worker per CPU and per ideal, as it starts them all at once.
    """
    rs = _load_system(type_str)
    started = time.perf_counter()
    masks = [ideal.mask for ideal in enumerate_ideals(rs)]
    if jobs > 1:
        # imported here, as it loads multiprocessing, which no serial run needs
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(
            max_workers=min(jobs, os.cpu_count() or 1, len(masks)),
            initializer=_worker_init, initargs=(type_str,)
        ) as pool:
            results = list(pool.map(_classify_in_worker, masks, chunksize=8))
    else:
        results = [_classify_mask(rs, m) for m in masks]

    records = [rec for rec, _ in results if rec is not None]
    violations = [msg for _, msg in results if msg is not None]
    summary = {
        "total": len(records),
        "chain_peelable": sum(r["chain_peelable"] for r in records),
        "supersolvable": sum(r["supersolvable"] for r in records),
        "line_closed": sum(r["line_closed"] for r in records),
        "koszul": sum(r["koszul"] for r in records),
        "bad_ideals": sum(r["bad_ideal"] is not None for r in records),
        "non_supersolvable": sum(not r["supersolvable"] for r in records),
    }
    return {
        "schema": SCHEMA,
        "tool_version": __version__,
        "type": type_str,
        "ideal_count": len(records),
        "records": records,
        "summary": summary,
        "equivalence_ok": not violations,
        "violations": violations,
        "timing_seconds": round(time.perf_counter() - started, 6),
    }


def _write_csv(report: dict, stream) -> None:
    writer = csv.writer(stream)
    writer.writerow(
        ["ideal", "size", "chain_peelable", "supersolvable", "line_closed", "koszul", "bad_ideal", "exponents"]
    )
    for r in report["records"]:
        writer.writerow(
            [
                " ".join(r["ideal"]),
                r["size"],
                r["chain_peelable"],
                r["supersolvable"],
                r["line_closed"],
                r["koszul"],
                r["bad_ideal"]["kind"] if r["bad_ideal"] else "",
                " ".join(str(e) for e in r["exponents"]) if r["exponents"] else "",
            ]
        )


def cmd_survey(args) -> int:
    label = _parse(TypeLabel.parse, args.type)
    if args.jobs < 1:
        _err(f"--jobs must be at least 1, got {args.jobs}")
        return 2
    if label.rank >= 7 and not args.force:
        _err(
            f"{label} has rank {label.rank}; surveys default to rank <= 6 "
            "(pass --force if you really want this; E7 has 4160 ideals, E8 25080; "
            "on a shared 2-vCPU VM a serial E7 survey took 17 CPU s)"
        )
        return 2
    if args.format == "csv" and args.out and Path(args.out).suffix.lower() == ".csv":
        _err(f"--out {args.out} ends in .csv: --format csv would overwrite the JSON report there")
        return 2
    if args.out and not Path(args.out).parent.is_dir():
        _err(f"--out {args.out}: directory {Path(args.out).parent} does not exist")
        return 2
    if args.out and Path(args.out).is_dir():
        _err(f"--out {args.out} is a directory, not a report file")
        return 2
    table = Path(args.out).with_suffix(".csv") if args.out and args.format == "csv" else None
    if table and table.is_dir():
        _err(f"--out {args.out}: the CSV table would go to {table}, which is a directory")
        return 2
    report = run_survey(str(label), jobs=args.jobs)
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n")
    if args.format == "csv":
        if table:
            with open(table, "w", newline="") as fh:
                _write_csv(report, fh)
        else:
            _write_csv(report, sys.stdout)
    elif not args.out:
        print(text)
    _print_summary(report)
    return 0 if report["equivalence_ok"] else 1


def _print_summary(report: dict) -> None:
    s = report["summary"]
    rows = [
        ("ideals", report["ideal_count"]),
        ("chain peelable", s["chain_peelable"]),
        ("supersolvable", s["supersolvable"]),
        ("line closed", s["line_closed"]),
        ("koszul", s["koszul"]),
        ("bad ideals", s["bad_ideals"]),
        ("equivalence_ok", report["equivalence_ok"]),
        ("seconds", report["timing_seconds"]),
    ]
    print(f"survey {report['type']}", file=sys.stderr)
    for name, value in rows:
        print(f"  {name:<16} {value}", file=sys.stderr)


# -- verify -----------------------------------------------------------------------


def cmd_verify(args) -> int:
    suite_names = list(dict.fromkeys(args.suite or sorted(SUITES)))
    types = "A2,A3,B2,B3,C3,D4,G2" if args.types is None else args.types
    labels = list(dict.fromkeys(_parse(TypeLabel.parse, t) for t in types.split(",") if t))
    if not labels:
        _err("--types names no type")
        return 2
    failed = False
    for label in labels:
        rs = build_root_system(label)
        for name in suite_names:
            result = SUITES[name](rs)
            status = "PASS" if result.ok else "FAIL"
            print(f"{name} {result.type_label}: {status} (checked {result.checked})")
            for failure in result.failures:
                failed = True
                print(f"    counterexample: {failure}")
    return 1 if failed else 0


# -- entry point --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rootarr",
        description="Root ideal arrangements: exact classification of order ideals "
        "of root posets as chain-peelable / supersolvable / line-closed.",
    )
    parser.add_argument("--version", action="version", version=f"rootarr {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("show", help="dump roots, heights and covers of a type")
    p.add_argument("--type", required=True, help="Cartan type, e.g. D4")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_show)

    p = sub.add_parser("classify", help="classify the downward closure of generator roots")
    p.add_argument("--type", required=True)
    p.add_argument(
        "--ideal",
        required=True,
        help="comma-separated generator roots in coordinate form, e.g. 1110,1101,0111",
    )
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("survey", help="classify every ideal of a type and report")
    p.add_argument("--type", required=True)
    p.add_argument(
        "--jobs", type=int, default=1, help="parallel workers, at most one per CPU and per ideal"
    )
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    p.add_argument(
        "--format",
        choices=["json", "csv"],
        default="json",
        help="csv: print a CSV table, or with --out write it beside the JSON report, "
        "with the suffix replaced by .csv",
    )
    p.add_argument("--force", action="store_true", help="allow rank >= 7 surveys")
    p.set_defaults(func=cmd_survey)

    p = sub.add_parser("verify", help="run exhaustive property suites")
    p.add_argument(
        "--suite",
        action="append",
        choices=sorted(SUITES),
        help="suite name (repeatable, repeats run once; default: all suites)",
    )
    p.add_argument("--types", help="comma-separated type labels (default: A2,A3,B2,B3,C3,D4,G2)")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _UsageError as exc:
        _err(str(exc))
        return 2


if __name__ == "__main__":
    sys.exit(main())
