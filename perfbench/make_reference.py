"""Write ``reference.json``: per-ideal verdicts and exponents, suite counts.

Run from the repository root:

    PYTHONPATH=src python3 perfbench/make_reference.py

The file pins down what the benchmark's checker compares against: for every
ideal of A5, D5, F4, B4 and D4 its supersolvability verdict (all four
routes agree on it), its bad-ideal kind and its exponents, and for every
verification suite on the benchmark's types the number of cases it checks.
Certificates and witnesses are not stored; the checker validates them from
scratch instead.  Nothing is written unless every record validates and the
result reproduces the proven numbers in ``checks.py``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from rootarr import build_root_system, classify_ideal, enumerate_ideals  # noqa: E402
from rootarr.suites import SUITES  # noqa: E402

from checks import CATALAN, REFERENCE, check_reference, ideal_key, reference_entry, validation_problems  # noqa: E402
from traced import SUITE_NAMES, TYPES  # noqa: E402


def main() -> int:
    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=HERE.parent, capture_output=True, text=True
    ).stdout.strip()
    ideals = {}
    for type_str in CATALAN:
        rs = build_root_system(type_str)
        entries = {}
        for ideal in enumerate_ideals(rs):
            record = classify_ideal(ideal).to_dict(rs)
            problems = validation_problems(rs, record)
            if problems:
                print(f"{type_str} {record['ideal']}: {problems}", file=sys.stderr)
                return 1
            entries[ideal_key(record["ideal"])] = reference_entry(record)
        ideals[type_str] = entries
    verify = {}
    for type_str in TYPES:
        rs = build_root_system(type_str)
        counts = {}
        for name in SUITE_NAMES:
            result = SUITES[name](rs)
            if not result.ok:
                print(f"{name} {type_str}: {result.failures}", file=sys.stderr)
                return 1
            counts[name] = result.checked
        verify[type_str] = counts
    data = {"generated_at_commit": commit, "ideals": ideals, "verify_checked": verify}
    check_reference(data)
    lines = ["{", f'"generated_at_commit": {json.dumps(commit)},', '"ideals": {']
    for t, (type_str, entries) in enumerate(ideals.items()):
        lines.append(f"{json.dumps(type_str)}: {{")
        rows = [f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in entries.items()]
        lines.append(",\n".join(rows))
        lines.append("}" + ("," if t < len(ideals) - 1 else ""))
    lines.append("},")
    lines.append(f'"verify_checked": {json.dumps(verify, sort_keys=True)}')
    lines.append("}")
    REFERENCE.write_text("\n".join(lines) + "\n")
    print(f"wrote {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
