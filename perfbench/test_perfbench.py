"""The benchmark's own tests: seeded inputs, the checker, the metric list.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from rootarr import build_root_system, classify_ideal, enumerate_ideals

from checks import Reference, dual_height_partition, record_problems, reference_entry, survey_failures
from run import END_TO_END_UNITS, pass_rng, percentile
from traced import UNITS, Tracer, classify_traced
from workloads import COLD_REQUESTS, ClassifyCold, run_cli, stratified_counts

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


@pytest.fixture(scope="module")
def reference():
    return Reference()


@pytest.fixture(scope="module")
def d4_records():
    rs = build_root_system("D4")
    return rs, [classify_ideal(i).to_dict(rs) for i in enumerate_ideals(rs)]


def test_same_seed_same_requests(reference, tmp_path):
    cold = ClassifyCold(reference, tmp_path)
    first = [c.argv for c in cold.commands(pass_rng(7, 0))]
    again = [c.argv for c in cold.commands(pass_rng(7, 0))]
    other = [c.argv for c in cold.commands(pass_rng(8, 0))]
    assert first == again
    assert first != other
    assert len(first) == COLD_REQUESTS
    assert all(argv[:2] == ["classify", "--type"] for argv in first)


def test_request_mix_follows_ideal_counts():
    counts = stratified_counts({"A5": 132, "D5": 182, "F4": 105, "B4": 70}, 100)
    assert counts == {"A5": 27, "D5": 37, "F4": 22, "B4": 14}


def test_reference_reproduces_proven_numbers(reference):
    assert len(reference.ideals("F4")) == 105
    assert sum(not e["supersolvable"] for e in reference.ideals("D4").values()) == 3


def test_dual_height_partition_of_full_d4():
    rs = build_root_system("D4")
    assert dual_height_partition(rs, range(rs.nroots)) == [1, 3, 3, 5]


def test_checker_accepts_true_records(reference, d4_records):
    rs, records = d4_records
    expected = reference.ideals("D4")
    assert survey_failures(rs, {"records": records}, expected) == {}


def test_checker_rejects_flipped_verdict(reference, d4_records):
    rs, records = d4_records
    record = next(r for r in records if not r["supersolvable"])
    flipped = dict(record, line_closed=True)
    expected = reference.ideals("D4")[" ".join(record["ideal"])]
    assert record_problems(rs, record, expected) == []
    assert record_problems(rs, flipped, expected)


def test_checker_rejects_flat_witness(reference, d4_records):
    rs, records = d4_records
    record = next(r for r in records if r["non_flat_witness"])
    flat = dict(record, non_flat_witness=[record["ideal"][0]])  # a single root is a flat
    expected = reference.ideals("D4")[" ".join(record["ideal"])]
    assert "witness is a flat" in record_problems(rs, flat, expected)


def test_checker_rejects_missing_and_wrong_exponents(reference, d4_records):
    rs, records = d4_records
    expected = reference.ideals("D4")
    full = records[-1]
    wrong = dict(full, exponents=[1, 2, 4, 5])
    failures = survey_failures(rs, {"records": records[1:-1] + [wrong]}, expected)
    assert failures[" ".join(records[0]["ideal"])] == ["missing"]
    assert any("exponents" in why for why in failures[" ".join(full["ideal"])])


def test_reference_entry_ignores_certificates(d4_records):
    _, records = d4_records
    record = records[-1]
    assert reference_entry(dict(record, supersolving=None)) == reference_entry(record)


def test_traced_record_equals_the_commands(reference, tmp_path):
    cold = ClassifyCold(reference, tmp_path)
    for command in cold.commands(pass_rng(1, 0))[:5]:
        code, stdout, error = run_cli(command.argv)
        assert code == 0 and error is None
        traced = classify_traced(Tracer(), command.type, command.argv[-1], "r")
        assert json.loads(json.dumps(traced)) == json.loads(stdout)


def test_self_time_subtracts_children():
    tr = Tracer()
    with tr.span("outer"):
        with tr.span("inner"):
            pass
    outer, inner = tr.spans
    own = tr.self_seconds()
    assert inner.parent == 0 and outer.parent is None
    assert own[0] == pytest.approx(outer.seconds - inner.seconds)
    assert sum(own) == pytest.approx(outer.seconds)


def test_percentile_interpolates():
    assert percentile([4, 1, 3, 2], 50) == 2.5
    assert percentile(range(101), 90) == 90


def test_benchmark_json_lists_what_the_run_reports():
    spec = json.loads(BENCHMARK.read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == UNITS
    assert all(m["bound"] <= 0.25 for m in spec["end_to_end"])
