"""The named property suites must pass exhaustively on their home types."""

from __future__ import annotations

import pytest

from rootarr import classify_ideal, enumerate_ideals
from rootarr.suites import SUITES
from conftest import get_system

RANK_LE_4 = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D3", "D4", "F4", "G2"]


@pytest.mark.parametrize("label", RANK_LE_4 + ["E6"])
def test_rank2_suite(label):
    result = SUITES["rank2"](get_system(label))
    assert result.ok, result.failures[:3]
    if label != "A1":  # A1 has no pairs to check
        assert result.checked > 0


@pytest.mark.parametrize("label", RANK_LE_4)
def test_chainroot_suite(label):
    result = SUITES["chainroot"](get_system(label))
    assert result.ok, result.failures[:3]


@pytest.mark.parametrize("label", ["A3", "B3", "D4", "G2", "F4"])
def test_twocases_suite(label):
    result = SUITES["twocases"](get_system(label))
    assert result.ok, result.failures[:3]


@pytest.mark.parametrize("label", RANK_LE_4)
def test_peel_implies_ss_suite(label):
    result = SUITES["peel-implies-ss"](get_system(label))
    assert result.ok, result.failures[:3]


@pytest.mark.parametrize("label", ["A3", "B3", "C3", "D4", "G2", "F4"])
def test_exponents_vs_chi_suite(label):
    result = SUITES["exponents-vs-chi"](get_system(label))
    assert result.ok, result.failures[:3]


@pytest.mark.parametrize("label", RANK_LE_4 + ["A5", "D5"])
def test_line_closed_oracle_suite(label):
    result = SUITES["line-closed-oracle"](get_system(label))
    assert result.ok, result.failures[:3]


def test_extended_e6_equivalence():
    # every E6 ideal classifies consistently; the bad ones are exactly the
    # star-ideal containers
    rs = get_system("E6")
    non_ss = 0
    for ideal in enumerate_ideals(rs):
        record = classify_ideal(ideal)
        assert record.chain_peelable == record.supersolvable == record.line_closed
        if not record.supersolvable:
            non_ss += 1
            assert record.bad_ideal is not None and record.bad_ideal.kind == "star"
    assert non_ss > 0
