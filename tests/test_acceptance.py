"""Acceptance suite: one test per criterion, each printing a PASS line.

Every comparison is exact (integer / bitmask equality); nothing is
tolerance-based.  The classification sweeps are shared across criteria via
the cached ``classify_type`` helper.  Independent oracles used here: a
numpy-vectorized all-subsets downward-closure filter for the enumeration
counts, brute-force ideal counts of complement posets for the bad-ideal
counts, and direct vector arithmetic for the witness identities.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from rootarr import (
    Arrangement,
    Ideal,
    enumerate_ideals,
    is_supersolvable_generic,
    is_supersolvable_rootideal,
    parse_root,
)
from rootarr.suites import poly_from_block_sizes
from conftest import classify_type, f4_height4_mask, get_system
from test_ideals import g_set_mask
from test_matroid import closure, two_closure

EQUIVALENCE_TYPES = [
    "A1", "A2", "A3", "A4", "A5",
    "B2", "B3", "B4",
    "C3", "C4",
    "D4", "D5",
    "G2", "F4",
]

RANK_LE_4 = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D3", "D4", "F4", "G2"]


def report(num: int, text: str) -> None:
    print(f"ACCEPTANCE {num}: PASS - {text}")


def test_criterion_1_peelable_iff_supersolvable():
    total = 0
    for label in EQUIVALENCE_TYPES:
        for record in classify_type(label):
            assert record.chain_peelable == record.supersolvable, (label, record.ideal)
            total += 1
    report(1, f"chain_peelable == supersolvable on all {total} ideals of "
              f"{','.join(EQUIVALENCE_TYPES)}")


def test_criterion_2_supersolvable_iff_line_closed_with_witnesses():
    total = 0
    for label in EQUIVALENCE_TYPES:
        for record in classify_type(label):
            assert record.supersolvable == record.line_closed, (label, record.ideal)
            total += 1

    # D4: for every bad ideal the four roots {a2, g1, g3, g4} are 2-closed,
    # not a flat, and the closure reconstructs a1 = (g3+g4-g1-a2)/2.
    d4 = get_system("D4")
    g1, g3, g4, a2c = (parse_root(d4, x) for x in ("0111", "1101", "1110", "0100"))
    a1 = parse_root(d4, "1000")
    assert tuple(
        Fraction(d4.coords[g3][t] + d4.coords[g4][t] - d4.coords[g1][t] - d4.coords[a2c][t], 2)
        for t in range(4)
    ) == tuple(Fraction(x) for x in d4.coords[a1])
    d4_checked = 0
    for record in classify_type("D4"):
        if record.bad_ideal is None:
            continue
        ideal = Ideal.from_generators(d4, [parse_root(d4, r) for r in record.ideal])
        arr = Arrangement(d4, ideal.members())
        witness = frozenset((a2c, g1, g3, g4))
        assert two_closure(arr, witness) == witness
        flat, _ = closure(arr, witness)
        assert flat >> a1 & 1 and a1 not in witness
        assert not arr.is_flat_mask(sum(1 << i for i in witness))
        d4_checked += 1
    assert d4_checked == 3

    # F4: for every ideal containing the height<=4 ideal, the witness
    # {eta1, eta2, eta3, a3} extended by whatever of {a3+eta3, eta1+eta2}
    # the ideal holds is 2-closed, and its closure reconstructs
    # a2 = (eta1 - eta2 + eta3 - a3)/3.
    f4 = get_system("F4")
    e1, e2, e3, a3c = (parse_root(f4, x) for x in ("1210", "1111", "0211", "0010"))
    extra = [parse_root(f4, "0221"), parse_root(f4, "2321")]  # a3+eta3, eta1+eta2
    a2f = parse_root(f4, "0100")
    assert tuple(
        Fraction(f4.coords[e1][t] - f4.coords[e2][t] + f4.coords[e3][t] - f4.coords[a3c][t], 3)
        for t in range(4)
    ) == tuple(Fraction(x) for x in f4.coords[a2f])
    f4_checked = 0
    for record in classify_type("F4"):
        if record.bad_ideal is None:
            continue
        ideal = Ideal.from_generators(f4, [parse_root(f4, r) for r in record.ideal])
        arr = Arrangement(f4, ideal.members())
        witness = frozenset([e1, e2, e3, a3c] + [x for x in extra if x in ideal])
        assert two_closure(arr, witness) == witness
        flat, _ = closure(arr, witness)
        assert flat >> a2f & 1 and a2f not in witness
        assert not arr.is_flat_mask(sum(1 << i for i in witness))
        f4_checked += 1
    assert f4_checked == 22

    report(2, f"supersolvable == line_closed on {total} ideals; D4 witness checked on "
              f"{d4_checked} bad ideals, F4 witness on {f4_checked}")


def brute_ideal_count(leq: list[list[bool]]) -> int:
    n = len(leq)
    count = 0
    for mask in range(1 << n):
        if all(
            not (mask >> j & 1) or (mask >> i & 1)
            for j in range(n)
            for i in range(n)
            if leq[i][j]
        ):
            count += 1
    return count


def test_criterion_3_bad_ideal_trichotomy():
    # D4: the non-supersolvable ideals are exactly those containing the
    # 10-root minimal star ideal; their count equals the ideal count of the
    # 2-chain sitting above it (computed by brute force).
    d4 = get_system("D4")
    star_mask = sum(1 << i for i in range(d4.nroots) if d4.heights[i] <= 3)
    non_ss = {
        Ideal.from_generators(d4, [parse_root(d4, r) for r in rec.ideal]).mask
        for rec in classify_type("D4")
        if not rec.supersolvable
    }
    containing = {i.mask for i in enumerate_ideals(d4) if i.mask & star_mask == star_mask}
    assert non_ss == containing
    above = [i for i in range(d4.nroots) if not star_mask >> i & 1]
    leq = [[d4.leq(a, b) for b in above] for a in above]
    assert len(non_ss) == brute_ideal_count(leq) == 3

    # F4: the non-supersolvable ideals are exactly those containing the
    # 13-root height<=4 ideal; count checked against the 11-root upper poset.
    f4 = get_system("F4")
    bad_mask = f4_height4_mask(f4)
    non_ss = {
        Ideal.from_generators(f4, [parse_root(f4, r) for r in rec.ideal]).mask
        for rec in classify_type("F4")
        if not rec.supersolvable
    }
    containing = {i.mask for i in enumerate_ideals(f4) if i.mask & bad_mask == bad_mask}
    assert non_ss == containing
    above = [i for i in range(f4.nroots) if not bad_mask >> i & 1]
    leq = [[f4.leq(a, b) for b in above] for a in above]
    upper_count = brute_ideal_count(leq)
    assert len(non_ss) == upper_count == 22

    report(3, "non-supersolvable ideals are exactly the bad-ideal containers: "
              "D4 count 3, F4 count 22 (both matched by brute force)")


def test_criterion_4_bcg_always_supersolvable():
    total = 0
    for label in ["B2", "B3", "B4", "C3", "C4", "G2"]:
        for record in classify_type(label):
            assert record.chain_peelable and record.supersolvable, (label, record.ideal)
            total += 1
    report(4, f"100% of the {total} B2-B4, C3-C4, G2 ideals are peelable and supersolvable")


def test_criterion_5_chain_interval_differences():
    checked = 0
    for label in RANK_LE_4:
        rs = get_system(label)
        for b1 in range(rs.nroots):
            for b2 in range(rs.nroots):
                if b1 == b2 or not rs.leq(b1, b2):
                    continue
                interval = rs.up_masks[b1] & rs.down_masks[b2]
                if not rs.is_chain_mask(interval):
                    continue
                checked += 1
                diff = tuple(x - y for x, y in zip(rs.coords[b2], rs.coords[b1]))
                ks = [
                    k
                    for k in (1, 2, 3)
                    if all(x % k == 0 for x in diff)
                    and tuple(x // k for x in diff) in rs.index_of
                ]
                assert ks, (label, b1, b2)
                k = ks[0]
                if k == 3:
                    assert rs.label.family == "G", (label, b1, b2)
                if k == 2:
                    assert rs.label.family in "BCFG", (label, b1, b2)
    report(5, f"all {checked} chain intervals across rank<=4 types have k-multiple "
              "differences with k=3 only in G2 and k=2 only in B/C/F/G")


def test_criterion_6_generic_top_blocks_are_filter_or_pair_shaped():
    checked = 0
    for label in ["A3", "B3", "D4", "G2", "F4"]:
        rs = get_system(label)
        for ideal in enumerate_ideals(rs):
            cert = is_supersolvable_generic(Arrangement(rs, ideal.members()))
            if cert is None or not cert.blocks:
                continue
            checked += 1
            top = frozenset(cert.blocks[-1])
            candidates = []
            present = [k for k in range(rs.rank) if ideal.mask >> rs.simple_positions[k] & 1]
            for k in present:
                fmask = ideal.mask & rs.up_masks[rs.simple_positions[k]]
                candidates.append(("F", frozenset(i for i in range(rs.nroots) if fmask >> i & 1)))
            for x, k1 in enumerate(present):
                for k2 in present[x + 1 :]:
                    for v in rs.coords:
                        if v[k1] >= 1 and v[k2] >= 1 and sum(v) == v[k1] + v[k2]:
                            gm = g_set_mask(rs, ideal.mask, k1, k2, v[k1], v[k2])
                            candidates.append(
                                ("G", frozenset(i for i in range(rs.nroots) if gm >> i & 1))
                            )
            matched = [kind for kind, cand in candidates if cand == top]
            assert matched, (label, ideal.coordinate_strings(), sorted(top))
            if matched == ["F"] * len(matched):
                fmask = sum(1 << i for i in top)
                assert rs.is_chain_mask(fmask)
    report(6, f"top blocks of all {checked} generic certificates over A3,B3,D4,G2,F4 "
              "are filter- or pair-shaped")


def test_criterion_7_exponents_match_characteristic_polynomial():
    checked = 0
    for label in ["A3", "B3", "C3", "D4", "G2", "F4"]:
        rs = get_system(label)
        for record in classify_type(label):
            if not record.supersolvable:
                continue
            checked += 1
            ideal = Ideal.from_generators(rs, [parse_root(rs, r) for r in record.ideal])
            arr = Arrangement(rs, ideal.members())
            assert arr.characteristic_polynomial() == poly_from_block_sizes(
                record.exponents, arr.rank()
            ), (label, record.ideal)
    report(7, f"chi factors as prod(t - block size) for all {checked} supersolvable "
              "ideals of A3,B3,C3,D4,G2,F4 (exact integer comparison)")


def _numpy_ideal_masks(rs) -> np.ndarray:
    """All downward-closed subsets via a vectorized all-subsets filter."""
    lower = [0] * rs.nroots
    for a, b in rs.cover_pairs:
        lower[b] |= 1 << a
    masks = np.arange(1 << rs.nroots, dtype=np.uint32)
    valid = np.ones(masks.shape, dtype=bool)
    for u, low in enumerate(lower):
        if not low:
            continue
        has_u = (masks >> np.uint32(u)) & np.uint32(1)
        closed = (masks & np.uint32(low)) == np.uint32(low)
        valid &= (has_u == 0) | closed
    return masks[valid]


def test_criterion_8_enumeration_matches_naive_filter():
    counts = {}
    for label in ["A1", "A2", "A3", "B2", "B3", "C2", "C3", "D3", "G2", "D4", "F4"]:
        rs = get_system(label)
        got = sorted(ideal.mask for ideal in enumerate_ideals(rs))
        naive = sorted(int(m) for m in _numpy_ideal_masks(rs))
        assert got == naive, label
        counts[label] = len(got)
    assert counts["D4"] == 50
    assert counts["F4"] == 105
    report(8, f"enumeration equals the all-subsets filter on {counts} "
              "(D4 count 50, F4 count 105)")


def test_criterion_9_generic_and_rootideal_searches_agree():
    total = 0
    for label in RANK_LE_4:
        rs = get_system(label)
        for ideal in enumerate_ideals(rs):
            fast = is_supersolvable_rootideal(ideal)
            slow = is_supersolvable_generic(Arrangement(rs, ideal.members()))
            assert (fast is None) == (slow is None), (label, ideal.coordinate_strings())
            total += 1
    report(9, f"generic and root-ideal searches agree on all {total} ideals "
              "of the rank<=4 types")
