"""Ideal enumeration, filters, pair blocks, subsystem restriction, bad ideals.

The enumeration oracle walks all 2^N subsets and filters for downward
closure using its own componentwise comparison on raw coordinates, so it
shares nothing with the library's enumerator beyond the root list.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

import pytest

from rootarr import (
    BadIdealWitness,
    Ideal,
    bad_ideals,
    enumerate_ideals,
    format_root,
    parse_root,
)
from rootarr.classify import _bad_ideal
from rootarr.ideals import restrict_mask
from rootarr.rootsystem import ADMISSIBLE_RANKS, _mask_of
from conftest import f4_height4_mask, get_system
from test_matroid import frac_rank
from test_rootsystem import ALL_TYPES, bonded_pair_views


def naive_ideal_masks(rs) -> set[int]:
    """All downward-closed subsets by brute force; independent leq."""
    below = []
    for j in range(rs.nroots):
        req = 0
        for i in range(rs.nroots):
            if all(a <= b for a, b in zip(rs.coords[i], rs.coords[j])):
                req |= 1 << i
        below.append(req)
    out = set()
    for mask in range(1 << rs.nroots):
        rest = mask
        ok = True
        while rest:
            j = (rest & -rest).bit_length() - 1
            if below[j] & ~mask:
                ok = False
                break
            rest &= rest - 1
        if ok:
            out.add(mask)
    return out


IDEAL_COUNTS = {
    "A1": 2,
    "A2": 5,
    "A3": 14,
    "A4": 42,
    "B2": 6,
    "B3": 20,
    "B4": 70,
    "C2": 6,
    "C3": 20,
    "C4": 70,
    "D3": 14,
    "G2": 8,
    "D4": 50,
}


@pytest.mark.parametrize("label", sorted(IDEAL_COUNTS))
def test_enumeration_matches_naive_filter(label):
    rs = get_system(label)
    naive = naive_ideal_masks(rs)
    got = [ideal.mask for ideal in enumerate_ideals(rs)]
    assert len(got) == len(set(got)) == IDEAL_COUNTS[label]
    assert set(got) == naive


def w_catalan(label: str) -> int:
    """The number of ideals of the root poset (Cellini-Papi; Shi)."""
    family, n = label[0], int(label[1:])
    if family == "A":
        return comb(2 * n + 2, n + 1) // (n + 2)
    if family in "BC":
        return comb(2 * n, n)
    if family == "D":
        return comb(2 * n, n) - comb(2 * n - 2, n - 1)
    return {"E6": 833, "E7": 4160, "E8": 25080, "F4": 105, "G2": 8}[label]


ADMISSIBLE_TYPES = [f"{f}{n}" for f, ranks in ADMISSIBLE_RANKS.items() for n in ranks]


@pytest.mark.parametrize("label", ADMISSIBLE_TYPES)
def test_ideal_count_is_the_w_catalan_number(label):
    rs = get_system(label)
    assert sum(1 for _ in enumerate_ideals(rs)) == w_catalan(label)


def test_enumeration_is_sorted_and_complete():
    rs = get_system("D4")
    ideals = list(enumerate_ideals(rs))
    keys = [(i.size, i.mask) for i in ideals]
    assert keys == sorted(keys)
    assert ideals[0].mask == 0
    assert ideals[-1].mask == rs.full_mask


@pytest.mark.parametrize("label", ["A3", "B3", "D4", "F4"])
def test_every_enumerated_ideal_is_downward_closed(label):
    rs = get_system(label)
    for ideal in enumerate_ideals(rs):
        for i in ideal.members():
            assert rs.down_masks[i] & ideal.mask == rs.down_masks[i]


def test_ideal_constructor_rejects_non_ideals():
    rs = get_system("A2")
    with pytest.raises(ValueError):
        Ideal.from_roots(rs, [parse_root(rs, "11")])


def test_ideal_parse_forms():
    d4 = get_system("D4")
    a = Ideal.parse(d4, "1110,1101,0111")
    assert a.size == 10
    assert Ideal.parse(d4, "1110;1101;0111") == a
    assert Ideal.parse(d4, "1,2,1,1").mask == d4.full_mask
    assert Ideal.parse(d4, "").mask == 0
    with pytest.raises(ValueError):
        Ideal.parse(d4, "zzz")
    for text in (",", ";", " ; ", ",,", ";;"):
        with pytest.raises(ValueError, match="names no root"):
            Ideal.parse(d4, text)


# -- principal filters ----------------------------------------------------------


def root_names(rs, mask: int) -> set[str]:
    return {format_root(rs, i) for i in range(rs.nroots) if mask >> i & 1}


def test_principal_filter_a2():
    rs = get_system("A2")
    got = rs.full_mask & rs.up_masks[parse_root(rs, "10")]
    assert root_names(rs, got) == {"10", "11"}


def test_principal_filter_d4_centre():
    rs = get_system("D4")
    got = rs.full_mask & rs.up_masks[parse_root(rs, "0100")]
    assert got.bit_count() == 9
    assert all(rs.coords[i][1] >= 1 for i in range(rs.nroots) if got >> i & 1)


def test_principal_filter_f4_height4_ideal():
    rs = get_system("F4")
    got = f4_height4_mask(rs) & rs.up_masks[parse_root(rs, "1000")]
    assert root_names(rs, got) == {"1000", "1100", "1110", "1210", "1111"}


@pytest.mark.parametrize("label", ["A3", "B3", "D4"])
def test_filter_complement_is_again_an_ideal(label):
    rs = get_system(label)
    for ideal in enumerate_ideals(rs):
        for pos in rs.simple_positions:
            if pos not in ideal:
                continue
            fmask = ideal.mask & rs.up_masks[pos]
            # the filter is upward closed inside the ideal
            for i in range(rs.nroots):
                if fmask >> i & 1:
                    assert rs.up_masks[i] & ideal.mask & ~fmask == 0
            Ideal(rs, ideal.mask & ~fmask)  # must not raise


# -- the bonded-pair complement block ----------------------------------------------
# Simple roots are named by their coordinate axes ai, bi, as in the classifier.
# ``ab_pairs`` and ``g_set_mask`` are brute-force oracles for the bond table.


def ab_pairs(rs, ai: int, bi: int) -> list[tuple[int, int]]:
    """Sorted (a, b) with a, b >= 1 making a*alpha_ai + b*alpha_bi a root."""
    pairs = []
    for v in rs.index_of:
        if v[ai] >= 1 and v[bi] >= 1 and sum(v) == v[ai] + v[bi]:
            pairs.append((v[ai], v[bi]))
    return sorted(pairs)


def g_set_mask(table, mask: int, ai: int, bi: int, a: int, b: int) -> int:
    """Members whose (ai, bi)-coordinate pair is not a multiple of (a, b)."""
    out = 0
    for i in range(mask.bit_length()):
        if mask >> i & 1:
            v = table.coords[i]
            ca, cb = v[ai], v[bi]
            if not (ca % a == 0 and cb == (ca // a) * b):
                out |= 1 << i
    return out


def bond_block(table, ai: int, bi: int, a: int, b: int) -> tuple:
    """The entry of ``table.bonds`` for the pair (ai, bi) and multipliers (a, b)."""
    (block,) = [bl for bl in table.bonds if bl[:4] == (ai, bi, a, b)]
    return block


def pair_block(table, mask: int, ai: int, bi: int, a: int, b: int) -> int:
    """The bonded-pair complement block of ``mask``, read off the bond table."""
    return mask & ~bond_block(table, ai, bi, a, b)[5]


@pytest.mark.parametrize("label", ALL_TYPES)
def test_bond_table_matches_brute_force(label):
    rs = get_system(label)
    expect = []
    for k1 in range(rs.rank):
        for k2 in range(k1 + 1, rs.rank):
            for a, b in ab_pairs(rs, k1, k2):
                v = tuple(a if k == k1 else b if k == k2 else 0 for k in range(rs.rank))
                keep = rs.full_mask & ~g_set_mask(rs, rs.full_mask, k1, k2, a, b)
                expect.append((k1, k2, a, b, rs.index_of[v], keep))
    assert rs.bonds == tuple(expect)


def test_g_set_a2():
    rs = get_system("A2")
    got = pair_block(rs, rs.full_mask, 0, 1, 1, 1)
    assert root_names(rs, got) == {"10", "01"}


def test_g_set_d4():
    rs = get_system("D4")
    got = pair_block(rs, rs.full_mask, 0, 1, 1, 1)
    assert root_names(rs, got) == {"1000", "0100", "0110", "0101", "0111", "1211"}


def test_g_set_f4_bond_multiplier():
    rs = get_system("F4")
    got = root_names(rs, pair_block(rs, f4_height4_mask(rs), 1, 2, 2, 1))
    assert "0210" not in got and "1000" not in got and "0001" not in got
    assert "1111" in got
    assert got == {"0100", "0010", "1100", "0110", "0011", "1110", "0111", "1111"}


@pytest.mark.parametrize("label", ["A3", "B3", "D4", "G2", "F4"])
def test_g_set_multiple_duality(label):
    # complement duality: gamma survives outside G iff its coordinate pair
    # is a nonnegative multiple of (a, b)
    rs = get_system(label)
    for k1, k2, a, b, _, keep in rs.bonds:
        g = rs.full_mask & ~keep
        for i in range(rs.nroots):
            v = rs.coords[i]
            multiple = any(v[k1] == k * a and v[k2] == k * b for k in range(0, 7))
            assert (not g >> i & 1) == multiple


def test_candidate_ab_pairs():
    def pairs(rs, ai, bi):
        return [(a, b) for k1, k2, a, b, _, _ in rs.bonds if (k1, k2) == (ai, bi)]

    a2 = get_system("A2")
    assert pairs(a2, 0, 1) == [(1, 1)]
    b2 = get_system("B2")
    assert pairs(b2, 0, 1) == [(1, 1), (1, 2)]
    f4 = get_system("F4")
    assert pairs(f4, 1, 2) == [(1, 1), (2, 1)]
    g2 = get_system("G2")
    assert pairs(g2, 0, 1) == [
        (1, 1),
        (1, 2),
        (1, 3),
        (2, 3),
    ]
    a3 = get_system("A3")
    assert pairs(a3, 0, 2) == []


# -- subsystem restriction -----------------------------------------------------------


def restrict(rs, mask, ai, bi, a, b):
    """The search's restriction step: drop the pair block, restrict into the view."""
    rest = mask & ~g_set_mask(rs, mask, ai, bi, a, b)
    return restrict_mask(rs, bond_block(rs, ai, bi, a, b)), rest


def view_leq(view, x: int, y: int) -> bool:
    """Componentwise order on the view's own coordinates (base indices x, y)."""
    return all(p <= q for p, q in zip(view.coords[x], view.coords[y]))


def view_is_ideal(view, mask: int) -> bool:
    """Whether ``mask`` holds only view roots and is downward closed in the view."""
    members = [i for i in view.coords if mask >> i & 1]
    if len(members) != mask.bit_count():
        return False
    return all(
        mask >> j & 1 for i in members for j in view.coords if view_leq(view, j, i)
    )


def test_restrict_a2_footnote_example():
    rs = get_system("A2")
    view, vmask = restrict(rs, rs.full_mask, 0, 1, 1, 1)
    top = parse_root(rs, "11")
    assert len(view.simple_positions) == 1 and view.coords == {top: (1,)}
    assert vmask == 1 << top


def test_restrict_d4_delta():
    rs = get_system("D4")
    view, vmask = restrict(rs, rs.full_mask, 0, 1, 1, 1)
    assert len(view.simple_positions) == 3
    assert {format_root(rs, i) for i in view.simple_positions} == {"1100", "0010", "0001"}
    assert view_is_ideal(view, vmask)


@pytest.mark.parametrize("label", ["A3", "B3", "C3", "D4", "G2", "F4"])
def test_restriction_induced_order_matches_parent(label):
    # the subsystem poset equals the parent order restricted to its roots,
    # and its roots are exactly the non-surviving complement of the block
    rs = get_system(label)
    for k1 in range(rs.rank):
        for k2 in range(k1 + 1, rs.rank):
            for a, b in ab_pairs(rs, k1, k2):
                view, _ = restrict(rs, rs.full_mask, k1, k2, a, b)
                g = g_set_mask(rs, rs.full_mask, k1, k2, a, b)
                assert set(view.coords) == {
                    i for i in range(rs.nroots) if not g >> i & 1
                }
                for x in view.coords:
                    for y in view.coords:
                        assert view_leq(view, x, y) == rs.leq(x, y)


@pytest.mark.parametrize("label", ["B3", "D4", "F4"])
def test_restriction_of_every_ideal_is_an_ideal(label):
    rs = get_system(label)
    for ideal in enumerate_ideals(rs):
        for k1 in range(rs.rank):
            for k2 in range(k1 + 1, rs.rank):
                for a, b in ab_pairs(rs, k1, k2):
                    view, vmask = restrict(rs, ideal.mask, k1, k2, a, b)
                    assert view_is_ideal(view, vmask)


@pytest.mark.parametrize("label", ["A5", "B4", "D5", "F4", "G2", "D6", "E6"])
def test_restriction_view_coordinates_recombine(label):
    # in every view that repeated restriction reaches, each root's
    # coordinates rebuild its base vector over the spanning roots, and the
    # view holds exactly the base roots in the span
    rs = get_system(label)
    views = bonded_pair_views(rs)
    assert views
    for view in views:
        delta = [rs.coords[d] for d in view.simple_positions]
        for idx, c in view.coords.items():
            combo = tuple(
                sum(cj * d[t] for cj, d in zip(c, delta)) for t in range(rs.rank)
            )
            assert combo == rs.coords[idx]
        assert len(set(view.coords.values())) == len(view.coords)
        in_span = {
            i
            for i, v in enumerate(rs.coords)
            if frac_rank(delta + [v]) == len(delta)
        }
        assert set(view.coords) == in_span
        assert view.full_mask == _mask_of(in_span)


# -- bad ideals -----------------------------------------------------------------------


def scan_bad_ideal(ideal: Ideal) -> BadIdealWitness | None:
    """The bad-ideal scan from before ``bad_ideals``, kept as an oracle.

    Dispatches on lacing and label, and rebuilds each star from
    coordinates on every call.
    """
    rs = ideal.system
    if rs.lacing == 1:
        n = rs.rank
        for centre in range(n):
            arms = rs.dynkin_neighbours(centre)
            if len(arms) < 3:
                continue
            for trio in combinations(sorted(arms), 3):
                gens = []
                for left, right in ((trio[0], trio[1]), (trio[0], trio[2]), (trio[1], trio[2])):
                    v = tuple(1 if k in (left, centre, right) else 0 for k in range(n))
                    idx = rs.index_of.get(v)
                    if idx is None or idx not in ideal:
                        gens = None
                        break
                    gens.append(idx)
                if gens is not None:
                    simples = tuple(rs.simple_positions[k] for k in (trio[0], centre, trio[1], trio[2]))
                    return BadIdealWitness("star", simples, tuple(gens))
        return None
    if str(rs.label) == "F4":
        bad = sum(1 << i for i, h in enumerate(rs.heights) if h <= 4)
        if ideal.mask & bad == bad:
            gens = tuple(i for i, h in enumerate(rs.heights) if h == 4)
            return BadIdealWitness("f4", rs.simple_positions, gens)
    return None


@pytest.mark.parametrize(
    "label", [t for t in ADMISSIBLE_TYPES if int(t[1:]) <= 7] + ["E8"]
)
def test_bad_ideal_table_agrees_with_the_scan(label):
    rs = get_system(label)
    for ideal in enumerate_ideals(rs):
        assert _bad_ideal(ideal) == scan_bad_ideal(ideal), ideal.coordinate_strings()


def test_bad_ideal_table_entries():
    # one star per degree-3 node of D and E, one F4 entry, none elsewhere
    for label in ADMISSIBLE_TYPES:
        kinds = [w.kind for _, w in bad_ideals(get_system(label))]
        if label[0] in "DE" and label != "D3":
            assert kinds == ["star"], label
        else:
            assert kinds == (["f4"] if label == "F4" else []), label
    rs = get_system("D5")
    ((mask, w),) = bad_ideals(rs)
    assert mask == _mask_of(w.generators)
    assert all(rs.heights[g] == 3 for g in w.generators)
    assert bad_ideals(rs) is bad_ideals(rs)  # memoized


def test_star_ideal_d4_height3():
    rs = get_system("D4")
    ideal = Ideal.from_roots(rs, [i for i in range(rs.nroots) if rs.heights[i] <= 3])
    w = _bad_ideal(ideal)
    assert w is not None and w.kind == "star"
    assert format_root(rs, w.simple_roots[1]) == "0100"  # the branch node
    assert {format_root(rs, g) for g in w.generators} == {"1110", "1101", "0111"}


def test_star_ideal_absent_cases():
    rs = get_system("D4")
    assert _bad_ideal(Ideal.parse(rs, "1110,1101")) is None
    a4 = get_system("A4")
    for ideal in enumerate_ideals(a4):
        assert _bad_ideal(ideal) is None  # no degree-3 node in type A
    b3 = get_system("B3")
    assert _bad_ideal(Ideal(b3, b3.full_mask)) is None  # multiply laced


def test_star_ideal_d5_and_e6():
    d5 = get_system("D5")
    w = _bad_ideal(Ideal(d5, d5.full_mask))
    assert w is not None
    e6 = get_system("E6")
    w = _bad_ideal(Ideal(e6, e6.full_mask))
    assert w is not None


def test_f4_bad_ideal_detection():
    rs = get_system("F4")
    ihat = Ideal(rs, f4_height4_mask(rs))
    assert ihat.size == 13
    assert ihat.mask == _mask_of(i for i, h in enumerate(rs.heights) if h <= 4)
    assert _bad_ideal(ihat).kind == "f4"
    assert _bad_ideal(Ideal(rs, 0)) is None
    eta1 = parse_root(rs, "1210")
    without = Ideal(rs, rs.full_mask & ~rs.up_masks[eta1])
    assert _bad_ideal(without) is None
    assert _bad_ideal(Ideal(get_system("D4"), 0)) is None


def test_f4_bad_ideal_generated_by_etas():
    rs = get_system("F4")
    assert Ideal.parse(rs, "1210,1111,0211").mask == f4_height4_mask(rs)


# -- path roots ------------------------------------------------------------------------


def is_path_root(rs, gamma: int) -> bool:
    """Whether the root's support is a Dynkin path with all coordinates 1."""
    v = rs.coords[gamma]
    supp = [i for i, x in enumerate(v) if x]
    if any(v[i] != 1 for i in supp):
        return False
    # Supports are connected subtrees of the Dynkin tree, so a path is
    # exactly: no support node with three support neighbours.
    supp_set = set(supp)
    return all(
        sum(1 for j in rs.dynkin_neighbours(i) if j in supp_set) <= 2 for i in supp
    )


def test_path_roots_type_a_all():
    rs = get_system("A4")
    assert all(is_path_root(rs, i) for i in range(rs.nroots))


def test_path_roots_d4():
    rs = get_system("D4")
    assert not is_path_root(rs, parse_root(rs, "1211"))
    assert is_path_root(rs, parse_root(rs, "1110"))
    assert not is_path_root(rs, parse_root(rs, "1111"))  # support is the full star


@pytest.mark.parametrize("label", ["A3", "D4", "D5", "E6"])
def test_starfree_ideals_contain_only_path_roots(label):
    # simply laced: an ideal without a star configuration sits inside the
    # path roots
    rs = get_system(label)
    for ideal in enumerate_ideals(rs):
        if _bad_ideal(ideal) is None:
            assert all(is_path_root(rs, i) for i in ideal.members())
