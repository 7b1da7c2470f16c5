"""Chain peeling, the two supersolvability searches, exponents, records."""

from __future__ import annotations

import gc
from itertools import combinations

import pytest

from rootarr import (
    Arrangement,
    EquivalenceViolation,
    Ideal,
    bad_ideals,
    chain_peeling,
    classify,
    classify_ideal,
    enumerate_ideals,
    exponents,
    format_root,
    is_supersolvable_generic,
    is_supersolvable_rootideal,
    matroid,
    parse_root,
    rootsystem,
)
from rootarr.classify import (
    PartitionCertificate,
    _bad_ideal,
    validate_chain_peeling,
    validate_supersolving,
)
from rootarr.ideals import restrict_mask
from rootarr.rootsystem import (
    _bits,
    _echelon,
    _mask_of,
    _memo_table,
    _pair_spans,
    _reduce,
    build_root_system,
)
from rootarr.suites import poly_from_block_sizes
from conftest import classify_type, f4_height4_mask, get_system
from test_ideals import bond_block, pair_block
from test_matroid import closure


def star_ideal(rs) -> Ideal:
    return Ideal.from_roots(rs, [i for i in range(rs.nroots) if rs.heights[i] <= 3])


def names(rs, idxs):
    return sorted(format_root(rs, i) for i in idxs)


# -- chain peeling ---------------------------------------------------------------


def test_peeling_a2():
    rs = get_system("A2")
    cert = chain_peeling(Ideal(rs, rs.full_mask))
    assert cert is not None and cert.kind == "peeling"
    assert [names(rs, b) for b in cert.blocks] == [["01"], ["10", "11"]]
    assert validate_chain_peeling(Ideal(rs, rs.full_mask), cert)


def test_peeling_empty_and_singleton():
    rs = get_system("A2")
    assert chain_peeling(Ideal(rs, 0)).blocks == ()
    single = Ideal.from_roots(rs, [parse_root(rs, "10")])
    cert = chain_peeling(single)
    assert len(cert.blocks) == 1
    assert validate_chain_peeling(single, cert)


def test_peeling_absent_above_star_ideal():
    rs = get_system("D4")
    assert chain_peeling(star_ideal(rs)) is None
    assert chain_peeling(Ideal(rs, rs.full_mask)) is None


def test_peeling_b3_leaf_first():
    # the filter of the leaf away from the double bond is a chain
    rs = get_system("B3")
    cert = chain_peeling(Ideal(rs, rs.full_mask))
    assert cert is not None
    first_peeled = cert.blocks[-1]
    assert names(rs, first_peeled) == ["100", "110", "111", "112", "122"]


def test_peeling_f4_eta_complements():
    rs = get_system("F4")
    for eta in ("1210", "1111", "0211"):
        mask = rs.full_mask & ~rs.up_masks[parse_root(rs, eta)]
        ideal = Ideal(rs, mask)
        cert = chain_peeling(ideal)
        assert cert is not None
        assert validate_chain_peeling(ideal, cert)


@pytest.mark.parametrize("label", ["A3", "B3", "C3", "D4", "G2"])
def test_all_produced_peelings_validate(label):
    rs = get_system(label)
    for ideal in enumerate_ideals(rs):
        cert = chain_peeling(ideal)
        if cert is not None:
            assert validate_chain_peeling(ideal, cert)


def test_validate_chain_peeling_rejects_repeated_roots():
    # a block that lists a root twice is no block of a partition, for
    # either validator; without the repeats the same blocks peel A2
    rs = get_system("A2")
    full = Ideal(rs, rs.full_mask)
    repeated, plain = ((0, 0), (1, 2, 1)), ((0,), (1, 2))
    assert not validate_supersolving(rs, repeated)
    assert not validate_chain_peeling(full, PartitionCertificate("peeling", repeated, (None, None)))
    assert validate_chain_peeling(full, PartitionCertificate("peeling", plain, (None, None)))


@pytest.mark.parametrize(
    "label", ["A4", "A5", "B3", "B4", "C3", "C4", "G2", "D4", "D5", "F4", "E6"]
)
def test_supersolvability_is_closed_under_subideals(label):
    # Dropping a maximal root of a supersolvable ideal leaves a supersolvable
    # ideal, so a peeling can never run into a dead end below a peelable
    # ideal, and the minimal non-supersolvable ideals (all of whose
    # one-smaller subideals are supersolvable) are exactly the bad ideals.
    rs = get_system(label)
    ideals = list(enumerate_ideals(rs))
    ss = {ideal.mask: is_supersolvable_rootideal(ideal) is not None for ideal in ideals}
    minimal = []
    for mask, ok in ss.items():
        subs = [
            ss[mask & ~(1 << i)]
            for i in range(rs.nroots)
            if mask >> i & 1 and rs.up_masks[i] & mask == 1 << i
        ]
        if ok:
            assert all(subs), Ideal(rs, mask).coordinate_strings()
        elif all(subs):
            minimal.append(mask)
    if label in ("D4", "D5", "E6"):
        star = _bad_ideal(Ideal(rs, rs.full_mask))
        expected = [Ideal.from_generators(rs, star.generators).mask]
        assert _bad_ideal(Ideal(rs, expected[0])) is not None
        assert expected[0].bit_count() == 10
    elif label == "F4":
        expected = [f4_height4_mask(rs)]
        assert expected[0].bit_count() == 13
    else:
        expected = []
    assert minimal == expected
    if label in ("D4", "F4"):
        records = classify_type(label)
        assert [r.ideal for r in records] == [i.coordinate_strings() for i in ideals]
        assert [r.supersolvable for r in records] == list(ss.values())


# -- generic supersolvability -------------------------------------------------------


def test_generic_a2():
    rs = get_system("A2")
    cert = is_supersolvable_generic(Arrangement(rs, range(3)))
    assert cert is not None
    assert validate_supersolving(rs, cert.blocks)
    assert cert.block_sizes() == (1, 2)


def test_generic_d4_star_absent():
    rs = get_system("D4")
    assert is_supersolvable_generic(Arrangement(rs, star_ideal(rs).members())) is None


def test_generic_f4_height4_absent():
    rs = get_system("F4")
    members = Ideal(rs, f4_height4_mask(rs)).members()
    assert is_supersolvable_generic(Arrangement(rs, members)) is None


def test_manual_g_block_partition_validates():
    # the alternative A2 partition: top block {alpha_1, alpha_2}, then the sum
    rs = get_system("A2")
    blocks = [(parse_root(rs, "11"),), (parse_root(rs, "10"), parse_root(rs, "01"))]
    assert validate_supersolving(rs, blocks)
    # and the bottom block alone is not an ideal, yet the partition stands
    with pytest.raises(ValueError):
        Ideal.from_roots(rs, blocks[0])


def test_validate_supersolving_rejects_bad_partitions():
    rs = get_system("A2")
    # block containing a full 2-flat
    assert not validate_supersolving(rs, [(0, 1, 2)])
    # wrong stage rank
    assert not validate_supersolving(rs, [(parse_root(rs, "10"), parse_root(rs, "01")), (parse_root(rs, "11"),)])


def test_validate_supersolving_rejects_out_of_range_indices():
    rs = get_system("A2")
    assert not validate_supersolving(rs, ((7,),))
    assert not validate_supersolving(rs, ((-1,),))


# -- root-ideal supersolvability -------------------------------------------------------


def test_rootideal_a2():
    rs = get_system("A2")
    cert = is_supersolvable_rootideal(Ideal(rs, rs.full_mask))
    assert cert is not None
    assert validate_supersolving(rs, cert.blocks)
    assert cert.block_meta[-1][0] == "F"


def test_rootideal_b3_full():
    rs = get_system("B3")
    cert = is_supersolvable_rootideal(Ideal(rs, rs.full_mask))
    assert cert is not None
    assert validate_supersolving(rs, cert.blocks)
    assert exponents(cert) == (1, 3, 5)


def test_rootideal_f4_above_height4_absent():
    rs = get_system("F4")
    bad = f4_height4_mask(rs)
    for ideal in enumerate_ideals(rs):
        if ideal.mask & bad == bad:
            assert is_supersolvable_rootideal(ideal) is None


def test_f4_candidate_blocks_all_contain_two_flats():
    # for the height<=4 ideal: no simple-root filter is a chain, and each of
    # the four bonded-pair candidates traps a full 2-flat
    rs = get_system("F4")
    ihat = Ideal(rs, f4_height4_mask(rs))
    for k in range(4):
        pos = rs.simple_positions[k]
        fmask = ihat.mask & rs.up_masks[pos]
        assert not rs.is_chain_mask(fmask)

    arr = Arrangement(rs, ihat.members())
    flat_pairs = {
        ("1000", "0100", 1, 1): ("0210", "0111"),
        ("0100", "0010", 1, 1): ("1100", "0210"),
        ("0010", "0001", 1, 1): ("0210", "1110"),
        ("0100", "0010", 2, 1): ("1110", "0111"),
    }
    for (a_name, b_name, a, b), (x_name, y_name) in flat_pairs.items():
        gmask = pair_block(rs, ihat.mask, a_name.index("1"), b_name.index("1"), a, b)
        x, y = parse_root(rs, x_name), parse_root(rs, y_name)
        assert gmask >> x & 1 and gmask >> y & 1
        flat, _ = closure(arr, [x, y])
        assert flat & ihat.mask & ~gmask == 0


def test_rootideal_handles_non_essential_ideals():
    rs = get_system("A3")
    # ideal spanning only two of the three simple directions
    ideal = Ideal.parse(rs, "110")
    cert = is_supersolvable_rootideal(ideal)
    assert cert is not None and len(cert.blocks) == 2
    assert validate_supersolving(rs, cert.blocks)


@pytest.mark.parametrize("label", ["A3", "B3", "C3", "G2", "D4", "F4"])
def test_generic_and_rootideal_agree(label):
    rs = get_system(label)
    for ideal in enumerate_ideals(rs):
        fast = is_supersolvable_rootideal(ideal)
        slow = is_supersolvable_generic(Arrangement(rs, ideal.members()))
        assert (fast is None) == (slow is None)
        if fast is not None:
            assert validate_supersolving(rs, fast.blocks)
            assert fast.block_sizes() == slow.block_sizes()


PEELING_TYPES = (
    [f"A{n}" for n in range(2, 7)]
    + [f"B{n}" for n in range(2, 6)]
    + [f"C{n}" for n in range(3, 6)]
    + ["D4", "D5", "D6", "E6", "F4", "G2"]
)


@pytest.mark.parametrize("label", PEELING_TYPES)
def test_rootideal_certificate_is_the_peeling(label):
    # Both searches try the simple roots' filters in one order, peeling
    # by the chain test and the fast path by the modular-coatom test.  A
    # filter passes one test iff it passes the other, and a remainder is
    # supersolvable iff it is peelable (the paper's theorem), so they pick
    # the same blocks on every supersolvable ideal.
    rs = get_system(label)
    for ideal in enumerate_ideals(rs):
        fast, peel = is_supersolvable_rootideal(ideal), chain_peeling(ideal)
        assert (fast is None) == (peel is None)
        if peel is not None:
            assert (fast.blocks, fast.block_meta) == (peel.blocks, peel.block_meta)


FILTER_LEMMA_TYPES = (
    ["A3", "B3", "C3", "G2", "D4", "F4", "B4", "C4", "A5", "D5", "B5", "C5"]
    + ["E6", "D6", "B6", "C6", "A6", "E7"]
)


@pytest.mark.parametrize("label", FILTER_LEMMA_TYPES)
def test_a_filter_is_a_chain_iff_it_is_a_modular_coatom_complement(label):
    # The rest of a simple root's filter is the ideal's part of the span of
    # the other simple roots, a flat one rank lower.  That coatom is modular
    # iff each pair of the filter spans a line that meets it.
    rs = build_root_system(label)
    for ideal in enumerate_ideals(rs):
        for p in rs.simple_positions:
            if not ideal.mask >> p & 1:
                continue
            top = ideal.mask & rs.up_masks[p]
            rest = ideal.mask & ~top
            modular = all(rs.pair_span_mask(x, y) & rest for x, y in combinations(_bits(top), 2))
            assert rs.is_chain_mask(top) == modular, (label, ideal.coordinate_strings(), p)


def _chain_test_read(mask):
    raise AssertionError("the root-ideal fast path read is_chain_mask")


@pytest.mark.parametrize("label", ["A5", "D5", "F4", "B4"])
def test_rootideal_search_never_reads_the_chain_test(label, monkeypatch):
    rs, plain = build_root_system(label), build_root_system(label)
    monkeypatch.setattr(rs, "is_chain_mask", _chain_test_read)
    for ideal, same in zip(enumerate_ideals(rs), enumerate_ideals(plain), strict=True):
        assert is_supersolvable_rootideal(ideal) == is_supersolvable_rootideal(same)


@pytest.mark.parametrize("label", ["A5", "B4", "D5", "F4"])
def test_whole_type_search_builds_no_view(label, monkeypatch):
    rs = build_root_system(label)  # fresh: no verdict left by other tests
    views = []
    monkeypatch.setattr(classify, "restrict_mask", lambda *args: views.append(args))
    for ideal in enumerate_ideals(rs):
        is_supersolvable_rootideal(ideal)
    assert not views


# -- exponents ---------------------------------------------------------------------------


def test_exponents_examples():
    for label, expect in [("A2", (1, 2)), ("B2", (1, 3)), ("G2", (1, 5))]:
        rs = get_system(label)
        cert = is_supersolvable_rootideal(Ideal(rs, rs.full_mask))
        assert exponents(cert) == expect
        arr = Arrangement(rs, range(rs.nroots))
        assert arr.characteristic_polynomial() == poly_from_block_sizes(expect, len(expect))


def test_exponents_requires_certificate():
    with pytest.raises(ValueError):
        exponents(None)


# -- the combined classifier ----------------------------------------------------------------


def test_classify_d4_star_ideal_record():
    rs = get_system("D4")
    record = classify_ideal(star_ideal(rs))
    assert not record.chain_peelable
    assert not record.supersolvable
    assert not record.line_closed
    assert not record.koszul
    assert record.bad_ideal is not None and record.bad_ideal.kind == "star"
    assert record.exponents is None
    assert record.non_flat_witness is not None


def test_classify_f4_low_ideal_all_true():
    rs = get_system("F4")
    ideal = Ideal.from_roots(rs, [i for i in range(rs.nroots) if rs.heights[i] <= 3])
    record = classify_ideal(ideal)
    assert record.chain_peelable and record.supersolvable
    assert record.line_closed and record.koszul
    assert record.bad_ideal is None


@pytest.mark.parametrize("label", ["B3", "C3", "G2"])
def test_classify_multiply_laced_all_true(label):
    for record in classify_type(label):
        assert record.chain_peelable and record.supersolvable and record.line_closed


@pytest.mark.parametrize("label", ["D4", "F4"])
def test_no_arrangement_outlives_classification(label, monkeypatch):
    rs = build_root_system(label)  # fresh: other tests' cached systems do not count
    built = []

    class Counted(Arrangement):
        def __init__(self, system, ground):
            super().__init__(system, ground)
            built.append(self.ground_mask)

    monkeypatch.setattr(classify, "Arrangement", Counted)
    # Largest first, so coatom sub-searches miss the memo and recurse.
    ideals = sorted(enumerate_ideals(rs), key=lambda i: -i.size)
    for ideal in ideals:
        classify_ideal(ideal)
    gc.collect()
    assert not [o for o in gc.get_objects() if isinstance(o, Arrangement) and o.system is rs]
    assert len(built) == len(ideals)  # one per ideal; coatoms reuse its flats


@pytest.mark.parametrize("label", ["D4", "F4", "B4", "D5"])
def test_memo_history_never_changes_a_record(label):
    # a fresh system classifies largest first, so every search meets its
    # memos filled in the opposite order to classify_type's smallest first
    rs, shared = build_root_system(label), get_system(label)
    ideals = sorted(enumerate_ideals(rs), key=lambda i: (-i.size, i.mask))
    got = {ideal.mask: classify_ideal(ideal).to_dict(rs) for ideal in ideals}
    want = [record.to_dict(shared) for record in classify_type(label)]
    assert [got[ideal.mask] for ideal in enumerate_ideals(shared)] == want


def test_classify_rejects_view_ideals():
    rs = get_system("A3")
    rest = rs.full_mask & ~pair_block(rs, rs.full_mask, 0, 1, 1, 1)
    view = restrict_mask(rs, bond_block(rs, 0, 1, 1, 1))
    with pytest.raises(ValueError):
        Ideal(view, rest)


def test_record_json_roundtrip():
    import json

    rs = get_system("D4")
    record = classify_ideal(star_ideal(rs))
    text = json.dumps(record.to_dict(rs), sort_keys=True)
    data = json.loads(text)
    assert data["bad_ideal"]["kind"] == "star"
    assert data["supersolvable"] is False


def test_exponent_multisets_agree_between_certificates():
    # peeling and supersolving certificates of one ideal carry the same
    # block-size multiset (it is the exponent multiset)
    for label in ["A3", "B3", "D4", "G2"]:
        for record in classify_type(label):
            if record.supersolvable:
                assert record.peeling.block_sizes() == record.supersolving.block_sizes()


# -- route independence ------------------------------------------------------------------


def _install_planes(rs, mutate) -> None:
    """Replace every pair span in the table of ``rs`` by ``mutate(pair, span)``."""
    spans = _pair_spans(rs, rs.full_mask)
    for i, j in combinations(range(rs.nroots), 2):
        spans[i][j] = spans[j][i] = mutate((i, j), spans[i][j])


def _drop_long_line_tops(pair, span):
    return span & ~(1 << span.bit_length() - 1) if span.bit_count() > 2 else span


def _install_kernel(mp, name, mutant) -> None:
    """Bind ``mutant`` as ``name`` in every module that imports that kernel."""
    for module in (rootsystem, matroid, classify):
        if hasattr(module, name):
            mp.setattr(module, name, mutant)


def _echelon_without_third_row(vectors):
    rows = _echelon(vectors)
    return rows[:2] + rows[3:]


def _trust_kept_levels(mp) -> None:
    """Let every resumed walk skip the rooted climb: the subideal's kept level vouches for m."""
    mp.setattr(Arrangement, "_resume", lambda arr, root, k, below: arr._climb(below, k, arr.rank()))


def _simple_filters_without_lowest_root(rs) -> tuple[int, ...]:
    """``rs.up_masks`` with the lowest root above each simple root dropped."""
    up = list(rs.up_masks)
    for p in rs.simple_positions:
        above = up[p] & ~(1 << p)
        up[p] ^= above & -above
    return tuple(up)


def _close_with_next_root(mp) -> None:
    """Let the generic search's closure under lines also take the root after each pick."""
    close = classify._close_lines
    mp.setattr(
        classify,
        "_close_lines",
        lambda spans, ground, state, add: close(spans, ground, state, add | add << 1 & ground),
    )


# Each installs a plausible bug in one kernel the routes share, on one system
# or, for the elimination kernels, in every module that binds them.  The last
# three break one route's own code: the line-closedness route resumes from
# a subideal's kept level without the rooted walk; the generic search accepts
# coatoms that are not modular, or prunes modular ones.
KERNEL_MUTANTS = {
    "chains-always": lambda mp, rs: mp.setattr(rs, "is_chain_mask", lambda mask: True),
    "chains-never": lambda mp, rs: mp.setattr(rs, "is_chain_mask", lambda mask: False),
    "long-line-tops-dropped": lambda mp, rs: _install_planes(rs, _drop_long_line_tops),
    "two-root-lines": lambda mp, rs: _install_planes(rs, lambda pair, span: _mask_of(pair)),
    "no-bad-ideals": lambda mp, rs: _memo_table(rs, bad_ideals).update({None: ()}),
    "echelon-drops-third-row": lambda mp, rs: _install_kernel(
        mp, "_echelon", _echelon_without_third_row
    ),
    "reduce-skips-first-row": lambda mp, rs: _install_kernel(
        mp, "_reduce", lambda rows, v: _reduce(rows[1:], v)
    ),
    "simple-filters-lose-lowest-root": lambda mp, rs: mp.setattr(
        rs, "up_masks", _simple_filters_without_lowest_root(rs)
    ),
    "resume-trusts-subideal": lambda mp, rs: _trust_kept_levels(mp),
    "pair-test-skipped": lambda mp, rs: mp.setattr(classify, "_pairs_meet", lambda *args: True),
    "closure-takes-the-next-root": lambda mp, rs: _close_with_next_root(mp),
}


@pytest.mark.parametrize("mutant", KERNEL_MUTANTS)
def test_a_shared_kernel_bug_breaks_equivalence(mutant, monkeypatch):
    # the mutant goes on fresh systems, so no cached memo hides it
    for label in ["D4", "F4", "B4"]:
        rs = build_root_system(label)
        KERNEL_MUTANTS[mutant](monkeypatch, rs)
        for ideal in enumerate_ideals(rs):
            try:
                classify_ideal(ideal)
            except EquivalenceViolation:
                return
    pytest.fail(f"no ideal of D4, F4 or B4 exposes the {mutant} mutant")


@pytest.mark.parametrize("mutant", ["chains-always", "chains-never"])
def test_a_chain_test_bug_splits_peeling_from_the_fast_path(mutant, monkeypatch):
    # the fast path tests its filters for modularity, so a wrong chain test
    # moves the peeling verdict alone
    for label in ["D4", "F4", "B4"]:
        rs = build_root_system(label)
        KERNEL_MUTANTS[mutant](monkeypatch, rs)
        for ideal in enumerate_ideals(rs):
            if (chain_peeling(ideal) is None) != (is_supersolvable_rootideal(ideal) is None):
                return
    pytest.fail(f"the {mutant} mutant moves peeling and the fast path together")
