"""Root system construction, the bilinear form, reflections and the poset.

Oracles used here are independent of the construction path: closed-form
root counts, Euclidean coordinate models for the inner product, the orbit
of the simple roots under all simple reflections, direct Dynkin-graph
reasoning for support connectivity, and a comparison of every pair of
roots for the order masks and covers.
"""

from __future__ import annotations

import pickle
from fractions import Fraction
from itertools import combinations

import pytest

from rootarr import (
    Ideal,
    TypeLabel,
    classify,
    enumerate_ideals,
    format_root,
    is_supersolvable_rootideal,
    parse_root,
    reflect,
)
from rootarr.ideals import restrict_mask
from rootarr.rootsystem import _memoized, build_root_system
from conftest import get_system

ALL_TYPES = (
    [f"A{n}" for n in range(1, 9)]
    + [f"B{n}" for n in range(2, 9)]
    + [f"C{n}" for n in range(2, 9)]
    + [f"D{n}" for n in range(3, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
)

RANK4_TYPES = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D3", "D4", "F4", "G2"]


def closed_form_count(label: TypeLabel) -> int:
    n = label.rank
    if label.family == "A":
        return n * (n + 1) // 2
    if label.family in ("B", "C"):
        return n * n
    if label.family == "D":
        return n * (n - 1)
    if label.family == "E":
        return {6: 36, 7: 63, 8: 120}[n]
    return 24 if label.family == "F" else 6


# -- admissibility ------------------------------------------------------------


@pytest.mark.parametrize("bad", ["A0", "B1", "C1", "D2", "E5", "E9", "F3", "F5", "G3", "H3"])
def test_inadmissible_types_rejected(bad):
    with pytest.raises(ValueError):
        TypeLabel.parse(bad)


def test_type_parse_roundtrip():
    assert str(TypeLabel.parse("d4")) == "D4"
    with pytest.raises(ValueError):
        TypeLabel.parse("Dfour")


def test_labels_and_ideals_are_read_only_values():
    # equal and hashed by their fields, as frozen records; an ideal's
    # system compares by identity, so only a label survives pickling equal
    rs = get_system("D4")
    cases = [(lambda: TypeLabel("d", 4), ("family", "rank")), (lambda: Ideal(rs, 3), ("system", "mask"))]
    for make, fields in cases:
        a, b = make(), make()
        assert a == b and hash(a) == hash(b) and a is not b
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(a, name, getattr(a, name))
    assert pickle.loads(pickle.dumps(TypeLabel("D", 4))) == TypeLabel("D", 4)
    copy = pickle.loads(pickle.dumps(Ideal(rs, 3)))
    assert (str(copy.system.label), copy.mask) == ("D4", 3)
    assert repr(TypeLabel("d", 4)) == "TypeLabel(family='D', rank=4)"
    assert TypeLabel("D", 4) != TypeLabel("D", 5) and Ideal(rs, 1) != Ideal(rs, 3)


# -- construction: counts, orbit oracle, frozen tables -------------------------------


@pytest.mark.parametrize("label", ALL_TYPES)
def test_positive_root_counts(label):
    rs = get_system(label)
    assert rs.nroots == closed_form_count(rs.label)


@pytest.mark.parametrize("label", ALL_TYPES)
def test_reflection_orbit_oracle(label):
    # Closing the simple roots under all simple reflections must reproduce
    # the generated positive roots exactly.
    rs = get_system(label)
    simple = [tuple(1 if k == i else 0 for k in range(rs.rank)) for i in range(rs.rank)]
    orbit = set(simple)
    frontier = list(simple)
    while frontier:
        nxt = []
        for v in frontier:
            for i in range(rs.rank):
                w = rs.reflect_vector(i, v)
                if w not in orbit:
                    orbit.add(w)
                    nxt.append(w)
        frontier = nxt
    positives = {v for v in orbit if all(x >= 0 for x in v)}
    assert positives == set(rs.coords)
    # and the orbit is symmetric: every root's negative appears
    assert {tuple(-x for x in v) for v in orbit} == orbit


def test_a2_roots():
    rs = get_system("A2")
    assert {format_root(rs, i) for i in range(rs.nroots)} == {"10", "01", "11"}


D4_KNOWN_ROOTS = {
    "1000", "0100", "0010", "0001",
    "1100", "0110", "0101",
    "1110", "1101", "0111",
    "1111", "1211",
}

F4_KNOWN_ROOTS = {
    "1000", "0100", "0010", "0001",
    "1100", "0110", "0011",
    "1110", "0210", "0111",
    "1210", "1111", "0211",
    "2210", "1211", "0221",
    "2211", "1221",
    "2221", "1321",
    "2321", "2421", "2431", "2432",
}


def test_d4_matches_known_table():
    rs = get_system("D4")
    assert {format_root(rs, i) for i in range(rs.nroots)} == D4_KNOWN_ROOTS


def test_f4_matches_known_table():
    rs = get_system("F4")
    assert {format_root(rs, i) for i in range(rs.nroots)} == F4_KNOWN_ROOTS
    height4 = {format_root(rs, i) for i in range(rs.nroots) if rs.heights[i] == 4}
    assert height4 == {"1210", "1111", "0211"}


def test_root_order_is_height_then_lex():
    rs = get_system("F4")
    keys = [(rs.heights[i], rs.coords[i]) for i in range(rs.nroots)]
    assert keys == sorted(keys)


# -- bilinear form ---------------------------------------------------------------


def euclid_model(label: str) -> tuple[int, list[tuple[Fraction, ...]]]:
    """Simple roots in a standard Euclidean coordinate model.

    Returns (scale, vectors): the symmetrized Cartan form with the minimal
    integer symmetrizer equals ``scale`` times the Euclidean dot product of
    the model vectors (scale 2 where the model's short roots have squared
    length 1).
    """
    h = Fraction(1, 2)

    def e(i, dim):
        return tuple(Fraction(1) if k == i else Fraction(0) for k in range(dim))

    def sub(u, v):
        return tuple(a - b for a, b in zip(u, v))

    def add(u, v):
        return tuple(a + b for a, b in zip(u, v))

    def scale(c, u):
        return tuple(c * a for a in u)

    fam, n = label[0], int(label[1:])
    if fam == "A":
        dim = n + 1
        return 1, [sub(e(i, dim), e(i + 1, dim)) for i in range(n)]
    if fam == "B":
        # short root e_n has squared length 1 in this model
        return 2, [sub(e(i, n), e(i + 1, n)) for i in range(n - 1)] + [e(n - 1, n)]
    if fam == "C":
        return 1, [sub(e(i, n), e(i + 1, n)) for i in range(n - 1)] + [scale(2, e(n - 1, n))]
    if fam == "D":
        return 1, [sub(e(i, n), e(i + 1, n)) for i in range(n - 1)] + [
            add(e(n - 2, n), e(n - 1, n))
        ]
    if fam == "F":
        # alpha_1, alpha_2 short (squared length 1 here); alpha_3, alpha_4 long
        alpha1 = scale(h, sub(sub(sub(e(0, 4), e(1, 4)), e(2, 4)), e(3, 4)))
        alpha2 = e(3, 4)
        alpha3 = sub(e(2, 4), e(3, 4))
        alpha4 = sub(e(1, 4), e(2, 4))
        return 2, [alpha1, alpha2, alpha3, alpha4]
    raise ValueError(label)


@pytest.mark.parametrize("label", ["A2", "A3", "B2", "B3", "C3", "D4", "D5", "F4"])
def test_form_matches_euclidean_model(label):
    rs = get_system(label)
    factor, model = euclid_model(label)
    dim = len(model[0])

    def embed(v):
        acc = tuple(Fraction(0) for _ in range(dim))
        for c, m in zip(v, model):
            acc = tuple(a + c * b for a, b in zip(acc, m))
        return acc

    for i in range(rs.nroots):
        u = embed(rs.coords[i])
        for j in range(rs.nroots):
            w = embed(rs.coords[j])
            assert rs.form_value(rs.coords[i], rs.coords[j]) == factor * sum(a * b for a, b in zip(u, w))


def test_a2_inner_products():
    rs = get_system("A2")
    a1, a2 = rs.coords[parse_root(rs, "10")], rs.coords[parse_root(rs, "01")]
    assert rs.form_value(a1, a2) == -1
    assert rs.form_value(a1, a1) == 2 == rs.form_value(a2, a2)


def test_d4_inner_product_exact_value():
    # (1110, 0111) expands to 0 over the D4 form: the two roots are e1-e4
    # and e2+e3 in the Euclidean model.
    rs = get_system("D4")
    u, v = rs.coords[parse_root(rs, "1110")], rs.coords[parse_root(rs, "0111")]
    assert rs.form_value(u, v) == 0


@pytest.mark.parametrize("label", ["A3", "B3", "D4", "F4", "G2"])
def test_form_symmetric_positive_definite(label):
    rs = get_system(label)
    n = rs.rank
    B = [[Fraction(rs.form[i][j]) for j in range(n)] for i in range(n)]
    assert all(B[i][j] == B[j][i] for i in range(n) for j in range(n))
    for k in range(1, n + 1):
        assert _det([row[:k] for row in B[:k]]) > 0
    for i in range(rs.nroots):
        assert rs.form_value(rs.coords[i], rs.coords[i]) > 0


@pytest.mark.parametrize("label", ["A3", "B3", "C3", "D4", "F4", "G2"])
def test_form_is_integral(label):
    # the minimal integer symmetrizer makes every form value an int, not a Fraction
    rs = get_system(label)
    n = rs.rank
    assert all(type(d) is int and d > 0 for d in rs.symmetrizer)
    assert all(
        rs.symmetrizer[i] * rs.cartan[i][j] == rs.symmetrizer[j] * rs.cartan[j][i]
        for i in range(n)
        for j in range(n)
    )
    assert all(type(x) is int for row in rs.form for x in row)
    assert all(
        type(rs.form_value(u, v)) is int for u in rs.coords for v in rs.coords
    )


def _det(m):
    if len(m) == 1:
        return m[0][0]
    total = Fraction(0)
    for j in range(len(m)):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        total += (-1) ** j * m[0][j] * _det(minor)
    return total


# -- reflections ----------------------------------------------------------------


def test_reflection_examples():
    a2 = get_system("A2")
    s, idx = reflect(a2, parse_root(a2, "10"), parse_root(a2, "01"))
    assert (s, format_root(a2, idx)) == (1, "11")
    s, idx = reflect(a2, parse_root(a2, "10"), parse_root(a2, "10"))
    assert (s, format_root(a2, idx)) == (-1, "10")

    f4 = get_system("F4")
    # alpha_2 is short, so s_{a2}(a3) climbs two steps to 0210
    s, idx = reflect(f4, parse_root(f4, "0100"), parse_root(f4, "0010"))
    assert (s, format_root(f4, idx)) == (1, "0210")
    s, idx = reflect(f4, parse_root(f4, "0100"), parse_root(f4, "0100"))
    assert s == -1


@pytest.mark.parametrize("label", ["A3", "B3", "C3", "D4", "F4", "G2"])
def test_simple_reflections_permute_other_positives(label):
    rs = get_system(label)
    for k in range(rs.rank):
        alpha = rs.simple_positions[k]
        images = set()
        for g in range(rs.nroots):
            sign, idx = reflect(rs, alpha, g)
            if g == alpha:
                assert sign == -1 and idx == alpha
            else:
                assert sign == 1
                images.add(idx)
        assert images == set(range(rs.nroots)) - {alpha}


def test_reflect_requires_simple_root():
    rs = get_system("A2")
    with pytest.raises(ValueError):
        reflect(rs, parse_root(rs, "11"), 0)


# -- rank-2 subsystems -------------------------------------------------------------


def _mask(indices) -> int:
    return sum(1 << k for k in indices)


def _bruteforce_span_members(rs, i, j):
    """Independent exact span test via 2x2 solving over Fractions."""
    u, v = rs.coords[i], rs.coords[j]
    out = set()
    for k, w in enumerate(rs.coords):
        for a, b in combinations(range(rs.rank), 2):
            det = Fraction(u[a] * v[b] - u[b] * v[a])
            if det:
                x = Fraction(w[a] * v[b] - w[b] * v[a], det)
                y = Fraction(u[a] * w[b] - u[b] * w[a], det)
                if all(x * u[t] + y * v[t] == w[t] for t in range(rs.rank)):
                    out.add(k)
                break
    return out


def test_rank2_subsystem_a2_is_everything():
    rs = get_system("A2")
    assert rs.pair_span_mask(0, 1) == 0b111


def test_rank2_subsystem_d4_pair():
    rs = get_system("D4")
    i, j = parse_root(rs, "1110"), parse_root(rs, "0111")
    got = rs.pair_span_mask(i, j)
    assert got == _mask(_bruteforce_span_members(rs, i, j))
    assert {format_root(rs, k) for k in range(rs.nroots) if got >> k & 1} == {"1110", "0111"}


def test_rank2_subsystem_f4_contains_eta_sum():
    rs = get_system("F4")
    i, j = parse_root(rs, "1210"), parse_root(rs, "1111")
    got = rs.pair_span_mask(i, j)
    assert got >> parse_root(rs, "2321") & 1
    assert got == _mask(_bruteforce_span_members(rs, i, j))


@pytest.mark.parametrize("label", ["A3", "B3", "D4", "G2", "F4", "E6"])
def test_rank2_subsystem_agrees_with_bruteforce(label):
    rs = get_system(label)
    for i in range(rs.nroots):
        for j in range(i + 1, rs.nroots):
            assert rs.pair_span_mask(i, j) == _mask(_bruteforce_span_members(rs, i, j))


def test_rank2_subsystem_rejects_equal_roots():
    rs = get_system("A2")
    with pytest.raises(ValueError):
        rs.pair_span_mask(1, 1)


class MemoOwner:
    def __init__(self):
        self._memos = {}
        self.calls = []

    @_memoized
    def keyed(self, key, rest):
        self.calls.append((key, rest))
        return None if key is None else (key, rest)

    @_memoized
    def whole(self):
        self.calls.append("whole")
        return len(self.calls)


def test_memoized_keys_only_on_the_first_argument():
    owner, other = MemoOwner(), MemoOwner()
    assert owner.keyed(1, "a") == owner.keyed(1, "b") == (1, "a")
    assert owner.keyed(2, "b") == (2, "b")
    assert owner.keyed(None, "a") is None and owner.keyed(None, "b") is None
    assert owner.calls == [(1, "a"), (2, "b"), (None, "a")]
    assert other.keyed(1, "c") == (1, "c")  # each owner has its own memo
    assert owner.whole() == owner.whole() == 4
    assert owner.keyed.__name__ == "keyed"


def test_a_system_pickles_with_its_memos():
    rs = build_root_system("D4")
    records = [classify.classify_ideal(ideal).to_dict(rs) for ideal in enumerate_ideals(rs)]
    copy = pickle.loads(pickle.dumps(rs))
    assert copy._memos.keys() == rs._memos.keys() and len(copy._memos) > 3
    assert [classify.classify_ideal(i).to_dict(copy) for i in enumerate_ideals(copy)] == records


@pytest.mark.parametrize("label", RANK4_TYPES)
def test_subsystem_lacing_never_exceeds_parent(label):
    rs = get_system(label)
    for i in range(rs.nroots):
        for j in range(i + 1, rs.nroots):
            span = rs.pair_span_mask(i, j)
            # squared-length ratio of the rank-2 subsystem's roots: 1, 2 or 3
            lengths = {
                rs.form_value(rs.coords[k], rs.coords[k])
                for k in range(rs.nroots)
                if span >> k & 1
            }
            ratio = max(lengths) / min(lengths)
            assert ratio in (1, 2, 3) and ratio <= rs.lacing


# -- the root poset -----------------------------------------------------------------


def test_poset_a2_covers():
    rs = get_system("A2")
    named = {(format_root(rs, a), format_root(rs, b)) for a, b in rs.cover_pairs}
    assert named == {("10", "11"), ("01", "11")}


def test_poset_d4_1111_covered_only_by_1211():
    rs = get_system("D4")
    i = parse_root(rs, "1111")
    uppers = [b for a, b in rs.cover_pairs if a == i]
    assert [format_root(rs, b) for b in uppers] == ["1211"]


def test_poset_f4_height3_roots_covered_twice():
    rs = get_system("F4")
    for name in ["1110", "0210", "0111"]:
        i = parse_root(rs, name)
        assert sum(1 for a, _ in rs.cover_pairs if a == i) == 2


@pytest.mark.parametrize("label", ALL_TYPES)
def test_cover_height_consistency(label):
    # every cover raises height by one and differs by a simple root
    rs = get_system(label)
    for a, b in rs.cover_pairs:
        assert rs.heights[b] == rs.heights[a] + 1
        diff = tuple(x - y for x, y in zip(rs.coords[b], rs.coords[a]))
        assert sum(diff) == 1 and all(x in (0, 1) for x in diff)
    # the order is the reflexive-transitive closure of the covers
    above = [set() for _ in range(rs.nroots)]
    for a, b in rs.cover_pairs:
        above[a].add(b)
    reach = [None] * rs.nroots
    for i in sorted(range(rs.nroots), key=lambda x: -rs.heights[x]):
        acc = {i}
        for b in above[i]:
            acc |= reach[b]
        reach[i] = acc
    for i in range(rs.nroots):
        assert reach[i] == {j for j in range(rs.nroots) if rs.leq(i, j)}


def componentwise_order(coords) -> tuple[tuple[int, ...], tuple[int, ...], tuple]:
    """Down masks, up masks and covers, by comparing every pair of roots.

    The O(n^2) reference for the cover-derived order: j is below i iff
    coords[j] <= coords[i] in every coordinate, and (j, i) is a cover iff
    moreover the heights differ by one.
    """
    m = len(coords)
    down, up, covers = [0] * m, [0] * m, []
    for i, vi in enumerate(coords):
        for j, vj in enumerate(coords):
            if all(a <= b for a, b in zip(vj, vi)):
                down[i] |= 1 << j
                up[j] |= 1 << i
                if sum(vi) == sum(vj) + 1:
                    covers.append((j, i))
    return tuple(down), tuple(up), tuple(sorted(covers))


@pytest.mark.parametrize("label", ALL_TYPES)
def test_order_masks_match_componentwise_order(label):
    rs = get_system(label)
    assert (rs.down_masks, rs.up_masks, rs.cover_pairs) == componentwise_order(rs.coords)


def bonded_pair_views(rs) -> list:
    """Every view that repeated bonded-pair restriction reaches from ``rs``, one per delta."""
    views, tables = {}, [rs]
    while tables:
        table = tables.pop()
        for block in table.bonds:
            view = restrict_mask(table, block)
            if view.simple_positions not in views:
                views[view.simple_positions] = view
                tables.append(view)
    return list(views.values())


@pytest.mark.parametrize("label", ["F4", "D5", "B4", "D6"])
def test_subsystem_view_order_matches_componentwise_order(label, monkeypatch):
    # Every view orders its roots by their coordinates over its own simple
    # roots exactly as the base orders them.  On D6 these are the views the
    # root-ideal search builds; elsewhere, every view restriction reaches.
    rs = build_root_system(label)  # fresh: no verdict left by other tests
    if label == "D6":
        views = []

        def recorded(table, block):
            views.append(restrict_mask(table, block))
            return views[-1]

        monkeypatch.setattr(classify, "restrict_mask", recorded)
        for ideal in enumerate_ideals(rs):
            is_supersolvable_rootideal(ideal)
        # a view spanned by a non-simple root: a bonded pair was merged
        assert any(rs.heights[p] > 1 for v in views for p in v.simple_positions)
    else:
        views = bonded_pair_views(rs)
    assert views
    for view in views:
        for x, cx in view.coords.items():
            for y, cy in view.coords.items():
                below = all(p <= q for p, q in zip(cx, cy))
                assert below == rs.leq(x, y), (view, x, y)


@pytest.mark.parametrize("label", ALL_TYPES)
def test_support_connectivity_both_directions(label):
    rs = get_system(label)
    adjacency = {i: set(rs.dynkin_neighbours(i)) for i in range(rs.rank)}

    def connected(nodes: frozenset[int]) -> bool:
        if not nodes:
            return False
        seen = {next(iter(nodes))}
        frontier = list(seen)
        while frontier:
            x = frontier.pop()
            for y in adjacency[x] & nodes:
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
        return seen == set(nodes)

    # every root's support induces a connected subgraph
    for v in rs.coords:
        assert connected(frozenset(i for i, x in enumerate(v) if x))
    # and every connected subgraph's node-sum is a positive root
    for r in range(1, rs.rank + 1):
        for nodes in combinations(range(rs.rank), r):
            if connected(frozenset(nodes)):
                v = tuple(1 if i in nodes else 0 for i in range(rs.rank))
                assert v in rs.index_of


# -- text format ----------------------------------------------------------------------


def test_parse_root_both_forms():
    rs = get_system("D4")
    assert parse_root(rs, "1211") == parse_root(rs, "1,2,1,1")
    with pytest.raises(ValueError):
        parse_root(rs, "9999")
    with pytest.raises(ValueError):
        parse_root(rs, "121")
    with pytest.raises(ValueError):
        parse_root(rs, "1,2,1")


def test_format_root_roundtrip():
    rs = get_system("E8")
    for i in range(rs.nroots):
        assert parse_root(rs, format_root(rs, i)) == i
