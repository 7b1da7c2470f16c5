"""Closure, flats, 2-closure, line-closedness and the characteristic polynomial.

Oracle helpers over an arrangement, used by other test modules too: the
rank, closure and 2-closure of a ground subset (``rank_of``, ``closure``,
``two_closure``), which the package itself never needs.

Independent oracles: a Fraction-based Gaussian rank function written here,
the Whitney subset sum for the characteristic polynomial, a level search
over closures for the system flat lattice and another for the flats of a
subarrangement, the W-orbit search with reflections applied as
permutations bit by bit, the lattice search that the generic
supersolvability search replaced (coatoms read off the system flat
lattice) and modularity by the rank equality against every flat, the
line-closedness walk without its skip of
roots known to regrow a child (its witnesses must not change), a fresh
system's whole walk for the resumed walk (its witness and the level it
passed last), Bell
numbers, the classical exponents of the Weyl groups, the ideal exponents
(the dual partition of an ideal's height distribution), and witness
identities checked with direct vector arithmetic.
"""

from __future__ import annotations

import gc
import random
import weakref
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import pytest
from hypothesis import assume, given, settings, strategies as st

from rootarr import Arrangement, Ideal, build_root_system, cli, enumerate_ideals, matroid, parse_root
from rootarr import classify_ideal, is_supersolvable_generic
from rootarr.classify import _modular_coatoms
from rootarr.matroid import _grow_two_closure, _join, _system_flats
from rootarr.rootsystem import _bits, _echelon, _mask_of, _memo_table, _pair_spans, _reduce
from rootarr.rootsystem import _span_mask, reflect
from rootarr.suites import poly_from_block_sizes
from conftest import f4_height4_mask, get_system


def frac_rank(vectors) -> int:
    """Gaussian elimination over Fractions, independent of the library."""
    rows = [[Fraction(x) for x in v] for v in vectors]
    rank = 0
    cols = len(rows[0]) if rows else 0
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c] / rows[r][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
        rank += 1
    return rank


def ground_subset(arr: Arrangement, subset) -> tuple[int, ...]:
    """The subset sorted, or ``ValueError`` if a root lies outside the ground set."""
    s = tuple(sorted(set(subset)))
    for i in s:
        if not arr.ground_mask >> i & 1:
            raise ValueError(f"root index {i} is not in the ground set")
    return s


def rank_of(arr: Arrangement, subset) -> int:
    """Dimension of the rational span of a ground subset, by elimination."""
    return len(_echelon(arr.system.coords[i] for i in ground_subset(arr, subset)))


def closure(arr: Arrangement, subset) -> tuple[int, int]:
    """The flat spanned by a ground subset, as (mask, rank), by elimination."""
    coords = arr.system.coords
    rows = _echelon(coords[i] for i in ground_subset(arr, subset))
    spanned = (i for i in arr.ground if not any(_reduce(rows, coords[i])))
    return _mask_of(spanned), len(rows)


def two_closure(arr: Arrangement, subset) -> frozenset[int]:
    """The least 2-closed superset of a ground subset, as root indices."""
    return frozenset(_bits(arr.two_closure_mask(_mask_of(ground_subset(arr, subset)))))


def whitney_chi(arr: Arrangement) -> tuple[int, ...]:
    """chi via the subset sum: sum over S of (-1)^|S| t^(rank A - rank S)."""
    ground = arr.ground
    vecs = {i: arr.system.coords[i] for i in ground}
    n = arr.rank()
    coeffs = [0] * (n + 1)
    for size in range(len(ground) + 1):
        for sub in combinations(ground, size):
            r = frac_rank([vecs[i] for i in sub])
            coeffs[n - r] += (-1) ** size
    return tuple(coeffs)


def level_search_flats(system) -> tuple[tuple[int, int], ...]:
    """All flats (mask, rank) of the full positive system, by elimination.

    Level search: the rank-(k+1) flats are the closures of a rank-k flat
    plus one more root.  Ordered by (rank, mask).
    """
    n = system.nroots
    out: list[tuple[int, int]] = [(0, 0)]
    level = {}
    for i in range(n):
        out.append((1 << i, 1))
        level[1 << i] = _echelon([system.coords[i]])
    k = 1
    while level:
        nxt = {}
        for fmask, rows in level.items():
            for v in range(n):
                if fmask >> v & 1:
                    continue
                red = _reduce(rows, system.coords[v])
                piv = next(t for t, x in enumerate(red) if x)
                if red[piv] < 0:
                    red = [-x for x in red]
                rows2 = rows + [(piv, tuple(red))]
                members = _span_mask(rows2, system.coords)
                if members not in nxt:
                    nxt[members] = rows2
        out.extend((m, k + 1) for m in sorted(nxt))
        level = nxt
        k += 1
    return tuple(out)


def orbit_search_flats(system) -> tuple[tuple[int, int], ...]:
    """All flats (mask, rank) of the full positive system, as W-orbits.

    The same search as ``_system_flats``, but each simple reflection is a
    permutation of root indices applied bit by bit, with no bit images and
    no copying of fixed bits.  Ordered by (rank, mask).
    """
    n = system.nroots
    gens = [[reflect(system, a, g)[1] for g in range(n)] for a in system.simple_positions]
    support = [_mask_of(t for t, x in enumerate(v) if x) for v in system.coords]
    seen: dict[int, int] = {}
    for j in range(1 << system.rank):
        start = _mask_of(g for g in range(n) if support[g] & ~j == 0)
        if start in seen:
            continue
        seen[start] = j.bit_count()
        orbit = [start]
        for mask in orbit:
            for perm in gens:
                image = _mask_of(perm[g] for g in _bits(mask))
                if image not in seen:
                    seen[image] = j.bit_count()
                    orbit.append(image)
    return tuple(sorted(seen.items(), key=lambda t: (t[1], t[0])))


def walk_without_skip(arr: Arrangement) -> tuple[bool, frozenset[int] | None]:
    """Line-closedness by the walk over 2-closed states, growing every root.

    ``Arrangement.is_line_closed`` without its skip of roots known to
    regrow a child: from each state it grows cl2(state + v) for every
    ground root v outside it, in ground order, and keeps the first new
    state that is not a flat as the witness.
    """
    if arr.rank() < 3:
        return True, None
    g, gm, coords = arr.ground, arr.ground_mask, arr.system.coords
    pair = {i: {j: arr.system.pair_span_mask(i, j) & gm for j in g if j != i} for i in g}

    def grow(state: int, v: int) -> int:
        out, new = state | 1 << v, [v]
        for x in new:
            acc = 0
            for y in list(_bits(state)) + new:
                if y != x:
                    acc |= pair[x][y]
            add = acc & ~out
            out |= add
            new.extend(_bits(add))
        return out

    level = {}
    for a, i in enumerate(g):
        for j in g[a + 1 :]:
            level.setdefault(pair[i][j], _echelon((coords[i], coords[j])))
    for _ in range(3, arr.rank() + 1):
        nxt = {}
        for state in sorted(level):
            rows = level[state]
            for v in g:
                if state >> v & 1:
                    continue
                grown = grow(state, v)
                if grown in nxt:
                    continue
                red = _reduce(rows, coords[v])
                piv = next(t for t, x in enumerate(red) if x)
                nxt[grown] = rows + [(piv, tuple(red))]
                outside = [coords[q] for q in _bits(gm & ~grown)]
                if _span_mask(nxt[grown], outside):
                    return False, frozenset(_bits(grown))
        level = nxt
    return True, None


def closure_level_search(arr: Arrangement) -> tuple[tuple[int, int], ...]:
    """Every flat (mask, rank) of an arrangement: closures of a flat plus one root.

    Starts from the closure of the empty set; ordered by (rank, mask).
    The flats covering F partition the ground roots outside F, so a root
    already in a cover of F is not tried again.  Each flat keeps the basis
    it was reached by, which spans it.
    """
    found = [closure(arr, [])]
    level = {found[0]: ()}
    while level:
        covers = {}
        for (done, _), basis in level.items():
            for v in arr.ground:
                if not done >> v & 1:
                    cover = closure(arr, basis + (v,))
                    done |= cover[0]
                    covers.setdefault(cover, basis + (v,))
        level = covers
        found += covers
    return tuple(sorted(found, key=lambda f: (f[1], f[0])))


def star_ideal(rs) -> Ideal:
    return Ideal.from_roots(rs, [i for i in range(rs.nroots) if rs.heights[i] <= 3])


# -- closure ---------------------------------------------------------------------


def test_closure_a2_pair_spans_everything():
    rs = get_system("A2")
    arr = Arrangement(rs, range(3))
    flat, rank = closure(arr, [parse_root(rs, "10"), parse_root(rs, "11")])
    assert rank == 2 and set(_bits(flat)) == {0, 1, 2}


def test_closure_d4_star_ideal_pair():
    rs = get_system("D4")
    arr = Arrangement(rs, star_ideal(rs).members())
    flat, rank = closure(arr, [parse_root(rs, "0100"), parse_root(rs, "0111")])
    # no further root of the 10-element ground lies in that plane
    assert {parse_root(rs, "0100"), parse_root(rs, "0111")} == set(_bits(flat))
    assert rank == 2


def test_closure_rejects_outside_ground():
    rs = get_system("A2")
    arr = Arrangement(rs, [0, 1])
    with pytest.raises(ValueError):
        closure(arr, [2])


@pytest.mark.parametrize("label", ["A3", "B3", "D4", "G2", "F4"])
def test_closure_is_a_closure_operator(label):
    rs = get_system(label)
    arr = Arrangement(rs, range(rs.nroots))
    rng = random.Random(20260811)
    for _ in range(25):
        s = frozenset(rng.sample(range(rs.nroots), rng.randint(0, min(6, rs.nroots))))
        t = s | frozenset(rng.sample(range(rs.nroots), rng.randint(0, 3)))
        (cs, cs_rank), (ct, _) = closure(arr, s), closure(arr, t)
        smask = sum(1 << i for i in s)
        assert smask & cs == smask  # extensive
        assert cs & ct == cs  # monotone
        again, again_rank = closure(arr, _bits(cs))
        assert again == cs and again_rank == cs_rank  # idempotent
        assert cs_rank == frac_rank([rs.coords[i] for i in s])


def test_rank_examples():
    a2 = get_system("A2")
    arr = Arrangement(a2, range(3))
    assert rank_of(arr, []) == 0
    assert arr.rank() == 2
    f4 = get_system("F4")
    ihat = Ideal(f4, f4_height4_mask(f4))
    assert Arrangement(f4, ihat.members()).rank() == 4


@pytest.mark.parametrize("index", [12, 40, -1])
def test_arrangement_rejects_indices_outside_the_system(index):
    rs = get_system("D4")  # 12 roots
    with pytest.raises(ValueError, match=f"root index {index} "):
        Arrangement(rs, [0, 3, index])


def test_arrangement_memos_die_with_it():
    rs = get_system("D4")
    arr = Arrangement(rs, star_ideal(rs).members())
    assert arr.flats() and arr.rank() == 4 and not arr.is_line_closed()[0]
    assert arr.two_closure_mask(1) == 1 and arr.characteristic_polynomial()
    ref = weakref.ref(arr)
    del arr
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("label", ["A3", "B3", "D4"])
def test_deletion_and_restriction(label):
    rs = get_system(label)
    full = Arrangement(rs, range(rs.nroots))
    rng = random.Random(7)
    for _ in range(10):
        keep = sorted(rng.sample(range(rs.nroots), rs.nroots - 1))
        sub = Arrangement(rs, keep)
        assert sub.rank() <= full.rank()
        s = rng.sample(keep, min(3, len(keep)))
        assert closure(sub, s)[0] == closure(full, s)[0] & sub.ground_mask


# -- two-flats and independent sets ------------------------------------------------


def two_flats(arr: Arrangement) -> list[int]:
    """The masks of the rank-2 entries of ``arr.flats()``, checked against the lines."""
    masks = [m for m, r in arr.flats() if r == 2]
    assert arr._long_lines() == tuple(m for m in masks if m.bit_count() > 2)
    return masks


def test_two_flats_a2():
    rs = get_system("A2")
    flats = two_flats(Arrangement(rs, range(3)))
    assert len(flats) == 1 and flats[0] == 0b111


def test_two_flats_d4_full():
    rs = get_system("D4")
    flats = two_flats(Arrangement(rs, range(rs.nroots)))
    assert flats
    for f in flats:
        assert frac_rank([rs.coords[i] for i in _bits(f)]) == 2 and f.bit_count() >= 2


@pytest.mark.parametrize("label", ["A3", "B3", "C3", "D4", "G2", "F4", "B4", "A5", "D5"])
def test_full_arrangement_flats_are_the_system_flats(label):
    rs = get_system(label)
    assert Arrangement(rs, range(rs.nroots)).flats() == matroid._system_flats(rs)


def test_two_flat_containment_f4_height4():
    # inside the height<=4 ideal the pair (0210, 0111) spans a 2-flat whose
    # trace stays within the ideal
    rs = get_system("F4")
    ihat = Ideal(rs, f4_height4_mask(rs))
    arr = Arrangement(rs, ihat.members())
    flat, rank = closure(arr, [parse_root(rs, "0210"), parse_root(rs, "0111")])
    assert rank == 2
    assert flat & ~ihat.mask == 0


def independent_sets(arr: Arrangement, max_size: int) -> list[tuple[int, ...]]:
    """Ground subsets of sizes 1..max_size whose rank equals their size."""
    return [
        s
        for k in range(1, max_size + 1)
        for s in combinations(arr.ground, k)
        if rank_of(arr, s) == k
    ]


def test_independent_sets_counts():
    a2 = get_system("A2")
    sets = independent_sets(Arrangement(a2, range(3)), 2)
    assert sum(1 for s in sets if len(s) == 1) == 3
    assert sum(1 for s in sets if len(s) == 2) == 3
    d4 = get_system("D4")
    arr = Arrangement(d4, range(12))
    pairs = independent_sets(arr, 2)
    assert len(pairs) == 12 + 66  # every pair of distinct roots is independent


def test_independent_triple_sample():
    rs = get_system("D4")
    arr = Arrangement(rs, range(12))
    triple = [parse_root(rs, x) for x in ("1110", "1101", "0111")]
    assert rank_of(arr, triple) == 3


@pytest.mark.parametrize("label", ["A3", "B3"])
def test_independent_sets_have_full_rank(label):
    rs = get_system(label)
    arr = Arrangement(rs, range(rs.nroots))
    sets = independent_sets(arr, 3)
    assert all(frac_rank([rs.coords[i] for i in s]) == len(s) for s in sets)
    assert len(sets) == sum(
        1
        for k in (1, 2, 3)
        for s in combinations(range(rs.nroots), k)
        if frac_rank([rs.coords[i] for i in s]) == k
    )


# -- 2-closure ------------------------------------------------------------------------


def test_two_closure_examples():
    a2 = get_system("A2")
    arr = Arrangement(a2, range(3))
    assert two_closure(arr, [0]) == frozenset({0})
    assert two_closure(arr, [parse_root(a2, "10"), parse_root(a2, "01")]) == frozenset(range(3))

    d4 = get_system("D4")
    sarr = Arrangement(d4, star_ideal(d4).members())
    witness = frozenset(parse_root(d4, x) for x in ("0100", "0111", "1101", "1110"))
    assert two_closure(sarr, witness) == witness  # already 2-closed


@pytest.mark.parametrize("label", ["A3", "B3", "D4", "F4"])
def test_two_closure_below_closure(label):
    rs = get_system(label)
    arr = Arrangement(rs, range(rs.nroots))
    rng = random.Random(3)
    for _ in range(20):
        s = rng.sample(range(rs.nroots), rng.randint(1, 4))
        tc = two_closure(arr, s)
        cl = set(_bits(closure(arr, s)[0]))
        assert tc <= cl


# -- line-closedness ---------------------------------------------------------------------


def test_line_closed_a2():
    rs = get_system("A2")
    ok, witness = Arrangement(rs, range(3)).is_line_closed()
    assert ok and witness is None


def test_line_closed_fails_on_d4_star_ideal():
    rs = get_system("D4")
    arr = Arrangement(rs, star_ideal(rs).members())
    ok, witness = arr.is_line_closed()
    assert not ok and witness is not None
    wmask = sum(1 << i for i in witness)
    assert arr.two_closure_mask(wmask) == wmask
    assert not arr.is_flat_mask(wmask)


def test_d4_star_witness_closure_reconstructs_first_simple():
    # alpha_1 = (gamma_3 + gamma_4 - gamma_1 - alpha_2) / 2 lies in the
    # closure of the four-element 2-closed witness, exact arithmetic
    rs = get_system("D4")
    g1, g3, g4, a2 = (parse_root(rs, x) for x in ("0111", "1101", "1110", "0100"))
    alpha1 = parse_root(rs, "1000")
    combo = tuple(
        Fraction(rs.coords[g3][t] + rs.coords[g4][t] - rs.coords[g1][t] - rs.coords[a2][t], 2)
        for t in range(4)
    )
    assert combo == tuple(Fraction(x) for x in rs.coords[alpha1])
    arr = Arrangement(rs, star_ideal(rs).members())
    flat, _ = closure(arr, [a2, g1, g3, g4])
    assert alpha1 in _bits(flat)
    assert frozenset((a2, g1, g3, g4)) == two_closure(arr, [a2, g1, g3, g4])


def test_f4_witness_set_is_2_closed_not_flat():
    rs = get_system("F4")
    ihat = Ideal(rs, f4_height4_mask(rs))
    arr = Arrangement(rs, ihat.members())
    S = [parse_root(rs, x) for x in ("1210", "1111", "0211", "0010")]
    alpha2 = parse_root(rs, "0100")
    combo = tuple(
        Fraction(
            rs.coords[S[0]][t] - rs.coords[S[1]][t] + rs.coords[S[2]][t] - rs.coords[S[3]][t], 3
        )
        for t in range(4)
    )
    assert combo == tuple(Fraction(x) for x in rs.coords[alpha2])
    assert two_closure(arr, S) == frozenset(S)
    flat, _ = closure(arr, S)
    assert alpha2 in _bits(flat)


@pytest.mark.parametrize("label", ["A3", "B3", "D4", "G2"])
def test_line_closed_decision_matches_definition(label):
    rs = get_system(label)
    for ideal in enumerate_ideals(rs):
        arr = Arrangement(rs, ideal.members())
        fast, _ = arr.is_line_closed()
        slow, _ = arr.line_closed_by_definition()
        assert fast == slow


@st.composite
def root_subsets(draw):
    """A type among D4, F4, B4 and A4 and 3 to 11 of its roots, rarely an ideal."""
    label = draw(st.sampled_from(["D4", "F4", "B4", "A4"]))
    n = get_system(label).nroots
    size = draw(st.integers(3, min(11, n)))
    return label, sorted(draw(st.permutations(range(n)))[:size])


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(root_subsets())
def test_line_closed_walk_matches_definition_on_random_subsets(case):
    label, ground = case
    rs = get_system(label)
    arr = Arrangement(rs, ground)
    ok, witness = arr.is_line_closed()
    assert ok == arr.line_closed_by_definition()[0]
    assert (witness is None) == ok
    assert walk_without_skip(arr) == (ok, witness)
    if witness is not None:
        wmask = sum(1 << i for i in witness)
        assert wmask & ~arr.ground_mask == 0
        assert arr.two_closure_mask(wmask) == wmask
        assert not arr.is_flat_mask(wmask)
    # a fresh system and arrangement, with empty memos, give the same witness
    assert Arrangement(build_root_system(label), ground).is_line_closed() == (ok, witness)


def test_rooted_walk_matches_definition_on_random_subsets():
    # the matroid docstring's resume lemma at k = rank(S - m), on sets
    # that are rarely ideals: when S - m is line-closed, for m the highest
    # root of S, the walk rooted at m finds only flats iff S is line-closed
    verdicts = []

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(root_subsets())
    def check(case):
        label, ground = case
        rs = get_system(label)
        assume(Arrangement(rs, ground[:-1]).line_closed_by_definition()[0])
        arr = Arrangement(rs, ground)
        ok = arr.line_closed_by_definition()[0]
        assert (arr._climb(arr._seed(1 << ground[-1]), 2, arr.rank())[0] is None) == ok
        verdicts.append(ok)

    check()
    assert True in verdicts and False in verdicts


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(root_subsets(), st.data())
def test_rank_closure_and_two_closure_match_brute_force(case, data):
    label, ground = case
    rs = get_system(label)
    arr = Arrangement(rs, ground)
    keep = data.draw(st.lists(st.booleans(), min_size=len(ground), max_size=len(ground)))
    subset = [g for g, k in zip(ground, keep) if k]
    vecs = [rs.coords[i] for i in subset]
    rank = frac_rank(vecs)
    assert rank_of(arr, subset) == rank
    spanned = {z for z in ground if frac_rank(vecs + [rs.coords[z]]) == rank}
    assert closure(arr, subset) == (sum(1 << z for z in spanned), rank)
    # naive 2-closure: add any ground z with rank{x, y, z} = 2 for x, y in the set
    on_line = {
        (x, y): {z for z in ground if frac_rank([rs.coords[t] for t in (x, y, z)]) == 2}
        for x, y in combinations(ground, 2)
    }
    closed = set(subset)
    while True:
        grown = closed.union(*(on_line[p] for p in combinations(sorted(closed), 2)))
        if grown == closed:
            break
        closed = grown
    assert arr.two_closure_mask(sum(1 << i for i in subset)) == sum(1 << z for z in closed)


def pair_table(arr: Arrangement) -> list[list[int]]:
    """The walk's table: ``pair[x][y]`` is the system span of ground roots x and y."""
    n = arr.system.nroots
    pair = [[0] * n for _ in range(n)]
    for x, y in combinations(arr.ground, 2):
        pair[x][y] = pair[y][x] = arr.system.pair_span_mask(x, y)
    return pair


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(root_subsets())
def test_grow_two_closure_same_roots_regrow_the_child(case):
    # every root in the `same` mask of cl2(S + v) has cl2(S + w) = cl2(S + v),
    # for every flat S of rank at least 2 (the walk's states) and v outside it
    label, ground = case
    arr = Arrangement(get_system(label), ground)
    pair = pair_table(arr)
    for state, rank in arr.flats():
        if rank < 2:
            continue
        members = list(_bits(state))
        for v in arr.ground:
            if state >> v & 1:
                continue
            grown, same = _grow_two_closure(pair, arr.ground_mask, state, members, v)
            assert grown == arr.two_closure_mask(state | 1 << v)
            assert same >> v & 1 and same & ~grown == 0 and same & state == 0
            for w in _bits(same):
                assert _grow_two_closure(pair, arr.ground_mask, state, members, w)[0] == grown


@pytest.mark.parametrize("label", ["D4", "F4", "D5", "A5", "B4"])
def test_walk_skipping_known_children_keeps_every_witness(label):
    rs = get_system(label)
    for ideal in enumerate_ideals(rs):
        arr = Arrangement(rs, ideal.members())
        assert arr.is_line_closed() == walk_without_skip(arr)


# -- the walk's join memo ---------------------------------------------------------------------


@pytest.mark.parametrize("label", ["D4", "F4", "D5", "B4"])
def test_join_memo_never_changes_a_walk(label):
    # the same verdicts and witnesses whatever the memo holds: one shared
    # system walked in enumeration order, another in reverse, and a fresh
    # system per ideal
    shared, reverse = build_root_system(label), build_root_system(label)
    grounds = [ideal.members() for ideal in enumerate_ideals(shared)]
    forward = [Arrangement(shared, g).is_line_closed() for g in grounds]
    backward = [Arrangement(reverse, g).is_line_closed() for g in reversed(grounds)]
    fresh = [Arrangement(build_root_system(label), g).is_line_closed() for g in grounds]
    assert forward == backward[::-1] == fresh
    assert forward == [walk_without_skip(Arrangement(shared, g)) for g in grounds]
    assert _memo_table(shared, _join) and _memo_table(reverse, _join)


def whole_walk(label: str, ground) -> tuple[frozenset[int] | None, int, set[int]]:
    """A fresh system's whole walk: its witness, and the rank and states of its last passed level."""
    arr = Arrangement(build_root_system(label), ground)
    witness, k, level = arr._climb(arr._seed(arr.ground_mask), 2, arr.rank())
    return witness, k, set(level)


def kept_level(rs, ground: int) -> tuple[int, set[int]] | None:
    """The rank and states of the level kept for ``ground`` in the table of ``rs``, if any."""
    kept = _memo_table(rs, matroid._keep_passed_level).get(ground.bit_count(), {}).get(ground)
    return kept and (kept[0], set(kept[1]))


def record_resumes(monkeypatch) -> list[tuple[int, int, set[int], bool]]:
    """Record each resume attempt as (ground mask, k, the states resumed from, whether it resumed)."""
    resumes = []
    resume = Arrangement._resume

    def recorded(arr, root, k, below):
        climbed = resume(arr, root, k, below)
        resumes.append((arr.ground_mask, k, set(below), climbed is not None))
        return climbed

    monkeypatch.setattr(Arrangement, "_resume", recorded)
    return resumes


@st.composite
def root_chains(draw):
    """A type among D4, F4, B4, A5 and D5 and 4 to 14 of its roots, sorted."""
    label = draw(st.sampled_from(["D4", "F4", "B4", "A5", "D5"]))
    n = get_system(label).nroots
    size = draw(st.integers(4, min(14, n)))
    return label, sorted(draw(st.permutations(range(n)))[:size])


def test_resumed_walk_matches_a_fresh_whole_walk_on_random_subsets(monkeypatch):
    # the matroid docstring's resume lemma, on sets that are rarely ideals:
    # the prefixes of the ground are decided in index order on one system,
    # so each prefix's ground minus its highest root is decided first.
    # Verdict, witness and the kept level are a fresh whole walk's, on
    # line-closed prefixes too.
    resumes = record_resumes(monkeypatch)
    verdicts = []

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(root_chains())
    def check(case):
        label, ground = case
        rs = build_root_system(label)
        for end in range(1, len(ground) + 1):
            arr = Arrangement(rs, ground[:end])
            ok, witness = arr.is_line_closed()
            fresh = whole_walk(label, ground[:end])
            assert (ok, witness) == (fresh[0] is None, fresh[0])
            if arr.rank() > 2:
                assert kept_level(rs, arr.ground_mask) == fresh[1:]
            verdicts.append(ok)

    check()
    assert True in verdicts and False in verdicts
    assert any(resumed for *_, resumed in resumes)


def warm_starts(label: str, monkeypatch):
    """Each ideal's verdict both ways, its rank, and the resumes taken smallest first.

    Largest first, an ideal's subideal J without its highest root is never
    decided before it, so no walk resumes; smallest first, J is decided
    first and the walk tries to resume from J's kept level whenever J has
    rank 3 or more.  Both orders give the same verdicts and witnesses.
    """
    resumes = record_resumes(monkeypatch)
    masks = [ideal.mask for ideal in enumerate_ideals(get_system(label))]
    small, large = build_root_system(label), build_root_system(label)
    down = {m: Arrangement(large, _bits(m)).is_line_closed() for m in reversed(masks)}
    assert resumes == []
    rank = {m: Arrangement(small, _bits(m)).rank() for m in masks}
    up = {}
    for m in masks:
        up[m] = Arrangement(small, _bits(m)).is_line_closed()
        assert kept_level(small, m) == (whole_walk(label, _bits(m))[1:] if rank[m] > 2 else None)
    assert up == down
    below = {m: m ^ 1 << m.bit_length() - 1 for m in masks if m}
    assert [m for m, *_ in resumes] == [m for m in below if rank[below[m]] > 2]
    return masks, up, rank, below, resumes


# resume attempts and resumes of a smallest-first pass, by type
WARM_STARTS = {
    "D4": (32, 31), "F4": (86, 85), "B4": (51, 51), "C4": (51, 51),
    "G2": (0, 0), "A5": (102, 102), "D5": (152, 149),
}


@pytest.mark.parametrize(
    "label, rooted",
    [("D4", 34), ("F4", 69), ("B4", 55), ("C4", 55), ("G2", 0), ("A5", 112), ("D5", 140)],
)
def test_rooted_walk_changes_no_verdict_or_witness(label, rooted, monkeypatch):
    # the rooted walk is the resume from a line-closed J's kept level, J
    # alone at rank J: of the ideals of rank 3 or more whose J is
    # line-closed (34 of D4's 50), those whose J has rank 3 or more
    # resume from it and the others climb from the lines.  Every kept
    # level, line-closed grounds included, is a fresh whole walk's last
    # passed level, and grounds of rank 2 or less keep none.
    masks, up, rank, below, resumes = warm_starts(label, monkeypatch)
    taken = [m for m in below if rank[m] > 2 and up[below[m]][0]]
    assert len(taken) == rooted
    from_top = [(m, k, level) for m, k, level, _ in resumes if up[below[m]][0]]
    assert from_top == [(m, rank[below[m]], {below[m]}) for m in taken if rank[below[m]] > 2]
    assert (len(resumes), sum(ok for *_, ok in resumes)) == WARM_STARTS[label]


@pytest.mark.parametrize("label, resumed", [("D4", 2), ("F4", 21), ("D5", 22)])
def test_resumed_walk_changes_no_verdict_or_witness(label, resumed, monkeypatch):
    # when J is not line-closed the walk resumes from J's kept level,
    # unless the rooted walk meets a non-flat by then; smallest first,
    # largest first and a fresh system per ideal give the same verdicts
    # and witnesses
    masks, up, rank, below, resumes = warm_starts(label, monkeypatch)
    fresh = {m: Arrangement(build_root_system(label), _bits(m)).is_line_closed() for m in masks}
    assert up == fresh
    assert sum(ok for m, *_, ok in resumes if not up[below[m]][0]) == resumed


def test_kept_levels_hold_two_ground_sizes_after_an_e6_survey(monkeypatch):
    # the table of passed levels is bounded: it keeps the two most recent
    # ground sizes, which is all a smallest-first survey reads; with the
    # join memo and the pair-span table it is all the walk keeps
    rs = build_root_system("E6")
    monkeypatch.setattr(cli, "_load_system", lambda type_str: rs)
    report = cli.run_survey("E6")
    assert report["equivalence_ok"] and report["summary"]["line_closed"] < report["ideal_count"]
    assert 0 < len(_memo_table(rs, matroid._keep_passed_level)) <= 2
    searches = {"_generic_search", "_peel_search", "_rootideal_search", "_root_names", "bad_ideals"}
    walk = {"_join", "_keep_passed_level", "_pair_table"}
    assert {table.__name__ for table in rs._memos} == searches | walk


@pytest.mark.parametrize("label", ["D4", "F4", "B4"])
def test_kept_levels_key_each_state_by_its_span(label):
    # a resumed walk reuses the keys of the level kept for J, so each key
    # must contain its state and have its rank, by Fraction rank; a
    # line-closed ground keeps its top level, which holds the ground alone
    rs = build_root_system(label)
    for ideal in enumerate_ideals(rs):
        arr = Arrangement(rs, ideal.members())
        ok = arr.is_line_closed()[0]
        if arr.rank() < 3:
            continue
        k, level = _memo_table(rs, matroid._keep_passed_level)[ideal.size][ideal.mask]
        if ok:
            assert (k, list(level)) == (arr.rank(), [ideal.mask])
        for state, key in level.items():
            assert key & arr.ground_mask == state and frac_rank_of_mask(label, key) == k


@pytest.mark.parametrize("label", ["D5", "F4"])
def test_join_memo_entries_hold_from_scratch(label):
    # every entry (key, v) -> [covered, cls]: v is in cls, cls lies in
    # covered outside key, and a covered root q outside key is in cls iff
    # it lies in span(key + v), by Fraction rank
    rs = build_root_system(label)
    for ideal in enumerate_ideals(rs):
        Arrangement(rs, ideal.members()).is_line_closed()
    joins = _memo_table(rs, _join)
    assert joins
    for (key, v), (covered, cls) in joins.items():
        assert key & 1 << v == 0 and covered & key == key
        assert cls >> v & 1 and cls & ~(covered & ~key) == 0
        rank = frac_rank_of_mask(label, key | 1 << v)
        assert rank == frac_rank_of_mask(label, key) + 1
        for q in _bits(covered & ~key):
            assert (cls >> q & 1) == (frac_rank_of_mask(label, key | 1 << v | 1 << q) == rank)


@pytest.mark.parametrize("label", ["D5", "F4", "E6"])
def test_second_walk_of_an_ideal_does_no_elimination(label, monkeypatch):
    # walk states hold only their join keys, and a join entry builds echelon
    # rows only for roots it has not tested, so deciding an ideal again on
    # the same system reads the memo alone.
    rs = build_root_system(label)
    calls = []

    def counted(name):
        real = getattr(matroid, name)

        def call(*args):
            calls.append(name)
            return real(*args)

        return call

    for ideal in list(enumerate_ideals(rs))[::7]:
        first = Arrangement(rs, ideal.members()).is_line_closed()
        again = Arrangement(rs, ideal.members())
        again.rank()
        with monkeypatch.context() as m:
            m.setattr(matroid, "_echelon", counted("_echelon"))
            m.setattr(matroid, "_reduce", counted("_reduce"))
            assert again.is_line_closed() == first
    assert calls == []


# -- flats of a subarrangement ---------------------------------------------------------------


@lru_cache(maxsize=None)
def frac_rank_of_mask(label: str, mask: int) -> int:
    rs = get_system(label)
    return frac_rank([rs.coords[i] for i in _bits(mask)])


def check_flats(arr: Arrangement) -> None:
    flats = arr.flats()
    assert flats == closure_level_search(arr)
    two_flats(arr)  # the long lines are the rank-2 flats of three or more roots
    for f in flats:
        assert f[1] == frac_rank_of_mask(str(arr.system.label), f[0])
        assert closure(arr, _bits(f[0])) == f


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(root_subsets())
def test_flats_of_random_subsets_match_closure_level_search(case):
    label, ground = case
    check_flats(Arrangement(get_system(label), ground))


@pytest.mark.parametrize("label", ["D4", "F4", "B4", "A5"])
def test_flats_of_every_ideal_match_closure_level_search(label):
    rs = get_system(label)
    for ideal in enumerate_ideals(rs):
        check_flats(Arrangement(rs, ideal.members()))


# -- the system flat lattice ---------------------------------------------------------------


@pytest.mark.parametrize(
    "label",
    ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "B5", "C2", "C3", "C4", "D4", "D5", "F4", "G2"],
)
def test_system_flats_match_level_search(label):
    rs = build_root_system(label)
    assert _system_flats(rs) == level_search_flats(rs)


def test_e6_system_flats_match_orbit_search():
    rs = build_root_system("E6")
    flats = _system_flats(rs)
    assert len(flats) == 4598
    assert flats == orbit_search_flats(rs)


def test_e7_system_flat_count():
    assert len(_system_flats(build_root_system("E7"))) == 90408


@pytest.mark.parametrize(
    "n, bell", [(1, 2), (2, 5), (3, 15), (4, 52), (5, 203), (6, 877), (7, 4140)]
)
def test_type_a_flat_count_is_a_bell_number(n, bell):
    # the flats of A_n are the set partitions of n + 1 points
    assert len(_system_flats(get_system(f"A{n}"))) == bell


def classical_exponents(label: str) -> list[int]:
    family, n = label[0], int(label[1:])
    if family == "A":
        return list(range(1, n + 1))
    if family in "BC":
        return list(range(1, 2 * n, 2))
    if family == "D":
        return list(range(1, 2 * n - 2, 2)) + [n - 1]
    return {"E6": [1, 4, 5, 7, 8, 11], "F4": [1, 5, 7, 11], "G2": [1, 5]}[label]


@pytest.mark.parametrize(
    "label",
    ["A1", "A2", "A3", "A4", "A5", "A6", "B2", "B3", "B4", "B5", "C2", "C3", "C4", "C5"]
    + ["D4", "D5", "D6", "E6", "F4", "G2"],
)
def test_full_arrangement_chi_is_product_over_exponents(label):
    rs = get_system(label)
    expected = [1]
    for m in classical_exponents(label):  # multiply by (t - m), ascending degree
        expected = [a - m * b for a, b in zip([0] + expected, expected + [0])]
    chi = Arrangement(rs, range(rs.nroots)).characteristic_polynomial()
    assert chi == tuple(expected)


# -- characteristic polynomial ---------------------------------------------------------------


def test_chi_small_examples():
    a1 = get_system("A1")
    assert Arrangement(a1, [0]).characteristic_polynomial() == (-1, 1)
    a2 = get_system("A2")
    assert Arrangement(a2, range(3)).characteristic_polynomial() == (2, -3, 1)
    b2 = get_system("B2")
    assert Arrangement(b2, range(4)).characteristic_polynomial() == (3, -4, 1)
    g2 = get_system("G2")
    assert Arrangement(g2, range(6)).characteristic_polynomial() == (5, -6, 1)


def test_chi_empty_arrangement():
    rs = get_system("A2")
    assert Arrangement(rs, []).characteristic_polynomial() == (1,)


@pytest.mark.parametrize("label", ["A2", "A3", "B2", "B3", "G2"])
def test_chi_matches_whitney_sum_all_ideals(label):
    rs = get_system(label)
    for ideal in enumerate_ideals(rs):
        arr = Arrangement(rs, ideal.members())
        assert arr.characteristic_polynomial() == whitney_chi(arr)


@pytest.mark.parametrize("label", ["G2", "B4", "C4", "D4", "F4", "A5", "D5"])
def test_ideal_exponents_are_the_dual_height_partition(label):
    # Sommers-Tymoczko; Abe-Barakat-Cuntz-Hoge-Terao: every ideal arrangement
    # is free with exponents the dual partition of its height distribution,
    # so chi factors over them, supersolvable or not
    rs = get_system(label)
    for ideal in enumerate_ideals(rs):
        if not ideal.mask:
            continue
        counts = [0] * max(rs.heights[i] for i in ideal.members())
        for i in ideal.members():
            counts[rs.heights[i] - 1] += 1
        assert counts == sorted(counts, reverse=True)
        dual = [sum(c >= j for c in counts) for j in range(1, counts[0] + 1)]
        arr = Arrangement(rs, ideal.members())
        assert arr.characteristic_polynomial() == poly_from_block_sizes(dual, arr.rank())


def test_chi_matches_whitney_sum_d4():
    rs = get_system("D4")
    for members in (star_ideal(rs).members(), tuple(range(12))):
        arr = Arrangement(rs, members)
        assert arr.characteristic_polynomial() == whitney_chi(arr)


# -- the generic search's modular coatoms -------------------------------------------------


def lattice_search(system, mask: int, rank: int, flats, memo: dict):
    """The generic search over the flat lattice: block sizes bottom-up, or None.

    ``flats`` holds every flat on ``mask`` as (mask, rank) pairs in (rank,
    mask) order; a coatom is modular iff every pair of its complement spans
    a line that meets it.  Memoized in ``memo`` on ``mask``.
    """
    if mask == 0:
        return ()
    if mask not in memo:
        memo[mask] = None
        for fm, fr in flats:
            if fr != rank - 1 or fm & ~mask:
                continue
            out = list(_bits(mask & ~fm))
            if all(system.pair_span_mask(b, c) & fm for b, c in combinations(out, 2)):
                sub = lattice_search(system, fm, rank - 1, flats, memo)
                if sub is not None:
                    memo[mask] = sub + (len(out),)
                    break
    return memo[mask]


def check_against_lattice_search(rs, ideals) -> int:
    """Equal verdicts and block sizes on each ideal; returns the supersolvable count."""
    supersolvable = 0
    for ideal in ideals:
        arr = Arrangement(rs, ideal.members())
        slow = lattice_search(rs, arr.ground_mask, arr.rank(), arr.flats(), {})
        cert = is_supersolvable_generic(arr)
        assert (cert is None) == (slow is None), ideal.coordinate_strings()
        if cert is not None:
            assert cert.block_sizes() == tuple(sorted(slow)), ideal.coordinate_strings()
            supersolvable += 1
    return supersolvable


@pytest.mark.parametrize(
    "label", ["A3", "B3", "C3", "G2", "D4", "F4", "A5", "B4", "C4", "D5", "B5", "E6"]
)
def test_generic_search_matches_the_lattice_search(label):
    rs = get_system(label)
    check_against_lattice_search(rs, enumerate_ideals(rs))


def test_generic_search_matches_the_lattice_search_on_an_e7_sample():
    rs = build_root_system("E7")
    sample = random.Random(7).sample(list(enumerate_ideals(rs)), 60)
    assert 0 < check_against_lattice_search(rs, sample) < 60


def modular_by_definition(arr: Arrangement) -> set[int]:
    """The coatoms X with r(X) + r(Y) = r(X v Y) + r(X ^ Y) for every flat Y."""
    flats = arr.flats()
    rank = dict(flats)
    coords = arr.system.coords
    r = arr.rank()
    return {
        x
        for x, rx in flats
        if rx == r - 1
        and all(
            rx + ry == len(_echelon(coords[i] for i in _bits(x | y))) + rank[x & y]
            for y, ry in flats
        )
    }


def test_modular_coatoms_are_those_of_the_rank_equality():
    # random subsets are rarely ideals, so no other route vouches for the
    # generic search there
    counts = []

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(root_subsets())
    def check(case):
        label, ground = case
        arr = Arrangement(get_system(label), ground)
        spans = _pair_spans(arr.system, arr.ground_mask)
        found = list(_modular_coatoms(spans, arr.system.coords, arr.ground_mask))
        assert len(found) == len(set(found))
        assert set(found) == modular_by_definition(arr)
        counts.append(len(found))

    check()
    assert 0 in counts and max(counts) > 1


@pytest.mark.parametrize(
    "label, generators",
    [("E7", "0000001,0000110,1011100,1111000"), ("E8", "01121110,01122100,10111111,11221100")],
)
def test_classify_builds_no_system_flat_lattice(label, generators):
    # a supersolvable E7 ideal and an E8 ideal that is not; E8's lattice
    # would hold 5.5 million flats
    rs = build_root_system(label)
    classify_ideal(Ideal.parse(rs, generators))
    assert matroid._system_flats not in rs._memos
