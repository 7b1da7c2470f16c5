"""Exact linear-algebraic matroid layer over a set of positive roots.

An arrangement is a set of pairwise non-parallel vectors; here the vectors
are positive roots of one system, identified by root index.  Ranks and
flatness tests use fraction-free integer elimination on the coordinate
vectors, so they and the characteristic polynomial are exact.

The flats of the full positive system are generated without elimination,
as the W-orbits of the standard parabolic flats (``_system_flats``, which
argues its completeness); the flats of a subarrangement are their traces
on its ground set, and the rank of each trace is read off the order of the
system flats, again without elimination (``Arrangement.flats`` argues
it); both lists hold (mask, rank) pairs in (rank, mask) order.  No
classification route reads these flats (the generic supersolvability
search finds its coatoms from lines), so only the characteristic
polynomial depends on them.

An arrangement is line-closed iff every 2-closed subset is a flat, and
this is decided by a walk over 2-closed states, level by level in rank.
The rank-2 states are the pair spans, which are flats.  From a state S
that is a flat, every ground root v outside S gives the state
cl2(S + v), which has rank one more than S; states already reached are
skipped, so the walk visits at most one state per flat, and it stops at
the first state that is not a flat.  It is complete: if the arrangement
is not line-closed, some independent set B = b1..bk has a 2-closure that
is not a flat (take a maximal independent set inside a 2-closed non-flat
S: its 2-closure lies in S while its closure is the closure of S, which
exceeds S).  Take the shortest prefix of B whose 2-closure is not a flat.
The 2-closure F of the prefix one shorter is a flat, hence its closure,
and by induction a state of the walk; as cl2(cl2(X) + v) = cl2(X + v),
the walk reaches the failing 2-closure as cl2(F + b) or stops earlier.
Independent sets of size one and two always pass (singletons are flats;
the 2-closure of a pair already is its closure), so arrangements of rank
below three are line-closed.

The walk does not grow a child twice from one parent where it can tell in
advance.  Let C = cl2(S + x) for a state S and a root x outside it, and
let w outside S lie on the line through x and some y in S.  That line is
the line through w and y, so x lies in cl2(S + w), which therefore
contains C; and w lies in C, so cl2(S + w) = C.  Roots found this way,
starting from x and repeating from each root found, are skipped for S:
they would only regrow C, which the walk already holds, so the states
and the witness are those of growing every root.  A direct
smallest-first enumeration of all 2-closed subsets, with its own
from-scratch 2-closure, is kept alongside as an independent oracle.

The walk may also be rooted at one ground root m: seeded with the lines
through m alone, its states are the 2-closed flats through m that it
reaches, and a non-flat it meets is a witness.  Let J be the ground minus
m.  If A_J is line-closed, then A is line-closed iff every state of the
m-rooted walk is a flat, so the rooted walk alone decides A.  Let T be
a 2-closed non-flat of A, of rank k, with closure Y.  T is 2-closed in
A_J too, since a line of A_J lies in a line of A.
(1) m not in Y.  Then T is a flat of A_J, T = J & span(T), and m is not
in span(T), so T is a flat of A: impossible.
(2) m in T.  Extend m to a basis B = m, b2, .., bk of T.  cl2(B) lies in
T, and its closure is that of T, which exceeds T, so cl2(B) is not a
flat.  As for the whole walk, take the shortest prefix of B whose
2-closure is not a flat: cl2(m, b2) is a seed line, and each shorter
prefix's 2-closure is a flat through m, hence a rooted state, so the
rooted walk meets a non-flat.
(3) m in Y but not in T.  T is a flat of A_J, so Y = T + m and m lies in
span(T).  No line through m in Y holds two roots of T, which is 2-closed,
so every such line holds exactly two roots.  Write m over a basis
t1, .., tk of T and drop a t_i of nonzero coefficient: m is outside the
span of the remaining k - 1 roots t.  Then cl2(t) lies in T, and adding m
meets no line of three roots, so C = cl2(m, t) = {m} + cl2(t), of rank
k.  If every rooted state is a flat, then C is one (by (2)'s prefix
argument, a rooted state or a walk that met a non-flat first), and a
flat of rank k inside Y is Y itself, so T lies in cl2(t), whose rank is
k - 1: impossible.
So every 2-closed non-flat makes the rooted walk meet a non-flat, and
conversely every state the rooted walk meets is 2-closed, so flatness
is the only test its states need.  ``is_line_closed`` uses
this when its per-system table already holds J's verdict, true, for m
the highest root of the ground: for an ideal, m is then maximal and J an
ideal decided earlier.  When the rooted walk meets a non-flat, the whole
walk runs again, so the witness is the whole walk's.

The same cases resume a walk when A_J is not line-closed.  Say the whole
walk of A_J met only flats up to level k (it failed above k), and the
m-rooted walk of A met only flats up to level k.  Then the whole walk of
A meets only flats up to level k, and its level k is the states Y of
A_J's level k with Y + m not a rooted state, plus the rooted states of
level k.  First, a whole walk that meets no non-flat up to level k has
every flat of rank k at level k: a rank-k flat F holds a flat S of rank
k - 1, a state by induction from the lines, and a root v outside
span(S); cl2(S + v) is a state (a skipped root regrows one), it lies in
F and spans it, so as a flat it is F.  With S and F through m, the
rooted walk's level k is likewise every rank-k flat through m.  Second,
by the completeness argument above, a whole walk that passes level k
leaves no 2-closed non-flat of rank <= k.  Now take a
2-closed non-flat T of A of rank <= k, with closure Y.  If m is not in
Y, then T lies in J, is 2-closed in A_J and is not a flat there (its
closure there is Y again), which A_J's walk rules out.  If m is in T,
case (2) gives a rooted non-flat of rank <= k.  If m is in Y but not in
T, T is 2-closed in A_J and of rank <= k, hence a flat of A_J, and case
(3) gives a rooted non-flat of rank <= k.  So A's whole walk passes
level k, and its level k is every rank-k flat of A.  A rank-k flat of A
without m is a flat of A_J that stays one in A, that is, a flat Y of A_J
with m outside span(Y).  When m lies in span(Y), Y + m is a rank-k flat
of A through m, a rooted state; when Y + m is a rooted state, it has the
rank of Y, so m lies in span(Y).  So the filter is a set lookup, with
no elimination.  The keys of A_J's states stay keys, as a key depends
only on the span of its state.  The walk then steps on from level k;
its witness depends only on the states of each level, never on their
keys, so it is the whole walk's.  ``is_line_closed`` keeps the last
passed level of each non-line-closed ground, bounded to the two most
recent ground sizes, and resumes when J's entry is there and the rooted
walk passes its level; otherwise the whole walk runs.  The lemma never
assumes that A is not line-closed.

The flatness test of a new state goes through a join memo on the system,
kept in ``_memos``, filled lazily by ``_join``.  Each state S is held
as its key alone: a mask of system roots that contains S and lies in
span(S), so span(key) = span(S).  The entry ``(key, v) -> [covered, cls]``
holds in ``covered`` the key, v and every root tested so far, and in
``cls`` those of them outside the key that lie in span(key + v).  A lookup
reduces only the ground roots not yet covered, against echelon rows of
key + v built then, so a repeated lookup does no elimination.  The entry
depends only on span(key), never on the ground set, so it serves every
ideal of the system.  The new state grown = cl2(S + v) lies in
span(S + v), so its closure is ground & span(S + v).  After the lookup
every ground root outside the key is covered, and those inside it lie in
span(S), so grown is a flat iff (key | cls) & ground == grown, and then
key | cls is the child's key.  The memo reads only root coordinates,
never the system flats; the oracle below keeps its own flatness test
(``is_flat_mask``).

That 2-closure (``two_closure_mask``) follows Falk's definition through
the lines, the rank-2 flats: a set is 2-closed iff it contains every line
of which it holds two roots.  It equals the pair definition (add the span
of any two members) because the span of two ground roots, traced on the
ground set, is the one line through both, and any two distinct roots of a
line span it.  So the closure sweeps the lines of three or more roots,
memoized per arrangement, until a sweep adds nothing.  It shares no code
with the walk's growth from new roots (``_grow_two_closure``); both read
only the system's pair-span table (``rootsystem._pair_spans``), which
``RootSystem.pair_span_mask`` reads too.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Iterator

from .rootsystem import RootSystem, _bits, _echelon, _mask_of, _reduce, reflect
from .rootsystem import _memo_table, _memoized, _pair_spans


class Arrangement:
    """A set of pairwise non-parallel root vectors with matroid operations.

    ``ground`` holds root indices of the ambient system.  Distinct positive
    roots are never parallel, so any subset of them qualifies; an index
    outside the system raises ``ValueError``.  Immutable apart from
    ``_memos`` (rank, lines, flats, characteristic polynomial), which die
    with the instance; nothing in the package keeps one.
    """

    def __init__(self, system: RootSystem, ground: Iterable[int]):
        self.system = system
        self.ground = tuple(sorted(set(ground)))
        for i in self.ground[:1] + self.ground[-1:]:  # sorted: the ends bound the rest
            if not 0 <= i < system.nroots:
                raise ValueError(f"root index {i} is outside {system!r}")
        self.ground_mask = _mask_of(self.ground)
        self._memos: dict = {}

    # -- basics ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self.ground)

    @_memoized
    def rank(self) -> int:
        """Dimension of the rational span of the ground set."""
        return len(_echelon(self.system.coords[i] for i in self.ground))

    @_memoized
    def _long_lines(self) -> tuple[int, ...]:
        """The lines (traced pair spans) of three or more roots, as sorted masks."""
        g, gm = self.ground, self.ground_mask
        spans = _pair_spans(self.system, gm)
        lines = {spans[i][j] & gm for a, i in enumerate(g) for j in g[a + 1 :]}
        return tuple(sorted(m for m in lines if m.bit_count() > 2))

    # -- 2-closure and line-closedness -------------------------------------

    def two_closure_mask(self, mask: int) -> int:
        """Least 2-closed superset, as a mask; fixpoint over the lines.

        Adds every line (rank-2 flat) that holds two roots of the set,
        until a sweep adds none.  This is the pair definition: the span of
        two ground roots, traced on the ground set, is the one line through
        both, and any two distinct roots of a line span it, as positive
        roots are never parallel.  Lines of two roots add nothing and are
        not swept.
        """
        return _sweep_lines(self._long_lines(), mask)

    def is_line_closed(self) -> tuple[bool, frozenset[int] | None]:
        """Decide line-closedness; on failure also return a witness.

        The verdict of each ground mask is kept in one table per system
        (:func:`_line_closed`).  When that table already says the ground
        minus its highest root m is line-closed, the walk is first seeded
        with the lines through m alone; the module docstring proves that
        the arrangement is then line-closed iff every state of that walk
        is a flat.  When the ground minus m is known not to be line-closed,
        the whole walk resumes from the last level that the smaller
        ground's walk passed (:func:`_keep_passed_level`) instead of
        starting at the lines.  Otherwise, or when the rooted walk meets a
        non-flat, the whole walk runs, so the witness never depends on the
        tables.
        """
        return _line_closed(self.system, self.ground_mask, self)

    def _walk(self, seed: int) -> frozenset[int] | None:
        """The first 2-closed state that is not a flat, or None.

        The walk from the lines through a root of ``seed`` (:meth:`_seed`)
        up to the full rank (:meth:`_climb`): the whole walk when ``seed``
        is the ground set, the walk rooted at m when it is root m.
        """
        return self._climb(self._seed(seed), 2, self.rank())[0]

    def _seed(self, seed: int) -> dict[int, int]:
        """The walk's rank-2 states: the distinct lines through a root of ``seed``.

        Each maps to its key, its system pair span.  Two ground pairs on one
        line span the same plane, so the key does not depend on the pair.
        """
        gm = self.ground_mask
        spans = _pair_spans(self.system, gm)
        level: dict[int, int] = {}
        for i in _bits(seed):
            row = spans[i]
            for j in _bits(gm & ~(seed & (2 << i) - 1)):  # each pair once
                level.setdefault(row[j] & gm, row[j])
        return level

    def _climb(
        self, level: dict[int, int], k: int, top: int
    ) -> tuple[frozenset[int] | None, int, dict[int, int]]:
        """Step ``level``, the walk's states of rank ``k``, up to rank ``top``.

        Returns ``(witness, j, passed)``: the first new state that is not a
        flat, or None, and ``passed``, the last level the walk completed,
        of rank j, with its keys.  Each step is one rank: a rank-(k+1)
        state is the 2-closure of a rank-k state plus one ground root
        outside it, grown only from the new roots through the system's
        pair-span table (``rootsystem._pair_spans``).  Per parent, ``done``
        collects the roots that ``_grow_two_closure`` proves would regrow a
        child already grown; they are skipped, as they would only hit a
        state already in the next level, so the states reached and their
        order are those of growing every root.  The whole, rooted and
        resumed walks differ only in the ``level`` they start from.

        Each state maps to its key alone: a mask of system roots that
        contains the state and lies in its span; a rank-2 state's key is
        its system pair span.  A child ``grown`` of a state with key
        ``key``, grown by root v, is a flat iff
        ``(key | cls) & ground == grown``, where ``cls`` comes from the
        system's join memo entry ``(key, v)`` through ``_join``; the module
        docstring proves it.  Its key is ``key | cls``.  The witness is the
        first new state that is not a flat, in the order rank level, parent
        mask, added root, so it depends only on the states of ``level``,
        never on their keys or on what the memo already holds.
        """
        system, g, gm = self.system, self.ground, self.ground_mask
        pair = _pair_spans(system, gm)
        while k < top:
            nxt: dict[int, int] = {}
            for state in sorted(level):
                key, members = level[state], list(_bits(state))
                done = state
                for v in g:
                    if done >> v & 1:
                        continue
                    grown, same = _grow_two_closure(pair, gm, state, members, v)
                    done |= same
                    if grown in nxt:
                        continue
                    child_key = key | _join(system, key, v, gm, grown)
                    if child_key & gm != grown:
                        return frozenset(_bits(grown)), k, level
                    nxt[grown] = child_key
            level, k = nxt, k + 1
        return None, k, level

    def _resume(
        self, root: int, k: int, below: dict[int, int]
    ) -> tuple[frozenset[int] | None, int, dict[int, int]] | None:
        """The whole walk's ``_climb`` from its level k, or None.

        ``below`` is the level k that the whole walk of the ground minus
        ``root`` (a one-bit mask) passed last.  The walk rooted at ``root``
        runs up to level k; if it meets a non-flat there, None.  Otherwise
        the whole walk's level k is the states of ``below`` whose union with
        ``root`` is no rooted state, plus the rooted states (module
        docstring), and the climb goes on from there.
        """
        witness, _, rooted = self._climb(self._seed(root), 2, k)
        if witness is not None:
            return None
        level = {y: key for y, key in below.items() if y | root not in rooted}
        level.update(rooted)
        return self._climb(level, k, self.rank())

    def _two_closed_masks(self) -> Iterator[int]:
        """Every 2-closed subset as a mask, smallest first (oracle-grade).

        Grows 2-closures element by element with deduplication; intended
        for cross-checks.
        """
        seen, lines = {0}, self._long_lines()
        heap: list[tuple[int, int]] = [(0, 0)]
        while heap:
            size, mask = heapq.heappop(heap)
            yield mask
            for i in self.ground:
                if mask >> i & 1:
                    continue
                nxt = _sweep_lines(lines, mask | 1 << i)
                if nxt not in seen:
                    seen.add(nxt)
                    heapq.heappush(heap, (nxt.bit_count(), nxt))

    def is_flat_mask(self, mask: int) -> bool:
        coords = self.system.coords
        rows = _echelon(coords[i] for i in _bits(mask))
        for q in self.ground:
            if not mask >> q & 1 and not any(_reduce(rows, coords[q])):
                return False
        return True

    def line_closed_by_definition(self) -> tuple[bool, frozenset[int] | None]:
        """Oracle: enumerate all 2-closed subsets and test each for flatness."""
        for mask in self._two_closed_masks():
            if not self.is_flat_mask(mask):
                return False, frozenset(_bits(mask))
        return True, None

    # -- flats and the characteristic polynomial ---------------------------

    @_memoized
    def flats(self) -> tuple[tuple[int, int], ...]:
        """Every flat of the arrangement as (mask, rank), ordered by (rank, mask).

        On the full ground set this is ``_system_flats``.  A flat of a
        subarrangement is exactly the trace of an ambient flat on the
        ground set.  Its rank is that of the first system flat, in the
        order (rank, mask), whose trace it is.  For let F0 be that flat and
        m its trace; the system closure F' of m is a system flat inside F0
        with trace m and rank rank(m) <= rank(F0).  Were it smaller, F'
        would come before F0; so rank(F0) = rank(m), and no trace is
        eliminated.
        """
        derived: dict[int, int] = {}
        for fm, r in _system_flats(self.system):
            derived.setdefault(fm & self.ground_mask, r)
        return tuple(sorted(derived.items(), key=lambda kv: (kv[1], kv[0])))

    @_memoized
    def characteristic_polynomial(self) -> tuple[int, ...]:
        """Coefficients of the characteristic polynomial, ascending degree.

        Computed by Moebius-function recursion over the flat lattice:
        chi(t) = sum over flats F of mu(empty, F) t^(rank - rank F).
        For a supersolvable arrangement this factors as the product of
        (t - block size) over any supersolving partition.
        """
        r = self.rank()
        mu: dict[int, int] = {}
        chi = [0] * (r + 1)
        for fm, fr in self.flats():  # increasing rank, so all proper subflats done
            m = -sum(v for g, v in mu.items() if g & fm == g and g != fm)
            if not mu:
                m = 1  # the empty flat
            mu[fm] = m
            chi[r - fr] += m
        return tuple(chi)

    def __repr__(self) -> str:
        return f"Arrangement({self.system.label}, {len(self.ground)} vectors)"


@_memoized
def _line_closed(
    system: RootSystem, ground: int, arr: Arrangement
) -> tuple[bool, frozenset[int] | None]:
    """``Arrangement.is_line_closed`` of ``arr``, whose ground mask is ``ground``.

    Memoized on the system, so its table holds every verdict reached so far;
    the rooted walk reads only the entry of ground minus its highest root,
    and so does the resumed walk in the table of passed levels
    (:func:`_keep_passed_level`).
    """
    if arr.rank() < 3:
        return True, None
    top = 1 << ground.bit_length() - 1
    below = ground ^ top
    if _memo_table(system, _line_closed).get(below, (False,))[0] and arr._walk(top) is None:
        return True, None
    passed = _memo_table(system, _keep_passed_level).get(below.bit_count(), {}).get(below)
    climbed = arr._resume(top, *passed) if passed else None
    witness, k, level = climbed or arr._climb(arr._seed(ground), 2, arr.rank())
    if witness is not None:
        _keep_passed_level(system, ground, k, level)
    return witness is None, witness


def _keep_passed_level(system: RootSystem, ground: int, k: int, level: dict[int, int]) -> None:
    """Keep the level k that the whole walk of a non-line-closed ground passed last.

    The table, in ``system._memos``, maps ground size to ground mask to
    ``(k, level)``.  It keeps only the two most recent ground sizes, as a
    ground's walk resumes from a ground one root smaller; smallest first,
    that is all a survey needs.  A missing entry only means a whole walk.
    """
    levels = _memo_table(system, _keep_passed_level)
    size = ground.bit_count()
    if size not in levels:
        levels[size] = {}
        if len(levels) > 2:
            del levels[next(iter(levels))]
    levels[size][ground] = k, level


def _sweep_lines(lines: tuple[int, ...], mask: int) -> int:
    """``Arrangement.two_closure_mask`` of ``mask``, given the arrangement's lines."""
    out, grew = mask, True
    while grew:
        grew = False
        for line in lines:
            if line & ~out and (line & out).bit_count() > 1:
                out |= line
                grew = True
    return out


def _grow_two_closure(
    pair: list[list[int]], ground: int, state: int, members: list[int], v: int
) -> tuple[int, int]:
    """The 2-closure of a 2-closed ``state`` (bits ``members``) plus root ``v``.

    ``pair[x][y]`` is the system span of roots x and y, for x and y in the
    mask ``ground``; its trace on ``ground`` is the line through them.
    Pairs inside ``state`` are already closed, so only pairs with a newly
    added root are examined.  Returns ``(grown, same)``: ``same`` holds v
    and roots outside ``state`` that lie on a line through a root already
    in ``same`` and a root of ``state``, so the 2-closure of ``state`` plus
    any w in it is ``grown`` (module docstring).  It need not hold every
    such root: lines are followed only from roots that join ``same`` before
    the growth visits them.
    """
    out = state | 1 << v
    same = 1 << v
    new = [v]
    for x in new:  # also visits the roots appended below
        row = pair[x]
        acc = 0
        for y in members:
            acc |= row[y]
        if same >> x & 1:
            same |= acc & ground & ~state
        for y in new:
            acc |= row[y]
        add = acc & ground & ~out
        if add:
            out |= add
            new.extend(_bits(add))
    return out, same


def _join(system: RootSystem, key: int, v: int, need: int, grown: int) -> int:
    """``cls`` of the join memo entry (key, v), once it covers ``need``.

    Reads and fills entry ``(key, v) -> [covered, cls]`` of its table in
    ``system._memos``, where ``covered`` holds key, v and every root tested
    so far, and ``cls`` those of them outside key that lie in
    span(key + v).  Only the roots of ``need`` not yet covered are tested,
    against echelon rows of key + v built for them, so a repeated call
    does no elimination.  The roots of ``grown``, a 2-closure of a subset
    of key plus v and hence inside that span, enter ``cls`` untested.
    """
    joins = _memo_table(system, _join)
    entry = joins.get((key, v))
    if entry is None:
        entry = joins[(key, v)] = [key | 1 << v, 1 << v]
    todo = need & ~entry[0]
    if todo:
        entry[0] |= todo
        entry[1] |= todo & grown
        if todo & ~grown:
            coords = system.coords
            rows = _echelon(coords[i] for i in (v, *_bits(key)))
            for q in _bits(todo & ~grown):
                if not any(_reduce(rows, coords[q])):
                    entry[1] |= 1 << q
    return entry[1]


@_memoized
def _system_flats(system: RootSystem) -> tuple[tuple[int, int], ...]:
    """All flats (mask, rank) of the full positive system, memoized on it.

    The flats are the W-orbits of the standard parabolic flats.  For each
    subset J of the simple roots, the positive roots whose support lies in
    J form the flat spanned by J (a root in that span has its support in
    J), of rank |J|.  A breadth-first search over masks applies the simple
    reflections, acting on positive-root indices with the sign dropped, and
    one ``seen`` table across all J merges conjugate J into one orbit.
    This is complete: W permutes the hyperplanes, so it maps flats to
    flats of the same rank; and by Steinberg's theorem the roots of a flat
    (those orthogonal to its intersection subspace) form a parabolic
    subsystem, which is W-conjugate to some standard one.

    Each simple reflection is applied as bit images built once from
    ``reflect``: ``img[g]`` is the one-bit mask of the image of root g.
    The bits the reflection fixes are copied unchanged, and only the moved
    bits of a mask are looked up, lowest set bit first.
    """
    n = system.nroots
    gens = []
    for a in system.simple_positions:
        img = [1 << reflect(system, a, g)[1] for g in range(n)]
        gens.append((img, _mask_of(g for g in range(n) if img[g] != 1 << g)))
    support = [_mask_of(t for t, x in enumerate(v) if x) for v in system.coords]
    seen: dict[int, int] = {}
    for j in range(1 << system.rank):
        start = _mask_of(g for g in range(n) if support[g] & ~j == 0)
        if start in seen:
            continue
        rank = j.bit_count()
        seen[start] = rank
        orbit = [start]
        for mask in orbit:  # also visits the masks appended below
            for img, moved in gens:
                m = mask & moved
                image = mask ^ m
                while m:
                    low = m & -m
                    image |= img[low.bit_length() - 1]
                    m ^= low
                if image not in seen:
                    seen[image] = rank
                    orbit.append(image)
    return tuple(sorted(seen.items(), key=lambda t: (t[1], t[0])))
