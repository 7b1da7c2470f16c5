"""Exact linear-algebraic matroid layer over a set of positive roots.

An arrangement is a set of pairwise non-parallel vectors; here the vectors
are positive roots of one system, identified by root index.  Everything is
computed with fraction-free integer elimination on the coordinate vectors,
so closures, ranks, flats and the characteristic polynomial are exact.

The line-closedness decision reduces to independent sets: an arrangement
fails to be line-closed iff some independent set B has a strictly smaller
2-closure than closure.  Sufficiency: if S is 2-closed but not a flat, pick
a maximal independent B inside S; then the 2-closure of B is contained in S
while the closure of B equals the closure of S, which exceeds S.
Conversely, if an independent B has 2-closure smaller than its closure,
that 2-closure is itself a 2-closed non-flat (any flat containing B
contains all of closure(B)).  Independent sets of size one and two always
pass (singletons are flats; the 2-closure of a pair already is its
closure), so only sizes three and up are scanned.  A direct
smallest-first enumeration of all 2-closed subsets is kept alongside as an
independent oracle.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Iterator

from .rootsystem import RootSystem, _bits, _echelon, _mask_of, _reduce, _span_mask


@dataclass(frozen=True)
class Flat:
    """A span-closed subset of an arrangement.

    ``members`` is a bitmask over root indices; ``rank`` the dimension of
    the rational span of the member vectors.
    """

    members: int
    rank: int

    def indices(self) -> tuple[int, ...]:
        return tuple(_bits(self.members))


class Arrangement:
    """A set of pairwise non-parallel root vectors with matroid operations.

    ``ground`` holds root indices of the ambient system.  Distinct positive
    roots are never parallel, so any subset of them qualifies.  Instances
    are immutable apart from memo caches, which never change a result:
    the rank, flats and the characteristic polynomial are memoized lazily.
    """

    def __init__(self, system: RootSystem, ground: Iterable[int]):
        self.system = system
        self.ground = tuple(sorted(set(ground)))
        self.ground_mask = _mask_of(self.ground)
        self._flats: tuple[Flat, ...] | None = None
        self._chi: tuple[int, ...] | None = None
        self._rank: int | None = None

    # -- basics ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self.ground)

    def _vec(self, i: int) -> tuple[int, ...]:
        return self.system.coords[i]

    def _check_subset(self, subset: Iterable[int]) -> tuple[int, ...]:
        s = tuple(sorted(set(subset)))
        for i in s:
            if not self.ground_mask >> i & 1:
                raise ValueError(f"root index {i} is not in the ground set")
        return s

    def rank(self, subset: Iterable[int] | None = None) -> int:
        """Dimension of the rational span; the whole ground set by default."""
        if subset is None:
            if self._rank is None:
                self._rank = len(_echelon(self._vec(i) for i in self.ground))
            return self._rank
        s = self._check_subset(subset)
        return len(_echelon(self._vec(i) for i in s))

    def closure(self, subset: Iterable[int]) -> Flat:
        """All ground vectors in the rational span of the subset."""
        s = self._check_subset(subset)
        rows = _echelon(self._vec(i) for i in s)
        return Flat(_span_mask(rows, self.system.coords) & self.ground_mask, len(rows))

    def _pair_mask(self, i: int, j: int) -> int:
        return self.system.pair_span_mask(i, j) & self.ground_mask

    def two_flats(self) -> list[Flat]:
        """All rank-2 flats: deduplicated closures of ground pairs."""
        masks = set()
        g = self.ground
        for a in range(len(g)):
            for b in range(a + 1, len(g)):
                masks.add(self._pair_mask(g[a], g[b]))
        return [Flat(m, 2) for m in sorted(masks)]

    # -- independent sets -------------------------------------------------

    def independent_sets(self, max_size: int) -> Iterator[tuple[int, ...]]:
        """Stream all subsets whose rank equals their size, sizes 1..max_size."""
        if max_size > self.rank():
            raise ValueError("max_size exceeds the arrangement rank")
        g = self.ground

        def rec(start: int, chosen: tuple[int, ...], rows):
            for p in range(start, len(g)):
                v = _reduce(rows, self._vec(g[p]))
                piv = next((t for t, x in enumerate(v) if x), None)
                if piv is None:
                    continue
                sub = chosen + (g[p],)
                yield sub
                if len(sub) < max_size:
                    yield from rec(p + 1, sub, rows + [(piv, tuple(v))])

        yield from rec(0, (), [])

    # -- 2-closure and line-closedness -------------------------------------

    def two_closure_mask(self, mask: int) -> int:
        """Least 2-closed superset, as a mask; fixpoint over pair closures."""
        out = mask
        work = list(_bits(mask))
        while work:
            x = work.pop()
            for y in list(_bits(out)):
                if y == x:
                    continue
                add = self._pair_mask(x, y) & ~out
                if add:
                    out |= add
                    work.extend(_bits(add))
        return out

    def two_closure(self, subset: Iterable[int]) -> frozenset[int]:
        s = self._check_subset(subset)
        return frozenset(_bits(self.two_closure_mask(_mask_of(s))))

    def is_line_closed(self) -> tuple[bool, frozenset[int] | None]:
        """Decide line-closedness; on failure also return a witness.

        Scans independent sets of sizes 3..rank and compares the 2-closure
        with the closure (see the module docstring for why this decides the
        property).  The witness is a 2-closed subset that is not a flat.
        """
        r = self.rank()
        if r < 3:
            return True, None
        g = self.ground

        def rec(start, rows, tc, size):
            for p in range(start, len(g)):
                i = g[p]
                v = _reduce(rows, self._vec(i))
                piv = next((t for t, x in enumerate(v) if x), None)
                if piv is None:
                    continue
                rows2 = rows + [(piv, tuple(v))]
                tc2 = self.two_closure_mask(tc | 1 << i)
                if size + 1 >= 3:
                    # any ground vector in span(rows2) but outside tc2
                    # witnesses that tc2 is 2-closed yet not a flat
                    for q in self.ground:
                        if tc2 >> q & 1:
                            continue
                        if not any(_reduce(rows2, self._vec(q))):
                            return tc2
                if size + 1 < r:
                    bad = rec(p + 1, rows2, tc2, size + 1)
                    if bad is not None:
                        return bad
            return None

        bad = rec(0, [], 0, 0)
        if bad is None:
            return True, None
        return False, frozenset(_bits(bad))

    def two_closed_subsets(self) -> Iterator[frozenset[int]]:
        """Enumerate every 2-closed subset, smallest first (oracle-grade).

        Grows 2-closures element by element with deduplication; expensive
        on large non-line-closed grounds, intended for cross-checks.
        """
        seen = {0}
        heap: list[tuple[int, int]] = [(0, 0)]
        while heap:
            size, mask = heapq.heappop(heap)
            yield frozenset(_bits(mask))
            for i in self.ground:
                if mask >> i & 1:
                    continue
                nxt = self.two_closure_mask(mask | 1 << i)
                if nxt not in seen:
                    seen.add(nxt)
                    heapq.heappush(heap, (nxt.bit_count(), nxt))

    def is_flat_mask(self, mask: int) -> bool:
        members = list(_bits(mask))
        rows = _echelon(self._vec(i) for i in members)
        for q in self.ground:
            if mask >> q & 1:
                continue
            if not any(_reduce(rows, self._vec(q))):
                return False
        return True

    def line_closed_by_definition(self) -> tuple[bool, frozenset[int] | None]:
        """Oracle: enumerate all 2-closed subsets and test each for flatness."""
        for s in self.two_closed_subsets():
            if not self.is_flat_mask(_mask_of(s)):
                return False, s
        return True, None

    # -- flats and the characteristic polynomial ---------------------------

    def flats(self) -> tuple[Flat, ...]:
        """Every flat of the arrangement, ordered by (rank, members).

        Derived from the ambient system's flat list: a flat of a
        subarrangement is exactly the trace of an ambient flat on the
        ground set, with its rank recomputed.
        """
        if self._flats is None:
            derived: dict[int, int] = {}
            for fm, _ in _system_flats(self.system):
                m = fm & self.ground_mask
                if m not in derived:
                    derived[m] = len(_echelon(self._vec(i) for i in _bits(m)))
            self._flats = tuple(
                Flat(m, r) for m, r in sorted(derived.items(), key=lambda kv: (kv[1], kv[0]))
            )
        return self._flats

    def characteristic_polynomial(self) -> tuple[int, ...]:
        """Coefficients of the characteristic polynomial, ascending degree.

        Computed by Moebius-function recursion over the flat lattice:
        chi(t) = sum over flats F of mu(empty, F) t^(rank - rank F).
        For a supersolvable arrangement this factors as the product of
        (t - block size) over any supersolving partition.
        """
        if self._chi is None:
            flats = self.flats()
            r = self.rank()
            mu: dict[int, int] = {}
            chi = [0] * (r + 1)
            for f in flats:  # increasing rank, so all proper subflats done
                m = -sum(v for g, v in mu.items() if g & f.members == g and g != f.members)
                if not mu:
                    m = 1  # the empty flat
                mu[f.members] = m
                chi[r - f.rank] += m
            self._chi = tuple(chi)
        return self._chi

    def __repr__(self) -> str:
        return f"Arrangement({self.system.label}, {len(self.ground)} vectors)"


def _system_flats(system: RootSystem) -> tuple[tuple[int, int], ...]:
    """All flats (mask, rank) of the full positive system, cached on it.

    Level search: rank-(k+1) flats are closures of a rank-k flat plus one
    more vector; rank-2 flats come straight from the pair-span table.
    """
    if system._full_flats is not None:
        return system._full_flats
    n = system.nroots
    all_roots = range(n)
    out: list[tuple[int, int]] = [(0, 0)]
    level: dict[int, list[tuple[int, tuple[int, ...]]]] = {}
    for i in all_roots:
        m = 1 << i
        out.append((m, 1))
        level[m] = _echelon([system.coords[i]])
    k = 1
    while level:
        nxt: dict[int, list[tuple[int, tuple[int, ...]]]] = {}
        for fmask, rows in level.items():
            for v in all_roots:
                if fmask >> v & 1:
                    continue
                red = _reduce(rows, system.coords[v])
                piv = next((t for t, x in enumerate(red) if x), None)
                if piv is None:
                    continue  # already in the span (cannot happen for flats)
                if red[piv] < 0:
                    red = [-x for x in red]
                rows2 = rows + [(piv, tuple(red))]
                members = _span_mask(rows2, system.coords)
                if members not in nxt:
                    nxt[members] = rows2
        for m in sorted(nxt):
            out.append((m, k + 1))
        level = nxt
        k += 1
    system._full_flats = tuple(out)
    return system._full_flats

