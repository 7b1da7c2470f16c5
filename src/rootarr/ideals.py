"""Order ideals of the root poset and their block candidates.

An ideal is a downward-closed set of positive roots, stored as a bitmask
over root indices.  This module enumerates all ideals of a system,
computes the two kinds of candidate top blocks used by the supersolvability
search (principal filters of simple roots, and the complement-of-multiples
sets attached to a bonded pair of simple roots), restricts ideals into root
subsystems, and detects the two minimal obstructions: the star
configuration around a degree-3 Dynkin node, and the F4 ideal of all roots
of height at most four.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterator, Sequence

from .rootsystem import (
    _RootTable,
    RootSystem,
    _bits,
    _echelon,
    _mask_of,
    _reduce,
    format_root,
    parse_root,
)


@dataclass(frozen=True)
class Ideal:
    """A downward-closed set of positive roots of one table.

    ``system`` may be a :class:`RootSystem` or a :class:`SubsystemView`;
    ``mask`` is a bitmask over that table's root indices.  Validated on
    construction.
    """

    system: _RootTable
    mask: int

    def __post_init__(self):
        if self.mask < 0 or self.mask > self.system.full_mask:
            raise ValueError("ideal mask out of range")
        if not self.system.is_downward_closed(self.mask):
            raise ValueError("set is not downward closed")

    @classmethod
    def from_roots(cls, system: _RootTable, roots: Sequence[int]) -> "Ideal":
        return cls(system, _mask_of(roots))

    @classmethod
    def from_generators(cls, system: _RootTable, roots: Sequence[int]) -> "Ideal":
        """The downward closure of the given root indices."""
        mask = 0
        for r in roots:
            mask |= system.down_masks[r]
        return cls(system, mask)

    @classmethod
    def parse(cls, system: _RootTable, text: str) -> "Ideal":
        """Parse generator roots, e.g. "1110,1101,0111".

        Generators are comma-separated digit strings; use ';' between
        generators if the roots themselves need the comma coordinate form.
        A single comma-form root ("1,2,1,1") is also accepted.
        """
        text = text.strip()
        if not text:
            return cls(system, 0)
        if ";" in text:
            tokens = [t for t in text.split(";") if t.strip()]
        else:
            tokens = [t for t in text.split(",") if t.strip()]
        try:
            roots = [parse_root(system, t) for t in tokens]
        except ValueError as token_error:
            # Fall back to reading the whole text as one comma-form root;
            # if that fails too, report the bad generator token.
            try:
                roots = [parse_root(system, text)]
            except ValueError:
                raise token_error from None
        return cls.from_generators(system, roots)

    @property
    def size(self) -> int:
        return self.mask.bit_count()

    def members(self) -> tuple[int, ...]:
        return tuple(_bits(self.mask))

    def coordinate_strings(self) -> tuple[str, ...]:
        return tuple(format_root(self.system, i) for i in self.members())

    def __contains__(self, idx: int) -> bool:
        return bool(self.mask >> idx & 1)

    def __len__(self) -> int:
        return self.size


def enumerate_ideals(rs: _RootTable) -> Iterator[Ideal]:
    """Yield every order ideal exactly once, smallest first.

    Depth-first extension over the minimal addable elements (the antichain
    frontier) with bit-set deduplication; the output is then sorted by
    (size, mask) so the order is deterministic.  The empty ideal and the
    whole positive system are always included.
    """
    seen = {0}
    stack = [0]
    down = rs.down_masks
    m = rs.nroots
    while stack:
        cur = stack.pop()
        for i in range(m):
            if cur >> i & 1:
                continue
            # addable: everything strictly below i is already present
            if down[i] & ~cur == 1 << i:
                nxt = cur | 1 << i
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
    for mask in sorted(seen, key=lambda x: (x.bit_count(), x)):
        yield Ideal(rs, mask)


def principal_filter(ideal: Ideal, alpha: int) -> frozenset[int]:
    """The order filter in the ideal generated by a simple root.

    ``alpha`` is the root index of a simple root and must belong to the
    ideal; the result is every member lying above it.
    """
    sys_ = ideal.system
    v = sys_.coords[alpha]
    if sum(v) != 1:
        raise ValueError("filter generator must be a simple root")
    if alpha not in ideal:
        raise ValueError("filter generator does not belong to the ideal")
    return frozenset(_bits(ideal.mask & sys_.up_masks[alpha]))


def g_set(ideal: Ideal, alpha: int, beta: int, a: int, b: int) -> frozenset[int]:
    """Members whose (alpha, beta)-coordinate pair is not a multiple of (a, b).

    ``alpha`` and ``beta`` are root indices of distinct simple roots and
    ``a * alpha + b * beta`` must be a positive root.  Multiples include the
    zero multiple, so members supported away from both simple roots are
    excluded as well.
    """
    sys_ = ideal.system
    ai, bi = _simple_axes(sys_, alpha, beta)
    _require_bond_root(sys_, ai, bi, a, b)
    return frozenset(_bits(g_set_mask(sys_, ideal.mask, ai, bi, a, b)))


def g_set_mask(table: _RootTable, mask: int, ai: int, bi: int, a: int, b: int) -> int:
    """g_set as a bitmask; ``ai``/``bi`` are coordinate axes, not root indices."""
    out = 0
    for i in _bits(mask):
        v = table.coords[i]
        ca, cb = v[ai], v[bi]
        if ca % a == 0 and cb == (ca // a) * b:
            continue  # the multiple k = ca // a works, so i is excluded
        out |= 1 << i
    return out


def _simple_axes(table: _RootTable, alpha: int, beta: int) -> tuple[int, int]:
    """Coordinate axes of two distinct simple roots given by root index."""
    axes = []
    for v in (table.coords[alpha], table.coords[beta]):
        if sum(v) != 1:
            raise ValueError(f"root {v} is not simple")
        axes.append(v.index(1))
    if axes[0] == axes[1]:
        raise ValueError("the two simple roots must be distinct")
    return axes[0], axes[1]


def _bond_position(table: _RootTable, ai: int, bi: int, a: int, b: int) -> int | None:
    """Position of the root ``a*alpha_ai + b*alpha_bi``, or None if no root."""
    v = tuple(a if k == ai else b if k == bi else 0 for k in range(table.rank))
    return table.index_of.get(v)


def _require_bond_root(table: _RootTable, ai: int, bi: int, a: int, b: int) -> None:
    if a < 1 or b < 1:
        raise ValueError("multipliers must be positive")
    if _bond_position(table, ai, bi, a, b) is None:
        raise ValueError(
            f"{a}*alpha + {b}*beta is not a positive root for this pair"
        )


def ab_pairs(table: _RootTable, ai: int, bi: int) -> list[tuple[int, int]]:
    """Sorted (a, b) with a, b >= 1 making a*alpha_ai + b*alpha_bi a root.

    ``ai`` and ``bi`` are distinct coordinate axes.  Found by scanning the
    roots supported exactly on the two axes, so triple bonds need no
    special casing.  Empty when the two simple roots are not bonded.
    """
    pairs = []
    for v in table.coords:
        if v[ai] >= 1 and v[bi] >= 1 and sum(v) == v[ai] + v[bi]:
            pairs.append((v[ai], v[bi]))
    return sorted(pairs)


def candidate_ab_pairs(rs: _RootTable, alpha: int, beta: int) -> list[tuple[int, int]]:
    """All (a, b) with a, b >= 1 making a*alpha + b*beta a positive root.

    ``alpha`` and ``beta`` are root indices of distinct simple roots.
    """
    return ab_pairs(rs, *_simple_axes(rs, alpha, beta))


@dataclass(frozen=True)
class BadIdealWitness:
    """Witness for one of the two minimal non-supersolvable configurations.

    ``kind`` is "star" (three height-3 roots around a degree-3 Dynkin node)
    or "f4" (the full height<=4 ideal of F4).  ``simple_roots`` are the root
    indices of the participating simple roots; ``generators`` the three
    witnessing roots.
    """

    kind: str
    simple_roots: tuple[int, ...]
    generators: tuple[int, ...]


def find_star_ideal(ideal: Ideal) -> BadIdealWitness | None:
    """Find a star configuration: a degree-3 node whose three 'centre plus
    two arms' height-3 roots all belong to the ideal.

    Only meaningful for simply laced systems; returns None for multiply
    laced ones (F4 has no degree-3 node anyway, and B/C/G ideals carry no
    obstruction at all).
    """
    rs = ideal.system
    if not isinstance(rs, RootSystem) or rs.lacing != 1:
        return None
    n = rs.rank
    for centre in range(n):
        arms = rs.dynkin_neighbours(centre)
        if len(arms) < 3:
            continue
        # No crystallographic diagram has degree > 3, but stay general.
        for trio in combinations(sorted(arms), 3):
            gens = []
            for left, right in ((trio[0], trio[1]), (trio[0], trio[2]), (trio[1], trio[2])):
                v = tuple(
                    1 if k in (left, centre, right) else 0 for k in range(n)
                )
                idx = rs.index_of.get(v)
                if idx is None or idx not in ideal:
                    gens = None
                    break
                gens.append(idx)
            if gens is not None:
                simples = (
                    rs.simple_positions[trio[0]],
                    rs.simple_positions[centre],
                    rs.simple_positions[trio[1]],
                    rs.simple_positions[trio[2]],
                )
                return BadIdealWitness("star", simples, tuple(gens))
    return None


def f4_height4_mask(rs: RootSystem) -> int:
    """Mask of the 13 F4 roots of height at most four."""
    if str(rs.label) != "F4":
        raise ValueError("only defined for F4")
    return sum(1 << i for i, h in enumerate(rs.heights) if h <= 4)


def contains_f4_bad_ideal(ideal: Ideal) -> bool:
    """Whether the ideal contains all 13 F4 roots of height at most four.

    False for every non-F4 system.
    """
    rs = ideal.system
    if not isinstance(rs, RootSystem) or str(rs.label) != "F4":
        return False
    bad = f4_height4_mask(rs)
    return ideal.mask & bad == bad


def f4_bad_witness(rs: RootSystem) -> BadIdealWitness:
    """The F4 witness: all four simple roots plus the three height-4 roots."""
    gens = tuple(i for i, h in enumerate(rs.heights) if h == 4)
    return BadIdealWitness("f4", rs.simple_positions, gens)


def is_path_root(rs: RootSystem, gamma: int) -> bool:
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


class SubsystemView(_RootTable):
    """A root subsystem presented like a standalone root table.

    Spanned by an independent set of parent positive roots; holds the
    subsystem's positive roots with coordinates over its own simple basis,
    plus the bijection back to parent root indices.  The induced order
    agrees with the parent order restricted to the subsystem's roots.
    Construct via ``RootSystem.subsystem_view`` (which caches canonically).
    """

    def __init__(self, base: RootSystem, delta_base: Sequence[int]):
        self.base = base
        self.delta_base = tuple(sorted(delta_base))
        self.rank = k = len(self.delta_base)
        dim = base.rank
        # Echelon the rows (delta_j | e_j | 0) and reduce (v | 0 | 1).  When
        # the first ``dim`` entries vanish the result is (0 | -lam*c | lam),
        # where v = sum_j c_j delta_j; otherwise v is outside the span.
        rows = _echelon(
            base.coords[d] + tuple(int(t == j) for t in range(k)) + (0,)
            for j, d in enumerate(self.delta_base)
        )
        if any(piv >= dim for piv, _ in rows):
            raise ValueError("subsystem spanning set must be linearly independent")
        parent_of: dict[tuple[int, ...], int] = {}
        for idx, v in enumerate(base.coords):
            r = _reduce(rows, v + (0,) * k + (1,))
            if any(r[:dim]):
                continue
            lam, tail = r[-1], r[dim:-1]
            c = tuple(-t // lam for t in tail)
            assert all(
                x >= 0 and x * lam == -t for x, t in zip(c, tail)
            ), "subsystem coordinates must be nonneg integers"
            parent_of[c] = idx
        self._finish(list(parent_of))
        self.parent_indices = tuple(parent_of[c] for c in self.coords)
        self.position_of_base = {b: p for p, b in enumerate(self.parent_indices)}

    def base_index(self, pos: int) -> int:
        return self.parent_indices[pos]

    def mask_from(self, table: _RootTable, mask: int) -> int:
        """``mask`` over positions of ``table``, reindexed over this view."""
        out = 0
        for pos in _bits(mask):
            out |= 1 << self.position_of_base[table.base_index(pos)]
        return out

    @property
    def lacing(self) -> int:
        """1, 2 or 3 from the squared-length ratio of the member roots."""
        lengths = {
            self.base.form_value(self.base.coords[i], self.base.coords[i])
            for i in self.parent_indices
        }
        if not lengths:
            return 1
        ratio = max(lengths) / min(lengths)
        return {Fraction(1): 1, Fraction(2): 2, Fraction(3): 3}[ratio]

    def __repr__(self) -> str:
        delta = ",".join(format_root(self.base, i) for i in self.delta_base)
        return f"SubsystemView({self.base.label}: <{delta}>, {self.nroots} roots)"


def restrict_without_g(
    ideal: Ideal, alpha: int, beta: int, a: int, b: int
) -> tuple[SubsystemView, Ideal]:
    """Drop the g_set block and land in the rank-lowered subsystem.

    The subsystem is spanned by ``a*alpha + b*beta`` together with the
    other simple roots; the surviving members form an order ideal of the
    subsystem's own root poset (which coincides with the induced parent
    order).  Returns the view and the reindexed ideal.
    """
    table = ideal.system
    ai, bi = _simple_axes(table, alpha, beta)
    _require_bond_root(table, ai, bi, a, b)
    rest = ideal.mask & ~g_set_mask(table, ideal.mask, ai, bi, a, b)
    view, rest_mask = restrict_mask(table, rest, ai, bi, a, b)
    return view, Ideal(view, rest_mask)


def restrict_mask(
    table: _RootTable, mask: int, ai: int, bi: int, a: int, b: int
) -> tuple[SubsystemView, int]:
    """The subsystem spanned by the bond root and the other simple roots.

    ``ai``/``bi`` are coordinate axes and ``a*alpha_ai + b*alpha_bi`` must
    be a root; ``mask`` (table positions) must avoid the g_set block, so
    every member lies in the subsystem.  Returns the view and ``mask``
    reindexed over the view's positions.  No validation.
    """
    delta = [table.base_index(_bond_position(table, ai, bi, a, b))] + [
        table.base_index(p)
        for k, p in enumerate(table.simple_positions)
        if k not in (ai, bi)
    ]
    view = table.base.subsystem_view(delta)
    return view, view.mask_from(table, mask)
