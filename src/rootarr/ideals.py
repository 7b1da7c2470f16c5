"""Order ideals of the root poset and the subsystems they restrict into.

An ideal is a downward-closed set of positive roots, stored as a bitmask
over root indices.  This module enumerates all ideals of a system,
restricts ideals into root subsystems, and lists each system's minimal bad
ideals once, as :func:`bad_ideals`: the star configuration around a
degree-3 Dynkin node, and the F4 ideal of all roots of height at most
four.  An ideal is bad iff its mask contains one of them, a test that
reads no order mask.  The search's candidate top blocks need no code here:
the filter of the simple root at position p is ``mask & system.up_masks[p]``,
and a bonded-pair complement block is ``mask & ~keep`` for an entry of
``table.bonds``.

A root subsystem is a :class:`SubsystemView`: a coordinate chart on its
base system that keeps the base's root indices, so a mask means the same
roots in a system and in every view of it.  A view is its parent's chart
with the two axes of a bonded pair merged into one.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Sequence

from .rootsystem import (
    RootSystem,
    _Frozen,
    _bits,
    _bond_blocks,
    _mask_of,
    _memoized,
    _root_names,
    format_root,
    parse_root,
)


class Ideal(_Frozen):
    """A downward-closed set of positive roots of a root system.

    ``mask`` is a bitmask over the system's root indices.  Validated on
    construction; ``system`` must be a :class:`RootSystem`, since a
    subsystem view's masks are already masks of its base system.
    """

    __slots__ = ("system", "mask")

    def __init__(self, system: RootSystem, mask: int):
        if not isinstance(system, RootSystem):
            raise ValueError("an ideal belongs to a full root system")
        if mask < 0 or mask > system.full_mask:
            raise ValueError("ideal mask out of range")
        if not system.is_downward_closed(mask):
            raise ValueError("set is not downward closed")
        object.__setattr__(self, "system", system)
        object.__setattr__(self, "mask", mask)

    @classmethod
    def from_roots(cls, system: RootSystem, roots: Sequence[int]) -> "Ideal":
        return cls(system, _mask_of(roots))

    @classmethod
    def from_generators(cls, system: RootSystem, roots: Sequence[int]) -> "Ideal":
        """The downward closure of the given root indices."""
        mask = 0
        for r in roots:
            mask |= system.down_masks[r]
        return cls(system, mask)

    @classmethod
    def parse(cls, system: RootSystem, text: str) -> "Ideal":
        """Parse generator roots, e.g. "1110,1101,0111".

        Generators are comma-separated digit strings; use ';' between
        generators if the roots themselves need the comma coordinate form.
        A single comma-form root ("1,2,1,1") is also accepted.  Empty text
        is the empty ideal; separators alone (",", " ; ") raise ValueError.
        """
        text = text.strip()
        if not text:
            return cls(system, 0)
        if ";" in text:
            tokens = [t for t in text.split(";") if t.strip()]
        else:
            tokens = [t for t in text.split(",") if t.strip()]
        if not tokens:
            raise ValueError(f"generator text {text!r} names no root")
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
        names = _root_names(self.system)
        return tuple(names[i] for i in _bits(self.mask))

    def __contains__(self, idx: int) -> bool:
        return bool(self.mask >> idx & 1)

    def __len__(self) -> int:
        return self.size


def enumerate_ideals(rs: RootSystem) -> Iterator[Ideal]:
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


class BadIdealWitness(NamedTuple):
    """Witness for one of the two minimal non-supersolvable ideals.

    ``kind`` is "star" (the three height-3 roots around a degree-3 Dynkin
    node) or "f4" (the height<=4 ideal of F4).  ``simple_roots`` are the
    root indices of the participating simple roots, the centre second for
    a star; ``generators`` are the three maximal roots of the bad ideal.
    One entry of :func:`bad_ideals`.
    """

    kind: str
    simple_roots: tuple[int, ...]
    generators: tuple[int, ...]


@_memoized
def bad_ideals(system: RootSystem) -> tuple[tuple[int, BadIdealWitness], ...]:
    """The system's minimal bad ideals, as ``(mask, witness)`` pairs.

    An ideal is bad iff it contains one of these masks, and the first such
    pair names its witness.  A star sits at each Dynkin node of degree 3,
    which only D and E have: its mask holds the three roots that are the
    centre plus two of its arms, all coordinates 1, with arms in index
    order.  In a simply laced system a 0/1 vector supported on a Dynkin
    path is a root, so all three exist.  F4 has one entry, the 13 roots of
    height at most four, generated by its three height-4 roots.  Types A,
    B, C and G have none.
    """
    n = system.rank
    found = []
    for centre in range(n):
        arms = system.dynkin_neighbours(centre)
        if len(arms) != 3:
            continue
        a, b, c = arms
        gens = tuple(
            system.index_of[tuple(int(k == centre or k in pair) for k in range(n))]
            for pair in ((a, b), (a, c), (b, c))
        )
        simples = tuple(system.simple_positions[k] for k in (a, centre, b, c))
        found.append((_mask_of(gens), BadIdealWitness("star", simples, gens)))
    if str(system.label) == "F4":
        mask = _mask_of(i for i, h in enumerate(system.heights) if h <= 4)
        gens = tuple(i for i, h in enumerate(system.heights) if h == 4)
        found.append((mask, BadIdealWitness("f4", system.simple_positions, gens)))
    return tuple(found)


class SubsystemView:
    """A root subsystem, as a coordinate chart on its base system.

    Its roots are the base roots in the span of an independent set delta
    of base roots, under their base indices.  ``simple_positions`` is delta,
    sorted; axis k of the chart is root ``simple_positions[k]``.  ``coords``
    maps each root's base index to its coordinates over delta,
    ``full_mask`` is the mask of the view's roots, ``bonds`` are its bonded
    pairs and ``_memos`` its memos, as for a :class:`RootSystem`.

    The search reads filters, chains and downward closure off the base
    order, because a view's componentwise order is the base order on its
    roots.  Views arise only by restriction, starting from the base's
    simple roots, and each restriction merges a bonded pair into
    a*delta_k1 + b*delta_k2 with a, b > 0 and keeps the other simple roots.
    A vector in the new span has nonnegative coordinates over the new basis
    iff it has them over the old one, since coordinate c of the merged
    root becomes old coordinates a*c and b*c.  So beta <= gamma over the
    new basis iff beta <= gamma over the old one, and by induction from
    the base's simple roots, iff beta <= gamma in the base.  This fails for
    an arbitrary independent delta: in A3, delta = {010, 111} makes 010 and
    111 incomparable over delta, although 010 <= 111 in the base.
    The view's roots are its parent's roots in the block's ``keep``: each is
    c_k1 / a times the merged root plus its other coordinates' simple roots,
    so axes k1 and k2 merge into c_k1 // a.  Construct via :func:`restrict_mask`.
    """

    def __init__(self, parent, block: tuple, delta: tuple[int, ...]):
        k1, _, a, _, bond, keep = block
        self.base = parent.base
        self.simple_positions = delta
        # (parent axis, divisor) for each new axis, in delta order.
        axes = [(k1, a) if p == bond else (parent.simple_positions.index(p), 1) for p in delta]
        self.coords: dict[int, tuple[int, ...]] = {
            i: tuple(parent.coords[i][k] // d for k, d in axes) for i in _bits(keep)
        }
        self.full_mask = keep
        self.bonds = _bond_blocks(self.coords.items())
        self._memos: dict = {}

    def __repr__(self) -> str:
        delta = ",".join(format_root(self.base, i) for i in self.simple_positions)
        return f"SubsystemView({self.base.label}: <{delta}>, {len(self.coords)} roots)"


def restrict_mask(table: RootSystem | SubsystemView, block: tuple) -> SubsystemView:
    """The subsystem spanned by a bond root and the other simple roots.

    ``block`` is one of ``table.bonds``; a mask inside its ``keep`` is a
    mask of the view as it stands.
    """
    k1, k2, _, _, bond, _ = block
    others = (p for k, p in enumerate(table.simple_positions) if k not in (k1, k2))
    return SubsystemView(table, block, tuple(sorted((bond, *others))))
