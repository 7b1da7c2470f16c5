"""Executable classifiers for root ideal arrangements.

Four predicates are computed independently for every ideal and must agree:

* chain peelability: the ideal can be emptied by repeatedly removing an
  order filter that is a chain through a minimal element (a memoized
  backtracking search over which minimal element to peel);
* supersolvability, decided twice: by a generic matroid search over
  modular coatoms, found from lines, and by the root-ideal fast path whose
  top-block candidates are restricted to filters of simple roots and to the
  bonded-pair complement blocks, each tested for modularity and never by
  the chain test, recursing into root subsystems after the latter;
* line-closedness of the arrangement;
* absence of the two minimal obstructions (star configuration / the F4
  height<=4 ideal): one scan of the system's ``ideals.bad_ideals`` table,
  which reads neither the order masks nor the chain test.

The generic search never builds the flat lattice.  Let X be a modular
coatom of the arrangement on ground G and a a root outside X.  A line L
through a (a pair span traced on G) is not inside X, so L & X has rank
at most one, and it is not empty: for b on L outside X, the pair a, b
spans a line that meets X.  So X meets each line through a in exactly
one root, and as every other root lies on one such line, X is the union
of those roots.  ``_modular_coatoms`` fixes a = min(G - X), so the roots
below a are forced into X, and branches on the root picked on the first
line not yet met, closing the set under lines after each pick.  On X's
own picks the set stays inside X, which is 2-closed: a never enters it
and no line is met twice (the prunes), and the leaf is X.  So every
modular coatom is reached, and once: a is fixed by X, and two branches
differ in the root they pick on one line.  A leaf x is accepted iff a is
not in span(x) and each pair of G - x spans a line that meets x.  Then x
is a coatom: every other root b lies in span(a, c) for some c in x, so
x + a spans G, and b is not in span(x), else a would be.  The pair test
is then the modular-coatom test.

Each search returns its blocks bottom-up as (block mask, meta) pairs, with
meta as in ``PartitionCertificate.block_meta``, and ``_certificate`` turns
any of them into a certificate.  Each verdict is read off its own route's
search alone.  Any disagreement raises :class:`EquivalenceViolation`; it
signals an implementation bug and is never swallowed.  The Koszul verdict
of a record is definitionally tied to supersolvability and is not an
independent algebraic computation.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Optional, Sequence

from .rootsystem import RootSystem, _bits, _echelon, _memoized, _reduce, _root_names, format_root
from .rootsystem import _pair_spans
from .ideals import BadIdealWitness, Ideal, SubsystemView, bad_ideals, restrict_mask
from .matroid import Arrangement


class EquivalenceViolation(RuntimeError):
    """The classification predicates disagreed on some ideal."""


class PartitionCertificate(NamedTuple):
    """An ordered partition witnessing a peeling or a supersolving partition.

    ``blocks`` are tuples of root indices, listed bottom-up: the block
    peeled (or split off) first is the last one.  ``block_meta`` parallels
    ``blocks``: ("F", alpha) for the filter of simple root ``alpha``,
    ("G", alpha, beta, a, b) for a bonded-pair complement block, or None
    when the generic search found the block as a coatom complement.
    """

    kind: str  # "peeling" or "supersolving"
    blocks: tuple[tuple[int, ...], ...]
    block_meta: tuple[Optional[tuple], ...]

    def block_sizes(self) -> tuple[int, ...]:
        return tuple(sorted(len(b) for b in self.blocks))

    def to_dict(self, system: RootSystem) -> dict:
        root = _root_names(system).__getitem__
        metas = []
        for m in self.block_meta:
            if m is None:
                metas.append(None)
            elif m[0] == "F":
                metas.append(["F", root(m[1])])
            else:
                metas.append(["G", root(m[1]), root(m[2]), m[3], m[4]])
        return {
            "kind": self.kind,
            "blocks": [[root(i) for i in b] for b in self.blocks],
            "block_meta": metas,
        }


_Found = Optional[tuple[tuple[int, Optional[tuple]], ...]]


def _certificate(kind: str, found: _Found) -> Optional[PartitionCertificate]:
    """The certificate of a search's (block mask, meta) pairs; None for None."""
    if found is None:
        return None
    return PartitionCertificate(
        kind, tuple(tuple(_bits(b)) for b, _ in found), tuple(m for _, m in found)
    )


# -- chain peeling -----------------------------------------------------------


@_memoized
def _peel_search(system: RootSystem, mask: int) -> _Found:
    """Peeled filters with ("F", minimal root), bottom-up, or None.

    The minimal elements of a root-poset ideal are exactly its simple
    roots: anything of height two or more covers a root, which downward
    closure keeps in the ideal.  They are tried in simple-root order.
    """
    if mask == 0:
        return ()
    for m in (p for p in system.simple_positions if mask >> p & 1):
        fmask = mask & system.up_masks[m]
        if not system.is_chain_mask(fmask):
            continue
        rest = _peel_search(system, mask & ~fmask)
        if rest is not None:
            return rest + ((fmask, ("F", m)),)
    return None


def chain_peeling(ideal: Ideal) -> Optional[PartitionCertificate]:
    """Find a chain peeling, or None if no peeling exists.

    Repeatedly selects a minimal element whose filter inside the remaining
    ideal is a chain, with memoized backtracking over the choice; a chain
    poset is its own (single-block) peeling.
    """
    return _certificate("peeling", _peel_search(ideal.system, ideal.mask))


def validate_chain_peeling(ideal: Ideal, cert: PartitionCertificate) -> bool:
    """Check a certificate against the definition of a chain peeling."""
    system = ideal.system
    mask = ideal.mask
    blocks = list(cert.blocks)
    while blocks:
        block = blocks.pop()  # peeled first
        bmask = 0
        for b in block:
            if b < 0 or not mask >> b & 1 or bmask >> b & 1:
                return False
            bmask |= 1 << b
        if not system.is_chain_mask(bmask):
            return False
        # order filter of the current poset
        for pos in _bits(bmask):
            if system.up_masks[pos] & mask & ~bmask:
                return False
        if not any(
            system.down_masks[pos] & mask == 1 << pos for pos in _bits(bmask)
        ):
            return False  # must contain a minimal element
        mask &= ~bmask
    return mask == 0


# -- generic supersolvability (modular coatom chain) -------------------------


def _arr(system: RootSystem, mask: int) -> Arrangement:
    return Arrangement(system, _bits(mask))


@_memoized
def _generic_search(system: RootSystem, mask: int, spans: list[list[int]]) -> _Found:
    """Coatom complements with meta None, bottom-up, or None; memoized on ``mask``.

    ``spans`` is the system's pair-span table, filled on ``mask`` and so on
    every coatom, whose search reads it too.
    """
    if mask == 0:
        return ()
    for x in _modular_coatoms(spans, system.coords, mask):
        sub = _generic_search(system, x, spans)
        if sub is not None:
            return sub + ((mask & ~x, None),)
    return None


def _modular_coatoms(spans: list[list[int]], coords: Sequence, ground: int) -> Iterator[int]:
    """Every modular coatom of the arrangement on ``ground``, once each, as a mask.

    For each root a of the ground, lowest first, the coatoms X with
    a = min(ground - X), from the lines through a (module docstring).
    ``spans`` is a pair-span table filled on ``ground``.
    """
    below = 0  # the 2-closure of the ground roots below a
    for a in _bits(ground):
        bit = 1 << a
        if below & bit:
            continue
        row, rest = spans[a], ground ^ bit
        lines, left = [], rest
        while left:
            low = left & -left
            lines.append(row[low.bit_length() - 1] & rest)
            left &= ~(lines[-1] | low)
        for x in _line_picks(spans, ground, bit, lines, below):
            if _pairs_meet(spans, list(_bits(rest & ~x)), x) and any(
                _reduce(_echelon(coords[i] for i in _bits(x)), coords[a])
            ):
                yield x
        below = _close_lines(spans, ground, below, bit)


def _line_picks(
    spans: list[list[int]], ground: int, bit: int, lines: list[int], state: int
) -> Iterator[int]:
    """The 2-closed supersets of ``state`` without ``bit`` that meet each line once.

    ``lines`` are the lines through root ``bit``, without it; ``state`` is
    2-closed.  Branches on the roots of the first line not yet met.
    """
    if state & bit:
        return
    open_line = 0
    for line in lines:
        met = line & state
        if met & met - 1:
            return
        if not (met or open_line):
            open_line = line
    if not open_line:
        yield state
    for b in _bits(open_line):
        grown = _close_lines(spans, ground, state, 1 << b)
        yield from _line_picks(spans, ground, bit, lines, grown)


def _close_lines(spans: list[list[int]], ground: int, state: int, add: int) -> int:
    """The 2-closure in ``ground`` of a 2-closed ``state`` plus the roots of ``add``."""
    out, members = state | add, list(_bits(state))
    new = list(_bits(add))
    for x in new:  # also visits the roots appended below
        row, acc = spans[x], 0
        for y in members:
            acc |= row[y]
        members.append(x)
        grown = acc & ground & ~out
        if grown:
            out |= grown
            new.extend(_bits(grown))
    return out


def _pairs_meet(spans: list[list[int]], members: list[int], x: int) -> bool:
    """Whether each pair of ``members`` spans a line that meets ``x``."""
    return all(
        spans[members[i]][members[j]] & x
        for i in range(len(members))
        for j in range(i + 1, len(members))
    )


def is_supersolvable_generic(arr: Arrangement) -> Optional[PartitionCertificate]:
    """Type-agnostic supersolvability: search over modular coatom flats.

    Valid for any arrangement; the top block is the complement of a
    modular coatom, recursing on the coatom.  Deterministic: coatoms are
    tried in the order ``_modular_coatoms`` yields them.
    """
    system, ground = arr.system, arr.ground_mask
    found = _generic_search(system, ground, _pair_spans(system, ground))
    return _certificate("supersolving", found)


def validate_supersolving(system: RootSystem, blocks: Sequence[Sequence[int]]) -> bool:
    """Check an ordered partition against the supersolving conditions.

    Stage i (the first i blocks) must have rank i, and no rank-2 flat of
    stage i may sit inside block i.  An index outside the system fails.
    """
    stage = 0
    for i, block in enumerate(blocks, start=1):
        bmask = 0
        for x in block:
            if not 0 <= x < system.nroots or stage >> x & 1 or bmask >> x & 1:
                return False
            bmask |= 1 << x
        if not bmask:
            return False
        stage |= bmask
        if len(_echelon(system.coords[x] for x in _bits(stage))) != i:
            return False
        members = list(_bits(bmask))
        for a in range(len(members)):
            for b in range(a + 1, len(members)):
                span = system.pair_span_mask(members[a], members[b])
                if not span & stage & ~bmask:
                    return False
    return True


# -- root-ideal supersolvability fast path ------------------------------------


@_memoized
def _rootideal_search(table: RootSystem | SubsystemView, mask: int) -> _Found:
    """Block masks with meta, bottom-up, for the first top block that works.

    ``mask`` is an ideal of ``table``, which may lack simple roots.
    None when no candidate top block leads to a supersolving partition.
    Candidates are each simple root's filter, searched on in ``table``,
    then each bonded-pair complement block of ``table.bonds``, searched on
    in the view of its bond.  The order comes from the base system, which a
    view's order agrees with (see ``SubsystemView``).

    One test accepts every candidate: each pair of its roots spans a line
    that meets the rest of the ideal.  The rest of alpha's filter is the
    ideal's part of the span of the other simple roots, a flat one rank
    lower; so the filter is a coatom complement, and the test is the
    modular-coatom test.
    """
    if mask == 0:
        return ()
    base, simple = table.base, table.simple_positions
    tops = [(mask & base.up_masks[p], ("F", p), None) for p in simple if mask >> p & 1]
    for bond in table.bonds:
        k1, k2, a, b, root, keep = bond
        if mask >> root & 1 and mask & ~keep:  # without root the rest would lose a full rank
            tops.append((mask & ~keep, ("G", simple[k1], simple[k2], a, b), bond))
    for top, meta, bond in tops:
        rest = mask & ~top
        members = tuple(_bits(top))
        if not all(
            base.pair_span_mask(members[x], members[y]) & rest
            for x in range(len(members))
            for y in range(x + 1, len(members))
        ):
            continue
        view = table
        if bond is not None:
            view = restrict_mask(table, bond)
            assert all(  # rest is an ideal of the view
                base.down_masks[i] & view.full_mask & ~rest == 0 for i in _bits(rest)
            )
        sub = _rootideal_search(view, rest)
        if sub is not None:
            return sub + ((top, meta),)
    return None


def is_supersolvable_rootideal(ideal: Ideal) -> Optional[PartitionCertificate]:
    """Supersolvability via the root-ideal block structure.

    Same verdict as the generic search, but top-block candidates are only
    the filters of simple roots and the bonded-pair complement blocks;
    after the latter, and only there, the search continues inside the
    rank-lowered root subsystem.  Candidates are tried in simple-root
    order, filters before pair blocks.  Each passes by the modular-coatom
    test, never by peeling's chain test; by the paper's theorem a remainder
    is supersolvable iff it is peelable, so on a supersolvable ideal the
    certificate equals the peeling's, blocks and meta alike.
    """
    return _certificate("supersolving", _rootideal_search(ideal.system, ideal.mask))


def exponents(cert: PartitionCertificate) -> tuple[int, ...]:
    """The multiset (sorted tuple) of block sizes of a supersolving partition.

    Chain peelings qualify: every peeling is a supersolving partition.
    """
    if cert is None:
        raise ValueError("no certificate")
    return cert.block_sizes()


# -- the combined classifier ---------------------------------------------------


class ClassificationRecord(NamedTuple):
    """Per-ideal verdicts plus witnesses and certificates.

    The four verdict fields always agree (their equality is asserted at
    classification time); ``koszul`` repeats ``supersolvable`` by the
    proven equivalence and is not an independent algebraic computation.
    """

    ideal: tuple[str, ...]
    size: int
    chain_peelable: bool
    supersolvable: bool
    line_closed: bool
    koszul: bool
    bad_ideal: Optional[BadIdealWitness]
    exponents: Optional[tuple[int, ...]]
    peeling: Optional[PartitionCertificate]
    supersolving: Optional[PartitionCertificate]
    non_flat_witness: Optional[tuple[str, ...]]

    def to_dict(self, system: RootSystem) -> dict:
        bad = None
        if self.bad_ideal is not None:
            names = _root_names(system)
            bad = {
                "kind": self.bad_ideal.kind,
                "simple_roots": [names[i] for i in self.bad_ideal.simple_roots],
                "generators": [names[i] for i in self.bad_ideal.generators],
            }
        return {
            "ideal": list(self.ideal),
            "size": self.size,
            "chain_peelable": self.chain_peelable,
            "supersolvable": self.supersolvable,
            "line_closed": self.line_closed,
            "koszul": self.koszul,
            "bad_ideal": bad,
            "exponents": list(self.exponents) if self.exponents is not None else None,
            "peeling": self.peeling.to_dict(system) if self.peeling else None,
            "supersolving": self.supersolving.to_dict(system) if self.supersolving else None,
            "non_flat_witness": list(self.non_flat_witness) if self.non_flat_witness else None,
        }


def _bad_ideal(ideal: Ideal) -> Optional[BadIdealWitness]:
    """The witness of the first of the system's bad ideals inside ``ideal``."""
    return next((w for m, w in bad_ideals(ideal.system) if ideal.mask & m == m), None)


def _classify_command(ideal: Ideal) -> str:
    """The ``rootarr classify`` command line for an ideal of a full system.

    The ideal is named by its maximal roots, in root order.
    """
    import shlex  # here, as only a disagreement needs it

    system, mask = ideal.system, ideal.mask
    top = [format_root(system, i) for i in _bits(mask) if system.up_masks[i] & mask == 1 << i]
    return f"rootarr classify --type {system.label} --ideal {shlex.quote(','.join(top))}"


def classify_ideal(ideal: Ideal) -> ClassificationRecord:
    """Run all predicates on one ideal and assert their agreement.

    Raises :class:`EquivalenceViolation` if chain peelability, the two
    supersolvability searches, line-closedness and bad-ideal absence do
    not all coincide; its message ends with the ``rootarr classify``
    command that reproduces the disagreement.
    """
    system = ideal.system
    bad = _bad_ideal(ideal)
    peel = chain_peeling(ideal)
    ss_fast = is_supersolvable_rootideal(ideal)
    arr = _arr(system, ideal.mask)
    ss_generic = is_supersolvable_generic(arr)
    line_closed, lc_witness = arr.is_line_closed()

    verdicts = {
        "chain_peelable": peel is not None,
        "supersolvable": ss_fast is not None,
        "supersolvable_generic": ss_generic is not None,
        "line_closed": line_closed,
        "bad_ideal_free": bad is None,
    }
    if len(set(verdicts.values())) != 1:
        raise EquivalenceViolation(
            f"predicates disagree on ideal {ideal.coordinate_strings()}: {verdicts}; "
            f"reproduce with: {_classify_command(ideal)}"
        )

    supersolvable = ss_fast is not None
    return ClassificationRecord(
        ideal=ideal.coordinate_strings(),
        size=ideal.size,
        chain_peelable=peel is not None,
        supersolvable=supersolvable,
        line_closed=line_closed,
        koszul=supersolvable,
        bad_ideal=bad,
        exponents=exponents(ss_fast) if supersolvable else None,
        peeling=peel,
        supersolving=ss_fast,
        non_flat_witness=(
            tuple(format_root(system, i) for i in sorted(lc_witness))
            if lc_witness is not None
            else None
        ),
    )
