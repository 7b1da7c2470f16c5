"""Executable classifiers for root ideal arrangements.

Four predicates are computed independently for every ideal and must agree:

* chain peelability: the ideal can be emptied by repeatedly removing an
  order filter that is a chain through a minimal element (a memoized
  backtracking search over which minimal element to peel);
* supersolvability, decided twice: by a generic matroid search over
  modular coatom flats, and by the root-ideal fast path whose top-block
  candidates are restricted to filters of simple roots and to the
  bonded-pair complement blocks, each tested for modularity and never by
  the chain test, recursing into root subsystems after the latter;
* line-closedness of the arrangement;
* absence of the two minimal obstructions (star configuration / the F4
  height<=4 ideal): one scan of the system's ``ideals.bad_ideals`` table,
  which reads neither the order masks nor the chain test.

Each search returns its blocks bottom-up as (block mask, meta) pairs, with
meta as in ``PartitionCertificate.block_meta``, and ``_certificate`` turns
any of them into a certificate.  Each verdict is read off its own route's
search alone.  Any disagreement raises :class:`EquivalenceViolation`; it
signals an implementation bug and is never swallowed.  The Koszul verdict
of a record is definitionally tied to supersolvability and is not an
independent algebraic computation.
"""

from __future__ import annotations

import shlex
from typing import NamedTuple, Optional, Sequence

from .rootsystem import RootSystem, _bits, _echelon, _memoized, _root_names, format_root
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
def _generic_search(
    system: RootSystem, mask: int, rank: int, flats: Sequence[tuple[int, int]]
) -> _Found:
    """Coatom complements with meta None, bottom-up, or None; memoized on ``mask``.

    ``flats`` holds every flat on ``mask``, maybe more, as (mask, rank)
    pairs in (rank, mask) order.  The flats of a matroid restricted to a
    flat X are its flats inside X, so a coatom's search reads the same
    list; it builds nothing.  So ``rank`` and the flats the search reads
    are fixed by ``mask``.
    """
    if mask == 0:
        return ()
    for fm, fr in flats:
        if fr != rank - 1 or fm & ~mask:
            continue
        pi = mask & ~fm
        members = list(_bits(pi))
        if not all(
            system.pair_span_mask(members[a], members[b]) & fm
            for a in range(len(members))
            for b in range(a + 1, len(members))
        ):
            continue
        sub = _generic_search(system, fm, rank - 1, flats)
        if sub is not None:
            return sub + ((pi, None),)
    return None


def is_supersolvable_generic(arr: Arrangement) -> Optional[PartitionCertificate]:
    """Type-agnostic supersolvability: search over modular coatom flats.

    Valid for any arrangement; the top block is the complement of a coatom
    flat met by the pair-closure of each of the block's pairs, recursing on
    the flat.  Deterministic: coatoms are tried in flat order.
    """
    found = _generic_search(arr.system, arr.ground_mask, arr.rank(), arr.flats())
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
