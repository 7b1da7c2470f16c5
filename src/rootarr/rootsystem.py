"""Finite crystallographic root systems in the simple-root basis.

Roots are stored as integer coordinate vectors over the simple roots, so a
positive root is a tuple of nonnegative integers and all arithmetic is exact:
coordinates, the Cartan matrix, the minimal integer symmetrizer and the
bilinear form it scales are all integers.  The root poset is the
componentwise order on these coordinates; covers raise the height by one
and differ by a simple root.

Conventions, fixed once and documented here:

* Cartan matrix: ``C[i][j] = <alpha_j, alpha_i^vee> = 2 (alpha_i, alpha_j) /
  (alpha_i, alpha_i)``, so row ``i`` of ``C`` pairs a coordinate vector
  against the coroot of ``alpha_i``.
* Simple-root numbering: A/B/C are numbered along the diagram with the
  double bond of B/C between the last two nodes (``alpha_{n-1}`` long in B,
  short in C).  D puts the branch node at ``alpha_{n-2}`` (for D4 this is
  ``alpha_2``, whose neighbours are ``alpha_1, alpha_3, alpha_4``).  F4 is
  ``alpha_1 - alpha_2 = alpha_3 - alpha_4`` with ``alpha_1, alpha_2`` short
  and the double bond between ``alpha_2`` and ``alpha_3``; this matches the
  coordinate labels used for the D4 and F4 posets throughout this package
  (e.g. ``0210`` is a root of F4 while ``0120`` is not).  G2 has ``alpha_1``
  long.  E6/E7/E8 use the numbering with the degree-3 node at ``alpha_4``
  and ``alpha_2`` attached to it.
* Root ordering: by height, then lexicographically on coordinates.  The
  ordering is fixed for the life of a ``RootSystem`` so bit-set indices are
  stable and every report is deterministic.  Subsystem views (see
  ``ideals``) keep these indices, so every mask, memo key and certificate
  of a system is over one index space.

Roots are generated height-by-height from the simple roots with the root
string condition (``gamma + alpha`` is a root iff ``p - <gamma, alpha^vee> >
0`` where ``p`` is the depth of the string below ``gamma``), not from
hardcoded tables; counts and closure under all simple reflections are
asserted by the test suite for every supported type.

Text format: a root is written as its coordinate digits in simple-root
order (``"1211"``), as in the frozen D4/F4 root tables; a comma-separated form
(``"1,2,1,1"``) is also accepted and is required if a coordinate ever
exceeds 9 (not reachable for the supported types, but guarded).
"""

from __future__ import annotations

import functools
import math
import re
from typing import Iterable, Iterator, Sequence

ADMISSIBLE_RANKS = {
    "A": range(1, 9),
    "B": range(2, 9),
    "C": range(2, 9),
    "D": range(3, 9),
    "E": range(6, 9),
    "F": range(4, 5),
    "G": range(2, 3),
}

_TYPE_RE = re.compile(r"^([A-Ga-g])\s*(\d+)$")


class _Frozen:
    """Read-only ``__slots__`` fields, compared, hashed, shown and pickled as a tuple.

    A subclass sets its fields in ``__init__`` through ``object.__setattr__``.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in zip(self.__slots__, self._values()))
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


class TypeLabel(_Frozen):
    """A Cartan type: family letter plus rank, admissible pairs only."""

    __slots__ = ("family", "rank")

    def __init__(self, family: str, rank: int):
        fam = family.upper()
        if fam not in ADMISSIBLE_RANKS or rank not in ADMISSIBLE_RANKS[fam]:
            raise ValueError(
                f"inadmissible type {fam}{rank}: supported are "
                "A1-A8, B2-B8, C2-C8, D3-D8, E6-E8, F4, G2"
            )
        object.__setattr__(self, "family", fam)
        object.__setattr__(self, "rank", rank)

    @classmethod
    def parse(cls, text: str) -> "TypeLabel":
        m = _TYPE_RE.match(text.strip())
        if not m:
            raise ValueError(f"cannot parse type label {text!r} (expected e.g. 'D4')")
        return cls(m.group(1), int(m.group(2)))

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


def _cartan_matrix(label: TypeLabel) -> list[list[int]]:
    """Cartan matrix for the documented numbering; C[i][j] = <a_j, a_i^vee>."""
    n = label.rank
    fam = label.family
    C = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def bond(i: int, j: int, cij: int = -1, cji: int = -1) -> None:
        C[i][j] = cij
        C[j][i] = cji

    if fam == "A":
        for i in range(n - 1):
            bond(i, i + 1)
    elif fam == "B":
        # alpha_n short: its row carries the -2.
        for i in range(n - 2):
            bond(i, i + 1)
        bond(n - 2, n - 1, -1, -2)
    elif fam == "C":
        # alpha_n long: the short row n-2 carries the -2.
        for i in range(n - 2):
            bond(i, i + 1)
        bond(n - 2, n - 1, -2, -1)
    elif fam == "D":
        for i in range(n - 2):
            bond(i, i + 1)
        bond(n - 3, n - 1)
    elif fam == "E":
        chain = [0, 2, 3, 4, 5, 6, 7][: n - 1]
        for i, j in zip(chain, chain[1:]):
            bond(i, j)
        bond(1, 3)
    elif fam == "F":
        # alpha_1, alpha_2 short; double bond between alpha_2 and alpha_3.
        bond(0, 1)
        bond(1, 2, -2, -1)
        bond(2, 3)
    elif fam == "G":
        # alpha_1 long, alpha_2 short.
        bond(0, 1, -1, -3)
    return C


def _symmetrizer(C: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Smallest positive integers d with d_i C[i][j] = d_j C[j][i].

    Propagated along the Dynkin graph; existence is guaranteed for
    admissible Cartan matrices.
    """
    n = len(C)
    d = [1] + [0] * (n - 1)
    pending = [0]
    while pending:
        i = pending.pop()
        for j in range(n):
            if i != j and C[i][j] != 0 and not d[j]:
                # d_j = d_i C[i][j] / C[j][i]: first scale d so that it divides.
                num, den = d[i] * C[i][j], C[j][i]
                scale = abs(den) // math.gcd(num, den)
                d = [x * scale for x in d]
                d[j] = num * scale // den
                pending.append(j)
    # Supported diagrams are connected, so every d[j] is set.
    assert all(d)
    g = math.gcd(*d)
    return tuple(x // g for x in d)


def _reduce(rows: list[tuple[int, tuple[int, ...]]], v: Sequence[int]):
    """Fraction-free reduction of v against echelon rows (pivot, row)."""
    v = list(v)
    for piv, row in rows:
        c = v[piv]
        if c:
            lead = row[piv]
            for t in range(len(v)):
                v[t] = lead * v[t] - c * row[t]
    return v


def _echelon(vectors: Iterable[Sequence[int]]) -> list[tuple[int, tuple[int, ...]]]:
    """Integer echelon rows (pivot, row) spanning the given vectors."""
    rows: list[tuple[int, tuple[int, ...]]] = []
    for v in vectors:
        r = _reduce(rows, v)
        piv = next((t for t, x in enumerate(r) if x), None)
        if piv is not None:
            if r[piv] < 0:
                r = [-x for x in r]
            rows.append((piv, tuple(r)))
    return rows


def _span_mask(
    rows: list[tuple[int, tuple[int, ...]]], vectors: Sequence[Sequence[int]]
) -> int:
    """Bitmask of the positions in ``vectors`` that lie in the rows' span."""
    mask = 0
    for k, w in enumerate(vectors):
        if not any(_reduce(rows, w)):
            mask |= 1 << k
    return mask


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _mask_of(indices: Iterable[int]) -> int:
    """The bitmask with the given bits set; the inverse of :func:`_bits`."""
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask


def _memo_table(owner, fn) -> dict:
    """``fn``'s memo on ``owner``, in ``owner._memos``; it dies with the owner."""
    return owner._memos.setdefault(fn, {})


def _memoized(fn):
    """Memoize ``fn(owner, key, *rest)`` on ``key`` in its ``_memo_table``.

    ``key`` is the first argument after the owner, or None when there is
    none.  The one condition: ``rest`` must be fixed by the key and the
    owner, as a later call with the same key gets the first call's result.
    The table is keyed by the decorated function, which pickles by name.
    """

    @functools.wraps(fn)
    def call(owner, *args):
        key = args[0] if args else None
        table = owner._memos.get(call) or _memo_table(owner, call)
        value = table.get(key, call)  # no result is the wrapper itself
        if value is call:
            value = table[key] = fn(owner, *args)
        return value

    return call


def _bond_blocks(roots: Iterable[tuple[int, tuple[int, ...]]]) -> tuple[tuple, ...]:
    """Sorted ``(k1, k2, a, b, bond, keep)``, one per root supported on two axes.

    Root ``bond`` is ``a*alpha_k1 + b*alpha_k2`` with k1 < k2, over a table
    of (index, coordinates) roots.  ``keep`` masks the roots whose (k1, k2)
    pair is a nonnegative integer multiple of (a, b), which are the roots in
    the span of the bond and the other simple roots, as a and b are coprime.
    The bonded-pair complement block of an ideal ``mask`` is ``mask & ~keep``.
    """
    roots = list(roots)
    blocks = []
    for bond, v in roots:
        support = [k for k, x in enumerate(v) if x]
        if len(support) == 2:
            k1, k2 = support
            a, b = v[k1], v[k2]
            keep = _mask_of(i for i, c in roots if c[k1] % a == 0 and c[k2] == c[k1] // a * b)
            blocks.append((k1, k2, a, b, bond, keep))
    return tuple(sorted(blocks))


class RootSystem:
    """Positive roots, Cartan data, the root poset and the bilinear form.

    Holds the positive roots as coordinate vectors over the simple roots,
    plus the componentwise order, heights, covers, and the bitmask helpers
    every other module builds on; ``bonds`` holds the bonded pairs and their
    blocks (:func:`_bond_blocks`).  Immutable after construction apart from
    ``_memos`` (see :func:`_memoized`), and safe to share across workers.
    Use :func:`build_root_system` to construct one.
    """

    def __init__(self, label: TypeLabel):
        self.label = label
        self.rank = label.rank
        self.cartan = tuple(tuple(r) for r in _cartan_matrix(label))
        self.symmetrizer = _symmetrizer(self.cartan)
        # form[i][j] = (alpha_i, alpha_j) = d_i C[i][j], an integer.
        self.form = tuple(
            tuple(self.symmetrizer[i] * self.cartan[i][j] for j in range(self.rank))
            for i in range(self.rank)
        )
        self._finish(self._generate_roots())
        self.bonds = _bond_blocks(enumerate(self.coords))
        self._neighbours = tuple(
            tuple(j for j in range(self.rank) if j != i and self.cartan[i][j] != 0)
            for i in range(self.rank)
        )
        self._memos: dict = {}

    # -- construction ----------------------------------------------------

    def _finish(self, coords: list[tuple[int, ...]]) -> None:
        """Fix the root order and derive the order masks from the covers.

        Roots are sorted by height, so each root comes after the roots it
        covers.  Root v covers v - e_k whenever that vector is a root, and
        ``down[i]`` is root i with the down sets of the roots it covers;
        ``up`` is the transpose of ``down``.  The covers generate the
        componentwise order: if beta < gamma, then gamma - beta =
        sum c_k alpha_k is nonzero with c_k >= 0, so its norm
        sum c_k (gamma - beta, alpha_k) is positive and some k with c_k > 0
        has (gamma - beta, alpha_k) > 0.  Then (gamma, alpha_k) > 0, and
        gamma - alpha_k is a root with beta <= gamma - alpha_k (gamma is not
        alpha_k, which has no positive root below it); or (beta, alpha_k) < 0,
        and beta + alpha_k is a root with beta + alpha_k <= gamma.  Either
        way a cover shortens the gap, and induction on the height difference
        does the rest.
        """
        coords.sort(key=lambda v: (sum(v), v))
        self.coords = tuple(coords)
        self.nroots = len(coords)
        self.index_of = {v: i for i, v in enumerate(self.coords)}
        self.heights = tuple(sum(v) for v in self.coords)
        n, m = self.rank, self.nroots
        down = [0] * m  # down[i]: mask of j with root_j <= root_i
        covers = []
        for i, v in enumerate(self.coords):
            acc = 1 << i
            for k in range(n):
                if v[k]:
                    j = self.index_of.get(v[:k] + (v[k] - 1,) + v[k + 1 :])
                    if j is not None:
                        acc |= down[j]
                        covers.append((j, i))
            down[i] = acc
        up = [0] * m
        for i, d in enumerate(down):
            for j in _bits(d):
                up[j] |= 1 << i
        self.down_masks = tuple(down)
        self.up_masks = tuple(up)
        self.cover_pairs = tuple(sorted(covers))
        # Positions of the unit vectors (the simple roots).
        simple = [None] * n
        for i, v in enumerate(self.coords):
            if sum(v) == 1:
                simple[v.index(1)] = i
        assert all(s is not None for s in simple)
        self.simple_positions = tuple(simple)
        self.full_mask = (1 << m) - 1

    def _pairing(self, v: tuple[int, ...], i: int) -> int:
        """<v, alpha_i^vee> for a coordinate vector v."""
        row = self.cartan[i]
        return sum(row[j] * v[j] for j in range(self.rank))

    def _generate_roots(self) -> list[tuple[int, ...]]:
        n = self.rank
        simple = [tuple(1 if k == i else 0 for k in range(n)) for i in range(n)]
        known: set[tuple[int, ...]] = set(simple)
        level = list(simple)
        while level:
            nxt = []
            for v in level:
                for i in range(n):
                    # Depth of the alpha_i string below v among known roots.
                    p = 0
                    w = list(v)
                    while True:
                        w[i] -= 1
                        if w[i] < 0 or tuple(w) not in known:
                            break
                        p += 1
                    if p - self._pairing(v, i) > 0:
                        u = list(v)
                        u[i] += 1
                        u = tuple(u)
                        if u not in known:
                            known.add(u)
                            nxt.append(u)
            level = nxt
        return list(known)

    # -- order helpers -------------------------------------------------

    def leq(self, i: int, j: int) -> bool:
        """Componentwise order: root_i <= root_j."""
        return bool(self.down_masks[j] >> i & 1)

    def is_downward_closed(self, mask: int) -> bool:
        return all(self.down_masks[i] & ~mask == 0 for i in _bits(mask))

    def is_chain_mask(self, mask: int) -> bool:
        """Whether the roots in ``mask`` are totally ordered.

        ``_finish`` sorts the roots by height, so ``_bits(mask)`` lists the
        members in (height, index) order, and they form a chain iff each
        one lies below the next.
        """
        members = list(_bits(mask))
        return all(self.leq(a, b) for a, b in zip(members, members[1:]))

    # -- bilinear form and reflections ------------------------------------

    def form_value(self, u: Sequence[int], v: Sequence[int]) -> int:
        """Exact (u, v) for coordinate vectors in the simple-root basis."""
        total = 0
        for i, ui in enumerate(u):
            if ui:
                row = self.form[i]
                total += ui * sum(row[j] * v[j] for j in range(self.rank))
        return total

    def reflect_vector(self, i: int, v: Sequence[int]) -> tuple[int, ...]:
        """Image of coordinate vector v under the simple reflection s_i."""
        c = self._pairing(tuple(v), i)
        return tuple(x - c if k == i else x for k, x in enumerate(v))

    def dynkin_neighbours(self, i: int) -> tuple[int, ...]:
        return self._neighbours[i]

    @property
    def lacing(self) -> int:
        """1, 2 or 3 for simply / doubly / triply laced."""
        return max(
            (-self.cartan[i][j] for i in range(self.rank) for j in range(self.rank) if i != j),
            default=1,
        ) or 1

    @property
    def base(self) -> "RootSystem":
        """The system itself, as the ``base`` of a subsystem view names it."""
        return self

    # -- rank-2 span table -------------------------------------------------

    def pair_span_mask(self, i: int, j: int) -> int:
        """Mask of positive roots in the rational span of roots i and j.

        Distinct positive roots are never parallel, so the span is a plane;
        membership is decided exactly.  Read from the system's one pair-span
        table (:func:`_pair_spans`), filled on first use.
        """
        if i == j:
            raise ValueError("pair span needs two distinct roots")
        return _pair_table(self)[1][i][j] or _pair_spans(self, 1 << i | 1 << j)[i][j]

    def __repr__(self) -> str:
        return f"RootSystem({self.label}, {self.nroots} positive roots)"


@_memoized
def _pair_table(system: RootSystem) -> list:
    """The system's pair-span table ``spans`` with its fill mask, ``[filled, spans]``.

    ``spans[i][j]`` is ``pair_span_mask(i, j)`` for i and j in ``filled``,
    and 0 before: a span holds its two roots, so it is never 0.  The
    diagonal stays 0.
    """
    n = system.nroots
    return [0, [[0] * n for _ in range(n)]]


def _pair_spans(system: RootSystem, ground: int) -> list[list[int]]:
    """The system's pair-span table, with every pair of roots of ``ground`` filled.

    Each root of ``ground`` not yet filled is paired with the filled roots,
    those filled before it here included, so a filled ground costs one
    mask test.  A missing span is filled by elimination: the roots that
    reduce to zero against the echelon rows of the pair.  Entries are
    system masks, not traced on ``ground``, so one table serves every
    ground set.
    """
    table = _pair_table(system)
    filled, spans = table
    coords = system.coords
    for i in _bits(ground & ~filled):
        for j in _bits(filled):
            spans[i][j] = spans[j][i] = _span_mask(_echelon((coords[i], coords[j])), coords)
        filled |= 1 << i
    table[0] = filled
    return spans


def build_root_system(label: TypeLabel | str) -> RootSystem:
    """Construct the full positive system for an admissible type.

    Roots are generated height-by-height from the simple roots via root
    strings over the Cartan matrix; the ordering is by height then
    lexicographic on coordinates.  Raises ``ValueError`` for inadmissible
    (family, rank) pairs.
    """
    if isinstance(label, str):
        label = TypeLabel.parse(label)
    return RootSystem(label)


def reflect(rs: RootSystem, alpha: int, gamma: int) -> tuple[int, int]:
    """Apply the simple reflection for root index ``alpha`` to root ``gamma``.

    ``alpha`` must be a simple root.  Returns ``(sign, index)`` with sign
    +1/-1: the reflection permutes the positive roots other than ``alpha``
    itself, which is sent to its negative.
    """
    v = rs.coords[alpha]
    if sum(v) != 1:
        raise ValueError(f"root {v} is not simple")
    i = v.index(1)
    image = rs.reflect_vector(i, rs.coords[gamma])
    if all(x >= 0 for x in image):
        return (1, rs.index_of[image])
    neg = tuple(-x for x in image)
    return (-1, rs.index_of[neg])


# -- root text format -------------------------------------------------------


def parse_root(rs: RootSystem, text: str) -> int:
    """Parse a coordinate string ('1211' or '1,2,1,1') to a root index."""
    text = text.strip()
    if "," in text:
        parts = text.split(",")
    else:
        parts = list(text)
    if len(parts) != rs.rank or not all(p.strip().isdigit() for p in parts):
        raise ValueError(
            f"bad root {text!r}: expected {rs.rank} nonnegative integer coordinates"
        )
    v = tuple(int(p) for p in parts)
    idx = rs.index_of.get(v)
    if idx is None:
        raise ValueError(f"{text!r} is not a positive root of this system")
    return idx


@_memoized
def _root_names(rs: RootSystem) -> tuple[str, ...]:
    """The coordinate string of every root, in index order."""
    return tuple(
        "".join(map(str, v)) if all(x <= 9 for x in v) else ",".join(map(str, v))
        for v in rs.coords
    )


def format_root(rs: RootSystem, idx: int) -> str:
    """Format a root index as its coordinate string."""
    return _root_names(rs)[idx]
