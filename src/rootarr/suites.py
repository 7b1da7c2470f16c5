"""Named exhaustive property suites, runnable from the command line.

Each suite sweeps one system completely and reports a checked count plus
any counterexamples verbatim.  They re-state the structural facts the
classifiers rely on, so a failure here pinpoints where an implementation
went wrong:

* ``rank2``: a rank-2 subsystem has at most one incomparable pair of
  positive roots, and such a pair is minimal in the subsystem; plus the
  sign rules relating (beta, gamma) to membership of beta +- gamma (the
  latter only for systems without triple bonds).
* ``chainroot``: if an interval [b1, b2] is a nonempty chain, b2 - b1 is
  k times a positive root with k in {1, 2, 3}; k = 3 needs a triple bond,
  k = 2 a double or triple bond.
* ``twocases``: the top block of any supersolving partition found by the
  generic search is a chain filter of a simple root or a bonded-pair
  complement block.
* ``peel-implies-ss``: every chain peeling, re-validated from scratch,
  satisfies the supersolving partition conditions.
* ``exponents-vs-chi``: for supersolvable ideals the characteristic
  polynomial equals the product of (t - block size), and the peeling and
  supersolving certificates carry the same block-size multiset.
* ``line-closed-oracle``: the walk over 2-closed states that decides
  line-closedness agrees with direct enumeration of all 2-closed subsets,
  and its witness is 2-closed and not a flat.
"""

from __future__ import annotations

from .rootsystem import RootSystem, _bits, _mask_of, format_root
from .ideals import Ideal, enumerate_ideals
from .classify import (
    _arr,
    chain_peeling,
    is_supersolvable_generic,
    is_supersolvable_rootideal,
    validate_supersolving,
)


class SuiteResult:
    """One suite's sweep of one system: the checked count and counterexamples."""

    __slots__ = ("suite", "type_label", "checked", "failures")

    def __init__(self, suite: str, type_label: str):
        self.suite, self.type_label = suite, type_label
        self.checked = 0
        self.failures: list[str] = []

    @property
    def ok(self) -> bool:
        return not self.failures


def suite_rank2(rs: RootSystem) -> SuiteResult:
    res = SuiteResult("rank2", str(rs.label))
    n = rs.nroots
    for i in range(n):
        for j in range(i + 1, n):
            res.checked += 1
            span = rs.pair_span_mask(i, j)
            members = list(_bits(span))
            incomparable = [
                (a, b)
                for x, a in enumerate(members)
                for b in members[x + 1 :]
                if not rs.leq(a, b) and not rs.leq(b, a)
            ]
            if len(incomparable) > 1:
                res.failures.append(
                    f"pair ({format_root(rs, i)},{format_root(rs, j)}): "
                    f"{len(incomparable)} incomparable pairs in subsystem"
                )
            elif incomparable:
                a, b = incomparable[0]
                for c in members:
                    if c not in (a, b) and (rs.leq(c, a) or rs.leq(c, b)):
                        res.failures.append(
                            f"pair ({format_root(rs, i)},{format_root(rs, j)}): incomparable pair "
                            f"({format_root(rs, a)},{format_root(rs, b)}) not minimal in subsystem"
                        )
                        break
    if rs.lacing < 3:
        index_of = rs.index_of

        def in_roots(v) -> bool:
            return tuple(v) in index_of or tuple(-x for x in v) in index_of

        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                res.checked += 1
                b, c = rs.coords[i], rs.coords[j]
                where = f"{format_root(rs, i)},{format_root(rs, j)}"
                ip = rs.form_value(b, c)
                diff = [x - y for x, y in zip(b, c)]
                tot = [x + y for x, y in zip(b, c)]
                if ip > 0 and not (in_roots(diff) and not in_roots(tot)):
                    res.failures.append(f"(b,c)>0 but not (b-c in roots, b+c not): {where}")
                if ip < 0 and not (not in_roots(diff) and in_roots(tot)):
                    res.failures.append(f"(b,c)<0 but not (b-c not, b+c in roots): {where}")
                if ip == 0 and rs.lacing == 1 and (in_roots(diff) or in_roots(tot)):
                    res.failures.append(f"(b,c)=0, simply laced, but b+-c meets roots: {where}")
    return res


def suite_chainroot(rs: RootSystem) -> SuiteResult:
    res = SuiteResult("chainroot", str(rs.label))
    n = rs.nroots
    for b1 in range(n):
        for b2 in range(n):
            if b1 == b2 or not rs.leq(b1, b2):
                continue
            interval = rs.up_masks[b1] & rs.down_masks[b2]
            if not rs.is_chain_mask(interval):
                continue
            res.checked += 1
            where = f"[{format_root(rs, b1)},{format_root(rs, b2)}]"
            diff = tuple(x - y for x, y in zip(rs.coords[b2], rs.coords[b1]))
            k_found = None
            for k in (1, 2, 3):
                if all(x % k == 0 for x in diff) and tuple(x // k for x in diff) in rs.index_of:
                    k_found = k
                    break
            if k_found is None:
                res.failures.append(
                    f"chain interval {where}: difference is no 1-3 multiple of a positive root"
                )
            elif k_found == 3 and rs.lacing != 3:
                res.failures.append(f"k=3 without triple bond: {where}")
            elif k_found == 2 and rs.lacing < 2:
                res.failures.append(f"k=2 in a simply laced system: {where}")
    return res


def _top_block_candidates(rs: RootSystem, ideal: Ideal):
    """All filter and pair-complement candidates for the top block."""
    mask = ideal.mask
    present = [k for k in range(rs.rank) if mask >> rs.simple_positions[k] & 1]
    for k in present:
        yield ("F", k, frozenset(_bits(mask & rs.up_masks[rs.simple_positions[k]])))
    for k1, k2, a, b, _, keep in rs.bonds:
        if k1 in present and k2 in present:
            yield ("G", (k1, k2, a, b), frozenset(_bits(mask & ~keep)))


def suite_twocases(rs: RootSystem) -> SuiteResult:
    res = SuiteResult("twocases", str(rs.label))
    for ideal in enumerate_ideals(rs):
        cert = is_supersolvable_generic(_arr(rs, ideal.mask))
        if cert is None or not cert.blocks:
            continue
        res.checked += 1
        top = frozenset(cert.blocks[-1])
        for kind, info, candidate in _top_block_candidates(rs, ideal):
            if candidate != top:
                continue
            if kind == "F":
                if rs.is_chain_mask(_mask_of(top)):
                    break
            else:
                break
        else:
            res.failures.append(
                f"ideal {ideal.coordinate_strings()}: top block "
                f"{sorted(format_root(rs, i) for i in top)} is neither filter- nor pair-shaped"
            )
    return res


def suite_peel_implies_ss(rs: RootSystem) -> SuiteResult:
    res = SuiteResult("peel-implies-ss", str(rs.label))
    for ideal in enumerate_ideals(rs):
        cert = chain_peeling(ideal)
        if cert is None:
            continue
        res.checked += 1
        if not validate_supersolving(rs, cert.blocks):
            res.failures.append(
                f"peeling of {ideal.coordinate_strings()} fails the supersolving conditions"
            )
    return res


def poly_from_block_sizes(sizes, rank: int) -> tuple[int, ...]:
    """Ascending coefficients of prod (t - s) over the sizes."""
    coeffs = [1]
    for s in sizes:
        nxt = [0] * (len(coeffs) + 1)
        for d, c in enumerate(coeffs):
            nxt[d + 1] += c
            nxt[d] += -s * c
        coeffs = nxt
    assert len(coeffs) == rank + 1
    return tuple(coeffs)


def suite_exponents_vs_chi(rs: RootSystem) -> SuiteResult:
    res = SuiteResult("exponents-vs-chi", str(rs.label))
    for ideal in enumerate_ideals(rs):
        cert = is_supersolvable_rootideal(ideal)
        if cert is None:
            continue
        res.checked += 1
        arr = _arr(rs, ideal.mask)
        chi = arr.characteristic_polynomial()
        expect = poly_from_block_sizes(cert.block_sizes(), arr.rank())
        if chi != expect:
            res.failures.append(
                f"ideal {ideal.coordinate_strings()}: chi {chi} != block product {expect}"
            )
        peel = chain_peeling(ideal)
        if peel is None or peel.block_sizes() != cert.block_sizes():
            res.failures.append(
                f"ideal {ideal.coordinate_strings()}: peeling/supersolving "
                f"block-size multisets differ"
            )
    return res


def suite_line_closed_oracle(rs: RootSystem) -> SuiteResult:
    res = SuiteResult("line-closed-oracle", str(rs.label))
    for ideal in enumerate_ideals(rs):
        res.checked += 1
        arr = _arr(rs, ideal.mask)
        fast, witness = arr.is_line_closed()
        slow, oracle_witness = arr.line_closed_by_definition()
        if fast != slow:
            res.failures.append(
                f"ideal {ideal.coordinate_strings()}: 2-closed-state walk "
                f"{fast} vs definition {slow}"
            )
        elif not fast:
            wmask = _mask_of(witness)
            if arr.two_closure_mask(wmask) != wmask or arr.is_flat_mask(wmask):
                res.failures.append(
                    f"ideal {ideal.coordinate_strings()}: returned witness is not "
                    f"a 2-closed non-flat"
                )
    return res


SUITES = {
    "rank2": suite_rank2,
    "chainroot": suite_chainroot,
    "twocases": suite_twocases,
    "peel-implies-ss": suite_peel_implies_ss,
    "exponents-vs-chi": suite_exponents_vs_chi,
    "line-closed-oracle": suite_line_closed_oracle,
}
