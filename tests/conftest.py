from __future__ import annotations

from functools import lru_cache

from rootarr import bad_ideals, classify_ideal, enumerate_ideals
from rootarr.rootsystem import build_root_system


@lru_cache(maxsize=None)
def get_system(label: str):
    return build_root_system(label)


@lru_cache(maxsize=None)
def classify_type(label: str):
    """All classification records of a type, shared across test modules."""
    rs = get_system(label)
    return tuple(classify_ideal(ideal) for ideal in enumerate_ideals(rs))


def f4_height4_mask(rs) -> int:
    """The mask of F4's one bad ideal, the 13 roots of height at most four."""
    ((mask, witness),) = bad_ideals(rs)
    assert witness.kind == "f4"
    return mask
