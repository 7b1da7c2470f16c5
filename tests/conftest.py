from __future__ import annotations

from functools import lru_cache

from rootarr import classify_ideal, enumerate_ideals
from rootarr.rootsystem import build_root_system


@lru_cache(maxsize=None)
def get_system(label: str):
    return build_root_system(label)


@lru_cache(maxsize=None)
def classify_type(label: str):
    """All classification records of a type, shared across test modules."""
    rs = get_system(label)
    return tuple(classify_ideal(ideal) for ideal in enumerate_ideals(rs))
