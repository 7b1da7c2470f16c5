"""Exact-arithmetic root ideal arrangements.

Builds finite crystallographic root systems and their root posets,
enumerates order ideals, and classifies each ideal arrangement as
chain-peelable, supersolvable, line-closed and free of the two minimal bad
configurations, reporting exponent multisets along the way.
"""

from .rootsystem import (
    RootSystem,
    TypeLabel,
    build_root_system,
    format_root,
    parse_root,
    reflect,
)
from .ideals import (
    BadIdealWitness,
    Ideal,
    bad_ideals,
    enumerate_ideals,
)
from .matroid import Arrangement
from .classify import (
    ClassificationRecord,
    EquivalenceViolation,
    PartitionCertificate,
    chain_peeling,
    classify_ideal,
    exponents,
    is_supersolvable_generic,
    is_supersolvable_rootideal,
    validate_chain_peeling,
    validate_supersolving,
)

__version__ = "0.1.0"

__all__ = [
    "TypeLabel",
    "RootSystem",
    "build_root_system",
    "reflect",
    "parse_root",
    "format_root",
    "Ideal",
    "BadIdealWitness",
    "enumerate_ideals",
    "bad_ideals",
    "Arrangement",
    "PartitionCertificate",
    "ClassificationRecord",
    "EquivalenceViolation",
    "chain_peeling",
    "is_supersolvable_generic",
    "is_supersolvable_rootideal",
    "exponents",
    "classify_ideal",
    "validate_chain_peeling",
    "validate_supersolving",
    "__version__",
]
