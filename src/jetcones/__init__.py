"""Nonlinear potential theory toolkit on the 2-jet space.

Subequation cone catalog, Dirichlet duality, hyperbolic-polynomial
operators, canonical operators, boundary pseudoconvexity analysis, and
a desk-scale monotone-scheme Dirichlet solver with a property-check
harness.
"""

from .catalog import (
    Arity,
    Box,
    DirectionalCone,
    FiberOracle,
    MonotonicityCone,
    Region,
    RegionKind,
    VariableFiberMap,
    make_oracle,
)
from .jets import Jet2, SymMat, jet_norm, trace_on_subspace

__version__ = "0.1.0"

__all__ = [
    "Arity",
    "Box",
    "DirectionalCone",
    "FiberOracle",
    "Jet2",
    "MonotonicityCone",
    "Region",
    "RegionKind",
    "SymMat",
    "VariableFiberMap",
    "jet_norm",
    "make_oracle",
    "trace_on_subspace",
    "__version__",
]
