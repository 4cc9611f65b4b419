"""Exact tropical homology, combinatorial mirror symmetry and patchworking.

The package computes, for a dual pair of reflexive lattice polytopes with
unimodular central triangulations:

* tropical (cosheaf) homology tables over Z, Q and F2,
* the combinatorial mirror-symmetry isomorphism by explicit class transfer,
* connectedness of Viro-patchworked real hypersurfaces via the mirror
  divisor-class criterion.

Everything is exact: lattice geometry over Python ints, homology via
sparse integer elimination, cosheaf coordinates via unimodular completions
read off Hermite normal forms, F2 via bit-packed rows.
"""

from .lattice import LatticePolytope
from .triangulate import CentralTriangulation, generate_central, validate
from .pairs import MirrorPair, Side
from .mirror import (
    divisor_restriction,
    is_null_class,
    sphere_cycle,
    transfer_class,
)
from .patchwork import (
    connectedness_verdict,
    delta1,
    real_betti,
    signs_from_divisor,
)

__all__ = [
    "LatticePolytope",
    "CentralTriangulation",
    "generate_central",
    "validate",
    "MirrorPair",
    "Side",
    "divisor_restriction",
    "is_null_class",
    "sphere_cycle",
    "transfer_class",
    "connectedness_verdict",
    "delta1",
    "real_betti",
    "signs_from_divisor",
]
