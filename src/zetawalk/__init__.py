"""Weighted zeta functions of multi-digraphs and quantum-walk spectra.

Build a digraph (or the symmetric digraph of a multigraph), assign arc
weights, and compute the zeta function in its exponential, Euler, Hashimoto,
and Ihara forms — with exact rational arithmetic proving the determinant
identities on concrete instances.  The Ihara form yields characteristic
polynomials and spectra of Szegedy/Grover walk transition matrices.
"""

from .algebra import Poly, RatFunc, Series
from .digraph import (
    Digraph, GraphError, GraphMode, PhiPair, arc_adjacency, build_digraph,
    symmetric_digraph,
)
from .zeta import (
    ConsistencyError, WeightAssignment, ZetaError, ZetaReport, edge_matrix,
    euler_truncated, exponential_truncated, hashimoto, ihara_digraph, ihara_graph,
    n_k_all, verify_expressions,
)
from .walk import (
    WalkError, eigenvalues_numeric, grover_spectrum_via_zeta, grover_transition,
    spectrum_deviation, szegedy_discriminant, szegedy_spectrum_via_factorization,
    szegedy_transition, uniform_probability, unitarity_defect,
)
from .instances import (
    FIXTURES, Instance, ParseError, fixture_digraph, fixture_instance, fixture_text,
    instance_digraph, instance_weights, load_instance, parse_instance, render_instance,
)

__version__ = "0.1.0"

__all__ = [
    "Poly", "RatFunc", "Series",
    "Digraph", "GraphError", "GraphMode", "PhiPair", "arc_adjacency",
    "build_digraph", "symmetric_digraph",
    "ConsistencyError", "WeightAssignment", "ZetaError", "ZetaReport",
    "edge_matrix", "euler_truncated", "exponential_truncated", "hashimoto",
    "ihara_digraph", "ihara_graph", "n_k_all", "verify_expressions",
    "WalkError", "eigenvalues_numeric", "grover_spectrum_via_zeta", "grover_transition",
    "spectrum_deviation", "szegedy_discriminant", "szegedy_spectrum_via_factorization", "szegedy_transition",
    "uniform_probability", "unitarity_defect",
    "FIXTURES", "Instance", "ParseError", "fixture_digraph", "fixture_instance",
    "fixture_text", "instance_digraph", "instance_weights", "load_instance",
    "parse_instance", "render_instance",
]
