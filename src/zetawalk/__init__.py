"""Weighted zeta functions of multi-digraphs and quantum-walk spectra.

Build a digraph (or the symmetric digraph of a multigraph), assign arc
weights, and compute the zeta function in its exponential, Euler, Hashimoto,
and Ihara forms — with exact rational arithmetic proving the determinant
identities on concrete instances.  The Ihara form yields characteristic
polynomials and spectra of Szegedy/Grover walk transition matrices.
"""

from .algebra import Poly, RatFunc, Series
from .digraph import (
    Arc, Digraph, GraphError, GraphMode, PhiPair, arc_adjacency, build_digraph,
    prime_cycles, symmetric_digraph,
)
from .linalg import Matrix, char_poly, eigenvalues_numeric
from .zeta import (
    ConsistencyError, IharaIdentityError, WeightAssignment, ZetaError, ZetaReport,
    edge_matrix, euler_truncated, exponential_truncated, hashimoto, ihara_digraph,
    ihara_graph, n_k_all, sato_ihara_digraph, verify_expressions,
)
from .walk import (
    WalkError, grover_spectrum_via_zeta, grover_transition, spectrum_deviation,
    szegedy_discriminant, szegedy_spectrum_via_factorization, szegedy_transition,
    uniform_probability, unitarity_defect, validate_probability,
)
from .instances import (
    FIXTURES, Instance, ParseError, fixture_digraph, fixture_instance, fixture_text,
    instance_digraph, instance_weights, load_instance, parse_instance, render_instance,
)

__version__ = "0.1.0"

__all__ = [
    "Poly", "RatFunc", "Series",
    "Arc", "Digraph", "GraphError", "GraphMode", "PhiPair", "arc_adjacency",
    "build_digraph", "prime_cycles", "symmetric_digraph",
    "Matrix", "char_poly", "eigenvalues_numeric",
    "ConsistencyError", "IharaIdentityError", "WeightAssignment", "ZetaError",
    "ZetaReport", "edge_matrix", "euler_truncated", "exponential_truncated",
    "hashimoto", "ihara_digraph", "ihara_graph", "n_k_all", "sato_ihara_digraph",
    "verify_expressions",
    "WalkError", "grover_spectrum_via_zeta", "grover_transition", "spectrum_deviation",
    "szegedy_discriminant", "szegedy_spectrum_via_factorization", "szegedy_transition",
    "uniform_probability", "unitarity_defect", "validate_probability",
    "FIXTURES", "Instance", "ParseError", "fixture_digraph", "fixture_instance",
    "fixture_text", "instance_digraph", "instance_weights", "load_instance",
    "parse_instance", "render_instance",
]
