"""Weighted zeta functions of multi-digraphs and quantum-walk spectra.

Build a digraph (or the symmetric digraph of a multigraph), assign arc
weights, and compute the zeta function in its exponential, Euler, Hashimoto,
and Ihara forms — with exact rational arithmetic proving the determinant
identities on concrete instances.  The Ihara form yields characteristic
polynomials and spectra of Szegedy/Grover walk transition matrices.
"""

from .algebra import (
    CC,
    ComplexField,
    Poly,
    QQ,
    RatFunc,
    RationalField,
    Series,
    series_exp,
    series_inv,
    series_log,
)
from .digraph import (
    Arc,
    Digraph,
    GraphError,
    GraphMode,
    PhiPair,
    arc_adjacency,
    build_digraph,
    closed_paths,
    prime_cycles,
    symmetric_digraph,
)
from .linalg import (
    Matrix,
    allones_inverse_check,
    block_woodbury_check,
    char_poly,
    char_poly_exact,
    det_bareiss,
    det_cofactor,
    det_exact,
    eigenvalues_numeric,
)
from .zeta import (
    ConsistencyError,
    IharaIdentityError,
    StructuralMatrices,
    WeightAssignment,
    ZetaError,
    ZetaReport,
    edge_matrix,
    euler_truncated,
    exponential_truncated,
    hashimoto,
    ihara_digraph,
    ihara_graph,
    n_k,
    n_k_all,
    sato_ihara_digraph,
    sato_ihara_graph,
    structural_matrices,
    theta_value,
    verify_expressions,
)
from .walk import (
    WalkError,
    grover_discriminant,
    grover_spectrum_via_zeta,
    grover_transition,
    spectrum_deviation,
    szegedy_discriminant,
    szegedy_spectrum_via_factorization,
    szegedy_transition,
    uniform_probability,
    unitarity_defect,
    validate_probability,
)
from .instances import (
    FIXTURES,
    Instance,
    ParseError,
    fixture_digraph,
    fixture_instance,
    fixture_text,
    instance_digraph,
    instance_weights,
    load_instance,
    parse_instance,
    render_instance,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
