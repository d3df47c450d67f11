"""Entanglement numbers for probability measures, operators, and bipartite states.

The package has five computational layers plus a CLI:

- ``measures``:  discrete probability measures, e(u) = sqrt(1 - sum u_i^2)
- ``operators``: dense complex operators, states, expectation and variance
- ``contexts``:  orthonormal bases, context coefficients, residual maps
- ``bipartite``: Schmidt decomposition and entanglement triples
- ``mixed``:     decomposition search for the mixed-state entanglement number
"""

from .errors import DimensionMismatch, EntnumError, InvariantViolation, ParseError
from .measures import (
    ProbMeasure,
    ProductMeasure,
    entanglement_index,
    entanglement_number,
    is_factorized,
    is_point,
    is_uniform,
    marginals,
    max_entanglement_bound,
    mixture,
    product,
    product_entanglement_number,
    support,
)
from .operators import (
    DensityState,
    Operator,
    VectorState,
    adjoint,
    expectation,
    hermitian_eigen,
    hs_inner,
    hs_norm,
    psd_sqrt,
    pure_state,
    variance,
    variance_zero_witness,
)
from .contexts import (
    Context,
    context_coefficient,
    context_from_columns,
    context_from_rows,
    context_map,
    dim2_residual_eigen,
    is_measurable,
    offdiag_uniform,
    offdiag_uniform_spectrum,
    random_context,
    residual_map,
    standard_context,
)
from .bipartite import (
    BipartiteVectorState,
    Entanglement,
    bipartite_from_vector,
    dim2_entanglement_spectrum,
    entanglement_operator,
    maximally_entangled,
    product_context,
    psi_from_entanglement,
    pure_entanglement_number,
    schmidt_decompose,
    separable_state,
    symmetric_antisymmetric_basis,
    tensor,
    verify_entanglement_triple,
)
from .mixed import (
    MixedResult,
    OptimizerOptions,
    PureDecomposition,
    decomposition_entanglement,
    entanglement_number_mixed,
    separability_certificate,
    separable_with_entangled_spectrum,
    spectral_pure_decomposition,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
