"""Reconstruct Lindblad generators that admit a given target steady state.

The workflow: choose an operator ansatz and a target state, assemble the
correlation matrix of generator-term images, and read solutions off its
null space.  A nonempty null space is both necessary and sufficient for the
target to be a steady state of some generator in the ansatz; an empty one
certifies infeasibility.
"""

from .engine import (
    LindbladAnsatz,
    LindbladianParams,
    ReconstructionResult,
    apply_lindbladian,
    build_correlation_matrix,
    markovian_postselect,
    markovian_superposition_search,
    rapidity,
    repair_markovianity,
    reverse_engineer,
    unpack_kernel_vector,
)
from .models import (
    CoherentSpec,
    CollectiveSpec,
    Model,
    SqueezedSpec,
    analytic_corr_matrix,
    analytic_kernel_vectors,
    build_model,
    collective_generator_params,
    collective_steady_state,
)
from .numerics import (
    eigh,
    extract_kernel,
    is_psd,
    loglog_fit,
    positive_part,
)
from .quantum_ops import (
    Operator,
    boson_ops,
    coherent_state,
    mix_with_identity,
    spin_ops,
    squeezed_vacuum,
)
from .verification import (
    SteadyStateResult,
    norm_difference,
    steady_state_of,
)

__version__ = "0.1.0"

__all__ = [
    "CoherentSpec",
    "CollectiveSpec",
    "LindbladAnsatz",
    "LindbladianParams",
    "Model",
    "Operator",
    "ReconstructionResult",
    "SqueezedSpec",
    "SteadyStateResult",
    "analytic_corr_matrix",
    "analytic_kernel_vectors",
    "apply_lindbladian",
    "boson_ops",
    "build_correlation_matrix",
    "build_model",
    "coherent_state",
    "collective_generator_params",
    "collective_steady_state",
    "eigh",
    "extract_kernel",
    "is_psd",
    "loglog_fit",
    "markovian_postselect",
    "markovian_superposition_search",
    "mix_with_identity",
    "norm_difference",
    "positive_part",
    "rapidity",
    "repair_markovianity",
    "reverse_engineer",
    "spin_ops",
    "squeezed_vacuum",
    "steady_state_of",
    "unpack_kernel_vector",
]
