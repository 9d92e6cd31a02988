"""Average-purity dynamics of local random quantum circuits.

Exact swap-basis evolution and spectral analysis, the closed-form chain
model, analytic bounds, and a dense-statevector Monte Carlo oracle.
"""

__version__ = "0.1.0"

from .errors import CapExceeded, NumericalAmbiguityError
from .regions import Region, in_boundary, sym_diff
from .swapcore import (ComponentDecomposition, CorrelatedSweep, EnsembleSpec,
                       LocalStructure, Markov, SwapVector, Uncorrelated,
                       alpha_coefficients, apply_local, apply_step,
                       build_swap_matrix, complement_involution, complete_structure,
                       connected_components, contract_factorized, fixed_space_dimension,
                       markov_purity, path_structure, purity_infinity,
                       purity_trajectory, reachable_boundary_column, spectral_gap_swap)
from .path1d import (PathParams, SpectralData, analytic_steps_bound, eigenvector,
                     purity_by_matrix_power, purity_exact, purity_infinity_1d,
                     reduced_matrix, short_time_form, short_time_purity, spectral_gap_1d,
                     spectrum, steps_to_converge)
from .bounds import (BoundReport, area_law_bound, boundary_probability,
                     correlated_convergence_bound, entangling_power,
                     first_moment_convergence_bound, r1_candidate_spectrum,
                     swap_constant, t_design_delta)
from .oracle import (DenseState, DesignDistance, MomentEstimate, OracleConfig,
                     apply_gate, dense_swap, exact_first_moment_map,
                     exact_second_moment_projection, first_moment_mixture_matrix,
                     haar_unitary, mc_average_purity, mc_design_distance,
                     mc_purity_trajectory, mc_trace_distance, product_state,
                     reduced_purity, sample_regions, trace_norm)
