"""ppsd_lab: Markovian open-system models, purity dynamics, and
pure-pure-state-dynamics (PPSD) analysis.

The package builds Lindblad-form master equations from a catalog of standard
decoherence and damping models, propagates density matrices exactly or by
adaptive Runge-Kutta, and asks the central question: can any pure state stay
exactly pure under the dynamics, tracing a genuine trajectory in Hilbert
space?  The residual R(psi) = sum_i gamma_i (<L_i^dag L_i> - |<L_i>|^2)
quantifies the purity-loss rate; zero residual plus consistency with the
master equation certifies a pure trajectory.
"""

__version__ = "0.1.0"

from .errors import (
    DimensionMismatch,
    IntegrationFailure,
    InvariantViolation,
    NormBlowUp,
    PpsdLabError,
    QuadratureInsufficient,
    TruncationInsufficient,
)
from .hilbert import (
    DEFAULT_FOCK_DIM,
    DEFAULT_GRID,
    DensityMatrix,
    GridSpec,
    Operator,
    StateVector,
    coherent_state,
    expectation,
    fock_operators,
    pauli_operators,
    position_operator,
    purity,
    variance,
)
from .lindblad import (
    LindbladModel,
    LindbladTerm,
    Trajectory,
    is_unital,
    liouvillian_action,
    liouvillian_matrix,
    liouvillian_norm,
    null_space_dimension,
    propagate,
    propagated_states,
    purity_trajectory,
    stationarity_defect,
    stationary_states,
)
from .models import (
    CATALOG_INFO,
    MODEL_NAMES,
    FeasibilityPoint,
    ModelSpec,
    ThermalParams,
    catalog_model,
    dephasing_closed_form,
    fig3_initial_bloch,
    fig3_purity_curve,
    grw_closed_form,
    hermitian_lindblad_fixed_points,
    nonadiabatic_operators,
    nonadiabatic_residual_bound,
    position_closed_form,
    squeezed_bloch_solution,
    squeezed_ppsd_state,
    thermal_qubit_ppsd_roots,
    three_level_feasibility_scan,
    three_level_ppsd_condition,
)
from .ppsd import (
    CONSISTENCY_GAP_TOL,
    PPSD_RESIDUAL_RTOL,
    HistoryChain,
    PpsdReport,
    SearchConfig,
    consistency_check,
    effective_hamiltonian,
    evolve_pure_nonlinear,
    fidelity,
    history_chain,
    is_stationary_state,
    ppsd_residual,
    ppsd_residual_terms,
    ppsd_search,
    residual_scale,
    trace_distance,
    unlisted_hits,
    unraveling_check,
    zero_residual_subspaces,
)

__all__ = [name for name in dir() if not name.startswith("_")]
