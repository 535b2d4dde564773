"""dhkrylov: dissipative-Hamiltonian DAE models, midpoint time stepping,
and structure-exploiting Krylov solvers for A = H + S systems."""

from .hs_core import (
    DEFAULT_TOL,
    Definiteness,
    HermitianFactor,
    HsSplitSystem,
    as_dense,
    definiteness_class,
    read_matrix,
    saddle_blocks,
    split_hs,
    write_matrix,
)
from .dhdae import (
    DaeIndex,
    DhDaeSystem,
    IndexReport,
    MODEL_REGISTRY,
    ZeroSource,
    assemble_mechanical,
    assemble_poroelastic,
    assemble_rlc,
    assemble_stokes_like,
    from_descriptor,
    index_classify,
    nullspace_of_e,
)
from .timestep import (
    MidpointSystem,
    Trajectory,
    check_consistency,
    integrate,
    midpoint_rhs,
    midpoint_saddle_blocks,
    midpoint_system,
)
from .staircase import (
    BlockDiagonalReduction,
    StaircaseForm,
    hs_staircase,
    schur_block_diagonalize,
    staircase_report,
)
from .krylov import (
    SchurSolveReport,
    SolveReport,
    residual_history_csv,
    solve,
    solve_gmres,
    solve_hss,
    solve_rapoport,
    solve_via_schur,
    solve_widlund,
)
from .bounds import (
    BendixsonRectangle,
    SpectralInterval,
    bendixson_rectangle,
    kappa_y_estimate,
    lgmres_bound_estimate,
    rapoport_bound,
    spectral_interval,
    widlund_bound,
)

__version__ = "0.1.0"
