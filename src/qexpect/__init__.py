"""Time-dependent quantum expectation values for sparse spin systems.

Builds spin-system Liouvillians in sparse form and computes observable
traces over time with interchangeable engines: direct scalar-series
evaluation (precompute once, evaluate anywhere), Chebyshev step
propagation, adaptive Krylov stepping, zero-track model reduction, and a
dense eigendecomposition reference.
"""

__version__ = "0.1.0"

from .chebyshev import (
    bessel_sequence,
    cheb_step_propagate,
    chebyshev_series,
    error_bound,
    scalar_coefficients,
    stop_order,
)
from .dec import DECSeries, dec_evaluate, dec_evaluate_grid, dec_precompute, load_series, save_series
from .errors import ConfigError, NumericalError, ResourceError
from .krylov import KrylovStepResult, krylov_propagate, krylov_step
from .oracle import ModeDecomposition, dense_eig, mode_amplitudes, oracle_expect
from .sparse import SparseMatrix, matvec_counter, spmv, trace_form
from .spectral import ScalingParams, extreme_eigs, lanczos, tridiag_expv
from .spinsys import (
    SectorOperator,
    SpinOperatorSet,
    SpinSystemSpec,
    TraceSystem,
    assemble,
    build_hamiltonian,
    build_liouvillian,
    embed,
    initial_state,
    observable_by_name,
    observable_ip,
    spin_half,
    trace_block,
)
from .trace import ExpectationTrace, normalize_observables
from .zte import (
    ZTEReduction,
    counterexample_f,
    resonant_triplet,
    zte_detect,
    zte_propagate,
    zte_window,
)
