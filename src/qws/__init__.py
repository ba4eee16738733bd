"""qws: radial quantum scattering in q spatial dimensions.

Reduction of the central-potential problem to a one-dimensional radial
equation in the parameter lam = l + (q-2)/2, regular/Jost solutions,
phase shifts for local plus separable non-local potentials, bound-state
search, and the zero-momentum identity eta(0) = n pi.
"""

from .errors import (AmbiguousCrossingError, ConfigError, DegenerateCouplingError,
                     EnvelopeError, GridMismatchError, InvalidDifferencingError,
                     NearThresholdResonanceError, NodeAtCutoffError, QwsError,
                     RegularityError, StiffnessError)
from .model import (ChannelParams, EffectiveEquation, EnergyValue,
                    centrifugal_coefficient, effective_equation, lambda_of,
                    reduce_wavefunction, unreduce_wavefunction)
from .potentials import (KernelTerm, LocalPotential, PotentialModel,
                         gaussian_bump, poly_bump, square_well, tabulated,
                         truncated_exponential, truncated_gaussian)
from .radial_ode import (RadialGrid, RadialSolution, cutoff_integral,
                         green_identity_residual, integrate_jost,
                         integrate_regular, make_grid, solve_nonlocal)
from .scattering import (LogDerivative, PhaseShiftCurve, PhaseShiftResult,
                         WronskianReport, hermiticity_residual,
                         log_derivative_interior, low_k_phase_asymptotic,
                         phase_events, phase_shift, phase_shift_curve, wronskian,
                         wronskian_pair_jost, wronskian_pair_phi)
from .spectral import (BoundState, ContinuationReport, LevinsonReport,
                       SturmReport, continuation_count, find_bound_states,
                       levinson_verify, matching_mismatch,
                       sturm_liouville_check)

__version__ = "0.1.0"
