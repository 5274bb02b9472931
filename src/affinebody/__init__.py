"""Affinely-rigid body dynamics: two-polar kinematics, reduced
Hamiltonian phase space, integrators, and quantized reduced problems."""

from .errors import (AffineBodyError, ConfigError, ConvergenceFailure,
                     DegenerateInertia, DomainError, GridTooCoarse,
                     InvalidLabel, NumericFailure, ShapeMismatch,
                     SingularConfiguration, SingularWeight, StepFailure,
                     UnknownObservable)
from .kinematics import (Configuration, PolarDecomposition, TwoPolar,
                         align_two_polar, degeneracy_margin, polar_decompose,
                         two_polar)
from .phase import (ModelSpec, PotentialSpec, ReducedState, casimir_csl2,
                    hamiltonian, kinetic_energy)
from .poisson import (LinearObservable, ProductObservable,
                      bracket_observable, coordinate_observable,
                      hamiltonian_observable, poisson_bracket)
from .dynamics import (PlanarClassification, StepControl, Trajectory,
                       classify_planar, eom_rhs, geodesic_exponential,
                       integrate, planar_effective_potential, planar_state,
                       reconstruct_attitudes, reduced_state_from_velocity,
                       stationary_check)
from .quantum import (ReducedOperator, SpectralProblem, Spectrum, SpinBlock,
                      angular_shift, build_reduced_hamiltonian, eigensolve,
                      haar_weight, lebesgue_weight, spin_matrices)

__version__ = "0.1.0"
