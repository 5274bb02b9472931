"""Affinely-rigid body dynamics: two-polar kinematics, reduced
Hamiltonian phase space, integrators, and quantized reduced problems."""

from .errors import (AffineBodyError, ConfigError, ConvergenceFailure,
                     DegenerateInertia, DomainError, GridTooCoarse,
                     InvalidLabel, NumericFailure, ShapeMismatch,
                     SingularConfiguration, SingularWeight, StepFailure,
                     UnknownObservable)
from .kinematics import (AffineVelocity, Configuration, Deformation,
                         PolarDecomposition, TwoPolar, affine_velocity,
                         align_two_polar, deformation, degeneracy_margin,
                         polar_decompose, two_polar)
from .phase import (ModelSpec, PotentialSpec, ReducedState, casimir_csl2,
                    hamiltonian, inverse_legendre_dalembert, kinetic_energy,
                    legendre_dalembert)
from .poisson import (LinearObservable, ProductObservable,
                      bracket_observable, coordinate_observable,
                      hamiltonian_observable, poisson_bracket,
                      squared_norm_observable)
from .dynamics import (PlanarClassification, StepControl, Trajectory,
                       classify_planar, eom_rhs, geodesic_exponential,
                       integrate, planar_effective_potential, planar_state,
                       reconstruct_attitudes, reduced_state_from_velocity,
                       stationary_check)
from .quantum import (ReducedOperator, SpectralProblem, Spectrum, SpinBlock,
                      angular_shift, build_reduced_hamiltonian, eigensolve,
                      haar_weight, lebesgue_weight, spin_matrices)

__version__ = "0.1.0"
