"""The public surface: the names that `import affinebody` exports, and
the fields of its option objects.

Adding or removing a name means changing PUBLIC here too, and adding or
removing an option field means changing OPTIONS.
"""

import dataclasses
import types

import affinebody
from affinebody import cli, kinematics, phase, poisson

PUBLIC = {
    # errors
    "AffineBodyError", "ConfigError", "ConvergenceFailure",
    "DegenerateInertia", "DomainError", "GridTooCoarse", "InvalidLabel",
    "NumericFailure", "ShapeMismatch", "SingularConfiguration",
    "SingularWeight", "StepFailure", "UnknownObservable",
    # kinematics
    "Configuration", "PolarDecomposition", "TwoPolar", "align_two_polar",
    "degeneracy_margin", "polar_decompose", "two_polar",
    # phase
    "ModelSpec", "PotentialSpec", "ReducedState", "casimir_csl2",
    "hamiltonian", "kinetic_energy",
    # poisson
    "LinearObservable", "ProductObservable", "bracket_observable",
    "coordinate_observable", "hamiltonian_observable", "poisson_bracket",
    # dynamics
    "PlanarClassification", "StepControl", "Trajectory", "classify_planar",
    "eom_rhs", "geodesic_exponential", "integrate",
    "planar_effective_potential", "planar_state", "reconstruct_attitudes",
    "reduced_state_from_velocity", "stationary_check",
    # quantum
    "ReducedOperator", "SpectralProblem", "Spectrum", "SpinBlock",
    "angular_shift", "build_reduced_hamiltonian", "eigensolve",
    "haar_weight", "lebesgue_weight", "spin_matrices",
}

# every independently settable field of the option objects, in order
OPTIONS = {
    "SpectralProblem": ("n", "model", "alpha_label", "beta_label",
                        "coordinate", "q_min", "q_max", "points",
                        "potential", "use_amended_transform"),
    "StepControl": ("method", "step", "record_every", "rtol", "atol"),
    "ModelSpec": ("kind", "I", "A", "B", "a", "b", "c", "d", "hbar"),
    "PotentialSpec": ("kind", "params"),
}

# deleted, or moved to tests/reference.py (squared_norm_observable, beta)
# or to affinebody.checks (the random draws of cli)
REMOVED = [
    (phase, "legendre_dalembert"), (phase, "inverse_legendre_dalembert"),
    (phase.ModelSpec, "beta"),
    (kinematics, "affine_velocity"), (kinematics, "AffineVelocity"),
    (kinematics, "deformation"), (kinematics, "Deformation"),
    (kinematics.TwoPolar, "Q"), (kinematics.TwoPolar, "D"),
    (poisson, "Observable"), (poisson, "squared_norm_observable"),
    (cli, "random_configuration"), (cli, "random_state"),
    (cli, "random_linear_observable"),
]


def test_public_names():
    exported = {name for name, value in vars(affinebody).items()
                if not name.startswith("_")
                and not isinstance(value, types.ModuleType)}
    assert sorted(exported) == sorted(PUBLIC)


def test_option_fields():
    fields = {name: tuple(f.name for f in dataclasses.fields(
        getattr(affinebody, name))) for name in OPTIONS}
    assert fields == OPTIONS


def test_removed_names_are_gone():
    present = [f"{owner.__name__}.{name}" for owner, name in REMOVED
               if hasattr(owner, name) or hasattr(affinebody, name)]
    assert present == []
