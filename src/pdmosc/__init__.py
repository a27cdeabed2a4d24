"""Exact bound states of a confined oscillator with position-dependent mass.

The model lives on (-a, a) with mass profile (1 - x^2/a^2)^-2 and a
(possibly shifted) harmonic effective potential.  Closed-form spectra and
wavefunctions come from a change of variables to a hyperbolic well on the
line; an independent finite-difference solver cross-checks every formula.
"""

from .errors import ConvergenceError, DomainError, NoSuchStateError, ParameterError
from .oscillator import (
    BoundState,
    OscillatorParams,
    bound_states,
    confinement_length,
    energy,
    energy_harmonic_form,
    jafarov_case,
    num_bound_states,
    shift_bound,
    wavefunction,
)
from .oracle import (
    Grid1D,
    SpectrumReport,
    TridiagonalOperator,
    discretize_bdd,
    eigenvalues_sturm,
    eigenvector,
    overlap,
    solve_constant_mass_numeric,
    solve_pdm_numeric,
)
from .pct import (
    MassProfile,
    PctMap,
    map_parameters,
    mass,
    mass_correction,
    transform_potential,
    u_of_x,
    v_of_x,
)
from .rosen_morse import (
    ConstantMassState,
    RosenMorseParams,
    rm_bound_states,
    rm_energy,
    rm_nmax,
    rm_potential,
    rm_wavefunction,
)

__version__ = "0.1.0"

__all__ = [
    "BoundState",
    "ConstantMassState",
    "ConvergenceError",
    "DomainError",
    "Grid1D",
    "MassProfile",
    "NoSuchStateError",
    "OscillatorParams",
    "ParameterError",
    "PctMap",
    "RosenMorseParams",
    "SpectrumReport",
    "TridiagonalOperator",
    "bound_states",
    "confinement_length",
    "discretize_bdd",
    "eigenvalues_sturm",
    "eigenvector",
    "energy",
    "energy_harmonic_form",
    "jafarov_case",
    "map_parameters",
    "mass",
    "mass_correction",
    "num_bound_states",
    "overlap",
    "rm_bound_states",
    "rm_energy",
    "rm_nmax",
    "rm_potential",
    "rm_wavefunction",
    "shift_bound",
    "solve_constant_mass_numeric",
    "solve_pdm_numeric",
    "transform_potential",
    "u_of_x",
    "v_of_x",
    "wavefunction",
]
