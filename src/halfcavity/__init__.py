"""Two-level atom in front of a mirror.

Spontaneous decay with delayed self-interaction, laser-driven resonance
fluorescence, intensity correlation functions and emission spectra of an
atom whose radiation is partially retro-reflected, including the regime
where the round-trip time is not negligible and the dynamics is governed
by delay differential equations.
"""

__version__ = "0.1.0"

from .params import SystemParams
from .numerics import (
    kummer_minus_exp,
    matrix_exponential,
    solve_linear,
    null_eigenvector,
    SingularMatrixError,
    DegenerateKernelError,
)
from .dde import DdeProblem, HistorySolution, integrate
from .decay import (
    series_amplitude,
    series_population,
    dde_amplitude,
    markov_population,
    transient_spectrum,
    steady_spectrum,
    field_intensity,
    discrete_mode_oracle,
    SpectralAmplitude,
)
from .weakdrive import (
    perturbative_amplitude,
    steady_population_weak,
    rabi_staircase,
    oscillator_dde,
    oscillator_coeffs,
    g2_channel1,
    g2_channel2,
    weak_line_weight,
    weak_emission_spectrum,
    OscillatorCoeffs,
    CorrelationResult,
)
from .bloch import (
    BlochVector,
    BlochTrajectory,
    DelayKernel,
    markov_bloch_steady,
    markov_bloch_transient,
    epsilon_expansion_population,
    delay_kernel,
    delay_bloch_transient,
    delay_bloch_steady,
    delay_bloch_steady_states,
    strong_drive_envelope,
    drive_modulation,
)
from .spectrum import (
    SpectrumResult,
    SpectrumKernel,
    build_kernel,
    incoherent_spectrum,
    default_spectrum_grid,
    total_flux_check,
)

__all__ = [
    "SystemParams",
    "kummer_minus_exp", "matrix_exponential", "solve_linear", "null_eigenvector",
    "SingularMatrixError", "DegenerateKernelError",
    "DdeProblem", "HistorySolution", "integrate",
    "series_amplitude", "series_population", "dde_amplitude", "markov_population",
    "transient_spectrum", "steady_spectrum", "field_intensity",
    "discrete_mode_oracle", "SpectralAmplitude",
    "perturbative_amplitude", "steady_population_weak", "rabi_staircase",
    "oscillator_dde", "oscillator_coeffs", "g2_channel1", "g2_channel2",
    "weak_line_weight", "weak_emission_spectrum", "OscillatorCoeffs",
    "CorrelationResult",
    "BlochVector", "BlochTrajectory", "DelayKernel", "markov_bloch_steady",
    "markov_bloch_transient", "epsilon_expansion_population", "delay_kernel",
    "delay_bloch_transient", "delay_bloch_steady", "delay_bloch_steady_states",
    "strong_drive_envelope",
    "drive_modulation",
    "SpectrumResult", "SpectrumKernel", "build_kernel", "incoherent_spectrum",
    "default_spectrum_grid", "total_flux_check",
]
