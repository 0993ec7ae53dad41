"""Spontaneous emission of an excited atom facing a mirror.

An initially excited two-level atom decays into two one-dimensional
channels: standing-wave modes that hit the mirror (weight epsilon) and
running-wave modes that do not (weight 1 - epsilon).  Eliminating the
continua leaves a single delay equation for the excited-state amplitude,

    b'(t) = -gamma/2 * b(t) + epsilon*gamma/2 * e^{i theta0} * b(t - tau),

with the delayed term active only for t > tau.  Its closed-form solution
is a series of shifted polynomial-times-exponential pulses, one per
completed round trip; this module provides that series, the numeric
integration of the same equation, the close-mirror (Markov) limit, the
photon spectra in both channels, the space-time field intensity, and a
brute-force discrete-mode integration of the underlying amplitude
equations that serves as an independent oracle for all of the above.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import dde
from .numerics import exp_kernel, kummer_minus_exp, round_trip_series, tail_corrected_integral
from .params import SystemParams

__all__ = [
    "SpectralAmplitude",
    "DiscreteModeResult",
    "series_amplitude",
    "series_population",
    "dde_amplitude",
    "markov_population",
    "transient_spectrum",
    "steady_spectrum",
    "field_intensity",
    "discrete_mode_oracle",
]


@dataclass(frozen=True)
class SpectralAmplitude:
    """Photon spectrum on a detuning grid for one emission channel.

    ``delta_omega`` is the frequency minus the atomic frequency (units of
    gamma); ``values`` holds complex amplitudes (transient spectra) or real
    densities (steady spectra); ``channel`` is 1 for the mirror channel and
    2 for the free channel.
    """

    delta_omega: np.ndarray
    values: np.ndarray
    channel: int

    def __post_init__(self):
        grid = np.asarray(self.delta_omega, dtype=float)
        if grid.ndim != 1 or len(grid) < 2 or np.any(np.diff(grid) <= 0):
            raise ValueError("delta_omega must be a strictly increasing grid")
        if self.channel not in (1, 2):
            raise ValueError("channel must be 1 or 2")

    @property
    def density(self) -> np.ndarray:
        """|amplitude|^2 per unit frequency (identity for real-valued spectra)."""
        if np.iscomplexobj(self.values):
            return np.abs(self.values) ** 2
        return np.asarray(self.values)

    def integral(self) -> float:
        """Trapezoid integral of the density plus its 1/omega^2 tails.

        The tail estimate assumes the density decays like C/delta^2 beyond
        the grid, with C taken from the outer 5% of the points at each edge
        (averaged over one mirror-oscillation period when tau > 0).
        """
        return tail_corrected_integral(self.delta_omega, self.density, 0.05)


# ---------------------------------------------------------------------------
# excited-state amplitude
# ---------------------------------------------------------------------------

def series_amplitude(p: SystemParams, t: float) -> complex:
    """Excited-state amplitude b(t) from the round-trip series.

    Term n is the contribution of radiation that completed n round trips:
    (epsilon*gamma/2)^n / n! * e^{i n theta0} * (t - n tau)^n
    * e^{-gamma (t - n tau)/2}, active for t > n*tau.  Summed and truncated
    by :func:`~halfcavity.numerics.round_trip_series`.
    """
    p.require_no_drive("series_amplitude")
    if t < 0:
        raise ValueError("t must be >= 0")
    g = p.gamma
    if p.tau == 0.0:
        # the series sums to a single exponential when the delay vanishes
        alpha = 0.5 * p.epsilon * g * np.exp(1j * p.theta0)
        return complex(np.exp(-0.5 * g * t) * np.exp(alpha * t))
    return complex(round_trip_series(t, p.tau, 0.5 * p.epsilon * g, p.theta0,
                                     0.5 * g, exp_kernel))


def series_population(p: SystemParams, times) -> np.ndarray:
    """|b(t)|^2 on an array of times (convenience wrapper)."""
    return np.array([abs(series_amplitude(p, float(t))) ** 2 for t in np.atleast_1d(times)])


def dde_amplitude(p: SystemParams, t_end: float, tol: float = 1e-10) -> dde.HistorySolution:
    """Numeric integration of the amplitude delay equation from b(0) = 1.

    Agrees with :func:`series_amplitude` to the integrator tolerance; the
    two routes cross-validate each other.
    """
    p.require_no_drive("dde_amplitude")
    if p.tau <= 0.0:
        raise ValueError("dde_amplitude requires tau > 0 (use series_amplitude at tau = 0)")
    g = p.gamma
    problem = dde.DdeProblem(
        a=np.array([[-0.5 * g]]),
        b=np.array([[0.5 * p.epsilon * g * np.exp(1j * p.theta0)]]),
        c=np.zeros(1),
        tau=p.tau,
        x0=np.ones(1),
        t_end=t_end,
    )
    return dde.integrate(problem, tol=tol)


def markov_population(p: SystemParams, t: float) -> float:
    """Close-mirror limit of the excited-state population.

    Free decay e^{-gamma t} until the first round trip completes, then
    decay at the modified rate gamma*(1 - epsilon*cos(theta0)).
    """
    p.require_no_drive("markov_population")
    if t < 0:
        raise ValueError("t must be >= 0")
    g = p.gamma
    if t <= p.tau:
        return math.exp(-g * t)
    return math.exp(-g * p.tau) * math.exp(-p.gamma_tilde * (t - p.tau))


# ---------------------------------------------------------------------------
# photon spectra
# ---------------------------------------------------------------------------

def _channel_weight(p: SystemParams, delta: np.ndarray, channel: int) -> np.ndarray:
    """Frequency-dependent coupling amplitude of each channel.

    Channel 1 couples through the standing-wave mode amplitude at the atom,
    sin(omega*tau/2) evaluated through the phase residue as
    sin(theta0/2 + delta*tau/2); channel 2 is flat.
    """
    g = p.gamma
    if channel == 1:
        return np.sqrt(p.epsilon * g / math.pi) * np.sin(0.5 * p.theta0 + 0.5 * delta * p.tau)
    return np.full_like(delta, math.sqrt((1.0 - p.epsilon) * g / (2.0 * math.pi)))


def transient_spectrum(p: SystemParams, t: float, channel: int, delta_grid) -> SpectralAmplitude:
    """One-photon amplitude per unit frequency at finite time.

    Round-trip series in which term n carries the kernel
    ``kummer_minus_exp(n, -(gamma/2 - i*delta)(t - n tau))`` and the
    interference phase e^{i n (theta0 + delta tau)}, summed and truncated by
    :func:`~halfcavity.numerics.round_trip_series`.  The n = 0 term is the
    familiar transient line shape of free-space decay.
    """
    p.require_no_drive("transient_spectrum")
    if t < 0:
        raise ValueError("t must be >= 0")
    if p.tau == 0.0 and p.epsilon > 0.0:
        raise ValueError("transient_spectrum needs tau > 0 when epsilon > 0")
    delta = np.asarray(delta_grid, dtype=float)
    g = p.gamma
    pole = 0.5 * g - 1j * delta                      # gamma/2 + i(omega0 - omega)
    pref = _channel_weight(p, delta, channel) / pole
    total = round_trip_series(t, p.tau, 0.5 * p.epsilon * g, p.theta0 + delta * p.tau,
                              pole, kummer_minus_exp)
    return SpectralAmplitude(delta, pref * total, channel)


def steady_spectrum(p: SystemParams, channel: int, delta_grid) -> SpectralAmplitude:
    """Long-time photon density per unit frequency.

    A Lorentzian-like profile whose width and centre are modulated by the
    mirror: the denominator carries the renormalised rate
    gamma*(1 - epsilon*cos(omega tau)) and shift epsilon*gamma/2*sin(omega tau),
    with omega*tau expanded as theta0 + delta*tau.  For epsilon = 1 all
    population eventually returns through channel 1, so channel 2 requires
    epsilon < 1 for the long-time limit to exist pointwise.
    """
    p.require_no_drive("steady_spectrum")
    if channel == 2 and p.epsilon >= 1.0:
        raise ValueError("channel 2 steady spectrum requires epsilon < 1")
    delta = np.asarray(delta_grid, dtype=float)
    g = p.gamma
    phase = p.theta0 + delta * p.tau
    a2 = _channel_weight(p, delta, channel) ** 2
    denom = (0.25 * g * g * (1.0 - p.epsilon * np.cos(phase)) ** 2
             + (0.5 * p.epsilon * g * np.sin(phase) + delta) ** 2)
    return SpectralAmplitude(delta, a2 / denom, channel)


# ---------------------------------------------------------------------------
# field intensity (mirror channel, space- and time-resolved)
# ---------------------------------------------------------------------------

def field_intensity(p: SystemParams, z, t: float, fringe_cycles: int = 6):
    """Intensity of the reflected-channel field at position z and time t.

    ``z`` is measured in units of the atom-mirror distance (mirror at 0,
    atom at 1); the intensity is reported in units of the squared emission
    prefactor, normalised so a single free pulse has height 1.  Three
    causally gated pulses contribute: the pulse running away from the
    mirror (z > 1), the pulse running towards the mirror (z < 1) and the
    reflected pulse (sign-flipped by the mirror), whose interference builds
    the sin^2 standing-wave pattern between mirror and atom.

    The full optical phase across the gap is theta0 + 2*pi*fringe_cycles;
    the integer part only sets how many spatial fringes are drawn and has
    no effect at the atom's position.
    """
    p.require_no_drive("field_intensity")
    z_arr = np.atleast_1d(np.asarray(z, dtype=float))
    if np.any(z_arr < 0):
        raise ValueError("z must be >= 0 (mirror side)")
    phi = p.theta0 + 2.0 * math.pi * fringe_cycles   # omega0 * tau
    half = 0.5 * p.tau
    out = np.zeros_like(z_arr)
    for i, zeta in enumerate(z_arr):
        amp = 0.0 + 0.0j
        t_out = t - (zeta - 1.0) * half              # outward pulse, z > atom
        if zeta >= 1.0 and t_out >= 0.0:
            amp += np.exp(0.5j * phi * (zeta - 1.0)) * series_amplitude(p, t_out)
        t_in = t + (zeta - 1.0) * half               # pulse heading to the mirror
        if zeta < 1.0 and t_in >= 0.0:
            amp += np.exp(-0.5j * phi * (zeta - 1.0)) * series_amplitude(p, t_in)
        t_ref = t - (zeta + 1.0) * half              # reflected pulse
        if t_ref >= 0.0:
            amp -= np.exp(0.5j * phi * (zeta + 1.0)) * series_amplitude(p, t_ref)
        out[i] = abs(amp) ** 2
    return out[0] if np.ndim(z) == 0 else out


# ---------------------------------------------------------------------------
# discrete-mode oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiscreteModeResult:
    """Output of the brute-force mode integration.

    ``times``/``amplitude`` sample b(t); ``delta_omega`` is the shared mode
    detuning grid and ``density_1``/``density_2`` are the final per-channel
    photon densities per unit frequency (comparable to the spectra).
    """

    times: np.ndarray
    amplitude: np.ndarray
    delta_omega: np.ndarray
    density_1: np.ndarray
    density_2: np.ndarray


def discrete_mode_oracle(p: SystemParams, n_modes: int = 2000, bandwidth: float = 50.0,
                         t_end: float = 5.0, n_out: int = 200, tol: float = 1e-8,
                         verify_convergence: bool = False) -> DiscreteModeResult:
    """Integrate the coupled atom-mode amplitude equations directly.

    ``n_modes`` modes per channel are spread uniformly over
    [-bandwidth, +bandwidth] around the atomic frequency with flat
    couplings; the mirror channel carries the standing-wave weight
    sin(theta0/2 + delta*tau/2).  Couplings are normalised so the summed
    golden-rule decay reproduces gamma split as epsilon / (1 - epsilon).
    This is an independent check of the delay-series solution and of the
    photon spectra: no delay equation is involved.

    The band cutoff leaves an offset of order gamma/(pi*bandwidth) in the
    amplitude after the initial ramp-up, so the bandwidth sets the floor
    of the achievable agreement; the mode spacing must stay well below
    2*pi/t_end to keep recurrences outside the simulated window.

    With ``verify_convergence`` the run is repeated at twice the mode
    density and a warning is emitted if the amplitude moves by more
    than 1e-3.
    """
    p.require_no_drive("discrete_mode_oracle")
    if n_modes < 2:
        raise ValueError("n_modes must be >= 2")
    g = p.gamma
    delta = np.linspace(-bandwidth * g, bandwidth * g, n_modes)
    d_om = delta[1] - delta[0]
    kap1 = np.sqrt(p.epsilon * g * d_om / math.pi) * np.sin(0.5 * p.theta0 + 0.5 * delta * p.tau)
    kap2 = np.full(n_modes, math.sqrt((1.0 - p.epsilon) * g * d_om / (2.0 * math.pi)))
    kap = np.concatenate([kap1, kap2]).astype(complex)
    rot = np.concatenate([-1j * delta, -1j * delta])

    # mode amplitudes kept in the frame where their free rotation is
    # explicit in the generator (no per-step phase evaluations)
    def rhs(t, y):
        out = np.empty_like(y)
        out[0] = -np.dot(kap, y[1:])
        np.multiply(rot, y[1:], out=out[1:])
        out[1:] += kap * y[0]
        return out

    y0 = np.zeros(1 + 2 * n_modes, dtype=complex)
    y0[0] = 1.0
    times = np.linspace(0.0, t_end, n_out)
    max_step = 0.5 / (bandwidth * g)
    ys = dde.solve_ode(rhs, (0.0, t_end), y0, times, tol=tol, max_step=max_step)
    amp = ys[:, 0]
    final = ys[-1, 1:].reshape(2, n_modes)
    result = DiscreteModeResult(
        times=times,
        amplitude=amp,
        delta_omega=delta,
        density_1=np.abs(final[0]) ** 2 / d_om,
        density_2=np.abs(final[1]) ** 2 / d_om,
    )
    if verify_convergence:
        finer = discrete_mode_oracle(p, 2 * n_modes, bandwidth, t_end, n_out, tol, False)
        drift = float(np.max(np.abs(np.abs(finer.amplitude) - np.abs(amp))))
        if drift > 1e-3:
            warnings.warn(
                f"discrete-mode oracle not converged: doubling the mode count "
                f"moves the amplitude by {drift:.2e}", RuntimeWarning)
    return result
