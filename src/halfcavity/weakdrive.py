"""Weakly driven atom in front of a mirror.

For laser intensities far below saturation the atom responds linearly and
behaves like a damped harmonic oscillator: coherent scattering dominates,
expectation values factorise, and the dipole amplitude obeys the driven
delay equation

    d<c>/dt = -(gamma/2 + i*detuning) <c> + i*rabi/2
              + epsilon*gamma/2 * e^{i theta_l} * <c(t - tau)>,

the delayed term switching on at t = tau.  Because the feedback needs a
round trip, the effective drive is a staircase: on every interval
[n tau, (n+1) tau] the atom sees a constant effective Rabi frequency
obtained from a simple recurrence whose fixed point gives the steady
state.  This module provides the perturbative round-trip series for the
excited amplitude, the staircase recurrence, the oscillator delay
equation and its closed-form propagator coefficients, the second-order
intensity correlation functions of both emission channels, and the
(monochromatic) emission spectrum of this regime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import dde
from .numerics import exp_kernel, kummer_minus_exp, round_trip_series
from .params import SystemParams

__all__ = [
    "OscillatorCoeffs",
    "CorrelationResult",
    "perturbative_amplitude",
    "steady_population_weak",
    "rabi_staircase",
    "oscillator_dde",
    "oscillator_coeffs",
    "g2_channel1",
    "g2_channel2",
    "weak_line_weight",
    "weak_emission_spectrum",
]


def _drift(p: SystemParams) -> complex:
    """Oscillator drift rate gamma/2 + i*detuning (sign fixed so the free
    propagator decays)."""
    return 0.5 * p.gamma + 1j * p.detuning


def _feedback(p: SystemParams) -> complex:
    """Delayed coupling epsilon*gamma/2 * e^{i theta_l}."""
    return 0.5 * p.epsilon * p.gamma * np.exp(1j * p.theta_l)


def perturbative_amplitude(p: SystemParams, t: float) -> complex:
    """Excited-state amplitude of the weakly driven atom (rotating frame).

    First order in the drive: prefactor i*rabi/(gamma + 2i*detuning) times
    the round-trip series with kernels ``kummer_minus_exp`` and phases
    e^{i n theta_l}.  Within the first interval this is the familiar
    saturation-free transient (i*rabi/gamma)(1 - e^{-gamma t/2}) at zero
    detuning.  Intended for rabi <~ 0.1*gamma.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    pref = 1j * p.rabi / (p.gamma + 2j * p.detuning)
    return pref * _driven_series(p, t)


def _driven_series(p: SystemParams, t: float) -> complex:
    """Series sum_n (eps*gamma/2)^n/n! e^{i n theta_l} (t-n tau)^n G_n[-drift*(t-n tau)],
    summed and truncated by :func:`~halfcavity.numerics.round_trip_series`."""
    if p.tau == 0.0 and p.epsilon > 0.0:
        raise ValueError("driven series needs tau > 0 when epsilon > 0")
    return complex(round_trip_series(t, p.tau, abs(_feedback(p)), p.theta_l, _drift(p),
                                     kummer_minus_exp))


def steady_population_weak(p: SystemParams) -> float:
    """Steady excited-state population rabi^2 / (gamma_eff^2 + 4*detuning_eff^2).

    The mirror renormalises both the decay rate and the detuning through
    the laser-frequency phase.  At the pathological perfect-feedback point
    (epsilon = 1, theta_l = 0, detuning_eff = 0) the response is unbounded.
    """
    gt = p.gamma_tilde_l
    dt = p.delta_tilde
    denom = gt * gt + 4.0 * dt * dt
    if denom == 0.0:
        raise ZeroDivisionError(
            "unbounded weak-drive response: effective rate and detuning both "
            "vanish (perfect feedback point epsilon=1, theta_l=0)")
    return p.rabi ** 2 / denom


def rabi_staircase(p: SystemParams, n: int | None) -> complex:
    """Effective Rabi frequency on the interval [n tau, (n+1) tau].

    Recurrence ``R(n) = rabi + mu e^{i theta_l} R(n-1)`` with
    ``mu = epsilon*gamma/(gamma + 2i*detuning)``; each round trip adds the
    re-scattered field to the drive.  ``n = None`` returns the fixed point
    rabi / (1 - mu e^{i theta_l}).
    """
    mu_phase = p.staircase_mu * np.exp(1j * p.theta_l)
    if n is None:
        if abs(mu_phase) >= 1.0:
            raise ZeroDivisionError(
                "staircase diverges: |mu| >= 1 (perfect feedback, epsilon=1 "
                "and detuning=0)")
        return p.rabi / (1.0 - mu_phase)
    if n < 0:
        raise ValueError("n must be >= 0")
    val = complex(p.rabi)
    for _ in range(n):
        val = p.rabi + mu_phase * val
    return val


def oscillator_dde(p: SystemParams, t_end: float, initial: complex = 0.0,
                   tol: float = 1e-10) -> dde.HistorySolution:
    """Integrate the driven oscillator delay equation for <c>(t).

    For a ground-state start (``initial = 0``) the population factorises,
    <c^dag c> = |<c>|^2, so the returned dipole history carries the full
    weak-drive dynamics.  With ``rabi = 0`` and ``initial = 1`` the same
    equation propagates the undriven amplitude and reproduces the
    spontaneous-decay series.
    """
    if p.tau <= 0.0:
        raise ValueError("oscillator_dde requires tau > 0")
    problem = dde.DdeProblem(
        a=np.array([[-_drift(p)]]),
        b=np.array([[_feedback(p)]]),
        c=np.array([0.5j * p.rabi]),
        tau=p.tau,
        x0=np.array([initial], dtype=complex),
        t_end=t_end,
    )
    return dde.integrate(problem, tol=tol)


@dataclass(frozen=True)
class OscillatorCoeffs:
    """Closed-form propagator of the oscillator delay equation.

    ``<c(t)> = drive_response(t) + free_propagator(t) * <c(0)>``.  The
    drive response vanishes at t = 0 and the free propagator starts at 1;
    ``alpha1/2/3`` are the drift, feedback and drive coefficients.
    """

    alpha1: complex
    alpha2: complex
    alpha3: complex
    drive_response: Callable[[float], complex]
    free_propagator: Callable[[float], complex]


def oscillator_coeffs(p: SystemParams) -> OscillatorCoeffs:
    """Round-trip series for the oscillator propagator pair.

    drive_response(t) = (alpha3/alpha1) * sum_n alpha2^n/n! (t - n tau)^n
                        * G_n[-alpha1 (t - n tau)]
    free_propagator(t) = sum_n alpha2^n/n! (t - n tau)^n e^{-alpha1 (t-n tau)}

    with every term gated at t > n*tau (the n = 0 drive term is live from
    t = 0, as the free-space response requires).  Both are summed and
    truncated by :func:`~halfcavity.numerics.round_trip_series`.
    """
    a1 = _drift(p)
    a2 = _feedback(p)
    a3 = 0.5j * p.rabi

    def drive_response(t: float) -> complex:
        if t < 0:
            raise ValueError("t must be >= 0")
        if p.rabi == 0.0:
            return 0.0 + 0.0j
        return (a3 / a1) * _driven_series(p, t)

    def free_propagator(t: float) -> complex:
        if t < 0:
            raise ValueError("t must be >= 0")
        if p.tau == 0.0 and p.epsilon > 0.0:
            raise ValueError("free propagator needs tau > 0 when epsilon > 0")
        return complex(round_trip_series(t, p.tau, abs(a2), p.theta_l, a1, exp_kernel))

    return OscillatorCoeffs(a1, a2, a3, drive_response, free_propagator)


# ---------------------------------------------------------------------------
# intensity correlations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CorrelationResult:
    """Second-order intensity correlation over a grid of delays.

    ``values`` are raw G2 numbers (units of population squared) unless
    ``normalization`` is "steady-state-squared", in which case they are
    divided by the T -> infinity limit.
    """

    delays: np.ndarray
    values: np.ndarray
    channel: int
    normalization: str = "raw"

    def __post_init__(self):
        d = np.asarray(self.delays, dtype=float)
        if d.ndim != 1 or np.any(np.diff(d) <= 0):
            raise ValueError("delays must be strictly increasing")
        if np.any(np.asarray(self.values) < -1e-15):
            raise ValueError("G2 values must be non-negative")


def g2_channel2(p: SystemParams, delay_grid, normalized: bool = False) -> CorrelationResult:
    """Long-time photon coincidence rate in the free channel.

    After the first detection the atom restarts from the ground state, so
    G2(T) is the steady population times the re-excitation transient
    |amplitude(T)|^2: perfect antibunching at T = 0, and for a distant
    mirror a staircase rebuilt step by step at every multiple of tau.
    """
    delays = np.asarray(delay_grid, dtype=float)
    pop = steady_population_weak(p)
    vals = pop * np.array([abs(perturbative_amplitude(p, T)) ** 2 for T in delays])
    if normalized:
        return CorrelationResult(delays, vals / pop**2, 2, "steady-state-squared")
    return CorrelationResult(delays, vals, 2, "raw")


def g2_channel1(p: SystemParams, delay_grid, normalized: bool = False) -> CorrelationResult:
    """Long-time photon coincidence rate in the mirror channel.

    Light can reach this detector directly or via the mirror, so four
    two-photon paths interfere.  The long-time form is the steady
    population times

        |2 cos(theta_l) b(T) - b(T + tau) - b(|T - tau|)|^2,

    with b the weak-drive amplitude; the |T - tau| argument implements the
    operator-ordering exchange of the path that crosses the round trip at
    T = tau.  Not zero at T = 0 (mirror-delayed light from an earlier
    emission can still arrive), with characteristic kinks at T = tau.
    """
    delays = np.asarray(delay_grid, dtype=float)
    pop = steady_population_weak(p)
    ear = math.cos(p.theta_l)
    vals = np.empty_like(delays)
    for i, T in enumerate(delays):
        combo = (2.0 * ear * perturbative_amplitude(p, T)
                 - perturbative_amplitude(p, T + p.tau)
                 - perturbative_amplitude(p, abs(T - p.tau)))
        vals[i] = abs(combo) ** 2
    vals *= pop
    if normalized:
        limit = 16.0 * math.sin(0.5 * p.theta_l) ** 4 * pop**2
        if limit == 0.0:
            raise ZeroDivisionError("normalised channel-1 G2 undefined at a node")
        return CorrelationResult(delays, vals / limit, 1, "steady-state-squared")
    return CorrelationResult(delays, vals, 1, "raw")


def weak_line_weight(p: SystemParams, channel: int) -> float:
    """Delta-function weight of the weak-drive line in one channel.

    Channel 1 carries the standing-wave factor sin^2(theta_l/2) and is
    dark at a node; channel 2 is weighted by the steady population alone.
    Weights are reported up to one global constant shared by the channels.
    """
    if channel not in (1, 2):
        raise ValueError("channel must be 1 or 2")
    weight = steady_population_weak(p)
    if channel == 1:
        weight *= math.sin(0.5 * p.theta_l) ** 2
    return weight


def weak_emission_spectrum(p: SystemParams, channel: int, delta_grid=None):
    """Monochromatic emission spectrum of the weakly driven atom.

    Coherent scattering dominates below saturation, so each channel emits
    a pure line at the laser frequency: the coherent weight is
    :func:`weak_line_weight` and the incoherent density is identically
    zero at this order.
    """
    from .spectrum import SpectrumResult

    grid = np.array([-1.0, 1.0]) if delta_grid is None else np.asarray(delta_grid, float)
    return SpectrumResult(grid, np.zeros_like(grid), weak_line_weight(p, channel), p)
