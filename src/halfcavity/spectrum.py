"""Emission spectrum of the driven atom in the free channel.

The spectrum splits into a coherent part, a delta function at the laser
frequency weighted by |<sigma_->_ss|^2, and an incoherent part carried by
operator fluctuations.  The fluctuation-field correlation 3-vector

    P(nu) = (<d sigma_- d b>, <d sigma_+ d b>, <d sigma_z d b>)

obeys, in the rotating frame and to first order in the feedback strength
epsilon, the stationary linear system

    [ -i nu + A3 + eps e^{-i nu tau} Ktilde(tau) ] P = -(I0 + eps I1(nu)),

where nu is the detuning from the laser line, A3 the free-space Bloch
generator, I0 the familiar fluctuation source built from steady-state
expectations, Ktilde the round-trip kernel obtained by propagating the
delayed correlations with the free evolution U3 = exp(A3 tau) (quantum
regression at zeroth order in epsilon), and I1 the delayed source term.

I1 collects the window convolutions that the regression closure produces
over one round trip: writing the mixed atom-field fluctuation operators
between t - tau and t picks up a driving term from the field channel, and
its integral against the free propagators,

    I1 parts ~ int_0^tau exp[(A3 - i nu)(tau-u)] G(u) du,

with G(u) built from the free two-time atomic correlations
exp(A4 u) acting on the steady pinned vectors.  These integrals are
evaluated in closed form through eigendecompositions (with a block
matrix-exponential fallback where an eigenbasis is ill-conditioned), so
the whole spectrum costs one stacked solve of small systems, one per
frequency.  At tau -> 0 the delayed source vanishes and the system
reduces exactly to the Markov-limit (renormalised Mollow) spectrum; at
epsilon = 0 it is the bare Mollow spectrum.

The flux identity int S dnu = steady excited population (coherent weight
included) holds to first order in epsilon and is exposed as a check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bloch import delay_bloch_steady, obe_generator3, obe_generator4
from .numerics import (cexpm1, expm_convolution, matrix_exponential, solve_linear,
                       tail_corrected_integral)
from .params import SystemParams

__all__ = [
    "SpectrumResult",
    "SpectrumKernel",
    "build_kernel",
    "incoherent_spectrum",
    "default_spectrum_grid",
    "total_flux_check",
]


@dataclass(frozen=True)
class SpectrumResult:
    """Incoherent spectral density plus the coherent line weight.

    ``delta_grid`` holds detunings from the laser line (units of gamma),
    ``incoherent`` the density per unit frequency, and ``coherent_weight``
    the delta-function weight |<sigma_->_ss|^2 at the laser line (never
    rasterised onto the grid).  ``steady`` is the steady state
    (s-, s+, pop_e, pop_g) the spectrum was built on, None where none
    entered.
    """

    delta_grid: np.ndarray
    incoherent: np.ndarray
    coherent_weight: float
    params_used: SystemParams
    steady: np.ndarray | None = None

    def total_flux(self) -> float:
        """Coherent weight plus the integrated incoherent density.

        The density beyond the grid is estimated as C/delta^2, with C from
        the outer 2% of the points at each edge.
        """
        return (tail_corrected_integral(self.delta_grid, self.incoherent, 0.02)
                + self.coherent_weight)


@dataclass(frozen=True)
class SpectrumKernel:
    """Frequency-independent ingredients of the stationary spectrum system."""

    a3: np.ndarray            # free-space Bloch generator (3x3)
    k_tilde: np.ndarray       # round-trip kernel (3x3)
    i0_ss: np.ndarray         # fluctuation source (3,)
    g_vec: np.ndarray         # regressed ground-start Bloch vector at tau
    i1_at_line: np.ndarray    # delayed source evaluated at the laser line
    u3_tau: np.ndarray        # exp(a3 * tau)
    steady: np.ndarray        # (s-, s+, pop_e, pop_g) used throughout
    _source: Callable | None  # detunings -> I1; None where I1 vanishes

    def delayed_source(self, nu) -> np.ndarray:
        """I1 evaluated on an array of detunings; shape (n, 3)."""
        nus = np.atleast_1d(np.asarray(nu, dtype=float))
        return self._source(nus) if self._source else np.zeros((len(nus), 3), dtype=complex)


def build_kernel(p: SystemParams) -> SpectrumKernel:
    """Assemble every frequency-independent piece of the spectrum system.

    Uses the steady state of the delayed Bloch equations throughout; the
    round-trip propagators are the free-space ones (zeroth order in
    epsilon, as the closure requires).
    """
    if p.rabi <= 0.0:
        raise ValueError("spectrum machinery needs rabi > 0 (no fluorescence without drive)")
    g, tau = p.gamma, p.tau
    ss = delay_bloch_steady(p)
    m, pp = ss.s_minus, ss.s_plus
    ne = ss.pop_e.real
    z = ss.sigma_z

    a3 = obe_generator3(p)
    a4 = obe_generator4(p)
    u3 = matrix_exponential(a3, tau) if tau > 0 else np.eye(3, dtype=complex)

    s3 = np.array([m, pp, z], dtype=complex)
    g_vec = u3 @ (np.array([0.0, 0.0, -1.0]) - s3) + s3

    e_plus = np.exp(1j * p.theta_l)
    e_minus = np.conj(e_plus)
    f1 = -e_plus * g_vec[2]
    f4 = 0.5 * (e_minus * u3[0, 0] + e_plus * np.conj(u3[0, 0]))
    # off-diagonal entries carry no 1/rabi factor, so they are regular at rabi = 0
    k13 = -0.25 * g * e_plus * np.conj(u3[2, 0])
    k31 = g * e_plus * g_vec[1]
    k_tilde = np.array([
        [0.5 * g * f1, 0.0, k13],
        [0.0, 0.5 * g * np.conj(f1), np.conj(k13)],
        [k31, np.conj(k31), g * f4],
    ], dtype=complex)

    i0 = np.array([-m * m, ne - pp * m, -2.0 * ne * m], dtype=complex)

    source = _delayed_source(p, a3, a4, u3, m, pp, z, ne, e_plus, e_minus)
    i1_line = source(np.zeros(1))[0] if source else np.zeros(3, dtype=complex)

    return SpectrumKernel(a3, k_tilde, i0, g_vec, i1_line, u3,
                          ss.as_array(), source)


# ---------------------------------------------------------------------------
# delayed source: closed-form window convolutions
# ---------------------------------------------------------------------------

_EIG_COND_LIMIT = 1e8  # eigenbasis condition above which block exponentials take over


def _phi(a, b, tau):
    """int_0^tau e^{a(tau-u)} e^{b u} du, stable near a = b (array in a)."""
    diff = (a - b) * tau
    return tau * np.exp(b * tau) * _phi1(diff)


def _phi1(x):
    """(e^x - 1)/x with the removable singularity filled in."""
    x = np.asarray(x, dtype=complex)
    small = np.abs(x) < 1e-6
    out = np.empty_like(x)
    xs = x[small]
    out[small] = 1.0 + xs / 2.0 + xs * xs / 6.0
    out[~small] = cexpm1(x[~small]) / x[~small]
    return out


def _delayed_source(p, a3, a4, u3, m, pp, z, ne, e_plus, e_minus):
    """I1 as a function of an array of detunings; None where it vanishes.

    The window integrals take one of two routes, chosen here once:
    eigendecompositions when both eigenbases are well conditioned, block
    exponentials otherwise.  Only the second works where A3 and A4 are
    defective (the Mollow point rabi = gamma/4).
    """
    if p.tau == 0.0 or p.epsilon == 0.0:
        return None
    # The equal-time collapse of (d sigma_q * d sigma_-) gives the same
    # coefficient matrix for both pinned sides; only the pinned vectors and
    # constants differ.
    lam = np.array([
        [-2.0 * m, 0.0, 0.0, 0.0],
        [-pp, -m, 1.0, 0.0],
        [-(1.0 + z), 0.0, -2.0 * m, 0.0],
    ], dtype=complex)
    c_r = np.array([m**3, pp * m * m, (1.0 + z) * m * m], dtype=complex)
    c_l = np.array([m * m * pp, pp * pp * m, (1.0 + z) * m * pp], dtype=complex)
    v_minus = np.array([0.0, ne, 0.0, m], dtype=complex)
    v_plus = np.array([ne, 0.0, 0.0, pp], dtype=complex)
    args = (a3, a4, lam, c_r, c_l, v_minus, v_plus, p.tau)
    windows = _eig_windows(*args) or _vanloan_windows(*args, u3)
    g, tau = p.gamma, p.tau

    def source(nus):
        w_r, w_l, row = windows(nus)
        phi0 = tau * _phi1(-1j * nus * tau)                  # int e^{-i nu (tau-u)} du
        v_min_int = row @ v_minus - (m * m) * phi0
        v_plus_int = row @ v_plus - (pp * m) * phi0
        return np.stack([
            -0.5 * g * e_plus * (w_r[..., 2] + z * v_min_int),
            -0.5 * g * e_minus * (w_l[..., 2] + z * v_plus_int),
            g * e_minus * (w_l[..., 0] + m * v_plus_int)
            + g * e_plus * (w_r[..., 1] + pp * v_min_int),
        ], axis=-1)
    return source


def _eig_windows(a3, a4, lam, c_r, c_l, v_minus, v_plus, tau):
    """Window integrals through eigendecompositions; None if ill-conditioned.

    The returned function maps n detunings to ``(w_r, w_l, row)``: the two
    pinned-side convolutions (n x 3) and the scalar-channel row (n x 4).
    """
    try:
        w3, r3 = np.linalg.eig(a3)
        w4, r4 = np.linalg.eig(a4)
        if max(np.linalg.cond(r3), np.linalg.cond(r4)) > _EIG_COND_LIMIT:
            return None
        r3i, r4i = np.linalg.inv(r3), np.linalg.inv(r4)
    except np.linalg.LinAlgError:
        return None
    lam_mid = r3i @ lam @ r4

    def windows(nus):
        a = w3[None, :, None] - 1j * nus[:, None, None]      # n x 3 x 1
        b = w4[None, None, :]                                # 1 x 1 x 4
        phi = _phi(a, b, tau)                                # n x 3 x 4
        core = lam_mid[None, :, :] * phi                     # n x 3 x 4
        vl = np.einsum("ij,njk,kl->nil", r3, core, r4i)      # n x 3 x 4
        w_r = np.einsum("nij,j->ni", vl, v_minus)
        w_l = np.einsum("nij,j->ni", vl, v_plus)
        # constant-inhomogeneity part: (A3 - i nu)^{-1}(e^{(A3 - i nu) tau} - 1) c
        ec_diag = _phi(w3[None, :] - 1j * nus[:, None], 0.0, tau)   # n x 3
        ec_r = np.einsum("ij,nj,j->ni", r3, ec_diag, r3i @ c_r)
        ec_l = np.einsum("ij,nj,j->ni", r3, ec_diag, r3i @ c_l)
        # scalar channel: int e^{-i nu (tau-u)} <first component of e^{A4 u} v> du
        head4 = r4[0, :]                                     # e1^T r4
        phi4 = _phi(-1j * nus[:, None], w4[None, :], tau)    # n x 4
        row = (head4[None, :] * phi4) @ r4i                  # n x 4
        return w_r + ec_r, w_l + ec_l, row
    return windows


def _vanloan_windows(a3, a4, lam, c_r, c_l, v_minus, v_plus, tau, u3):
    """Window integrals through block exponentials (Van Loan 1978).

    Same contract as :func:`_eig_windows`, with ``u3 = exp(a3 tau)``: one
    stacked block exponential and one stacked solve over the detunings.
    """
    ident3 = np.eye(3, dtype=complex)
    b_blk = np.vstack([lam, np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)])

    def windows(nus):
        top = np.zeros((len(nus), 4, 4), dtype=complex)
        top[:, :3, :3] = a3 - 1j * nus[:, None, None] * ident3
        top[:, 3, 3] = -1j * nus
        blk = expm_convolution(top, b_blk, a4, tau)          # n x 4 x 4
        vl, row = blk[:, :3, :], blk[:, 3, :]
        ec = solve_linear(top[:, :3, :3],
                          np.exp(-1j * nus * tau)[:, None, None] * u3 - ident3)
        return vl @ v_minus + ec @ c_r, vl @ v_plus + ec @ c_l, row
    return windows


# ---------------------------------------------------------------------------
# spectrum evaluation
# ---------------------------------------------------------------------------

def default_spectrum_grid(p: SystemParams, points_per_unit: float = 25.0) -> np.ndarray:
    """Symmetric detuning grid spanning +-(3*generalized_rabi + 20*gamma).

    Resolves both the natural width (gamma) and the mirror oscillation
    (1/tau) with at least ``points_per_unit`` points each.
    """
    half = 3.0 * p.generalized_rabi + 20.0 * p.gamma
    scale = min(p.gamma, 1.0 / p.tau) if p.tau > 0 else p.gamma
    step = scale / points_per_unit
    n_half = int(math.ceil(half / step))
    if n_half > 2_000_000:
        raise ValueError("spectrum grid would exceed 4e6 points; pass a grid explicitly")
    return np.linspace(-n_half * step, n_half * step, 2 * n_half + 1)


def incoherent_spectrum(p: SystemParams, delta_grid=None,
                        include_delayed_source: bool = True) -> SpectrumResult:
    """Incoherent emission spectral density in the free channel.

    Solves the stationary fluctuation system at every grid point in one
    stacked solve and reads the density off the <d sigma_+ d b> component.
    ``include_delayed_source`` drops the I1 term when False (the kernel term
    remains), which quantifies its contribution.  Clips numerically negative
    densities above -1e-9 of the peak; larger negatives raise, since they
    signal an inconsistent kernel.
    """
    kern = build_kernel(p)
    grid = default_spectrum_grid(p) if delta_grid is None else np.asarray(delta_grid, float)
    eps, tau = p.epsilon, p.tau

    i1 = (kern.delayed_source(grid) if include_delayed_source
          else np.zeros((len(grid), 3), dtype=complex))
    m_nu = -1j * grid[:, None, None] * np.eye(3, dtype=complex) + kern.a3
    if eps > 0.0:
        m_nu = m_nu + eps * np.exp(-1j * grid * tau)[:, None, None] * kern.k_tilde
    rhs = -(kern.i0_ss + eps * i1)
    dens = solve_linear(m_nu, rhs)[:, 1].real / math.pi

    dens = _checked_nonnegative(dens, eps, p.rabi, p.gamma)

    ss = kern.steady
    coherent = float(abs(ss[0]) ** 2)
    return SpectrumResult(grid, dens, coherent, p, ss)


def _checked_nonnegative(dens: np.ndarray, eps: float, rabi: float,
                         gamma: float) -> np.ndarray:
    """Clip truncation-level negative lobes; reject anything worse.

    The first-order-in-epsilon theory may undershoot zero in the far tails
    by O(eps^2) of the peak; far below saturation the incoherent density is
    itself a near-complete cancellation (quartic in the drive), which
    inflates the relative size of that residue, hence the saturation
    factor.  Larger negatives signal an inconsistent kernel.
    """
    peak = float(np.max(dens)) if len(dens) else 0.0
    delicacy = max(1.0, gamma ** 2 / (2.0 * rabi ** 2))
    floor = -(1e-9 + 0.5 * eps * eps * delicacy) * max(peak, 1e-300)
    if np.min(dens) < floor:
        raise ValueError(
            f"incoherent density went negative ({np.min(dens):.3e} against a "
            f"peak of {peak:.3e}); beyond the first-order truncation error, "
            "the kernel is inconsistent at these parameters")
    return np.clip(dens, 0.0, None)


def total_flux_check(p: SystemParams, delta_grid=None,
                     include_delayed_source: bool = True) -> float:
    """Coherent weight plus integrated incoherent density.

    Contract: equals the steady excited population of the delayed Bloch
    system up to O(epsilon^2) and quadrature error.
    """
    spec = incoherent_spectrum(p, delta_grid, include_delayed_source)
    return spec.total_flux()
