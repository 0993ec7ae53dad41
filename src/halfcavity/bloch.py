"""Optical Bloch dynamics with mirror feedback beyond weak drive.

Two complementary treatments of a driven atom whose own resonance
fluorescence is partially reflected back onto it:

* **Markov limit** (round trip short against all dynamical time scales):
  ordinary optical Bloch equations with renormalised decay rate and
  detuning, solved in the (sigma-, sigma+, sigma_z) basis.
* **First order in the feedback strength epsilon**: the two-time
  correlations brought in by the reflected field are closed with the
  quantum regression step, i.e. propagated across one round trip with the
  free-space evolution.  The result is a linear delay system for the
  expectation 4-vector

      S = (<sigma_->, <sigma_+>, <sigma_+ sigma_->, <sigma_- sigma_+>),

      dS/dt = A4 S(t) + epsilon K(tau) S(t - tau) * step(t - tau),

  where A4 is the free-space generator in this basis and the kernel K is
  built from matrix elements of U(tau) = exp(A4 tau).  Steady states are
  null eigenvectors of A4 + epsilon K(tau), computed as a stack: a sweep
  of parameter sets costs one stacked matrix exponential, eigenvalue and
  SVD call, and a single state is the one-element case.  Transients run
  through the delay integrator.  At strong drive the feedback contribution
  to the steady population is modulated by a universal function of
  rabi*tau that vanishes near multiples of pi: a strong laser can switch
  the mirror effect off regardless of the atom's position.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from . import dde
from .numerics import matrix_exponential, null_eigenvector
from .params import SystemParams

__all__ = [
    "BlochVector",
    "BlochTrajectory",
    "DelayKernel",
    "obe_generator3",
    "obe_generator4",
    "markov_bloch_steady",
    "markov_bloch_transient",
    "epsilon_expansion_population",
    "delay_kernel",
    "delay_bloch_transient",
    "delay_bloch_steady",
    "delay_bloch_steady_states",
    "strong_drive_envelope",
]

GROUND_STATE4 = np.array([0.0, 0.0, 0.0, 1.0], dtype=complex)

# the checks of BlochVector.validate, in order
_STATE_FAULTS = (
    "s_plus is not the conjugate of s_minus",
    "populations do not sum to one",
    "populations are not real",
    "excited population outside [0, 1]",
)


def _state_faults(s: np.ndarray, tol: float) -> np.ndarray:
    """Flags (n, 4) of the :data:`_STATE_FAULTS` checks on rows (n, 4) of states."""
    pop_e, pop_g = s[:, 2], s[:, 3]
    return np.stack([
        np.abs(s[:, 1] - np.conj(s[:, 0])) > tol,
        np.abs(pop_e + pop_g - 1.0) > tol,
        (np.abs(pop_e.imag) > tol) | (np.abs(pop_g.imag) > tol),
        ~((-tol <= pop_e.real) & (pop_e.real <= 1.0 + tol)),
    ], axis=-1)


def _fields(p, *names):
    """Fields of one parameter set as floats, or of a sequence as arrays (n,)."""
    get = attrgetter(*names)
    if isinstance(p, SystemParams):
        return get(p) if len(names) > 1 else (get(p),)
    return tuple(np.array([get(q) for q in p], dtype=float).reshape(-1, len(names)).T)


@dataclass(frozen=True)
class BlochVector:
    """Atomic expectation values (<s->, <s+>, <s+s->, <s-s+>) at one time."""

    s_minus: complex
    s_plus: complex
    pop_e: complex
    pop_g: complex

    def validate(self, tol: float = 1e-9) -> "BlochVector":
        """Enforce hermiticity and trace constraints; returns self."""
        faults = _state_faults(self.as_array()[None], tol)[0]
        if faults.any():
            raise ValueError(_STATE_FAULTS[int(np.argmax(faults))])
        return self

    @property
    def sigma_z(self) -> float:
        return float((self.pop_e - self.pop_g).real)

    @classmethod
    def from_array(cls, s: np.ndarray) -> "BlochVector":
        return cls(complex(s[0]), complex(s[1]), complex(s[2]), complex(s[3]))

    def as_array(self) -> np.ndarray:
        return np.array([self.s_minus, self.s_plus, self.pop_e, self.pop_g], dtype=complex)


@dataclass(frozen=True)
class BlochTrajectory:
    """Sampled Bloch dynamics; populations are the real parts of column 3."""

    times: np.ndarray
    states: np.ndarray        # n_times x 4, ordered like BlochVector

    @property
    def pop_e(self) -> np.ndarray:
        return self.states[:, 2].real

    @property
    def s_minus(self) -> np.ndarray:
        return self.states[:, 0]

    def at(self, i: int) -> BlochVector:
        return BlochVector.from_array(self.states[i])


def obe_generator3(p: SystemParams, gamma=None, detuning=None) -> np.ndarray:
    """Free-space Bloch generator in the (s-, s+, s_z) basis.

    The s_z drift carries the inhomogeneity (0, 0, -gamma) which is not
    included here; pass modified rate/detuning to build the Markov-limit
    generator.
    """
    g = p.gamma if gamma is None else gamma
    d = p.detuning if detuning is None else detuning
    w = p.rabi
    return np.array([
        [-0.5 * g - 1j * d, 0.0, -0.5j * w],
        [0.0, -0.5 * g + 1j * d, 0.5j * w],
        [-1j * w, 1j * w, -g],
    ], dtype=complex)


def obe_generator4(p: SystemParams | Sequence[SystemParams]) -> np.ndarray:
    """Free-space Bloch generator in the population pair basis.

    Same dynamics as :func:`obe_generator3` but on
    (<s->, <s+>, <s+s->, <s-s+>); using both populations makes the system
    homogeneous (rows 3 and 4 sum to zero, preserving the trace).  A
    sequence of n parameter sets gives the stack (n, 4, 4).
    """
    g, d, w = _fields(p, "gamma", "detuning", "rabi")
    hw = 0.5j * w
    zero = np.zeros_like(hw)
    return np.moveaxis(np.array([
        [-0.5 * g - 1j * d, zero, -hw, hw],
        [zero, -0.5 * g + 1j * d, hw, -hw],
        [-hw, hw, -g, zero],
        [hw, -hw, g, zero],
    ], dtype=complex), (0, 1), (-2, -1))


# ---------------------------------------------------------------------------
# Markov limit
# ---------------------------------------------------------------------------

def markov_bloch_steady(p: SystemParams) -> BlochVector:
    """Steady state of the Bloch equations with mirror-modified parameters.

    pop_e = rabi^2 / (gamma_eff^2 + 2 rabi^2 + 4 detuning_eff^2); the
    coherences follow from the same 3x3 inversion.
    """
    gt, dt, w = p.gamma_tilde_l, p.delta_tilde, p.rabi
    denom = gt * gt + 2.0 * w * w + 4.0 * dt * dt
    if denom == 0.0:
        raise ZeroDivisionError("Markov steady state undefined (perfect feedback point)")
    sz = -(gt * gt + 4.0 * dt * dt) / denom
    if gt == 0.0 and dt == 0.0:
        sm = 0.0 + 0.0j
    else:
        sm = -1j * w * sz * (gt - 2j * dt) / (gt * gt + 4.0 * dt * dt)
    return BlochVector(sm, np.conj(sm), 0.5 * (1.0 + sz), 0.5 * (1.0 - sz))


def markov_bloch_transient(p: SystemParams, t_end: float, n_out: int = 400) -> BlochTrajectory:
    """Ground-state transient of the Markov-limit Bloch equations.

    Exact: the affine system s3' = A3 s3 + c is the homogeneous one of the
    augmented generator [[A3, c], [0, 0]] acting on (s3, 1), whose
    exponential stays valid when A3 is singular.
    """
    if t_end < 0.0:
        raise ValueError("t_end must be >= 0")
    gt, dt = p.gamma_tilde_l, p.delta_tilde
    gen = np.zeros((4, 4), dtype=complex)
    gen[:3, :3] = obe_generator3(p, gamma=gt, detuning=dt)
    gen[2, 3] = -gt
    x0 = np.array([0.0, 0.0, -1.0, 1.0], dtype=complex)
    times = np.linspace(0.0, t_end, n_out)
    s = matrix_exponential(gen * times[:, None, None]) @ x0   # rows (s-, s+, s_z, 1)
    return BlochTrajectory(times, np.column_stack(
        [s[:, 0], s[:, 1], 0.5 * (1.0 + s[:, 2]), 0.5 * (1.0 - s[:, 2])]))


def epsilon_expansion_population(p: SystemParams) -> float:
    """Markov steady population expanded to first order in the feedback.

    (rabi^2/big_gamma) * (1 + 2 eps (gamma^2/big_gamma)
    * sqrt((gamma^2 + 4 detuning^2)/gamma^2) * cos(theta_l - phi)) with
    big_gamma = gamma^2 + 2 rabi^2 + 4 detuning^2 and tan(phi) =
    2*detuning/gamma: the level shift turns into a detuning-dependent
    phase offset of the position oscillation.
    """
    g, w, d = p.gamma, p.rabi, p.detuning
    big = g * g + 2.0 * w * w + 4.0 * d * d
    phi = math.atan2(2.0 * d, g)
    amp = 2.0 * p.epsilon * (g * g / big) * math.sqrt((g * g + 4.0 * d * d) / (g * g))
    return (w * w / big) * (1.0 + amp * math.cos(p.theta_l - phi))


# ---------------------------------------------------------------------------
# first order in epsilon: delay kernel and its dynamics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DelayKernel:
    """Round-trip feedback kernel of the delayed Bloch system.

    ``u_tau`` is the free evolution over one round trip (population pair
    basis), ``k_tau`` the kernel matrix multiplying epsilon*S(t - tau), and
    f1, f4 the scalar combinations of U(tau) elements on its diagonal.
    At tau = 0 the kernel reduces the delay system to the Markov-limit
    equations exactly.  Built for a sequence of n parameter sets, every
    field gains a leading axis of length n.
    """

    u_tau: np.ndarray
    k_tau: np.ndarray
    f1: complex | np.ndarray
    f4: complex | np.ndarray


def delay_kernel(p: SystemParams | Sequence[SystemParams]) -> DelayKernel:
    """Build the feedback kernel from the free round-trip evolution.

    f1  = -e^{i theta_l}(U34 - U44)           (coherence damping),
    f4  = Re part combination of U11          (population damping),
    k13 = -gamma e^{i theta_l} U31*           (coherence drive),
    k31 = (gamma/2) e^{i theta_l} U24         (population drive),

    assembled into the kernel so rows 3 and 4 cancel (trace preserved) and
    rows 1 and 2 stay conjugate.  Every entry is a plain product of U
    elements, so the kernel is smooth down to rabi = 0.  A sequence of
    parameter sets gets all its U(tau) from one stacked matrix exponential.
    """
    g, tau, theta_l = _fields(p, "gamma", "tau", "theta_l")
    tau = np.asarray(tau)[..., None, None]
    u = np.where(tau > 0, matrix_exponential(obe_generator4(p) * tau), np.eye(4))
    e_plus = np.exp(1j * theta_l)
    e_minus = np.conj(e_plus)

    ue = np.moveaxis(u, (-2, -1), (0, 1))    # ue[i, j]: a scalar, or one per set
    f1 = -e_plus * (ue[2, 3] - ue[3, 3])
    f4 = 0.5 * (e_minus * ue[0, 0] + e_plus * np.conj(ue[0, 0]))
    k13 = -g * e_plus * np.conj(ue[2, 0])
    k31 = 0.5 * g * e_plus * ue[1, 3]

    zero = np.zeros_like(f1)
    k = np.moveaxis(np.array([
        [0.5 * g * f1, zero, k13, zero],
        [zero, 0.5 * g * np.conj(f1), np.conj(k13), zero],
        [k31, np.conj(k31), g * f4, zero],
        [-k31, -np.conj(k31), -g * f4, zero],
    ], dtype=complex), (0, 1), (-2, -1))
    return DelayKernel(u, k, f1, f4)


def delay_bloch_transient(p: SystemParams, t_end: float, n_out: int = 400,
                          tol: float = 1e-10, times=None) -> BlochTrajectory:
    """Ground-state transient of the delayed Bloch system.

    Identical to free space until the first round trip completes; valid to
    first order in epsilon.  Sampled at ``times`` (within [0, t_end]),
    by default at ``linspace(0, t_end, n_out)``.
    """
    kern = delay_kernel(p)
    problem = dde.DdeProblem(
        a=obe_generator4(p), b=p.epsilon * kern.k_tau, c=np.zeros(4),
        tau=p.tau if p.tau > 0 else 1.0, x0=GROUND_STATE4, t_end=t_end)
    sol = dde.integrate(problem, tol=tol)
    times = np.linspace(0.0, t_end, n_out) if times is None else np.asarray(times, dtype=float)
    return BlochTrajectory(times, sol.query(times))


def delay_bloch_steady(p: SystemParams) -> BlochVector:
    """Steady state of the delayed Bloch system: the one-element case of
    :func:`delay_bloch_steady_states`."""
    return BlochVector.from_array(delay_bloch_steady_states([p])[0])


def delay_bloch_steady_states(ps: Sequence[SystemParams]) -> np.ndarray:
    """Steady states of the delayed Bloch system, one row (ordered like
    :class:`BlochVector`) per parameter set.

    Each row is the null eigenvector of A4 + epsilon*K(tau), normalised to
    unit trace, symmetrised so the conjugate-pair structure is exact and
    checked like :meth:`BlochVector.validate` at tol 1e-7.  One stacked
    kernel, eigenvalue and SVD call serve all rows, each as if alone.

    Raises ``DegenerateKernelError`` (smallest eigenvalue not isolated),
    ``numpy.linalg.LinAlgError`` (null vector with vanishing trace) or
    ``ValueError`` (a validate check fails) for the first failing row; the
    exception carries that row as ``index = (row,)``.
    """
    (eps,) = _fields(ps, "epsilon")
    m = obe_generator4(ps) + eps[:, None, None] * delay_kernel(ps).k_tau
    v = null_eigenvector(m)
    trace = v[:, 2] + v[:, 3]
    _raise_first((np.abs(trace) < 1e-12)[:, None],
                 ("null vector has vanishing trace; cannot normalise",),
                 np.linalg.LinAlgError)
    v = v / trace[:, None]
    # fold in the conjugation symmetry (s+ = conj(s-), real populations)
    v = 0.5 * (v + np.conj(v[:, [1, 0, 2, 3]]))
    _raise_first(_state_faults(v, 1e-7), _STATE_FAULTS, ValueError)
    return v


def _raise_first(faults: np.ndarray, messages, exc_type) -> None:
    """Raise for the first row of ``faults`` (n, k) with a flag set, with
    the message of its first flag; the exception carries ``index = (row,)``."""
    if faults.any():
        row = int(np.argmax(faults.any(axis=-1)))
        exc = exc_type(f"steady state {row}: {messages[int(np.argmax(faults[row]))]}")
        exc.index = (row,)
        raise exc


def strong_drive_envelope(p: SystemParams, theta0: float | None = None) -> float:
    """Steady population at strong resonant drive, first order in epsilon.

    (rabi^2/big_gamma) * (1 + 2 eps (gamma^2/big_gamma) cos(theta0) g(tau))
    where the modulation function

        g(tau) = e^{-3 gamma tau/4}(3/4 cos(rabi tau)
                 - rabi/(2 gamma) sin(rabi tau)) + e^{-gamma tau/2}/4

    equals 1 at tau = 0 (recovering the Markov expansion) and crosses zero
    near rabi*tau = n*pi, where the mirror effect disappears.  Resonant
    drive only (detuning must vanish; there the atomic and laser phases
    coincide).
    """
    if p.detuning != 0.0:
        raise ValueError("strong_drive_envelope is defined for detuning = 0")
    g, w = p.gamma, p.rabi
    th = p.theta0 if theta0 is None else theta0
    big = g * g + 2.0 * w * w
    mod = drive_modulation(p)
    return (w * w / big) * (1.0 + 2.0 * p.epsilon * (g * g / big) * math.cos(th) * mod)


def drive_modulation(p: SystemParams) -> float:
    """The strong-drive modulation function g(tau) alone."""
    g, w, tau = p.gamma, p.rabi, p.tau
    return (math.exp(-0.75 * g * tau) * (0.75 * math.cos(w * tau)
            - 0.5 * (w / g) * math.sin(w * tau))
            + 0.25 * math.exp(-0.5 * g * tau))
