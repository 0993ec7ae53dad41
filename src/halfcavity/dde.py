"""Delay differential equations by the method of steps.

Solves linear constant-coefficient systems with one discrete delay,

    x'(t) = A x(t) + B x(t - tau) * step(t - tau) + c,    x(0) = x0,

where the delayed term is switched off entirely for t < tau (no history
function is needed: the first interval is an ordinary ODE).  On every
interval [n*tau, (n+1)*tau] the previous interval's dense interpolant is
substituted for x(t - tau) and the resulting ODE is integrated with an
embedded Dormand-Prince 5(4) pair.  Interval boundaries are forced to be
mesh points because the solution gains one derivative per interval and
the remaining derivative discontinuities live exactly there.

The result is a :class:`HistorySolution`: a piecewise quartic dense
output over [0, t_end], queryable at any time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DdeProblem",
    "HistorySolution",
    "DdeError",
    "NonFiniteStateError",
    "ToleranceNotMetError",
    "TOL_RANGE",
    "integrate",
]


# accepted range of the integrator tolerance, shared with the CLI's config check
TOL_RANGE = (1e-14, 1e-4)


class DdeError(RuntimeError):
    """Base class for integrator failures."""


class NonFiniteStateError(DdeError):
    """The state became NaN or infinite during integration."""


class ToleranceNotMetError(DdeError):
    """The step size collapsed below the resolvable limit."""


@dataclass(frozen=True)
class DdeProblem:
    """One linear delay problem; matrices are dim x dim, c and x0 length dim."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    tau: float
    x0: np.ndarray
    t_end: float

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.a, dtype=complex))
        b = np.atleast_2d(np.asarray(self.b, dtype=complex))
        c = np.atleast_1d(np.asarray(self.c, dtype=complex))
        x0 = np.atleast_1d(np.asarray(self.x0, dtype=complex))
        dim = x0.shape[0]
        if a.shape != (dim, dim) or b.shape != (dim, dim) or c.shape != (dim,):
            raise ValueError("inconsistent dimensions in DdeProblem")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))
                and np.all(np.isfinite(c)) and np.all(np.isfinite(x0))):
            raise ValueError("non-finite data in DdeProblem")
        if self.tau <= 0.0:
            raise ValueError("tau must be > 0")
        if self.t_end < 0.0:
            raise ValueError("t_end must be >= 0")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "x0", x0)

    @property
    def dim(self) -> int:
        return self.x0.shape[0]

    @property
    def has_delay(self) -> bool:
        return bool(np.any(self.b != 0.0))


# Dormand-Prince 5(4) tableau with the quartic dense-output matrix.
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_B = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40])
_P = np.array([
    [1.0, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
    [0.0, 0.0, 0.0, 0.0],
    [0.0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
    [0.0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
    [0.0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
    [0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])


class HistorySolution:
    """Piecewise-polynomial dense solution of a delay problem on [0, t_end].

    Immutable after construction; queries are safe from any thread.
    Call the object (or :meth:`query`) with a scalar time or an array.
    """

    def __init__(self, starts, widths, y0s, coeffs, t_end, tau, dim):
        self._starts = np.asarray(starts)
        self._widths = np.asarray(widths)
        self._y0s = np.asarray(y0s)
        self._coeffs = np.asarray(coeffs)   # nsteps x dim x 4
        self.t_end = float(t_end)
        self.tau = float(tau)
        self.dim = int(dim)

    def query(self, t):
        """State vector at time t (exact at step points)."""
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        if np.any(t_arr < -1e-12) or np.any(t_arr > self.t_end * (1 + 1e-12) + 1e-300):
            raise ValueError(f"query time outside [0, {self.t_end}]")
        t_arr = np.clip(t_arr, 0.0, self.t_end)
        idx = np.searchsorted(self._starts, t_arr, side="right") - 1
        idx = np.clip(idx, 0, len(self._starts) - 1)
        theta = (t_arr - self._starts[idx]) / self._widths[idx]
        powers = np.stack([theta, theta**2, theta**3, theta**4], axis=-1)
        vals = self._y0s[idx] + np.einsum("ndp,np->nd", self._coeffs[idx], powers)
        return vals[0] if np.ndim(t) == 0 else vals

    __call__ = query

    @property
    def final_state(self):
        return self.query(self.t_end)

    @property
    def step_times(self):
        """Left endpoints of the accepted steps (includes every multiple of tau)."""
        return self._starts.copy()


def _rk_step(rhs, t, y, h, k1):
    """One embedded DOPRI5 step; returns (y_new, err_vec, stages).

    Overflow inside a diverging trial step is tolerated here; the caller
    turns the resulting non-finite state into a diagnostic abort.
    """
    k = np.empty((7, y.shape[0]), dtype=complex)
    k[0] = k1
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, 7):
            k[i] = rhs(t + _C[i] * h, y + h * (_A[i] @ k[:i]))
        y_new = y + h * (_B @ k)
        err = h * (_E @ k)
    return y_new, err, k


def _integrate_window(rhs, t_lo, t_hi, y, tol, store, h_start=None):
    """Adaptively integrate one ODE window, appending dense steps to store."""
    t = t_lo
    k1 = rhs(t, y)
    if not np.all(np.isfinite(k1)):
        raise NonFiniteStateError(f"non-finite derivative at t = {t}")
    span = t_hi - t_lo
    if h_start is None:
        scale = tol * (1.0 + np.abs(y))
        d0 = np.sqrt(np.mean(np.abs(k1 / scale) ** 2))
        h = min(span, 0.1 / max(d0, 1e-8), span and span or 1.0)
        h = max(h, 1e-10 * span)
    else:
        h = min(h_start, span)

    while t < t_hi - 1e-14 * max(1.0, abs(t_hi)):
        h = min(h, t_hi - t)
        if h < 1e-14 * max(1.0, abs(t)):
            raise ToleranceNotMetError(
                f"step size underflow at t = {t} (h = {h:.3e}); "
                "tolerance not attainable")
        y_new, err, k = _rk_step(rhs, t, y, h, k1)
        if not np.all(np.isfinite(y_new)):
            raise NonFiniteStateError(f"non-finite state at t = {t + h}")
        scale = tol * (1.0 + np.maximum(np.abs(y), np.abs(y_new)))
        err_norm = np.sqrt(np.mean(np.abs(err / scale) ** 2))
        if err_norm <= 1.0:
            store.append((t, h, y.copy(), h * (k.T @ _P)))
            t += h
            y = y_new
            k1 = k[6]  # FSAL
            factor = 5.0 if err_norm == 0.0 else min(5.0, 0.9 * err_norm ** -0.2)
            h *= factor
        else:
            h *= max(0.2, 0.9 * err_norm ** -0.2)
    return y, h


def integrate(problem: DdeProblem, tol: float = 1e-10) -> HistorySolution:
    """Integrate a :class:`DdeProblem` to dense accuracy ``tol``.

    ``tol`` acts as both relative and absolute local tolerance
    (error scale per component is ``tol * (1 + |x|)``) and must lie in
    [1e-14, 1e-4].  Interval boundaries n*tau are always mesh points.

    Raises
    ------
    NonFiniteStateError, ToleranceNotMetError
        On numerical failure, with the failing time in the message.
    """
    lo, hi = TOL_RANGE
    if not lo <= tol <= hi:
        raise ValueError(f"tol must lie in [{lo:g}, {hi:g}], got {tol}")

    a, b, c, tau = problem.a, problem.b, problem.c, problem.tau
    t_end = problem.t_end
    store: list[tuple] = []
    y = problem.x0.copy()

    if t_end == 0.0 or problem.dim == 0:
        # degenerate: single zero-width entry so queries at t=0 work
        store.append((0.0, 1.0, y.copy(), np.zeros((problem.dim, 4), dtype=complex)))
        starts, widths, y0s, coeffs = zip(*store)
        return HistorySolution(starts, widths, y0s, coeffs, t_end, tau, problem.dim)

    if problem.has_delay:
        n_windows = int(np.ceil(t_end / tau - 1e-12))
        bounds = [min(k * tau, t_end) for k in range(n_windows + 1)]
        if bounds[-1] < t_end:
            bounds.append(t_end)
    else:
        bounds = [0.0, t_end]

    partial: HistorySolution | None = None
    h_carry = None
    for w in range(len(bounds) - 1):
        t_lo, t_hi = bounds[w], bounds[w + 1]
        if t_hi <= t_lo:
            continue
        if problem.has_delay and w >= 1:
            hist = HistorySolution(*_pack(store), t_lo, tau, problem.dim)

            def rhs(t, x, _hist=hist):
                return a @ x + b @ _hist.query(t - tau) + c
        else:
            def rhs(t, x):
                return a @ x + c
        y, h_carry = _integrate_window(rhs, t_lo, t_hi, y, tol, store, h_carry)

    starts, widths, y0s, coeffs = _pack(store)
    return HistorySolution(starts, widths, y0s, coeffs, t_end, tau, problem.dim)


def _pack(store):
    starts = np.array([s[0] for s in store])
    widths = np.array([s[1] for s in store])
    y0s = np.array([s[2] for s in store])
    coeffs = np.array([s[3] for s in store])
    return starts, widths, y0s, coeffs


# ---------------------------------------------------------------------------
# plain ODE driver (no dense storage) for large systems
# ---------------------------------------------------------------------------

def solve_ode(rhs, t_span, y0, t_eval, tol=1e-8, max_step=np.inf):
    """Adaptive DOPRI5 for a plain ODE, returning the state at ``t_eval`` only.

    Used for the big discrete-mode systems where storing dense output for
    every step would be wasteful.  ``t_eval`` must be increasing and inside
    ``t_span``.
    """
    t0, t1 = t_span
    y = np.asarray(y0, dtype=complex).copy()
    t_eval = np.asarray(t_eval, dtype=float)
    out = np.empty((len(t_eval), y.shape[0]), dtype=complex)
    nxt = 0
    t = t0
    k1 = rhs(t, y)
    scale = tol * (1.0 + np.abs(y))
    d0 = np.sqrt(np.mean(np.abs(k1 / scale) ** 2))
    h = min(t1 - t0, 0.1 / max(d0, 1e-8), max_step)

    while nxt < len(t_eval) and t_eval[nxt] <= t0 + 1e-15:
        out[nxt] = y
        nxt += 1

    while t < t1 - 1e-14 * max(1.0, abs(t1)):
        h = min(h, t1 - t, max_step)
        if h < 1e-14 * max(1.0, abs(t)):
            raise ToleranceNotMetError(f"step size underflow at t = {t}")
        y_new, err, k = _rk_step(rhs, t, y, h, k1)
        if not np.all(np.isfinite(y_new)):
            raise NonFiniteStateError(f"non-finite state at t = {t + h}")
        scale = tol * (1.0 + np.maximum(np.abs(y), np.abs(y_new)))
        err_norm = np.sqrt(np.mean(np.abs(err / scale) ** 2))
        if err_norm <= 1.0:
            while nxt < len(t_eval) and t_eval[nxt] <= t + h + 1e-15:
                theta = (t_eval[nxt] - t) / h
                powers = np.array([theta, theta**2, theta**3, theta**4])
                out[nxt] = y + (h * (k.T @ _P)) @ powers
                nxt += 1
            t += h
            y = y_new
            k1 = k[6]
            h *= 5.0 if err_norm == 0.0 else min(5.0, 0.9 * err_norm ** -0.2)
        else:
            h *= max(0.2, 0.9 * err_norm ** -0.2)
    while nxt < len(t_eval):
        out[nxt] = y
        nxt += 1
    return out
