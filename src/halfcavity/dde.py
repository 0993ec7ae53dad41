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
        vals = _dense_eval(self._starts, self._widths, self._y0s, self._coeffs, t_arr)
        return vals[0] if np.ndim(t) == 0 else vals

    __call__ = query

    @property
    def final_state(self):
        return self.query(self.t_end)

    @property
    def step_times(self):
        """Left endpoints of the accepted steps (includes every multiple of tau)."""
        return self._starts.copy()


def _dense_eval(starts, widths, y0s, coeffs, t):
    """Quartic dense output of a table of consecutive steps at the times t (1-D).

    A time outside the table is evaluated on its first or last step.
    """
    idx = np.searchsorted(starts, t, side="right") - 1
    idx = np.clip(idx, 0, len(starts) - 1)
    theta = (t - starts[idx]) / widths[idx]
    powers = np.stack([theta, theta**2, theta**3, theta**4], axis=-1)
    return y0s[idx] + np.einsum("ndp,np->nd", coeffs[idx], powers)


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


def _dopri5(rhs, t_lo, t_hi, y, tol, on_step, h=None, max_step=np.inf):
    """Adaptive DOPRI5 from state ``y`` at ``t_lo`` to ``t_hi``.

    Calls ``on_step(t, h, y, k)`` for every accepted step from ``t`` to
    ``t + h``, with ``y`` the state at ``t`` and ``k`` the seven stages
    (the quartic dense output over the step is ``y + h * (k.T @ _P)``
    applied to theta .. theta^4).  ``h`` is the first trial step (default:
    chosen from the initial derivative).  Returns the state at ``t_hi`` and
    the next proposed step size.
    """
    t = t_lo
    k1 = rhs(t, y)
    if not np.all(np.isfinite(k1)):
        raise NonFiniteStateError(f"non-finite derivative at t = {t}")
    if h is None:
        span = t_hi - t_lo
        scale = tol * (1.0 + np.abs(y))
        d0 = np.sqrt(np.mean(np.abs(k1 / scale) ** 2))
        h = max(min(span, 0.1 / max(d0, 1e-8)), 1e-10 * span)

    while t < t_hi - 1e-14 * max(1.0, abs(t_hi)):
        h = min(h, t_hi - t, max_step)
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
            on_step(t, h, y, k)
            t += h
            y = y_new
            k1 = k[6]  # FSAL
            h *= 5.0 if err_norm == 0.0 else min(5.0, 0.9 * err_norm ** -0.2)
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
    y = problem.x0.copy()

    if t_end <= 1e-14 or problem.dim == 0:
        # degenerate (no step fits before t_end): a single entry holding x0
        return HistorySolution([0.0], [1.0], [y], np.zeros((1, problem.dim, 4), dtype=complex),
                               t_end, tau, problem.dim)

    if problem.has_delay:
        n_windows = int(np.ceil(t_end / tau - 1e-12))
        bounds = [min(k * tau, t_end) for k in range(n_windows + 1)]
        if bounds[-1] < t_end:
            bounds.append(t_end)
    else:
        bounds = [0.0, t_end]

    # per window, its step table (starts, widths, y0s, coeffs); on
    # [n tau, (n+1) tau] the delayed term reads only the window before
    windows: list[tuple] = []
    h = None
    for t_lo, t_hi in zip(bounds[:-1], bounds[1:]):
        if t_hi <= t_lo:
            continue
        if problem.has_delay and windows:
            # a stage time can pass t_hi by rounding; the lag stays within
            # the window before, as HistorySolution.query clips to t_end
            def rhs(t, x, _prev=windows[-1], _end=t_lo):
                lag = np.array([min(t - tau, _end)])
                return a @ x + b @ _dense_eval(*_prev, lag)[0] + c
        else:
            def rhs(t, x):
                return a @ x + c
        steps = []

        def keep(t, h, y, k):
            steps.append((t, h, y, h * (k.T @ _P)))

        y, h = _dopri5(rhs, t_lo, t_hi, y, tol, keep, h)
        if steps:  # a last window narrower than the loop's end tolerance takes none
            windows.append(tuple(np.array(col) for col in zip(*steps)))

    starts, widths, y0s, coeffs = (np.concatenate(col) for col in zip(*windows))
    return HistorySolution(starts, widths, y0s, coeffs, t_end, tau, problem.dim)


# ---------------------------------------------------------------------------
# plain ODE driver (no dense storage) for large systems
# ---------------------------------------------------------------------------

def solve_ode(rhs, t_span, y0, t_eval, tol=1e-8, max_step=np.inf):
    """Adaptive DOPRI5 for a plain ODE, returning the state at ``t_eval`` only.

    Used for the big discrete-mode systems where storing dense output for
    every step would be wasteful: the dense output of a step is formed only
    when a time of ``t_eval`` falls in it.  ``t_eval`` must be increasing
    and inside ``t_span``.
    """
    t0, t1 = t_span
    y = np.asarray(y0, dtype=complex).copy()
    t_eval = np.asarray(t_eval, dtype=float)
    out = np.empty((len(t_eval), y.shape[0]), dtype=complex)
    nxt = int(np.searchsorted(t_eval, t0 + 1e-15, side="right"))
    out[:nxt] = y

    def sample(t, h, y, k):
        nonlocal nxt
        stop = int(np.searchsorted(t_eval, t + h + 1e-15, side="right"))
        if stop > nxt:
            coeffs = h * (k.T @ _P)
            for i in range(nxt, stop):
                theta = (t_eval[i] - t) / h
                out[i] = y + coeffs @ np.array([theta, theta**2, theta**3, theta**4])
            nxt = stop

    y, _ = _dopri5(rhs, t0, t1, y, tol, sample, max_step=max_step)
    out[nxt:] = y
    return out
