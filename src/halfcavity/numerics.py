"""Special functions and small dense complex linear algebra.

Everything in this module is generic numerics: the round-trip series
that every delay-series solution sums, with its kernels
``kummer_minus_exp`` and ``exp_kernel``, a scaling-and-squaring matrix
exponential for the small (3x3 / 4x4) generators, window convolutions of
two matrix exponentials, linear solves with a condition guard, the
null eigenvector used for steady states, and the integral of a spectral
density with C/delta^2 tails beyond its grid.  The matrix exponential,
the window convolution, the guarded solve and the null eigenvector also
take stacks of shape ``(..., d, d)``, each matrix treated as if alone.
``kummer_minus_exp`` evaluates a 0-d argument in plain Python ``complex``
arithmetic: the scalar series make thousands of calls, and a 0-d array
costs more in numpy's per-call overhead and per-iteration reductions than
the arithmetic itself.  All functions are pure.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

__all__ = [
    "SingularMatrixError",
    "DegenerateKernelError",
    "cexpm1",
    "kummer_minus_exp",
    "exp_kernel",
    "completed_round_trips",
    "round_trip_series",
    "matrix_exponential",
    "expm_convolution",
    "solve_linear",
    "null_eigenvector",
    "tail_corrected_integral",
]


class SingularMatrixError(np.linalg.LinAlgError):
    """Linear solve rejected because the matrix is numerically singular."""


class DegenerateKernelError(np.linalg.LinAlgError):
    """Null-eigenvector extraction rejected: smallest eigenvalue not isolated.

    ``index`` is the stack index of the rejected matrix (None for one matrix).
    """

    def __init__(self, message: str, index: tuple | None = None):
        super().__init__(message)
        self.index = index


# ---------------------------------------------------------------------------
# round-trip series and its kernels
# ---------------------------------------------------------------------------

def cexpm1(s):
    """expm1 for complex arguments, stable near s = 0."""
    s = np.asarray(s, dtype=complex)
    x, y = s.real, s.imag
    # e^s - 1 = expm1(x)*cos(y) - 2*sin^2(y/2) + i*e^x*sin(y)
    return np.expm1(x) * np.cos(y) - 2.0 * np.sin(0.5 * y) ** 2 + 1j * np.exp(x) * np.sin(y)


def poisson_weight(n: int, x: float) -> float:
    """x^n / n! for x >= 0, evaluated through logs to dodge overflow.

    The round-trip series all carry this weight; x^n alone can overflow
    double precision long before the weight itself leaves range.
    """
    if x < 0.0:
        raise ValueError("poisson_weight needs x >= 0")
    if n == 0:
        return 1.0
    if x == 0.0:
        return 0.0
    log_w = n * math.log(x) - math.lgamma(n + 1)
    if log_w > 700.0:
        raise OverflowError(f"series weight overflows (n={n}, x={x:.3g})")
    return math.exp(log_w)


def kummer_minus_exp(n: int, s):
    """Kummer function gap ``1F1(n, n+1; s) - exp(s)``.

    This combination is the frequency-domain kernel of every delay-series
    solution in the package.  It equals ``(-s)^(-n) * lower_gamma(n+1, -s)``,
    which is how it is evaluated:

    * ``|s| <= n + 1``: tail series ``exp(s) * sum_{k>=1} (-s)^k n!/(n+k)!``
      whose terms decay monotonically from the start,
    * ``|s| > n + 1``: finite form ``n!/z^n - exp(-z) sum_{j=0..n}
      n!/(n-j)! z^(-j)`` with ``z = -s``, whose terms shrink by the factor
      ``(n-j)/|z| < 1``, so nothing overflows at any order.

    Both branches avoid the catastrophic cancellation of the raw
    hypergeometric series for arguments with a large modulus.

    A 0-d ``s`` runs the same three cases (n = 0, tail series, finite form)
    in Python ``complex`` arithmetic, which is what the scalar round-trip
    series call: through numpy, a 0-d array pays array overhead on every
    operation and an ``np.all`` reduction on every iteration of the tail
    series, an order of magnitude more than the arithmetic costs.  The two
    paths agree to rounding (numpy and CPython round complex products
    differently).

    Parameters
    ----------
    n : int
        Series order, >= 0.
    s : complex or ndarray of complex
        Argument(s); must be finite.

    Returns
    -------
    complex or ndarray
        Finite for every finite ``s`` whose result is in range; scalar in,
        scalar out.  Out of range (``Re s`` beyond about 709) a scalar
        raises ``OverflowError`` where an array holds inf or nan.
    """
    if n < 0 or n != int(n):
        raise ValueError(f"n must be a non-negative integer, got {n}")
    n = int(n)
    if isinstance(s, (int, float, complex)) or getattr(s, "ndim", None) == 0:
        s = complex(s)
        if not cmath.isfinite(s):
            raise ValueError("non-finite argument to kummer_minus_exp")
        return _kummer_scalar(n, s)
    s_arr = np.asarray(s, dtype=complex)
    if not np.all(np.isfinite(s_arr)):
        raise ValueError("non-finite argument to kummer_minus_exp")

    if n == 0:
        return -cexpm1(s_arr)

    z = -s_arr
    out = np.empty_like(z)
    small = np.abs(z) <= n + 1.0

    if np.any(small):
        zs = z[small]
        total = np.zeros_like(zs)
        term = np.ones_like(zs)
        k = 1
        # term ratio is |z|/(n+k+1) <= (n+1)/(n+2) in this branch
        while True:
            term = term * zs / (n + k)
            total += term
            if k >= 3 and np.all(np.abs(term) <= 1e-18 * np.maximum(np.abs(total), 1e-300)):
                break
            k += 1
            if k > 100_000:  # unreachable for |z| <= n+1; defensive
                break
        out[small] = np.exp(s_arr[small]) * total

    if np.any(~small):
        zl = z[~small]
        # term j is n!/(n-j)!/z^j; the last one (j = n) is n!/z^n
        total = np.ones_like(zl)
        term = np.ones_like(zl)
        for j in range(1, n + 1):
            term = term * ((n - j + 1) / zl)
            total += term
        out[~small] = term - np.exp(-zl) * total

    return out


def _kummer_scalar(n: int, s: complex) -> complex:
    """:func:`kummer_minus_exp` for one finite ``s``, in Python arithmetic."""
    if n == 0:
        x, y = s.real, s.imag
        # -cexpm1(s), stable near s = 0
        return -complex(math.expm1(x) * math.cos(y) - 2.0 * math.sin(0.5 * y) ** 2,
                        math.exp(x) * math.sin(y))
    z = -s
    if abs(z) <= n + 1.0:
        total, term, k = 0j, 1 + 0j, 1
        while True:
            term = term * z / (n + k)
            total += term
            if k >= 3 and abs(term) <= 1e-18 * max(abs(total), 1e-300):
                break
            k += 1
            if k > 100_000:  # unreachable for |z| <= n+1; defensive
                break
        return cmath.exp(s) * total
    total = term = 1 + 0j
    for j in range(1, n + 1):
        term = term * ((n - j + 1) / z)
        total += term
    return term - cmath.exp(-z) * total


def exp_kernel(n: int, s):
    """Plain exponential series kernel ``exp(s)``, the same for every order n."""
    return np.exp(s)


def completed_round_trips(t: float, tau: float) -> int:
    """Round trips completed by time t, floor(t/tau + 1e-12); 0 when tau = 0.

    The slack counts a time on a multiple of tau up to rounding
    (0.6/0.2 = 2.9999999999999996) as completing that round trip.
    """
    return int(math.floor(t / tau + 1e-12)) if tau > 0 else 0


def round_trip_series(t: float, tau: float, rate: float, phase, drift, kernel):
    """Sum of shifted pulses, one per completed round trip.

    Returns ``sum_n poisson_weight(n, rate*dt_n) * e^{i n phase}
    * kernel(n, -drift*dt_n)`` with ``dt_n = t - n*tau``, for n from 0 to
    :func:`completed_round_trips` (only n = 0 when tau = 0).  ``t`` is a
    scalar; ``phase`` (real) and ``drift`` may be arrays of one shape, and
    the result then has that shape.  ``kernel`` is :func:`kummer_minus_exp`
    or :func:`exp_kernel`.

    Stopping rule, valid for Re(drift) >= 0: for n >= 1,
    ``1F1(n, n+1; s) = n int_0^1 u^(n-1) e^(su) du`` has modulus <= 1, so
    both kernels have modulus <= 2 (n = 0 included).  With
    ``x = rate*dt_n`` the terms after n then sum to at most
    ``2 x^(n+1)/(n+1)! e^x``, and the sum stops once that bound falls below
    1e-14.
    """
    total = 0.0
    for n in range(completed_round_trips(t, tau) + 1):
        dt = max(t - n * tau, 0.0)
        x = rate * dt
        weight = poisson_weight(n, x)
        total += weight * np.exp(1j * n * phase) * kernel(n, -drift * dt)
        if 2.0 * weight * x / (n + 1) < 1e-14 * math.exp(-x):
            break
    return total


# ---------------------------------------------------------------------------
# matrix exponential
# ---------------------------------------------------------------------------

# degree-13 Pade coefficients of exp
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
_THETA13 = 5.371920351148152


def matrix_exponential(a: np.ndarray, t: float = 1.0) -> np.ndarray:
    """exp(a*t) for a small dense complex matrix or a stack of them.

    Scaling-and-squaring with a fixed degree-13 Pade approximant; built for
    robustness on the <= 8x8 generators used here rather than for speed on
    large problems.  In a stack ``(..., d, d)`` each matrix gets the
    squaring count of its own 1-norm, so it comes out exactly as alone.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    if not np.all(np.isfinite(a)) or not math.isfinite(t):
        raise ValueError("non-finite input to matrix_exponential")
    dim = a.shape[-1]
    m = (a * t).reshape(-1, dim, dim)
    norm = np.linalg.norm(m, 1, axis=(-2, -1))
    squarings = np.ceil(np.log2(np.maximum(norm, _THETA13) / _THETA13)).astype(int)
    m = m / (2.0 ** squarings)[:, None, None]

    b = _PADE13
    ident = np.eye(dim, dtype=complex)
    m2 = m @ m
    m4 = m2 @ m2
    m6 = m4 @ m2
    u = m @ (m6 @ (b[13] * m6 + b[11] * m4 + b[9] * m2)
             + b[7] * m6 + b[5] * m4 + b[3] * m2 + b[1] * ident)
    v = (m6 @ (b[12] * m6 + b[10] * m4 + b[8] * m2)
         + b[6] * m6 + b[4] * m4 + b[2] * m2 + b[0] * ident)
    out = np.linalg.solve(v - u, v + u)
    for k in range(squarings.max(initial=0)):
        sel = slice(None) if k < squarings.min() else squarings > k
        out[sel] = out[sel] @ out[sel]
    return out.reshape(a.shape)


def expm_convolution(a: np.ndarray, b: np.ndarray, c: np.ndarray, t: float) -> np.ndarray:
    """Window convolution ``int_0^t exp(a*(t-u)) @ b @ exp(c*u) du``.

    Evaluated exactly through the exponential of the block matrix
    ``[[a, b], [0, c]]`` (the upper-right block of its exponential is the
    integral).  ``a`` is na x na, ``c`` is nc x nc, ``b`` is na x nc; each
    may carry leading stack dimensions, which broadcast.
    """
    a, b, c = (np.asarray(x, dtype=complex) for x in (a, b, c))
    na, nc = a.shape[-1], c.shape[-1]
    stack = np.broadcast_shapes(a.shape[:-2], b.shape[:-2], c.shape[:-2])
    blk = np.zeros(stack + (na + nc, na + nc), dtype=complex)
    blk[..., :na, :na] = a
    blk[..., :na, na:] = b
    blk[..., na:, na:] = c
    return matrix_exponential(blk, t)[..., :na, na:]


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------

def solve_linear(m: np.ndarray, rhs: np.ndarray, cond_limit: float = 1e12) -> np.ndarray:
    """Solve ``m @ x = rhs`` with a condition-number guard.

    ``m`` is a matrix or a stack ``(..., d, d)``; ``rhs`` holds a vector
    (``m.ndim - 1`` dimensions) or a matrix (``m.ndim``) per matrix.  One
    solve against ``[rhs | I]`` gives the solution and the inverse, and the
    guard is ``d * ||m||_1 * ||m^-1||_1``.  Since kappa_2 <= d * kappa_1,
    it never accepts a matrix whose 2-norm condition exceeds ``cond_limit``.

    Raises
    ------
    SingularMatrixError
        If a matrix in the stack is exactly singular, or the worst bound in
        the stack exceeds ``cond_limit``.
    """
    m = np.asarray(m, dtype=complex)
    rhs = np.asarray(rhs, dtype=complex)
    vector = rhs.ndim == m.ndim - 1
    if vector:
        rhs = rhs[..., None]
    dim, cols = m.shape[-1], rhs.shape[-1]
    ident = np.broadcast_to(np.eye(dim, dtype=complex), m.shape[:-2] + (dim, dim))
    try:
        sol = np.linalg.solve(m, np.concatenate([rhs, ident], axis=-1))
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"matrix exactly singular ({exc})") from exc
    bound = (dim * np.linalg.norm(m, 1, axis=(-2, -1))
             * np.linalg.norm(sol[..., cols:], 1, axis=(-2, -1)))
    cond = float(np.max(bound, initial=0.0))
    if not math.isfinite(cond) or cond > cond_limit:
        raise SingularMatrixError(
            f"matrix numerically singular (condition bound {cond:.3e} "
            f"exceeds {cond_limit:.1e})")
    return sol[..., 0] if vector else sol[..., :cols]


def null_eigenvector(m: np.ndarray, separation: float = 10.0) -> np.ndarray:
    """Eigenvector of the eigenvalue of smallest modulus (the near-kernel).

    The eigenvalue of smallest modulus must be isolated: the next one has to
    be at least ``separation`` times larger in modulus.  The returned vector
    is the right singular vector of the smallest singular value, which
    minimises ``||m @ v||``; normalisation is left to the caller.  A stack
    ``(..., d, d)`` gives a stack ``(..., d)``, each matrix treated as if
    alone, from one stacked eigenvalue and one stacked SVD call.

    Raises
    ------
    DegenerateKernelError
        If the separation requirement fails; for a stack, its ``index`` is
        the stack index of the first failing matrix.
    """
    m = np.asarray(m, dtype=complex)
    mods = np.sort(np.abs(np.linalg.eigvals(m)), axis=-1)
    lam0, lam1 = mods[..., 0], mods[..., 1]
    _, sv, vh = np.linalg.svd(m)
    # sv[..., 0] is the 2-norm of each matrix
    bad = lam1 < separation * np.maximum(lam0, 1e-14 * sv[..., 0])
    if np.any(bad):
        index = tuple(int(k) for k in np.unravel_index(np.argmax(bad), bad.shape))
        where = f" at stack index {','.join(map(str, index))}" if index else ""
        raise DegenerateKernelError(
            f"smallest eigenvalue not isolated{where}: |lam0|={lam0[index]:.3e}, "
            f"|lam1|={lam1[index]:.3e}, required ratio {separation}",
            index=index or None)
    return vh[..., -1, :].conj()


# ---------------------------------------------------------------------------
# spectral tails
# ---------------------------------------------------------------------------

def tail_corrected_integral(grid: np.ndarray, density: np.ndarray, fraction: float) -> float:
    """Trapezoid integral of a density plus its tails beyond the grid.

    The tails assume the density decays like C/delta^2.  C is the mean of
    ``density * delta^2`` over the outermost ``fraction`` of the grid
    points at each edge (at least three), so oscillations of the density
    near the edges average out; each edge adds C/|edge| (nothing at an
    edge on delta = 0).
    """
    total = float(np.trapezoid(density, grid))
    window = max(3, int(fraction * len(grid)))
    for sl, edge in ((slice(-window, None), grid[-1]), (slice(None, window), grid[0])):
        if edge != 0.0:
            total += float(np.mean(density[sl] * grid[sl] ** 2)) / abs(edge)
    return total
