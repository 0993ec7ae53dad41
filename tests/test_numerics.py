"""Special functions and small linear algebra."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial.legendre import leggauss

from halfcavity.numerics import (
    DegenerateKernelError,
    SingularMatrixError,
    completed_round_trips,
    exp_kernel,
    expm_convolution,
    kummer_minus_exp,
    matrix_exponential,
    null_eigenvector,
    poisson_weight,
    round_trip_series,
    solve_linear,
)

try:
    import mpmath
    HAVE_MPMATH = True
except ImportError:  # pragma: no cover
    HAVE_MPMATH = False


def kummer_series_naive(n, s, terms=600):
    """Raw hypergeometric series minus exp, plus its cancellation floor.

    The raw series converges for every s but loses digits in proportion to
    its largest intermediate term; the floor returned alongside the value
    is that term times machine epsilon.
    """
    total = 0.0 + 0.0j
    term = 1.0 + 0.0j
    biggest = 0.0
    for k in range(terms):
        contrib = term * (n / (n + k) if n else (1.0 if k == 0 else 0.0))
        total += contrib
        biggest = max(biggest, abs(contrib))
        term *= s / (k + 1)
    return total - np.exp(s), 10.0 * biggest * np.finfo(float).eps


def lower_gamma_quadrature(a, z, nodes=400):
    """int_0^z t^(a-1) e^-t dt along the straight ray, Gauss-Legendre."""
    x, w = leggauss(nodes)
    t = 0.5 * z * (x + 1.0)
    return 0.5 * z * np.sum(w * t ** (a - 1) * np.exp(-t))


class TestKummerMinusExp:
    def test_order_zero_closed_form(self):
        assert kummer_minus_exp(0, 2.0) == pytest.approx(1.0 - math.e**2, rel=1e-14)

    def test_order_one_unit_argument(self):
        # 1F1(1,2;s) = (e^s - 1)/s, so the gap at order 1, s=1 is exactly -1
        assert kummer_minus_exp(1, 1.0) == pytest.approx(-1.0, rel=1e-13)

    def test_zero_argument(self):
        assert kummer_minus_exp(3, 0.0) == 0.0
        assert kummer_minus_exp(0, 0.0) == 0.0

    def test_matches_naive_series_moderate_domain(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(0, 30))
            s = complex(rng.uniform(-10, 3), rng.uniform(-10, 10))
            ref, floor = kummer_series_naive(n, s)
            got = kummer_minus_exp(n, s)
            assert abs(got - ref) <= 1e-10 * max(abs(ref), 1e-12) + floor

    def test_incomplete_gamma_identity(self):
        # 1F1(n, n+1; s) = n (-s)^-n lower_gamma(n, -s), gamma by quadrature
        for n in range(1, 11):
            for s in (-0.5, -3.0, -12.0, -0.2 + 4.0j, -8.0 - 6.0j, 1.5 + 0.5j):
                f11 = kummer_minus_exp(n, s) + np.exp(s)
                ref = n * (-s) ** (-n) * lower_gamma_quadrature(n, -s)
                assert abs(f11 - ref) <= 1e-8 * max(abs(ref), 1e-12)

    @settings(max_examples=120, deadline=None)
    @given(st.integers(1, 40),
           st.floats(-50.0, 2.0), st.floats(-60.0, 60.0))
    def test_contiguous_recurrence(self, n, re, im):
        # gamma(n+1, z) = n gamma(n, z) - z^n e^-z, rewritten through the gap
        # function as z G_n[s] = n G_{n-1}[s] - z e^s with z = -s
        s = complex(re, im)
        if abs(s) < 1e-6:
            s += 0.5
        z = -s
        lhs = z * kummer_minus_exp(n, s)
        rhs = n * kummer_minus_exp(n - 1, s) - z * np.exp(s)
        scale = max(abs(lhs), abs(rhs), 1e-12)
        assert abs(lhs - rhs) <= 1e-8 * scale

    @pytest.mark.skipif(not HAVE_MPMATH, reason="mpmath unavailable")
    def test_wide_domain_against_mpmath(self):
        mpmath.mp.dps = 40
        rng = np.random.default_rng(11)
        for _ in range(120):
            n = int(rng.integers(0, 101))
            re = -rng.uniform(0.0, 120.0)
            im = rng.uniform(-160.0, 160.0)
            s = complex(re, im)
            if abs(s) > 200:
                s *= 200 / abs(s)
            ref = complex(mpmath.hyp1f1(n, n + 1, s) - mpmath.e**mpmath.mpc(s))
            got = kummer_minus_exp(n, s)
            if abs(ref) > 1e-25:
                assert abs(got - ref) <= 1e-10 * abs(ref)

    @pytest.mark.skipif(not HAVE_MPMATH, reason="mpmath unavailable")
    def test_large_order_and_argument_against_mpmath(self):
        # |s| > n + 1 with z^n/n! far beyond double range: the finite form
        # must not form it
        mpmath.mp.dps = 40
        for n, s in ((100, -800.0 + 0.0j), (700, -600.0 - 700.0j),
                     (900, 300.0 - 1200.0j), (1000, -50.0 + 1290.0j)):
            ref = complex(mpmath.hyp1f1(n, n + 1, s) - mpmath.e**mpmath.mpc(s))
            got = kummer_minus_exp(n, s)
            assert abs(got - ref) <= 1e-12 * abs(ref)

    def test_vectorized_matches_scalar(self):
        # a scalar takes its own pure-Python branch; the array path is its
        # reference.  Arguments lie below, on and above |s| = n + 1.
        for n in (0, 1, 4, 30):
            r = n + 1.0
            s = np.array([-0.3 + 1j, -20.0, -5.0 - 40.0j, 0.7, -0.5 * r, -r, r * 1j,
                          r * np.exp(2j), -1.5 * r + 0.2j, 3.0 * r * np.exp(-2.5j)])
            vec = kummer_minus_exp(n, s)
            for i, si in enumerate(s):
                for scalar in (complex(si), si, np.array(si)):
                    got = kummer_minus_exp(n, scalar)
                    assert np.ndim(got) == 0
                    assert abs(got - vec[i]) <= 1e-13 * abs(vec[i])

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            kummer_minus_exp(-1, 1.0)
        with pytest.raises(ValueError):
            kummer_minus_exp(2, complex("nan"))
        with pytest.raises(ValueError):
            kummer_minus_exp(2, np.array([1.0, np.inf]))
        # a scalar whose result leaves double range
        with pytest.raises(OverflowError):
            kummer_minus_exp(0, 800.0)


def test_poisson_weight_matches_direct():
    assert poisson_weight(5, 2.0) == pytest.approx(2.0**5 / 120.0, rel=1e-13)
    assert poisson_weight(0, 0.0) == 1.0
    assert poisson_weight(3, 0.0) == 0.0
    # regime where x^n alone would overflow
    w = poisson_weight(400, 100.0)
    assert math.isfinite(w)


def reference_series(t, tau, rate, phase, drift, kernel,
                     weight=lambda n, x: x ** n / math.factorial(n)):
    """Every round-trip term up to floor(t/tau), summed in plain Python."""
    total = 0j
    for n in range(int(math.floor(t / tau + 1e-12)) + 1):
        dt = max(t - n * tau, 0.0)
        total = total + weight(n, rate * dt) * np.exp(1j * n * phase) * kernel(n, -drift * dt)
    return total


def counting(kernel, orders):
    """Wrap a series kernel so that the orders it is called with land in ``orders``."""
    def counted(n, s):
        orders.append(n)
        return kernel(n, s)
    return counted


class TestRoundTripSeries:
    @pytest.mark.parametrize("kernel", [kummer_minus_exp, exp_kernel])
    @pytest.mark.parametrize("k", [0, 1, 2, 5, 13])
    def test_matches_reference_at_multiples_of_tau(self, kernel, k):
        tau, rate = 0.4, 0.35
        t = k * tau
        for phase, drift in ((0.0, 0.5), (1.3, 0.5 + 0.3j), (math.pi, 0.5 - 4.0j)):
            got = round_trip_series(t, tau, rate, phase, drift, kernel)
            ref = reference_series(t, tau, rate, phase, drift, kernel)
            assert abs(got - ref) <= 1e-14 * max(1.0, abs(ref))

    @pytest.mark.parametrize("kernel", [kummer_minus_exp, exp_kernel])
    def test_array_phase_and_drift(self, kernel):
        delta = np.linspace(-5.0, 5.0, 7)
        tau, t = 0.4, 3.7
        phase, drift = 1.0 + delta * tau, 0.5 - 1j * delta
        got = round_trip_series(t, tau, 0.2, phase, drift, kernel)
        assert got.shape == delta.shape
        for i in range(len(delta)):
            ref = reference_series(t, tau, 0.2, phase[i], drift[i], kernel)
            assert abs(got[i] - ref) <= 1e-13 * max(1.0, abs(ref))

    def test_zero_time_and_zero_delay_keep_only_the_first_term(self):
        assert round_trip_series(0.0, 0.4, 0.5, 1.0, 0.5, exp_kernel) == 1.0
        assert round_trip_series(0.0, 0.4, 0.5, 1.0, 0.5, kummer_minus_exp) == 0.0
        assert round_trip_series(2.0, 0.0, 0.0, 1.0, 0.5, exp_kernel) == pytest.approx(
            math.exp(-1.0), rel=1e-15)

    @pytest.mark.parametrize("kernel", [kummer_minus_exp, exp_kernel])
    def test_stopping_rule_fires_within_its_bound(self, kernel):
        # epsilon = 1 at t = 300: the sum stops well before n_max = 100
        tau, rate, t = 3.0, 0.5, 300.0
        for phase, drift in ((0.0, 0.5), (1.0, 0.5 + 0.3j), (math.pi, 0.5 - 4.0j)):
            orders = []
            got = round_trip_series(t, tau, rate, phase, drift, counting(kernel, orders))
            assert max(orders) < completed_round_trips(t, tau) - 5
            full = reference_series(t, tau, rate, phase, drift, kernel, weight=poisson_weight)
            assert abs(got - full) <= 1e-14
            # against exact factorial weights, up to the rounding of the log-space weights
            exact = reference_series(t, tau, rate, phase, drift, kernel)
            assert abs(got - exact) <= 1e-12 * max(1.0, abs(exact))

    def test_completed_round_trips_absorbs_rounding(self):
        assert 0.6 / 0.2 < 3.0
        assert completed_round_trips(0.6, 0.2) == 3
        assert completed_round_trips(0.59, 0.2) == 2
        assert completed_round_trips(5.0, 0.0) == 0


class TestMatrixExponential:
    def test_zero_matrix(self):
        assert np.allclose(matrix_exponential(np.zeros((4, 4)), 3.0), np.eye(4))

    def test_known_diagonal(self):
        a = np.diag([1.0 + 2.0j, -0.5])
        out = matrix_exponential(a, 2.0)
        assert np.allclose(np.diag(out), np.exp(2.0 * np.diag(a)), rtol=1e-13)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 4), st.integers(0, 10_000))
    def test_semigroup_and_determinant(self, dim, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        t1, t2 = rng.uniform(0.05, 1.5, size=2)
        whole = matrix_exponential(a, t1 + t2)
        split = matrix_exponential(a, t1) @ matrix_exponential(a, t2)
        assert np.max(np.abs(whole - split)) <= 1e-10 * max(1.0, np.max(np.abs(whole)))
        det = np.linalg.det(matrix_exponential(a, t1))
        assert abs(det - np.exp(np.trace(a) * t1)) <= 1e-8 * max(1.0, abs(det))

    def test_undriven_bloch_first_row_decouples(self):
        from halfcavity.bloch import obe_generator4
        from halfcavity.params import SystemParams

        tau = 0.7
        a4 = obe_generator4(SystemParams(epsilon=0.0, tau=tau, rabi=0.0))
        u = matrix_exponential(a4, tau)
        assert u[0, 0] == pytest.approx(math.exp(-0.5 * tau), rel=1e-12)
        assert np.max(np.abs(u[0, 1:])) < 1e-14

    def test_against_ode_integration(self):
        # columns of exp(A t) solve dU/dt = A U
        from halfcavity import dde
        from halfcavity.bloch import obe_generator4
        from halfcavity.params import SystemParams

        a = obe_generator4(SystemParams(epsilon=0.0, tau=1.0, rabi=2.0))
        t = 1.0
        expm = matrix_exponential(a, t)

        def rhs(_, y):
            return (a @ y.reshape(4, 4)).ravel()

        out = dde.solve_ode(rhs, (0.0, t), np.eye(4, dtype=complex).ravel(),
                            [t], tol=1e-12)[0].reshape(4, 4)
        assert np.max(np.abs(out - expm)) < 1e-9

    def test_stack_equals_per_matrix_loop(self):
        # stable generators with norms from 1e-3 to 1e2: squaring counts
        # from 0 (no squaring) to 8
        rng = np.random.default_rng(11)
        scales = np.logspace(-3, 2, 12)[:, None, None]
        noise = rng.normal(size=(12, 4, 4)) + 1j * rng.normal(size=(12, 4, 4))
        stack = (noise - 6.0 * np.eye(4)) * scales
        t = 0.7
        norms = np.linalg.norm(stack * t, 1, axis=(-2, -1))
        assert np.any(norms < 5.371920351148152) and np.ptp(np.log2(norms)) > 8
        loop = np.array([matrix_exponential(a, t) for a in stack])
        assert np.max(np.abs(matrix_exponential(stack, t) - loop)) == 0.0
        nested = matrix_exponential(stack.reshape(3, 4, 4, 4), t).reshape(12, 4, 4)
        assert np.max(np.abs(nested - loop)) == 0.0

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            matrix_exponential(np.zeros((2, 3, 4)))


def test_expm_convolution_against_quadrature():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    b = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    c = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    tau = 0.8
    got = expm_convolution(a, b, c, tau)
    x, w = leggauss(80)
    u = 0.5 * tau * (x + 1.0)
    ref = np.zeros((3, 4), dtype=complex)
    for ui, wi in zip(u, w):
        ref += wi * (matrix_exponential(a, tau - ui) @ b @ matrix_exponential(c, ui))
    ref *= 0.5 * tau
    assert np.max(np.abs(got - ref)) < 1e-9


def test_expm_convolution_stack_equals_per_matrix_loop():
    rng = np.random.default_rng(6)
    scales = np.logspace(-2, 2, 8)[:, None, None]
    a = (rng.normal(size=(8, 4, 4)) + 1j * rng.normal(size=(8, 4, 4))) * scales
    b = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
    c = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    got = expm_convolution(a, b, c, 0.9)
    loop = np.array([expm_convolution(ai, b, c, 0.9) for ai in a])
    assert got.shape == (8, 4, 3)
    assert np.max(np.abs(got - loop)) == 0.0


class TestSolveLinear:
    def test_identity(self):
        b = np.array([1.0, 2.0 + 1j, -3.0])
        assert np.allclose(solve_linear(np.eye(3), b), b)

    def test_diagonal(self):
        m = np.diag([2.0, 4.0j])
        x = solve_linear(m, np.array([2.0, 4.0j]))
        assert np.allclose(x, [1.0, 1.0])

    def test_residual_random(self):
        rng = np.random.default_rng(2)
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) + 3 * np.eye(3)
        b = rng.normal(size=3) + 1j * rng.normal(size=3)
        x = solve_linear(m, b)
        assert np.linalg.norm(m @ x - b) <= 1e-10 * np.linalg.norm(b)

    def test_singular_rejected(self):
        m = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]])
        with pytest.raises(SingularMatrixError):
            solve_linear(m, np.ones(2))

    def test_stack_equals_per_matrix_loop(self):
        rng = np.random.default_rng(3)
        m = rng.normal(size=(7, 3, 3)) + 1j * rng.normal(size=(7, 3, 3)) + 3 * np.eye(3)
        vec = rng.normal(size=(7, 3)) + 1j * rng.normal(size=(7, 3))
        mat = rng.normal(size=(7, 3, 2)) + 1j * rng.normal(size=(7, 3, 2))
        got_vec = solve_linear(m, vec)
        got_mat = solve_linear(m, mat)
        assert got_vec.shape == (7, 3) and got_mat.shape == (7, 3, 2)
        assert np.max(np.abs(got_vec - [solve_linear(mi, vi) for mi, vi in zip(m, vec)])) == 0.0
        assert np.max(np.abs(got_mat - [solve_linear(mi, bi) for mi, bi in zip(m, mat)])) == 0.0

    def test_guard_bounds_the_2norm_condition(self):
        # d * kappa_1 >= kappa_2: rejected whenever kappa_2 exceeds the limit,
        # and never above d^2 * kappa_2
        rng = np.random.default_rng(4)
        for scale in np.logspace(0, 10, 21):
            m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            u, s, vh = np.linalg.svd(m)
            m = u @ np.diag([1.0, 1.0, 1.0 / scale]) @ vh          # kappa_2 = scale
            if scale > 1e8:
                with pytest.raises(SingularMatrixError):
                    solve_linear(m, np.ones(3), cond_limit=1e8)
            if 9.0 * scale < 1e8:
                solve_linear(m, np.ones(3), cond_limit=1e8)

    def test_solution_equals_plain_solve(self):
        rng = np.random.default_rng(5)
        m = rng.normal(size=(50, 3, 3)) + 1j * rng.normal(size=(50, 3, 3))
        b = rng.normal(size=(50, 3)) + 1j * rng.normal(size=(50, 3))
        plain = np.linalg.solve(m, b[..., None])[..., 0]
        assert np.max(np.abs(solve_linear(m, b) - plain)) <= 1e-13 * np.max(np.abs(plain))

    def test_one_singular_member_rejects_the_stack(self):
        m = np.array([np.eye(2), [[1.0, 1.0], [1.0, 1.0 + 1e-15]], 2 * np.eye(2)])
        with pytest.raises(SingularMatrixError):
            solve_linear(m, np.ones((3, 2)))
        m[1] = 0.0
        with pytest.raises(SingularMatrixError):
            solve_linear(m, np.ones((3, 2)))


class TestNullEigenvector:
    def test_diagonal_kernel(self):
        v = null_eigenvector(np.diag([0.0, 1.0, 2.0, 3.0]))
        v = v / v[0]
        assert np.allclose(v, [1.0, 0.0, 0.0, 0.0], atol=1e-12)

    def test_free_space_bloch_steady(self):
        from halfcavity.bloch import obe_generator4
        from halfcavity.params import SystemParams

        a4 = obe_generator4(SystemParams(epsilon=0.0, tau=1.0, rabi=1.0))
        v = null_eigenvector(a4)
        v = v / (v[2] + v[3])
        assert v[2].real == pytest.approx(1.0 / 3.0, abs=1e-10)

    def test_residual_bound(self):
        from halfcavity import delay_kernel
        from halfcavity.params import SystemParams

        p = SystemParams(epsilon=0.1, tau=0.1, theta_l=0.3, rabi=20.0)
        from halfcavity.bloch import obe_generator4
        m = obe_generator4(p) + p.epsilon * delay_kernel(p).k_tau
        v = null_eigenvector(m)
        assert np.linalg.norm(m @ v) <= 1e-8 * np.linalg.norm(v)

    def test_row_scaling_invariance(self):
        m = np.diag([1e-14, 1.0, 2.0, 3.0]).astype(complex)
        m[0, 1] = 1e-15
        v1 = null_eigenvector(m)
        scale = np.diag([2.0, 0.5, 1.5, 3.0])
        v2 = null_eigenvector(scale @ m)
        cosang = abs(np.vdot(v1, v2)) / (np.linalg.norm(v1) * np.linalg.norm(v2))
        assert cosang > 1.0 - 1e-8

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateKernelError) as info:
            null_eigenvector(np.diag([1e-3, 5e-3, 1.0, 2.0]))
        assert info.value.index is None
        assert "stack index" not in str(info.value)

    def test_stack_equals_per_matrix_loop(self):
        rng = np.random.default_rng(8)
        basis = rng.normal(size=(2, 3, 4, 4)) + 1j * rng.normal(size=(2, 3, 4, 4))
        spectra = np.array([1e-6, 1.0, 2.0 + 1j, -3.0]) * rng.uniform(0.5, 2.0, size=(2, 3, 1))
        m = basis @ (spectra[..., None] * np.linalg.inv(basis))
        got = null_eigenvector(m)
        loop = np.array([[null_eigenvector(mij) for mij in mi] for mi in m])
        assert got.shape == (2, 3, 4)
        assert np.max(np.abs(got - loop)) == 0.0

    def test_stack_names_its_degenerate_member(self):
        m = np.array([np.diag([1e-9, 1.0, 2.0, 3.0]), np.diag([1e-9, 1.0, 2.0, 3.0]),
                      np.diag([1e-3, 5e-3, 1.0, 2.0]), np.diag([1e-3, 5e-3, 1.0, 2.0])])
        with pytest.raises(DegenerateKernelError, match="at stack index 2:") as info:
            null_eigenvector(m)
        assert info.value.index == (2,)
        with pytest.raises(DegenerateKernelError, match="at stack index 1,0:") as info:
            null_eigenvector(m.reshape(2, 2, 4, 4))
        assert info.value.index == (1, 0)
