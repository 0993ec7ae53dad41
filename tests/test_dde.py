"""Delay integrator: method of steps, dense output, breakpoint handling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from halfcavity import dde
from halfcavity.numerics import kummer_minus_exp, poisson_weight


def scalar_problem(a, b, c=0.0, x0=1.0, tau=1.0, t_end=10.0):
    return dde.DdeProblem(a=np.array([[a]]), b=np.array([[b]]),
                          c=np.array([c]), tau=tau,
                          x0=np.array([x0]), t_end=t_end)


def delay_series(t, a, b, tau, x0=1.0):
    """Closed-form solution of x' = a x + b x(t-tau) from a constant start."""
    total = 0.0 + 0.0j
    n = 0
    while n * tau <= t:
        dt = t - n * tau
        total += poisson_weight(n, abs(b) * dt) * np.exp(1j * n * np.angle(complex(b))) \
            * np.exp(a * dt)
        n += 1
    return x0 * total


class TestPlainOde:
    def test_exponential(self):
        sol = dde.integrate(scalar_problem(-0.3 + 1.1j, 0.0, t_end=8.0), tol=1e-11)
        for t in np.linspace(0, 8, 40):
            assert abs(sol.query(t)[0] - np.exp((-0.3 + 1.1j) * t)) < 1e-9

    def test_inhomogeneous_fixed_point(self):
        # x' = -x + 2 settles at 2
        sol = dde.integrate(scalar_problem(-1.0, 0.0, c=2.0, x0=0.0, t_end=40.0), tol=1e-11)
        assert abs(sol.final_state[0] - 2.0) < 1e-9


    def test_solve_ode_matches_integrate(self):
        # without a delay both front ends run the same steps
        rng = np.random.default_rng(7)
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) - 2.0 * np.eye(3)
        c = np.array([0.3, -0.2j, 0.1])
        x0 = np.array([1.0, 0.5j, -0.25])
        problem = dde.DdeProblem(a=a, b=np.zeros((3, 3)), c=c, tau=1.0, x0=x0, t_end=6.0)
        t_eval = np.linspace(0.0, 6.0, 97)
        dense = dde.integrate(problem, tol=1e-10).query(t_eval)
        sampled = dde.solve_ode(lambda t, x: a @ x + c, (0.0, 6.0), x0, t_eval, tol=1e-10)
        assert np.max(np.abs(dense - sampled)) < 1e-13


class TestMethodOfSteps:
    def test_first_interval_pure_drift(self):
        # x' = b x(t-tau) with zero instantaneous term: linear ramp on [tau, 2tau]
        b = 0.37 - 0.21j
        sol = dde.integrate(scalar_problem(0.0, b, tau=1.0, t_end=2.0), tol=1e-12)
        for t in (1.1, 1.5, 1.99):
            assert abs(sol.query(t)[0] - (1.0 + b * (t - 1.0))) < 1e-10

    def test_matches_two_term_closed_form(self):
        # one delay interval of the decay problem has the known two-term form
        g, eps, tau = 1.0, 0.4, 0.4
        sol = dde.integrate(scalar_problem(-0.5 * g, 0.5 * eps * g, tau=tau, t_end=1.0),
                            tol=1e-12)
        t = 1.5 * tau
        expect = np.exp(-0.5 * g * t) + 0.5 * eps * g * np.exp(-0.5 * g * (t - tau)) * (t - tau)
        assert abs(sol.query(t)[0] - expect) < 1e-8

    def test_series_oracle_scalar_family(self):
        rng = np.random.default_rng(4)
        for _ in range(6):
            a = complex(-rng.uniform(0.2, 1.0), rng.uniform(-1, 1))
            b = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4))
            tau = rng.uniform(0.5, 2.0)
            sol = dde.integrate(scalar_problem(a, b, tau=tau, t_end=10 * tau), tol=1e-11)
            for t in np.linspace(0, 10 * tau, 53):
                assert abs(sol.query(t)[0] - delay_series(t, a, b, tau)) < 1e-8

    def test_many_windows_against_series(self):
        # 400 windows: each reads only the one before, so errors must not
        # build up through a long chain of delayed histories
        a, b, tau = -0.5 + 0.3j, 0.4 * np.exp(0.7j), 0.05
        sol = dde.integrate(scalar_problem(a, b, tau=tau, t_end=20.0), tol=1e-11)
        for t in np.linspace(0, 20.0, 81):
            assert abs(sol.query(t)[0] - delay_series(t, a, b, tau)) < 1e-10

    def test_end_just_past_a_multiple_of_tau(self):
        # 3 * 0.7 rounds to just below 2.1: the last window is too narrow
        # for a step and must be dropped, not stored empty
        a, b, tau = -0.5 + 0.3j, 0.4 * np.exp(0.7j), 0.7
        assert 3 * tau < 2.1
        sol = dde.integrate(scalar_problem(a, b, tau=tau, t_end=2.1), tol=1e-11)
        assert abs(sol.final_state[0] - delay_series(2.1, a, b, tau)) < 1e-9

    def test_end_shorter_than_any_step(self):
        sol = dde.integrate(scalar_problem(-1.0, 0.4, x0=0.5, t_end=1e-16))
        assert sol.final_state[0] == 0.5

    def test_driven_series_oracle(self):
        # inhomogeneous scalar delay equation against the kernel-series form
        a1 = 0.5 + 0.3j          # drift rate (decaying)
        a2 = 0.2 * np.exp(0.9j)  # feedback
        a3 = 0.05j               # constant drive
        tau = 1.0
        sol = dde.integrate(scalar_problem(-a1, a2, c=a3, x0=0.0, tau=tau, t_end=6.0),
                            tol=1e-12)

        def driven_series(t):
            total = 0.0 + 0.0j
            n = 0
            while n * tau <= t:
                dt = t - n * tau
                total += a2**n / math.factorial(n) * dt**n * kummer_minus_exp(n, -a1 * dt)
                n += 1
            return (a3 / a1) * total

        for t in np.linspace(0.1, 6.0, 31):
            assert abs(sol.query(t)[0] - driven_series(t)) < 1e-9

    def test_breakpoints_are_mesh_points(self):
        sol = dde.integrate(scalar_problem(-0.5, 0.2, tau=0.7, t_end=3.5), tol=1e-9)
        for k in range(1, 5):
            assert np.min(np.abs(sol.step_times - k * 0.7)) < 1e-12

    def test_continuity_at_breakpoints(self):
        tol = 1e-9
        sol = dde.integrate(scalar_problem(-0.5, 0.3, tau=0.6, t_end=6.0), tol=tol)
        for k in range(1, 10):
            left = sol.query(k * 0.6 - 1e-13)[0]
            right = sol.query(k * 0.6 + 1e-13)[0]
            assert abs(left - right) <= 10 * tol

    def test_smoothing_hierarchy(self):
        # the first derivative jumps at tau but is continuous at 2*tau
        sol = dde.integrate(scalar_problem(-0.5, 0.4, tau=1.0, t_end=4.0), tol=1e-12)
        d = 1e-5

        def deriv(t):
            return (sol.query(t + d)[0] - sol.query(t - d)[0]) / (2 * d)

        jump1 = abs(deriv(1.0 + 2 * d) - deriv(1.0 - 2 * d))
        jump2 = abs(deriv(2.0 + 2 * d) - deriv(2.0 - 2 * d))
        assert jump1 > 0.1              # genuine kink: x' gains b*x0 at tau
        assert jump2 < 1e-3 * jump1     # one extra derivative at 2*tau

    @settings(max_examples=20, deadline=None)
    @given(st.floats(0.1, 1.2), st.floats(-0.45, 0.45), st.floats(0.4, 2.0))
    def test_continuity_property(self, decay, feedback, tau):
        tol = 1e-10
        sol = dde.integrate(scalar_problem(-decay, feedback, tau=tau, t_end=5 * tau),
                            tol=tol)
        for k in range(1, 5):
            left = sol.query(k * tau - 1e-13)[0]
            right = sol.query(k * tau + 1e-13)[0]
            assert abs(left - right) <= 10 * tol


class TestVectorProblems:
    def test_dim2_coupled(self):
        a = np.array([[-0.4, 0.1], [0.0, -0.7 + 0.2j]])
        b = np.array([[0.0, 0.15], [0.05, 0.0]])
        prob = dde.DdeProblem(a=a, b=b, c=np.zeros(2), tau=0.8,
                              x0=np.array([1.0, 0.5j]), t_end=6.0)
        sol = dde.integrate(prob, tol=1e-11)
        # second-order Picard expansion is exact below 3*tau
        from numpy.polynomial.legendre import leggauss
        from halfcavity.numerics import matrix_exponential

        x, w = leggauss(60)

        def s_free(t):
            return matrix_exponential(a, t) @ prob.x0

        def s1(t):
            if t <= 0.8:
                return np.zeros(2, dtype=complex)
            ss = 0.5 * (t - 0.8) * x + 0.5 * (t + 0.8)
            acc = np.zeros(2, dtype=complex)
            for si, wi in zip(ss, w):
                acc += wi * (matrix_exponential(a, t - si) @ (b @ s_free(si - 0.8)))
            return 0.5 * (t - 0.8) * acc

        def s2(t):
            if t <= 1.6:
                return np.zeros(2, dtype=complex)
            ss = 0.5 * (t - 1.6) * x + 0.5 * (t + 1.6)
            acc = np.zeros(2, dtype=complex)
            for si, wi in zip(ss, w):
                acc += wi * (matrix_exponential(a, t - si) @ (b @ s1(si - 0.8)))
            return 0.5 * (t - 1.6) * acc

        for t in (0.5, 1.3, 2.1):
            ref = s_free(t) + s1(t) + s2(t)
            assert np.max(np.abs(sol.query(t) - ref)) < 1e-8


class TestQueryAndErrors:
    def test_query_at_zero_and_end(self):
        prob = scalar_problem(-1.0, 0.2, tau=0.5, t_end=2.0)
        sol = dde.integrate(prob, tol=1e-10)
        assert sol.query(0.0)[0] == pytest.approx(1.0, abs=1e-14)
        assert np.ndim(sol.query(np.array([0.3, 1.7]))) == 2

    def test_out_of_range(self):
        sol = dde.integrate(scalar_problem(-1.0, 0.0, t_end=1.0), tol=1e-10)
        with pytest.raises(ValueError):
            sol.query(1.5)
        with pytest.raises(ValueError):
            sol.query(-0.5)

    def test_tolerance_domain(self):
        with pytest.raises(ValueError):
            dde.integrate(scalar_problem(-1.0, 0.0), tol=1e-3)
        with pytest.raises(ValueError):
            dde.integrate(scalar_problem(-1.0, 0.0), tol=1e-15)

    def test_nonfinite_abort(self):
        # unstable feedback beyond any physical regime blows up in finite time
        prob = scalar_problem(40.0, 0.0, t_end=50.0)
        with pytest.raises(dde.DdeError):
            dde.integrate(prob, tol=1e-8)

    def test_global_error_contract(self):
        # 20 delay intervals at tol: global error stays below 100*tol
        tol = 1e-9
        a, b, tau = -0.5, 0.2 + 0.1j, 1.0
        sol = dde.integrate(scalar_problem(a, b, tau=tau, t_end=20.0), tol=tol)
        worst = max(abs(sol.query(t)[0] - delay_series(t, a, b, tau))
                    for t in np.linspace(0, 20, 101))
        assert worst < 100 * tol
