"""Bloch dynamics with feedback: Markov limit, delay kernel, steady states."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial.legendre import leggauss

import halfcavity as hc
from halfcavity.bloch import GROUND_STATE4, obe_generator3, obe_generator4
from halfcavity.numerics import matrix_exponential
from halfcavity.params import SystemParams


class TestMarkovSteady:
    def test_free_space_saturation(self):
        p = SystemParams(epsilon=0.0, tau=1.0, rabi=1.0)
        assert hc.markov_bloch_steady(p).pop_e.real == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_antinode_value(self):
        p = SystemParams(epsilon=0.4, tau=1.0, theta_l=math.pi, rabi=1.0)
        assert hc.markov_bloch_steady(p).pop_e.real == pytest.approx(
            1.0 / (1.96 + 2.0), rel=1e-12)

    def test_weak_drive_limit(self):
        p = SystemParams(epsilon=0.3, tau=1.0, theta_l=1.2, rabi=1e-4, detuning=0.4)
        ratio = hc.markov_bloch_steady(p).pop_e.real / hc.steady_population_weak(p)
        assert ratio == pytest.approx(1.0, rel=1e-6)

    def test_vector_invariants(self):
        p = SystemParams(epsilon=0.2, tau=1.0, theta_l=0.7, rabi=2.0, detuning=-0.5)
        hc.markov_bloch_steady(p).validate()


class TestMarkovTransient:
    def test_ground_start(self):
        p = SystemParams(epsilon=0.2, tau=0.01, theta_l=0.0, rabi=5.0)
        traj = hc.markov_bloch_transient(p, 6.0, n_out=200)
        assert traj.pop_e[0] == pytest.approx(0.0, abs=1e-12)

    def test_matrix_exponential_oracle(self):
        # affine solve: s3(t) = s_ss + e^{At}(s3(0) - s_ss)
        p = SystemParams(epsilon=0.0, tau=1.0, rabi=5.0)
        traj = hc.markov_bloch_transient(p, 4.0, n_out=41)
        a3 = obe_generator3(p)
        ss = hc.markov_bloch_steady(p)
        s_ss = np.array([ss.s_minus, ss.s_plus, ss.sigma_z])
        x0 = np.array([0.0, 0.0, -1.0], dtype=complex)
        for i, t in enumerate(traj.times):
            ref = s_ss + matrix_exponential(a3, t) @ (x0 - s_ss)
            got = traj.states[i]
            ref_pop = 0.5 * (1.0 + ref[2])
            assert abs(got[2] - ref_pop) < 1e-9

    def test_rabi_oscillation_frequency(self):
        p = SystemParams(epsilon=0.0, tau=1.0, rabi=5.0)
        traj = hc.markov_bloch_transient(p, 5.0, n_out=2001)
        pop = traj.pop_e
        peaks = [traj.times[i] for i in range(1, len(pop) - 1)
                 if pop[i] > pop[i - 1] and pop[i] > pop[i + 1]]
        spacing = np.mean(np.diff(peaks[:5]))
        assert spacing == pytest.approx(2 * math.pi / 5.0, rel=0.02)

    def test_node_relaxes_slower(self):
        node = SystemParams(epsilon=0.4, tau=0.001, theta_l=0.0, rabi=1.0)
        free = SystemParams(epsilon=0.0, tau=0.001, rabi=1.0)
        tn = hc.markov_bloch_transient(node, 30.0, n_out=300)
        tf = hc.markov_bloch_transient(free, 30.0, n_out=300)
        dev_n = np.abs(tn.pop_e - hc.markov_bloch_steady(node).pop_e.real)
        dev_f = np.abs(tf.pop_e - hc.markov_bloch_steady(free).pop_e.real)
        i = np.searchsorted(tn.times, 12.0)
        assert dev_n[i] > 3.0 * dev_f[i]   # gamma_tilde = 0.6 vs 1.0


class TestEpsilonExpansion:
    def test_resonant_pure_cosine(self):
        vals = [hc.epsilon_expansion_population(
            SystemParams(epsilon=0.1, tau=0.3, theta_l=th, rabi=0.1))
            for th in (0.0, math.pi)]
        base = 0.1**2 / (1.0 + 2 * 0.1**2)
        assert vals[0] > base > vals[1]

    def test_matches_markov_to_second_order(self):
        eps = 0.1
        for th in np.linspace(0, 2 * math.pi, 21):
            p = SystemParams(epsilon=eps, tau=0.5, theta_l=th, rabi=0.1, detuning=0.5)
            a = hc.markov_bloch_steady(p).pop_e.real
            b = hc.epsilon_expansion_population(p)
            assert abs(a - b) <= 3 * eps**2 * a

    def test_extremum_phase_shift(self):
        from scipy.optimize import minimize_scalar
        f = lambda th: -hc.epsilon_expansion_population(
            SystemParams(epsilon=0.1, tau=0.3, theta_l=th, rabi=0.1, detuning=0.5))
        x = minimize_scalar(f, bounds=(-1.5, 1.5), method="bounded").x
        assert x == pytest.approx(math.atan(1.0), abs=1e-6)


class TestDelayKernel:
    def test_zero_delay_reduces_to_markov_generator(self):
        p = SystemParams(epsilon=0.3, tau=0.0, theta_l=1.1, rabi=2.0, detuning=0.4)
        kern = hc.delay_kernel(p)
        assert np.allclose(kern.u_tau, np.eye(4))
        assert kern.f1 == pytest.approx(np.exp(1j * p.theta_l), rel=1e-12)
        full = obe_generator4(p) + p.epsilon * kern.k_tau
        # row 1 drift must be -(gamma_eff/2 + i*detuning_eff)
        assert full[0, 0] == pytest.approx(-0.5 * p.gamma_tilde_l - 1j * p.delta_tilde,
                                           rel=1e-12)
        # population damping must be -gamma_eff
        assert full[2, 2] == pytest.approx(-p.gamma_tilde_l, rel=1e-12)

    def test_trace_and_conjugation_structure(self):
        p = SystemParams(epsilon=0.2, tau=0.7, theta_l=0.9, rabi=3.0, detuning=-1.0)
        k = hc.delay_kernel(p).k_tau
        assert np.max(np.abs(k[2] + k[3])) < 1e-12          # rows 3+4 cancel
        assert k[1, 1] == pytest.approx(np.conj(k[0, 0]))
        assert k[1, 2] == pytest.approx(np.conj(k[0, 2]))

    def test_u_preserves_trace(self):
        p = SystemParams(epsilon=0.2, tau=0.7, theta_l=0.9, rabi=3.0)
        u = hc.delay_kernel(p).u_tau
        # rows 3+4 of the generator cancel, so column sums of the last two
        # rows of U stay at 1 (populations preserved)
        assert np.allclose(u[2] + u[3], [0, 0, 1, 1], atol=1e-12)

    def test_zero_drive_population_series(self):
        # with the laser off, the population rows close on themselves and the
        # solution is the phase-cos round-trip series with e^{gamma tau/2}
        # re-phasing per order
        from halfcavity import dde
        p = SystemParams(epsilon=0.1, tau=0.4, theta0=1.1, rabi=0.0)
        kern = hc.delay_kernel(p)
        assert kern.f4.real == pytest.approx(math.exp(-0.2) * math.cos(1.1), rel=1e-12)
        prob = dde.DdeProblem(a=obe_generator4(p), b=0.1 * kern.k_tau, c=np.zeros(4),
                              tau=0.4, x0=np.array([0, 0, 1, 0], dtype=complex), t_end=3.0)
        sol = dde.integrate(prob, tol=1e-11)

        def series(t):
            total, n = 0.0, 0
            while n * 0.4 <= t:
                total += (0.1 * math.cos(1.1)) ** n / math.factorial(n) \
                    * (t - n * 0.4) ** n * math.exp(-(t - 0.2 * n))
                n += 1
            return total

        for t in np.linspace(0.01, 3.0, 31):
            assert abs(sol.query(float(t))[2].real - series(float(t))) < 1e-9

    def test_small_rabi_limit_continuous(self):
        # the kernel is a plain product of U elements: rabi -> 0 is a regular limit
        base = dict(epsilon=0.1, tau=0.5, theta_l=0.8, detuning=0.3)
        k_small = hc.delay_kernel(SystemParams(rabi=1e-7, **base)).k_tau
        k_zero = hc.delay_kernel(SystemParams(rabi=0.0, **base)).k_tau
        assert np.max(np.abs(k_small - k_zero)) < 1e-6 * np.max(np.abs(k_zero))


class TestDelayTransient:
    def test_free_until_first_round_trip(self):
        pn = SystemParams(epsilon=0.05, tau=5.0, theta_l=0.0, rabi=2.0)
        pf = SystemParams(epsilon=0.0, tau=5.0, rabi=2.0)
        tn = hc.delay_bloch_transient(pn, 4.9, n_out=50)
        tf = hc.delay_bloch_transient(pf, 4.9, n_out=50)
        assert np.max(np.abs(tn.pop_e - tf.pop_e)) < 1e-10

    def test_epsilon_zero_matches_markov(self):
        p = SystemParams(epsilon=0.0, tau=1.0, rabi=2.0, detuning=0.3)
        td = hc.delay_bloch_transient(p, 8.0, n_out=81)
        tm = hc.markov_bloch_transient(p, 8.0, n_out=81)
        assert np.max(np.abs(td.pop_e - tm.pop_e)) < 1e-8

    def test_positions_separate_after_round_trip(self):
        # the two extreme phases bracket the feedback effect; their curves
        # split only once reflected light returns
        pa = SystemParams(epsilon=0.05, tau=5.0, theta_l=0.0, rabi=2.0)
        pb = SystemParams(epsilon=0.05, tau=5.0, theta_l=math.pi, rabi=2.0)
        ta = hc.delay_bloch_transient(pa, 12.0, n_out=121)
        tb = hc.delay_bloch_transient(pb, 12.0, n_out=121)
        i = np.searchsorted(ta.times, 8.0)
        assert abs(ta.pop_e[i] - tb.pop_e[i]) > 1e-5

    def test_picard_expansion_oracle(self):
        # the epsilon-expansion of the delay system terminates below 3*tau,
        # so a two-step Picard quadrature is exact there
        p = SystemParams(epsilon=0.02, tau=1.0, theta_l=0.7, rabi=1.5, detuning=0.2)
        kern = hc.delay_kernel(p)
        a4, k = obe_generator4(p), kern.k_tau
        x, w = leggauss(60)

        def s_free(t):
            return matrix_exponential(a4, t) @ GROUND_STATE4

        def picard(order_prev, lower, t):
            if t <= lower:
                return np.zeros(4, dtype=complex)
            ss = 0.5 * (t - lower) * x + 0.5 * (t + lower)
            acc = np.zeros(4, dtype=complex)
            for si, wi in zip(ss, w):
                acc += wi * (matrix_exponential(a4, t - si) @ (k @ order_prev(si - p.tau)))
            return 0.5 * (t - lower) * acc

        s1 = lambda t: picard(s_free, p.tau, t)
        s2 = lambda t: picard(s1, 2 * p.tau, t)
        traj = hc.delay_bloch_transient(p, 2.6, n_out=14, tol=1e-11)
        for i, t in enumerate(traj.times):
            ref = s_free(t) + p.epsilon * s1(t) + p.epsilon**2 * s2(t)
            assert np.max(np.abs(ref - traj.states[i])) < 1e-8

    def test_trace_and_hermiticity_along_trajectory(self):
        p = SystemParams(epsilon=0.05, tau=2.0, theta_l=1.0, rabi=3.0, detuning=0.5)
        traj = hc.delay_bloch_transient(p, 10.0, n_out=101)
        trace = traj.states[:, 2] + traj.states[:, 3]
        assert np.max(np.abs(trace - 1.0)) < 1e-8
        assert np.max(np.abs(traj.states[:, 1] - np.conj(traj.states[:, 0]))) < 1e-8


class TestDelaySteady:
    def test_free_space_reduction(self):
        p = SystemParams(epsilon=0.0, tau=1.0, rabi=1.0)
        assert hc.delay_bloch_steady(p).pop_e.real == pytest.approx(1.0 / 3.0, abs=1e-10)

    def test_transient_agreement(self):
        p = SystemParams(epsilon=0.05, tau=5.0, theta_l=0.0, rabi=2.0)
        traj = hc.delay_bloch_transient(p, 60.0, n_out=20, tol=1e-10)
        assert abs(traj.pop_e[-1] - hc.delay_bloch_steady(p).pop_e.real) < 1e-6

    def test_markov_recovery_small_delay(self):
        for th in (0.0, math.pi / 2, math.pi):
            p = SystemParams(epsilon=0.4, tau=1e-3, theta_l=th, rabi=1.0)
            delay = hc.delay_bloch_steady(p).pop_e.real
            markov = hc.markov_bloch_steady(p).pop_e.real
            assert abs(delay - markov) < 1e-3

    def test_epsilon_linearity(self):
        base = dict(tau=0.7, theta_l=1.0, rabi=2.0)
        f0 = hc.delay_bloch_steady(SystemParams(epsilon=0.0, **base)).pop_e.real
        f1 = hc.delay_bloch_steady(SystemParams(epsilon=0.025, **base)).pop_e.real
        f2 = hc.delay_bloch_steady(SystemParams(epsilon=0.05, **base)).pop_e.real
        extrapolated = f0 + 2.0 * (f1 - f0)
        assert abs(f2 - extrapolated) < 1e-3 * f2

    @settings(max_examples=25, deadline=None)
    @given(st.floats(0.0, 0.2), st.floats(0.0, 2 * math.pi), st.floats(0.05, 5.0),
           st.floats(0.05, 3.0), st.floats(-2.0, 2.0))
    def test_invariants_random_parameters(self, eps, th, gt, rabi, det):
        p = SystemParams(epsilon=eps, tau=gt, theta_l=th, rabi=rabi, detuning=det)
        hc.delay_bloch_steady(p).validate(tol=1e-7)


class TestDelaySteadyStack:
    @staticmethod
    def check_against_loop(ps):
        states = hc.delay_bloch_steady_states(ps)
        loop = np.array([hc.delay_bloch_steady(p).as_array() for p in ps])
        assert states.shape == (len(ps), 4)
        assert np.max(np.abs(states - loop)) <= 1e-14
        for row in states:
            hc.BlochVector.from_array(row).validate(tol=1e-7)

    @pytest.mark.parametrize("detuning", [0.0, -1.3])
    def test_gamma_tau_sweep_matches_loop(self, detuning):
        # node and antinode rows, as the CLI stacks them; gamma_tau = 0 included
        grid = np.linspace(0.0, 3.0, 13)
        self.check_against_loop([
            SystemParams(0.3, gt, theta0=th0, rabi=2.0, detuning=detuning)
            for th0 in (0.0, math.pi) for gt in grid])

    @pytest.mark.parametrize("detuning", [0.0, -1.3])
    def test_theta_l_sweep_matches_loop(self, detuning):
        self.check_against_loop([
            SystemParams(0.3, 0.7, theta_l=th, rabi=1.7, detuning=detuning)
            for th in np.linspace(0.0, 2 * math.pi, 17)])

    def test_stacked_kernel_matches_per_set_kernels(self):
        ps = [SystemParams(0.2, tau, theta_l=th, rabi=1.5, detuning=0.4)
              for tau, th in ((0.0, 0.3), (0.5, 1.0), (2.0, 4.0))]
        stack = hc.delay_kernel(ps)
        assert stack.u_tau.shape == stack.k_tau.shape == (3, 4, 4)
        assert stack.f1.shape == stack.f4.shape == (3,)
        assert np.array_equal(stack.u_tau[0], np.eye(4))
        for i, p in enumerate(ps):
            kern = hc.delay_kernel(p)
            assert np.array_equal(stack.u_tau[i], kern.u_tau)
            assert np.max(np.abs(stack.k_tau[i] - kern.k_tau)) <= 1e-15
            assert abs(stack.f1[i] - kern.f1) <= 1e-15 and abs(stack.f4[i] - kern.f4) <= 1e-15

    def test_degenerate_row_is_named(self):
        # epsilon = 1 at a node with no delay leaves no decay: the null space is degenerate
        ps = [SystemParams(1.0, 0.0, theta_l=th, rabi=1.0) for th in (2.0, 1.0, 0.0, 1.0)]
        with pytest.raises(hc.DegenerateKernelError, match="stack index 2") as info:
            hc.delay_bloch_steady_states(ps)
        assert info.value.index == (2,)

    def test_invalid_row_is_named(self, monkeypatch):
        from halfcavity import bloch
        real = bloch.null_eigenvector

        def broken(m):
            v = real(m)
            v[1] = [0.0, 0.0, 2.0, -1.0]   # unit trace, excited population 2
            return v

        monkeypatch.setattr(bloch, "null_eigenvector", broken)
        ps = [SystemParams(0.1, 0.5, theta_l=th, rabi=1.0) for th in (0.0, 1.0, 2.0)]
        with pytest.raises(ValueError, match="steady state 1: excited population") as info:
            hc.delay_bloch_steady_states(ps)
        assert info.value.index == (1,)

    @pytest.mark.parametrize("state, message", [
        ((0.1, 0.2, 0.5, 0.5), "conjugate"),
        ((0.1, 0.1, 0.5, 0.4), "sum to one"),
        ((0.1, 0.1, 0.5 + 1e-3j, 0.5 - 1e-3j), "not real"),
        ((0.1, 0.1, 1.5, -0.5), "outside"),
    ])
    def test_validate_messages(self, state, message):
        with pytest.raises(ValueError, match=message):
            hc.BlochVector(*state).validate()


class TestStrongDriveEnvelope:
    def test_zero_delay_reduces_to_expansion(self):
        p = SystemParams(epsilon=0.1, tau=0.0, theta0=0.0, rabi=20.0)
        assert hc.drive_modulation(p) == pytest.approx(1.0, rel=1e-12)
        assert hc.strong_drive_envelope(p) == pytest.approx(
            hc.epsilon_expansion_population(p), rel=1e-12)

    def test_detuned_rejected(self):
        with pytest.raises(ValueError):
            hc.strong_drive_envelope(
                SystemParams(epsilon=0.1, tau=0.1, theta_l=0.0, rabi=20.0, detuning=1.0))

    def test_modulation_zeros_near_pi_multiples(self):
        from scipy.optimize import brentq
        for n in range(1, 6):
            f = lambda tau: hc.drive_modulation(
                SystemParams(epsilon=0.1, tau=tau, theta0=0.0, rabi=20.0))
            root = brentq(f, (n * math.pi - 0.5) / 20.0, (n * math.pi + 0.5) / 20.0)
            assert abs(20.0 * root - n * math.pi) < 0.15

    def test_envelope_tracks_eigen_sweep(self):
        for gt in np.linspace(0.02, 0.3, 8):
            pe = SystemParams(epsilon=0.05, tau=gt, theta0=0.0, rabi=20.0)
            pa = SystemParams(epsilon=0.05, tau=gt, theta0=math.pi, rabi=20.0)
            exact = (hc.delay_bloch_steady(pe).pop_e.real
                     - hc.delay_bloch_steady(pa).pop_e.real)
            env = (hc.strong_drive_envelope(pe, theta0=0.0)
                   - hc.strong_drive_envelope(pa, theta0=math.pi))
            if abs(exact) > 1e-7:
                assert abs(env - exact) <= 0.15 * abs(exact)
