"""Weak-drive physics: staircase, oscillator model, correlations, line weights."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import halfcavity as hc
from halfcavity.params import SystemParams


def params(eps=0.4, gt=20.0, th=0.0, rabi=0.05, detuning=0.0):
    return SystemParams(epsilon=eps, tau=gt, theta_l=th, rabi=rabi, detuning=detuning)


class TestPerturbativeAmplitude:
    def test_first_interval_closed_form(self):
        p = params()
        for t in (0.5, 3.0, 19.0):
            expect = (1j * 0.05) * (1.0 - math.exp(-0.5 * t))
            assert hc.perturbative_amplitude(p, t) == pytest.approx(expect, abs=1e-13)

    def test_free_space_steady_value(self):
        p = params(eps=0.0, detuning=0.3)
        pop = abs(hc.perturbative_amplitude(p, 200.0)) ** 2
        assert pop == pytest.approx(0.05**2 / (1.0 + 4 * 0.3**2), rel=1e-10)

    def test_finite_at_large_order(self):
        # 1500 round trips at epsilon = 1: the series kernels reach order and
        # argument where z^n/n! overflows
        p = SystemParams(epsilon=1.0, tau=0.2, rabi=0.05, detuning=-4.0)
        assert np.isfinite(hc.perturbative_amplitude(p, 300.0))

    def test_staircase_monotone_at_node(self):
        p = params(th=0.0)
        plateau = [abs(hc.perturbative_amplitude(p, (n + 0.98) * 20.0)) ** 2
                   for n in range(4)]
        assert all(b > a for a, b in zip(plateau, plateau[1:]))


class TestSteadyPopulationWeak:
    def test_free_space(self):
        assert hc.steady_population_weak(params(eps=0.0)) == pytest.approx(0.0025)

    def test_antinode(self):
        assert hc.steady_population_weak(params(th=math.pi)) == pytest.approx(
            0.05**2 / 1.96, rel=1e-12)

    def test_perfect_feedback_guard(self):
        with pytest.raises(ZeroDivisionError):
            hc.steady_population_weak(params(eps=1.0, th=0.0))

    def test_identity_with_staircase_fixed_point(self):
        p = params(eps=0.4, gt=2.0, th=2.1, rabi=0.01, detuning=0.3)
        fp = hc.rabi_staircase(p, None)
        via_fp = abs(fp) ** 2 / (p.gamma**2 + 4 * p.detuning**2)
        assert abs(via_fp - hc.steady_population_weak(p)) < 1e-12


class TestRabiStaircase:
    def test_start(self):
        assert hc.rabi_staircase(params(), 0) == 0.05

    def test_one_round_trip_node(self):
        assert hc.rabi_staircase(params(), 1) == pytest.approx(1.4 * 0.05, rel=1e-12)

    def test_fixed_point_node(self):
        assert hc.rabi_staircase(params(), None) == pytest.approx(0.05 / 0.6, rel=1e-12)

    def test_divergence_guard(self):
        with pytest.raises(ZeroDivisionError):
            hc.rabi_staircase(params(eps=1.0, th=0.0), None)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(0.0, 0.9), st.floats(0.0, 2 * math.pi), st.floats(-1.0, 1.0))
    def test_recurrence_converges_to_fixed_point(self, eps, th, det):
        p = SystemParams(epsilon=eps, tau=1.0, theta_l=th, rabi=0.1, detuning=det)
        late = hc.rabi_staircase(p, 200)
        assert abs(late - hc.rabi_staircase(p, None)) < 1e-8


class TestOscillatorModel:
    def test_dde_matches_series(self):
        p = params(gt=5.0)
        sol = hc.oscillator_dde(p, 25.0, tol=1e-11)
        for t in np.linspace(0.1, 25.0, 53):
            assert abs(sol.query(float(t))[0]
                       - hc.perturbative_amplitude(p, float(t))) < 1e-8

    def test_propagator_identity(self):
        p = params(gt=5.0, th=1.3, detuning=0.2)
        co = hc.oscillator_coeffs(p)
        start = 0.6 - 0.2j
        sol = hc.oscillator_dde(p, 18.0, initial=start, tol=1e-11)
        for t in np.linspace(0.0, 18.0, 37):
            pred = co.drive_response(float(t)) + co.free_propagator(float(t)) * start
            assert abs(pred - sol.query(float(t))[0]) < 1e-8

    def test_boundary_values(self):
        co = hc.oscillator_coeffs(params())
        assert co.drive_response(0.0) == 0.0
        assert co.free_propagator(0.0) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("kernel", ["kummer_minus_exp", "exp_kernel"])
    def test_series_stop_before_the_last_round_trip(self, monkeypatch, kernel):
        # drive response and free propagator sum through these two kernels;
        # at epsilon = 1, t = 300 the tail bound ends both well before n_max
        from halfcavity import weakdrive
        from halfcavity.numerics import completed_round_trips

        p = params(eps=1.0, gt=3.0, th=1.0, detuning=0.3)
        orders = []
        inner = getattr(weakdrive, kernel)
        monkeypatch.setattr(weakdrive, kernel, lambda n, s: orders.append(n) or inner(n, s))
        co = hc.oscillator_coeffs(p)
        value = co.drive_response(300.0) if kernel == "kummer_minus_exp" \
            else co.free_propagator(300.0)
        assert math.isfinite(abs(value))
        assert 0 < max(orders) < completed_round_trips(300.0, p.tau) - 5

    def test_undriven_propagator_reproduces_decay_series(self):
        p = SystemParams(epsilon=0.4, tau=0.4, theta_l=1.0, rabi=0.0)
        co = hc.oscillator_coeffs(p)
        p_decay = SystemParams(epsilon=0.4, tau=0.4, theta0=1.0)
        for t in np.linspace(0.0, 4.0, 41):
            assert abs(co.free_propagator(float(t))
                       - hc.series_amplitude(p_decay, float(t))) < 1e-13

    def test_factorization_ground_start(self):
        # ground-state start: population equals |<c>|^2 identically, so the
        # delay dynamics of |<c>|^2 is the full population dynamics
        p = params(gt=5.0)
        sol = hc.oscillator_dde(p, 12.0)
        pops = np.abs(sol.query(np.linspace(0, 12, 25)))[:, 0] ** 2
        assert np.all(pops >= 0) and pops[-1] > 0

    def test_free_space_textbook_transient(self):
        p = params(eps=0.0, rabi=0.05)
        sol = hc.oscillator_dde(p, 10.0)
        for t in (0.5, 2.0, 8.0):
            expect = (1j * 0.05) * (1.0 - math.exp(-0.5 * t))
            assert abs(sol.query(t)[0] - expect) < 1e-9

    def test_interval_plateau_identity(self):
        p = params()
        sol = hc.oscillator_dde(p, 80.0)
        for n in range(4):
            t = (n + 0.95) * 20.0
            pred = 1j * hc.rabi_staircase(p, n) / (p.gamma + 2j * p.detuning)
            got = sol.query(t)[0]
            assert abs(got - pred) <= 0.02 * abs(pred)


class TestCorrelations:
    def test_channel2_antibunching_exact_zero(self):
        g2 = hc.g2_channel2(params(), np.array([0.0, 1.0, 5.0]))
        assert g2.values[0] == 0.0

    def test_channel2_long_delay_limit(self):
        p = params()
        g2 = hc.g2_channel2(p, np.array([0.0, 700.0]))
        assert g2.values[-1] == pytest.approx(hc.steady_population_weak(p) ** 2, rel=1e-10)

    def test_channel2_staircase_steps(self):
        p = params()
        g2 = hc.g2_channel2(p, np.linspace(0.0, 79.0, 80))
        plateaus = [g2.values[np.searchsorted(g2.delays, (n + 0.95) * 20.0)]
                    for n in range(3)]
        assert all(b > a for a, b in zip(plateaus, plateaus[1:]))

    def test_channel1_nonzero_at_zero_delay(self):
        p = params()
        g1 = hc.g2_channel1(p, np.array([0.0, 1.0]))
        expect = 4.0 * hc.steady_population_weak(p) \
            * abs(hc.perturbative_amplitude(p, 20.0)) ** 2
        assert g1.values[0] == pytest.approx(expect, rel=1e-12)
        assert g1.values[0] > 0

    def test_channel1_continuous_with_kink_at_tau(self):
        p = params()
        d = 1e-3
        g = hc.g2_channel1(p, np.array([20.0 - 2 * d, 20.0 - d, 20.0 + d, 20.0 + 2 * d]))
        v = g.values
        assert abs(v[1] - v[2]) < 1e-6 * max(v[1], 1e-300)      # continuity
        slope_left = (v[1] - v[0]) / d
        slope_right = (v[3] - v[2]) / d
        assert abs(slope_left - slope_right) > 0.05 * max(abs(slope_left), abs(slope_right))

    def test_channel1_long_delay_constant(self):
        # 16 sin^4(theta/2) pop^2, checked at 32 round trips where the
        # staircase has converged geometrically
        p = params(th=math.pi)
        got = hc.g2_channel1(p, np.array([0.0, 32 * 20.0])).values[-1]
        expect = 16.0 * math.sin(0.5 * math.pi) ** 4 * hc.steady_population_weak(p) ** 2
        assert got == pytest.approx(expect, rel=1e-10)

    def test_values_nonnegative(self):
        p = params(th=2.0)
        for maker in (hc.g2_channel1, hc.g2_channel2):
            assert np.all(maker(p, np.linspace(0, 60, 61)).values >= 0)


class TestWeakSpectrum:
    def test_node_channel1_dark(self):
        assert hc.weak_line_weight(params(th=0.0), 1) == 0.0

    def test_antinode_channel1_maximal(self):
        p = params(th=math.pi)
        assert hc.weak_line_weight(p, 1) == pytest.approx(hc.weak_line_weight(p, 2))

    def test_weight_ratio_at_quarter_phase(self):
        p = params(th=math.pi / 2)
        ratio = hc.weak_line_weight(p, 1) / hc.weak_line_weight(p, 2)
        assert ratio == pytest.approx(math.sin(math.pi / 4) ** 2, rel=1e-12)

    def test_spectrum_result_is_pure_line(self):
        p = params(th=1.0)
        spec = hc.weak_emission_spectrum(p, 2)
        assert np.all(spec.incoherent == 0.0)
        assert spec.coherent_weight == pytest.approx(hc.steady_population_weak(p))

    def test_channel_anticorrelation_and_shift(self):
        # resonant drive: population maxima sit where the channel-1 weight
        # vanishes; a finite detuning shifts the population extremum by
        # atan(2*detuning/gamma) while the sin^2 prefactor stays put
        from scipy.optimize import minimize_scalar

        def pop_argmax(det):
            f = lambda th: -hc.steady_population_weak(
                SystemParams(epsilon=0.1, tau=0.3, theta_l=th, rabi=0.05, detuning=det))
            return minimize_scalar(f, bounds=(-1.5, 1.5), method="bounded").x

        assert abs(pop_argmax(0.0)) < 1e-6
        assert pop_argmax(0.5) == pytest.approx(math.atan(1.0), abs=1e-5)
        assert hc.weak_line_weight(params(eps=0.1, th=0.0, detuning=0.0), 1) == 0.0
