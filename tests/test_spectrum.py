"""Driven emission spectrum: kernel structure, Mollow limits, flux identity."""

import math

import numpy as np
import pytest

import halfcavity as hc
from halfcavity import spectrum
from halfcavity.params import SystemParams

from conftest import lorentzian_fit, mollow_closed_form


class TestKernelStructure:
    def test_requires_drive(self):
        with pytest.raises(ValueError):
            hc.build_kernel(SystemParams(epsilon=0.1, tau=1.0, rabi=0.0))
        with pytest.raises(ValueError):
            hc.incoherent_spectrum(SystemParams(epsilon=0.1, tau=1.0, rabi=0.0))

    def test_free_space_source_vector(self):
        p = SystemParams(epsilon=0.0, tau=1.0, rabi=3.0)
        kern = hc.build_kernel(p)
        ss = hc.markov_bloch_steady(p)
        sm, ne = ss.s_minus, ss.pop_e.real
        expect = np.array([-sm * sm, ne - abs(sm) ** 2, -2 * ne * sm])
        assert np.max(np.abs(kern.i0_ss - expect)) < 1e-10

    def test_zero_delay_kernel_reproduces_markov_mollow_generator(self):
        p = SystemParams(epsilon=0.25, tau=0.0, theta_l=1.2, rabi=3.0, detuning=0.6)
        kern = hc.build_kernel(p)
        full = kern.a3 + p.epsilon * kern.k_tilde
        ref = np.array([
            [-0.5 * p.gamma_tilde_l - 1j * p.delta_tilde, 0.0, -0.5j * p.rabi],
            [0.0, -0.5 * p.gamma_tilde_l + 1j * p.delta_tilde, 0.5j * p.rabi],
            [-1j * p.rabi, 1j * p.rabi, -p.gamma_tilde_l],
        ])
        assert np.max(np.abs(full - ref)) < 1e-12

    def test_g_vector_ground_relaxation_form(self):
        # g = U3(tau) applied to (ground - steady) plus steady: the free
        # Bloch vector one round trip after a projective ground start
        p = SystemParams(epsilon=0.1, tau=0.8, theta_l=0.5, rabi=2.0)
        kern = hc.build_kernel(p)
        assert kern.g_vec[2] == pytest.approx(
            complex((kern.u3_tau @ (np.array([0, 0, -1.0]) - _s3(kern))) [2]
                    + _s3(kern)[2]), rel=1e-12)

    def test_delayed_source_vanishes_without_delay_or_feedback(self):
        p0 = SystemParams(epsilon=0.0, tau=2.0, rabi=1.0)
        assert np.all(hc.build_kernel(p0).delayed_source(np.array([0.5])) == 0.0)
        assert np.all(hc.build_kernel(p0).i1_at_line == 0.0)

    def test_delayed_source_eig_matches_vanloan(self, monkeypatch):
        p = SystemParams(epsilon=0.15, tau=1.3, theta_l=0.9, rabi=2.0, detuning=0.3)
        nus = np.array([-7.3, -0.2, 0.0, 1.7, 24.0])
        block_calls = _count_block_exponentials(monkeypatch)
        a = hc.build_kernel(p).delayed_source(nus)
        assert block_calls == []
        # no eigenbasis passes a zero condition limit: force the block route
        monkeypatch.setattr(spectrum, "_EIG_COND_LIMIT", 0.0)
        b = hc.build_kernel(p).delayed_source(nus)
        assert block_calls
        assert np.max(np.abs(a - b)) < 1e-9 * max(1.0, np.max(np.abs(a)))

    def test_defective_point_continuous_with_eig_route(self, monkeypatch):
        # rabi = gamma/4 makes A3 and A4 defective; just beside it the
        # eigenbases are well conditioned again
        grid = np.linspace(-3.0, 3.0, 241)
        block_calls = _count_block_exponentials(monkeypatch)
        near = hc.incoherent_spectrum(
            SystemParams(epsilon=0.2, tau=1.0, theta_l=0.7, rabi=0.25 * (1 + 1e-6)), grid)
        assert block_calls == []
        at = hc.incoherent_spectrum(
            SystemParams(epsilon=0.2, tau=1.0, theta_l=0.7, rabi=0.25), grid)
        assert block_calls
        peak = np.max(near.incoherent)
        assert np.max(np.abs(at.incoherent - near.incoherent)) < 1e-5 * peak


def _count_block_exponentials(monkeypatch):
    """Record each block exponential the delayed source takes (van Loan route)."""
    calls = []
    original = spectrum.expm_convolution

    def counted(*args):
        calls.append(1)
        return original(*args)
    monkeypatch.setattr(spectrum, "expm_convolution", counted)
    return calls


def _s3(kern):
    s = kern.steady
    return np.array([s[0], s[1], s[2] - s[3]])


class TestMollowLimit:
    @pytest.mark.parametrize("rabi,detuning", [(0.2, 0.0), (3.0, 0.0), (10.0, 0.0),
                                               (3.0, 10.0), (10.0, 10.0)])
    def test_pointwise_closed_form(self, rabi, detuning):
        p = SystemParams(epsilon=0.0, tau=0.5, rabi=rabi, detuning=detuning)
        grid = np.linspace(-3 * p.generalized_rabi - 20, 3 * p.generalized_rabi + 20, 3001)
        spec = hc.incoherent_spectrum(p, grid)
        oracle = mollow_closed_form(grid, 1.0, rabi, detuning)
        assert np.max(np.abs(spec.incoherent - oracle)) < 1e-6

    def test_triplet_structure(self):
        p = SystemParams(epsilon=0.0, tau=0.5, rabi=10.0)
        spec = hc.incoherent_spectrum(p, np.linspace(-15, 15, 60001))
        nu, s = spec.delta_grid, spec.incoherent
        peak_c, x0_c, w_c = lorentzian_fit(nu, s, 0.0, 2.0)
        peak_s, x0_s, w_s = lorentzian_fit(nu, s, 10.0, 4.0)
        assert abs(x0_c) < 1e-3
        assert abs(x0_s - 10.0) < 0.1
        assert w_c == pytest.approx(0.5, rel=0.02)
        assert w_s == pytest.approx(0.75, rel=0.08)

    def test_coherent_weight_free_space(self):
        p = SystemParams(epsilon=0.0, tau=0.5, rabi=0.2)
        spec = hc.incoherent_spectrum(p, np.linspace(-5, 5, 101))
        ss = hc.markov_bloch_steady(p)
        assert spec.coherent_weight == pytest.approx(abs(ss.s_minus) ** 2, rel=1e-9)


class TestMarkovLimitSpectrum:
    @pytest.mark.parametrize("theta", [0.0, math.pi])
    def test_matches_renormalised_mollow(self, theta):
        rabi, eps = 3.0, 0.2
        tau = 0.05 / (2 * rabi + 1.0)
        p = SystemParams(epsilon=eps, tau=tau, theta_l=theta, rabi=rabi)
        spec = hc.incoherent_spectrum(p)
        oracle = mollow_closed_form(spec.delta_grid, p.gamma_tilde_l, rabi, p.delta_tilde)
        peak = oracle.max()
        assert np.max(np.abs(spec.incoherent - oracle)) < 0.02 * peak

    def test_node_narrower_than_antinode(self):
        rabi, eps = 3.0, 0.2
        specs = {}
        for theta, gt in ((0.0, 0.01), (math.pi, 0.02)):
            p = SystemParams(epsilon=eps, tau=gt, theta_l=theta, rabi=rabi)
            grid = np.linspace(-12, 12, 24001)
            specs[theta] = hc.incoherent_spectrum(p, grid)
        _, _, w_node = lorentzian_fit(specs[0.0].delta_grid, specs[0.0].incoherent, 0.0, 1.2)
        _, _, w_anti = lorentzian_fit(specs[math.pi].delta_grid,
                                      specs[math.pi].incoherent, 0.0, 1.2)
        assert w_node < 0.75 * w_anti


class TestDelaySpectrum:
    def test_symmetry_at_node_and_antinode(self):
        for theta in (0.0, math.pi):
            p = SystemParams(epsilon=0.2, tau=0.1, theta_l=theta, rabi=5 * math.pi)
            spec = hc.incoherent_spectrum(p)
            s = spec.incoherent
            assert np.max(np.abs(s - s[::-1])) < 1e-6

    def test_slope_right_sideband_broader(self):
        p = SystemParams(epsilon=0.2, tau=0.1, theta_l=math.pi / 2, rabi=5 * math.pi)
        spec = hc.incoherent_spectrum(p)
        nu, s = spec.delta_grid, spec.incoherent
        w0 = p.generalized_rabi
        peak_r, _, w_r = lorentzian_fit(nu, s, +w0, 4.0)
        peak_l, _, w_l = lorentzian_fit(nu, s, -w0, 4.0)
        assert w_r > w_l
        assert peak_r < peak_l   # heavier damping also lowers the peak

    def test_intermediate_slope_asymmetry_matches_damping(self):
        p = SystemParams(epsilon=0.1, tau=0.3, theta_l=math.pi / 2, rabi=3.0)
        spec = hc.incoherent_spectrum(p)
        _, _, w_r = lorentzian_fit(spec.delta_grid, spec.incoherent, +3.0, 1.5)
        _, _, w_l = lorentzian_fit(spec.delta_grid, spec.incoherent, -3.0, 1.5)
        assert w_r / w_l == pytest.approx(1.08 / 0.92, rel=0.5)
        assert w_r > 1.02 * w_l

    def test_weak_drive_minima_at_antinode_mode_frequencies(self):
        # large delay, node position: dips recur every 2*pi/tau near the
        # odd multiples of pi/tau (the mode family with an antinode at the
        # atom), each displaced inwards by the first-order level shift and
        # by the pull of the falling triplet envelope
        p = SystemParams(epsilon=0.15, tau=10.0, theta_l=0.0, rabi=0.2)
        spec = hc.incoherent_spectrum(p)
        nu, s = spec.delta_grid, spec.incoherent
        sel = (nu > 0.5) & (nu < 2.6)
        nu_s, s_s = nu[sel], s[sel]
        minima = np.array([nu_s[i] for i in range(3, len(nu_s) - 3)
                           if s_s[i] < s_s[i - 1] < s_s[i - 3]
                           and s_s[i] < s_s[i + 1] < s_s[i + 3]])
        assert len(minima) >= 3
        spacing = np.diff(minima)
        assert np.allclose(spacing, 2 * math.pi / 10.0, rtol=0.12)
        for k in (1, 2, 3):
            target = (2 * k + 1) * math.pi / 10.0
            assert min(abs(m - target) for m in minima) < 0.25 * 2 * math.pi / 10.0

    def test_negative_density_guard(self):
        from halfcavity.spectrum import _checked_nonnegative
        base = np.array([0.0, 0.5, 1.0, 0.5, 0.0])
        # truncation-level lobe is clipped
        dens = base.copy()
        dens[0] = -1e-3          # eps^2/2 * peak = 2e-3 floor at eps = 0.2
        out = _checked_nonnegative(dens, eps=0.2, rabi=3.0, gamma=1.0)
        assert out[0] == 0.0 and np.all(out >= 0.0)
        # a gross violation raises
        dens[0] = -0.2
        with pytest.raises(ValueError, match="negative"):
            _checked_nonnegative(dens, eps=0.2, rabi=3.0, gamma=1.0)
        # far below saturation the allowance widens with the cancellation
        dens[0] = -0.2
        out = _checked_nonnegative(dens, eps=0.2, rabi=0.05, gamma=1.0)
        assert out[0] == 0.0


class TestFluxIdentity:
    @pytest.mark.parametrize("rabi,eps,gt,theta", [
        (0.2, 0.15, 0.01, 0.0),
        (0.2, 0.15, 2.0, 0.0),
        (3.0, 0.2, 0.01, 0.0),
        (3.0, 0.2, 0.02, math.pi),
        (5 * math.pi, 0.2, 0.1, math.pi / 2),
    ])
    def test_total_flux_equals_steady_population(self, rabi, eps, gt, theta):
        p = SystemParams(epsilon=eps, tau=gt, theta_l=theta, rabi=rabi)
        total = hc.total_flux_check(p)
        pop = hc.delay_bloch_steady(p).pop_e.real
        assert abs(total - pop) <= 0.02 * pop

    def test_free_space_identity(self):
        p = SystemParams(epsilon=0.0, tau=0.5, rabi=5.0)
        total = hc.total_flux_check(p)
        assert total == pytest.approx(25.0 / 51.0, rel=0.01)

    def test_weak_drive_coherent_dominates(self):
        # the coherent line carries the flux at weak drive: the incoherent
        # share falls off quartically (ratio to the line drops like rabi^2)
        ratios = []
        for rabi in (0.05, 0.025):
            p = SystemParams(epsilon=0.0, tau=0.5, rabi=rabi)
            spec = hc.incoherent_spectrum(p, np.linspace(-30, 30, 4001))
            inc = spec.total_flux() - spec.coherent_weight
            ratios.append(inc / spec.coherent_weight)
        assert ratios[0] < 0.01
        assert ratios[1] == pytest.approx(0.25 * ratios[0], rel=0.05)

    def test_grid_starting_at_zero_adds_no_tail_below_it(self):
        # a C/delta^2 tail beyond an edge on delta = 0 would diverge; that
        # edge adds nothing, so a Lorentzian on [0, 40] integrates to 1/2
        grid = np.linspace(0.0, 40.0, 4001)
        lorentzian = 1.0 / (math.pi * (1.0 + grid**2))
        spec = hc.SpectrumResult(grid, lorentzian, 0.25, SystemParams())
        assert spec.total_flux() == pytest.approx(0.5 + 0.25, abs=1e-4)

    def test_result_carries_the_steady_state_it_used(self):
        p = SystemParams(epsilon=0.15, tau=2.0, theta_l=0.0, rabi=0.7)
        spec = hc.incoherent_spectrum(p, np.linspace(-10.0, 10.0, 41))
        assert np.array_equal(spec.steady, hc.delay_bloch_steady(p).as_array())
        assert spec.coherent_weight == abs(spec.steady[0]) ** 2

    def test_delayed_source_improves_identity(self):
        p = SystemParams(epsilon=0.15, tau=2.0, theta_l=0.0, rabi=0.2)
        pop = hc.delay_bloch_steady(p).pop_e.real
        with_i1 = abs(hc.total_flux_check(p) - pop)
        without = abs(hc.total_flux_check(p, include_delayed_source=False) - pop)
        assert with_i1 < 0.2 * without
