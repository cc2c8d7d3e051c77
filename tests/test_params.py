import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qed_decoherence.params import (
    _transition_time,
    DipoleValidityWarning,
    DomainError,
    ModelParams,
    thermal_time,
    vacuum_decoherence_time,
    vacuum_thermal_crossover,
    thermal_decoherence_time,
    validity_bound,
    validity_window,
)

from conftest import make_params


class TestThermalTime:
    def test_reference_value_at_1K(self):
        # 2.43e-12 s / T[K]
        assert thermal_time(1.0) == pytest.approx(2.43e-12, rel=5e-3)

    def test_300K(self):
        # hbar/(pi k_B 300), frozen from 30-digit evaluation
        assert thermal_time(300.0) == pytest.approx(8.1044164747135423e-15, rel=1e-12)

    def test_monotone(self):
        assert thermal_time(1e6) < thermal_time(1e3) < thermal_time(1.0)

    def test_rejects_zero_with_vacuum_hint(self):
        with pytest.raises(DomainError, match="vacuum"):
            thermal_time(0.0)
        with pytest.raises(DomainError):
            thermal_time(-1.0)

    @given(st.floats(min_value=1e-3, max_value=1e9))
    @settings(max_examples=50, deadline=None)
    def test_strictly_decreasing(self, temp):
        assert thermal_time(temp * 1.5) < thermal_time(temp)


class TestTransitionTime:
    def test_residual_is_a_root(self):
        tau_F = thermal_time(1.0)
        tp = _transition_time(1e19, tau_F)
        residual = math.log(1e19 * tp) - tp / tau_F
        assert abs(residual) / (tp / tau_F) < 1e-10

    def test_value_at_1K(self):
        # frozen from mpmath bisection of ln(1e19 t) = t/tau_F, larger root
        tp = _transition_time(1e19, thermal_time(1.0))
        assert tp == pytest.approx(4.8632293770430355e-11, rel=1e-10)

    def test_300K_root(self):
        tp = _transition_time(1e19, thermal_time(300.0))
        assert tp == pytest.approx(1.1295384288074824e-13, rel=1e-10)

    def test_no_crossing_reports_omega_tau_F(self):
        with pytest.raises(DomainError, match="Omega tau_F"):
            _transition_time(1e19, 1e-20)


class TestCrossover:
    def test_equal_factors_at_crossover(self, default_params):
        from qed_decoherence.decoherence import gamma_th_factor, gamma_vac_factor

        tp = vacuum_thermal_crossover(1e19, thermal_time(1.0))
        gv = gamma_vac_factor(default_params, tp)
        gt = gamma_th_factor(default_params, tp)
        assert abs(gv - gt) / gv < 1e-10

    def test_reference_order_of_magnitude(self):
        # transition time ~1e-10 s at Omega = 1e19/s, T = 1 K
        tp = vacuum_thermal_crossover(1e19, thermal_time(1.0))
        assert 0.5e-10 <= tp <= 2e-10

    def test_independent_of_alpha(self):
        # the coupling cancels: crossover only sees Omega tau_F
        assert vacuum_thermal_crossover(1e19, thermal_time(1.0)) == pytest.approx(
            5.8499748083493434e-11, rel=1e-10
        )


class TestDecoherenceTimes:
    def test_exponent_one_case(self):
        # dp chosen so the exponent is exactly 1: tau_vac = e/Omega
        p = make_params(alpha=0.2)
        dp = math.sqrt(1.5 * math.pi / p.alpha)
        lin, log = vacuum_decoherence_time(p, dp)
        assert lin == pytest.approx(math.e / p.omega_cut, rel=1e-12)

    def test_overflow_safe_log_space(self):
        p = make_params(alpha=0.1)
        lin, log = vacuum_decoherence_time(p, 0.1)
        assert math.isinf(lin)
        assert log == pytest.approx(1500.0 * math.pi - math.log(1e19), rel=1e-12)

    def test_diagonal_never_decoheres(self, default_params):
        lin, log = vacuum_decoherence_time(default_params, 0.0)
        assert math.isinf(lin) and math.isinf(log)
        assert math.isinf(thermal_decoherence_time(default_params, 0.0))

    @given(st.floats(min_value=0.02, max_value=0.9),
           st.floats(min_value=0.05, max_value=10.0))
    @settings(max_examples=50, deadline=None)
    def test_monotone_in_dp_and_alpha(self, dp, alpha):
        p = make_params(alpha=alpha, delta_p=0.5)
        _, log1 = vacuum_decoherence_time(p, dp)
        _, log2 = vacuum_decoherence_time(p, dp * 1.1)
        assert log2 < log1
        p2 = make_params(alpha=alpha * 1.1, delta_p=0.5)
        _, log3 = vacuum_decoherence_time(p2, dp)
        assert log3 < log1

    def test_thermal_scaling_laws(self):
        p = make_params(alpha=0.1)
        # doubling dp quarters tau_th
        assert thermal_decoherence_time(p, 0.2) == pytest.approx(
            thermal_decoherence_time(p, 0.1) / 4.0, rel=1e-12
        )
        # frozen plug-in value: tau_F(1K) (3 pi/0.2) * 100
        assert thermal_decoherence_time(p, 0.1) == pytest.approx(
            1.145734886636647e-8, rel=1e-10
        )

    def test_tau_th_times_T_constant(self):
        vals = []
        for T in (0.5, 5.0, 50.0, 500.0):
            p = make_params(alpha=0.1, temperature=T)
            vals.append(thermal_decoherence_time(p, 0.1) * T)
        assert np.ptp(vals) / vals[0] < 1e-12


class TestValidityWindow:
    def test_tau_d_plugin(self):
        ts = validity_window(make_params(delta_p=0.1))
        assert ts.tau_d == pytest.approx(1e-18, rel=1e-12)

    def test_stationary_packet_tau_0_infinite(self):
        ts = validity_window(make_params(p0=0.0))
        assert math.isinf(ts.tau_0)

    def test_ratio_identity(self):
        p = make_params(p0=0.3, delta_p=0.05)
        ts = validity_window(p)
        assert ts.tau_d / ts.tau_0 == pytest.approx(p.v0 / p.delta_p, rel=1e-12)

    def test_tau_d_much_larger_than_tau_0_when_dp_below_v0(self):
        # lower cutoff keeps delta_r = 1.5/delta_p under c/Omega
        p = make_params(p0=0.5, delta_p=0.01, omega_cut=1e18)
        ts = validity_window(p)
        assert ts.tau_d > ts.tau_0

    def test_bound_is_min(self):
        p = make_params(p0=0.5, delta_p=0.01, omega_cut=1e18)
        ts = validity_window(p)
        assert validity_bound(p) == min(ts.tau_d, ts.tau_0)

    @pytest.mark.parametrize("kw", [{}, {"temperature": 0.0}, {"p0": 0.0}],
                             ids=["defaults", "T0", "v0_zero"])
    def test_bound_is_min_of_window(self, kw):
        p = make_params(**kw)
        ts = validity_window(p)
        assert validity_bound(p) == min(ts.tau_d, ts.tau_0)

    def test_t0_branch(self):
        ts = validity_window(make_params(temperature=0.0))
        assert math.isinf(ts.tau_F) and math.isinf(ts.tau_th)


class TestModelParams:
    def test_accepts_free_limit(self):
        p = make_params(alpha=0.0)
        assert p.alpha == 0.0

    def test_rejects_negative_temperature(self):
        with pytest.raises(DomainError):
            make_params(temperature=-1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["alpha", "omega_cut", "temperature", "mass0",
                                       "delta_p", "p0", "r0", "v0"])
    def test_rejects_non_finite(self, field, value):
        with pytest.raises(DomainError):
            make_params(**{field: value})

    def test_rejects_relativistic_v0(self):
        with pytest.raises(DomainError):
            make_params(p0=1.5)

    def test_dipole_hard_precondition(self):
        # delta_r = 1.5/dp in hbar/m0c; needs delta_r * epsilon < 1
        with pytest.raises(DomainError, match="dipole"):
            make_params(delta_p=0.01, omega_cut=1e20)

    def test_dipole_warning_band(self):
        with pytest.warns(DipoleValidityWarning):
            ModelParams(delta_p=0.1)  # 0.19 c/Omega at the defaults

    def test_dipole_warning_names_the_caller(self):
        # not the generated __init__ (<string>), nor dataclasses.replace
        with pytest.warns(DipoleValidityWarning) as record:
            p = ModelParams(delta_p=0.1)
        with pytest.warns(DipoleValidityWarning) as replaced:
            dataclasses.replace(p, alpha=0.01)
        assert [r.filename for r in (*record, *replaced)] == [__file__, __file__]

    def test_v0_defaults_to_abs_p0(self):
        p = make_params(p0=-0.3)
        assert p.v0 == 0.3

    def test_scalar_p0_promotes_to_x_axis(self):
        p = make_params(p0=np.float32(0.25), r0=1)
        assert type(p.p0) is float and p.p0 == 0.25
        assert type(p.r0) is float and p.r0 == 1.0

    @pytest.mark.parametrize("kw", [{"p0": (0.1, 0.0, 0.0)}, {"p0": [0.1]},
                                    {"r0": np.zeros(3)}, {"p0": math.nan}, {"p0": "0.1"},
                                    {"r0": np.array(0.5)}, {"p0": 0.1j}, {"alpha": None},
                                    {"alpha": "0.1"}, {"v0": "0.1"}, {"delta_p": [0.1]},
                                    {"temperature": (1.0,)}],
                             ids=["p0_tuple", "p0_list", "r0_array", "p0_nan", "p0_str",
                                  "r0_0d_array", "p0_complex", "alpha_none", "alpha_str",
                                  "v0_str", "delta_p_list", "temperature_tuple"])
    def test_p0_and_r0_are_floats_along_the_axis(self, kw):
        # a non-scalar or non-finite value of any field (v0 = None is auto) is a
        # DomainError, never a TypeError
        with pytest.raises(DomainError):
            make_params(**kw)

    @given(st.floats(min_value=1e-25, max_value=1e-5))
    @settings(max_examples=50, deadline=None)
    def test_time_round_trip(self, t_seconds):
        p = make_params()
        assert p.seconds(p.tau(t_seconds)) == pytest.approx(t_seconds, rel=1e-12)

    @given(st.floats(min_value=1e-12, max_value=1e12))
    @settings(max_examples=50, deadline=None)
    def test_length_momentum_energy_round_trips(self, x):
        p = make_params()
        assert p.length_si(x) / p.length_si(1.0) == pytest.approx(x, rel=1e-12)
        assert p.energy_si(x) / (p.mass0 * 299792458.0**2) == pytest.approx(x, rel=1e-12)

    def test_r0_internal_conversion(self):
        p = make_params(r0=1.0)
        # 1 c/Omega in units of hbar/(m0 c) is 1/epsilon
        assert p.r0_internal() == pytest.approx(1.0 / p.epsilon, rel=1e-12)
