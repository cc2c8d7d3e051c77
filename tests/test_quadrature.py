import math

import mpmath as mp
import numpy as np
import pytest

from qed_decoherence.oracle import _omc_head, _phase_head
from qed_decoherence.quadrature import (
    QuadratureError,
    QuadratureSpec,
    QuadResult,
    adaptive,
    kronrod_panel,
    oscillatory,
    trapezoid_weights,
    wynn_epsilon,
)

SPEC = QuadratureSpec()


class TestKronrodPanel:
    def test_exact_on_low_degree_polynomials(self):
        # K15 integrates degree <= 22 exactly
        v, e = kronrod_panel(lambda x: 3 * x**2, 0.0, 2.0)
        assert v == pytest.approx(8.0, rel=1e-14)
        v, e = kronrod_panel(lambda x: x**9 - x, -1.0, 3.0)
        assert v == pytest.approx(3**10 / 10 - 1 / 10 - (3**2 / 2 - 1 / 2), rel=1e-13)

    def test_error_estimate_bounds_true_error(self):
        v, e = kronrod_panel(np.exp, 0.0, 1.0)
        assert abs(v - (math.e - 1.0)) <= max(e, 1e-15)

    @pytest.mark.parametrize("n", [1, 2, 7, 40])
    def test_array_form_equals_scalar_form_panel_by_panel(self, n):
        f = lambda w: np.exp(-w) * np.sin(3.0 * w) / (1.0 + w)
        lo = np.geomspace(1e-3, 40.0, n)
        hi = lo * 1.3 + 1e-4
        vals, errs = kronrod_panel(f, lo, hi)
        assert vals.shape == errs.shape == (n,)
        for k in range(n):
            v, e = kronrod_panel(f, lo[k], hi[k])
            assert (vals[k], errs[k]) == (v, e)

    def test_array_form_calls_integrand_once_on_flat_nodes(self):
        seen = []
        f = lambda w: seen.append(w.shape) or np.cos(w)
        kronrod_panel(f, np.array([0.0, 1.0, 2.0]), np.array([1.0, 2.0, 3.0]))
        assert seen == [(45,)]


class TestAdaptive:
    def test_exponential(self):
        r = adaptive(np.exp, 0.0, 5.0, SPEC)
        assert r.value == pytest.approx(math.e**5 - 1.0, rel=1e-12)
        assert r.error <= 1e-8 * r.value

    def test_against_mpmath_on_awkward_integrand(self):
        # steep 1/w envelope over four decades
        f = lambda w: np.exp(-w) / w
        r = adaptive(f, 1e-4, 50.0, SPEC, breakpoints=(1e-3, 1e-2, 0.1, 1.0, 10.0))
        ref = float(mp.quad(lambda w: mp.e ** (-w) / w, [1e-4, 1e-2, 1.0, 50.0]))
        assert r.value == pytest.approx(ref, rel=1e-11)

    def test_breakpoints_catch_narrow_feature(self):
        # spike of width 1e-6 at w = 1e-5 inside [0, 50]
        f = lambda w: np.exp(-((w - 1e-5) ** 2) / (2e-12))
        r = adaptive(f, 0.0, 50.0, SPEC, breakpoints=(1e-6, 1e-5, 1e-4, 1e-3))
        exact = math.sqrt(2 * math.pi * 1e-12)
        assert r.value == pytest.approx(exact, rel=1e-9)

    def test_panel_budget_error_is_diagnostic(self):
        tight = QuadratureSpec(rel_tol=1e-10, abs_tol=1e-16, max_subdivisions=3)
        with pytest.raises(QuadratureError, match="panels"):
            adaptive(lambda w: np.sin(50.0 * w) ** 2 / (1e-300 + w), 1e-8, 50.0, tight)

    def test_tighter_tolerance_reduces_error(self):
        # convergence monotonicity on a smooth integrand
        f = lambda w: np.exp(-w) * (1 - np.cos(3.0 * w)) / w
        exact = 0.5 * math.log(10.0)  # ln sqrt(1 + 9)
        loose = adaptive(f, 1e-9, 50.0, QuadratureSpec(rel_tol=1e-4, abs_tol=1e-8))
        tight = adaptive(f, 1e-9, 50.0, QuadratureSpec(rel_tol=1e-12, abs_tol=1e-16))
        assert abs(tight.value - exact) <= abs(loose.value - exact)
        assert abs(tight.value - exact) <= 1e-10 * exact

    def test_deterministic(self):
        f = lambda w: np.exp(-w) * np.cos(7.0 * w)
        a = adaptive(f, 0.0, 50.0, SPEC)
        b = adaptive(f, 0.0, 50.0, SPEC)
        assert a.value == b.value and a.panels == b.panels

    def test_panel_counts_fixed(self):
        # batched panel evaluation leaves the refinement path alone: these
        # are the counts of the one-panel-per-call implementation
        cases = [
            (lambda w: np.exp(-w) * (1 - np.cos(3.0 * w)) / w, 1e-9, 50.0,
             QuadratureSpec(rel_tol=1e-12, abs_tol=1e-16), (), 31),
            (lambda w: np.exp(-w) * np.cos(7.0 * w), 0.0, 50.0, SPEC, (), 77),
            (lambda w: np.exp(-w) / w, 1e-4, 50.0, SPEC, (1e-3, 1e-2, 0.1, 1.0, 10.0), 40),
            (lambda w: np.exp(-((w - 1e-5) ** 2) / (2e-12)), 0.0, 50.0, SPEC,
             (1e-6, 1e-5, 1e-4, 1e-3), 21),
        ]
        for f, a, b, spec, brk, panels in cases:
            assert adaptive(f, a, b, spec, breakpoints=brk).panels == panels


class TestWynnEpsilon:
    def test_alternating_log_series(self):
        # sum (-1)^{k+1}/k = ln 2; partial sums converge like 1/n
        sums = np.cumsum([(-1) ** (k + 1) / k for k in range(1, 31)])
        limit, err = wynn_epsilon(sums)
        assert limit == pytest.approx(math.log(2.0), abs=1e-12)

    def test_geometric(self):
        sums = np.cumsum([0.7**k for k in range(25)])
        limit, _ = wynn_epsilon(sums)
        assert limit == pytest.approx(1.0 / 0.3, rel=1e-12)

    def test_short_sequences_fall_back(self):
        limit, err = wynn_epsilon([2.0])
        assert limit == 2.0


class TestOscillatory:
    def test_laplace_cosine(self):
        # int_0^inf e^-w cos(w tau) dw = 1/(1+tau^2)
        tau = 300.0
        r = oscillatory(lambda w: np.exp(-w), tau, 0.0, 50.0, np.cos, SPEC)
        assert r.value == pytest.approx(1.0 / (1.0 + tau**2), abs=1e-12)

    def test_sine_with_one_over_w(self):
        # int_a^inf e^-w sin(w tau)/w dw for large tau approaches pi/2
        tau = 1e5
        a = 20.0 * math.pi / tau
        r = oscillatory(lambda w: np.exp(-w) / w, tau, a, 50.0, np.sin, SPEC)
        ref = float(mp.quadosc(
            lambda w: mp.e ** (-w) * mp.sin(w * tau) / w,
            [a, mp.inf], period=2 * mp.pi / tau))
        assert r.value == pytest.approx(ref, abs=1e-9)

    def test_short_interval_delegates_to_adaptive(self):
        r = oscillatory(lambda w: np.exp(-w), 0.5, 0.0, 1.0, np.cos, SPEC)
        ref = float(mp.quad(lambda w: mp.e ** (-w) * mp.cos(0.5 * w), [0, 1]))
        assert r.value == pytest.approx(ref, rel=1e-10)


def _one_panel_per_step(g, tau, a, b, trig, spec):
    """oscillatory as a loop that evaluates one half period per kronrod_panel call."""
    f = lambda w: g(w) * trig(w * tau)
    h = math.pi / tau
    if (b - a) <= 2.0 * h:
        return adaptive(f, a, b, spec)
    sums = []
    total = 0.0
    err_last = math.inf
    extrapolated = prev_extrap = None
    stable = 0
    lo = a
    for k in range(spec.max_cycles):
        hi = min(lo + h, b)
        v, e = kronrod_panel(f, lo, hi)
        total += v
        sums.append(total)
        lo = hi
        if len(sums) >= 8 and k % 2 == 1:
            est, err = wynn_epsilon(sums[-64:])
            if prev_extrap is not None:
                drift = abs(est - prev_extrap)
                scale = max(abs(est), spec.abs_tol)
                if (drift <= max(spec.abs_tol, 0.1 * spec.rel_tol * scale)
                        and err <= max(spec.abs_tol, spec.rel_tol * scale)):
                    stable += 1
                    if stable >= 2:
                        return QuadResult(est, err + drift, k + 1)
                else:
                    stable = 0
            prev_extrap = est
            extrapolated, err_last = est, err
        if lo >= b:
            return QuadResult(total, abs(v) + e, k + 1)
    if extrapolated is not None and err_last < 1e-6 * max(abs(extrapolated), 1.0):
        return QuadResult(extrapolated, err_last, spec.max_cycles, converged=False)
    raise QuadratureError(f"{spec.max_cycles} cycles")


def _bits(r):
    return (r.value.hex(), r.error.hex(), r.panels, r.converged)


# the oracle's envelopes: Gamma_vac, photon number and phase; cloud energy; thermal
ENVELOPES = {
    "exp/w": lambda w: np.exp(-w) / w,
    "exp": lambda w: np.exp(-w),
    "thermal": lambda w: np.exp(-w) * (1.0 / np.tanh(18.5 * w) - 1.0) / w,
}
# tau of the frequency oracles' bit-identity set
ORACLE_TAUS = sorted({*np.geomspace(1e-3, 1e6, 29).tolist(), 0.37, 3.0, 30.0, 1e3, 1e4})


class TestOscillatoryBlocks:
    """oscillatory evaluates half periods a block at a time; value, error,
    panels and convergence must be those of one panel per call."""

    @pytest.mark.parametrize("trig", [np.cos, np.sin], ids=["cos", "sin"])
    @pytest.mark.parametrize("envelope", sorted(ENVELOPES))
    def test_oracle_inputs(self, envelope, trig):
        g = ENVELOPES[envelope]
        for tau in ORACLE_TAUS:
            a = min(1.0, 20.0 * math.pi / tau)
            got = oscillatory(g, tau, a, 50.0, trig, SPEC)
            assert _bits(got) == _bits(_one_panel_per_step(g, tau, a, 50.0, trig, SPEC)), tau

    @pytest.mark.parametrize("half_periods", [7.5, 16.0, 16.5, 37.3])
    def test_interval_runs_out_first(self, half_periods):
        # a rough envelope that the epsilon table never settles on
        tau = 100.0
        g = lambda w: np.abs(np.sin(7.3 * w * tau))
        b = 1.0 + half_periods * math.pi / tau
        got = oscillatory(g, tau, 1.0, b, np.cos, SPEC)
        assert got.panels == math.ceil(half_periods)
        assert _bits(got) == _bits(_one_panel_per_step(g, tau, 1.0, b, np.cos, SPEC))

    @pytest.mark.parametrize("max_cycles", [9, 16, 17])
    def test_cycle_budget_runs_out_first(self, max_cycles):
        spec = QuadratureSpec(max_cycles=max_cycles)
        g = np.sqrt
        got = oscillatory(g, 100.0, 1e-3, 50.0, np.sin, spec)
        assert (got.converged, got.panels) == (False, max_cycles)
        assert _bits(got) == _bits(_one_panel_per_step(g, 100.0, 1e-3, 50.0, np.sin, spec))

    def test_unconverged_error_after_the_cycle_budget(self):
        spec = QuadratureSpec(max_cycles=37)
        g = lambda w: np.abs(np.sin(730.0 * w))
        with pytest.raises(QuadratureError):
            _one_panel_per_step(g, 100.0, 1.0, 50.0, np.sin, spec)
        with pytest.raises(QuadratureError, match="did not stabilize after 37 cycles"):
            oscillatory(g, 100.0, 1.0, 50.0, np.sin, spec)


class TestSmallOmegaSeries:
    """The oracle's head series on [0, ell], checked in isolation against 30-digit
    quadrature of the raw integrands (references frozen from mpmath)."""

    def test_vac(self):
        # tau = 0.37, ell = 1e-6
        ref = 3.4224977183341694e-14
        assert _omc_head(1e-6, 0.37, math.inf, True) == pytest.approx(ref, rel=1e-9)

    def test_phase(self):
        ref = 2.8140534450147215e-21
        assert _phase_head(1e-6, 0.37) == pytest.approx(ref, rel=1e-9)

    def test_thermal(self):
        # theta = 1e4, ell = 1e-10
        ref = 1.368999646908151e-15
        assert _omc_head(1e-10, 0.37, 1e4, False) == pytest.approx(ref, rel=1e-9)

    def test_total_is_vac_plus_thermal(self):
        tot = _omc_head(1e-10, 0.37, 1e4, True)
        parts = _omc_head(1e-10, 0.37, math.inf, True) + _omc_head(1e-10, 0.37, 1e4, False)
        assert tot == pytest.approx(parts, rel=1e-14)


class TestQuadResult:
    def test_minus_one_times_negates_the_value_alone(self):
        r = QuadResult(0.3, 2e-12, 7, tail_bound=1e-20, converged=False)
        assert -1.0 * r == QuadResult(r.value * -1.0, r.error, r.panels, r.tail_bound,
                                      r.converged)

    @pytest.mark.parametrize("c", [2.5, -3.0, 0.0])
    def test_scaling_takes_the_bounds_by_magnitude(self, c):
        r = QuadResult(-0.7, 3e-11, 12, tail_bound=4e-19)
        assert c * r == QuadResult(c * -0.7, abs(c) * 3e-11, 12, abs(c) * 4e-19, True)


def test_trapezoid_weights_integrate_linear_exactly():
    g = np.array([0.0, 0.5, 2.0, 3.0])
    w = trapezoid_weights(g)
    assert float(w @ (2 * g + 1)) == pytest.approx(np.trapezoid(2 * g + 1, g), rel=1e-15)
