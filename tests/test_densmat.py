import cmath
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qed_decoherence import densmat
from qed_decoherence.decoherence import DecoherenceFactors
from qed_decoherence.densmat import (
    MAX_PHASE,
    GaussianPacket,
    mean_displacement,
    rho_p_matrix,
    rho_r_matrix,
    width_t,
    z_factor,
)
from qed_decoherence.oracle import fig3_time
from qed_decoherence.params import DomainError

from conftest import make_params
from reference import rho_p, rho_p_initial, rho_r, rho_r_initial


def packet_1d(p0=0.1, dp=0.1, r0=0.0):
    return GaussianPacket(p0=p0, delta_p=dp, r0=r0)


def factors_at(params, tau):
    return DecoherenceFactors.at_time(params, params.seconds(tau))


class TestInitialPacket:
    def test_peak_is_norm(self):
        pk = packet_1d()
        assert rho_p_initial(0.1, 0.1, pk) == pytest.approx(pk.norm)

    def test_hermiticity(self):
        pk = packet_1d(r0=3.0)
        a = rho_p_initial(0.3, -0.2, pk)
        b = rho_p_initial(-0.2, 0.3, pk)
        assert a == pytest.approx(b.conjugate(), rel=1e-14)

    def test_momentum_trace_is_one(self):
        pk = packet_1d()
        grid = np.linspace(0.1 - 8 * 0.1, 0.1 + 8 * 0.1, 4001)
        diag = np.array([rho_p_initial(p, p, pk).real for p in grid])
        assert np.trapezoid(diag, grid) == pytest.approx(1.0, abs=1e-10)

    def test_position_trace_is_one(self):
        pk = packet_1d(p0=0.0)
        dr = pk.delta_r
        grid = np.linspace(-8 * dr, 8 * dr, 4001)
        diag = np.array([rho_r_initial(q, q, pk).real for q in grid])
        assert np.trapezoid(diag, grid) == pytest.approx(1.0, abs=1e-8)

    def test_position_peak_value(self):
        pk = packet_1d(p0=0.0)
        expected = pk.norm * (pk.delta_p / pk.delta_r)
        assert rho_r_initial(0.0, 0.0, pk) == pytest.approx(expected)

    def test_width_product(self):
        pk = packet_1d(dp=0.37)
        assert pk.delta_r * pk.delta_p == pytest.approx(1.5, rel=1e-14)


class TestRhoP:
    def test_reduces_to_initial_at_t0(self, default_params):
        pk = packet_1d()
        f0 = DecoherenceFactors.at_time(default_params, 0.0)
        for a, b in [(0.1, 0.1), (0.3, -0.1), (0.0, 0.25)]:
            assert rho_p(a, b, pk, f0) == pytest.approx(rho_p_initial(a, b, pk), rel=1e-14)

    def test_diagonal_constant_in_time(self, default_params):
        # momentum is the pointer basis: populations never move
        pk = packet_1d()
        for tau in (1.0, 1e3, 1e6):
            f = factors_at(default_params, tau)
            assert rho_p(0.23, 0.23, pk, f) == pytest.approx(
                rho_p_initial(0.23, 0.23, pk), rel=1e-14)

    @given(st.floats(min_value=-0.5, max_value=0.5),
           st.floats(min_value=-0.5, max_value=0.5),
           st.floats(min_value=1e-2, max_value=1e5))
    @settings(max_examples=60, deadline=None)
    def test_hermiticity_all_times(self, a, b, tau):
        p = make_params()
        pk = packet_1d(r0=2.0)
        f = factors_at(p, tau)
        assert cmath.isclose(rho_p(a, b, pk, f), rho_p(b, a, pk, f).conjugate(),
                             rel_tol=1e-12, abs_tol=1e-300)

    @given(st.floats(min_value=-0.5, max_value=0.5),
           st.floats(min_value=-0.5, max_value=0.5),
           st.floats(min_value=1e-2, max_value=1e5))
    @settings(max_examples=60, deadline=None)
    def test_cauchy_schwarz_and_positive_diagonal(self, a, b, tau):
        p = make_params()
        pk = packet_1d()
        f = factors_at(p, tau)
        lhs = abs(rho_p(a, b, pk, f))
        da = rho_p(a, a, pk, f)
        db = rho_p(b, b, pk, f)
        assert da.real > 0.0 and da.imag == 0.0
        assert lhs <= math.sqrt(da.real * db.real) * (1.0 + 1e-12)

    def test_late_time_exponential_decay_rate(self):
        # |rho(t)/rho(0)| -> exp[-(2a/3pi)(dp)^2 (t/tau_F)] for t >> tau_F
        p = make_params()
        pk = packet_1d()
        du = 0.2
        x = 1e3  # t/tau_F
        t = x * 2.4313249424140627e-12
        f = DecoherenceFactors.at_time(p, t)
        ratio = abs(rho_p(0.1 + du / 2, 0.1 - du / 2, pk, f)) / abs(
            rho_p_initial(0.1 + du / 2, 0.1 - du / 2, pk))
        predicted = math.exp(-2 * p.alpha / (3 * math.pi) * du**2 * x)
        # the ln(2x) and ln(Omega t) corrections shift the rate at the per-mille level
        assert math.log(ratio) == pytest.approx(math.log(predicted), rel=5e-2)

    def test_quadratic_small_time_expansion(self, default_params):
        p = default_params
        pk = packet_1d()
        tau = 1e-3
        f = factors_at(p, tau)
        du = 0.3
        ratio = abs(rho_p(0.1 + du / 2, 0.1 - du / 2, pk, f)) / abs(
            rho_p_initial(0.1 + du / 2, 0.1 - du / 2, pk))
        zeta = 2 * p.alpha / (3 * math.pi) * du**2
        assert ratio == pytest.approx(1.0 - zeta * tau**2 / 2.0, rel=1e-8)


class TestRhoR:
    def test_reduces_to_initial_at_t0(self):
        pk = packet_1d(p0=0.2)
        f0 = DecoherenceFactors.at_time(make_params(), 0.0)
        for a, b in [(0.0, 0.0), (5.0, -3.0), (1.0, 1.0)]:
            assert rho_r(a, b, pk, f0) == pytest.approx(rho_r_initial(a, b, pk), rel=1e-13)

    def test_z_factor_at_t0_is_one(self):
        pk = packet_1d()
        f0 = DecoherenceFactors.at_time(make_params(), 0.0)
        assert z_factor(pk, f0) == 1.0
        assert width_t(pk, f0) == pytest.approx(pk.delta_r)

    def test_free_evolution_gaussian_center_and_width(self):
        # alpha = 0: packet drifts at p0/m0 and spreads like the free solution
        p = make_params(alpha=0.0, p0=0.2)
        pk = GaussianPacket.from_params(p)
        tau = 500.0
        t_int = tau / p.epsilon
        f = factors_at(p, tau)
        center = mean_displacement(pk, f)
        assert center == pytest.approx(0.2 * t_int, rel=1e-12)
        w = width_t(pk, f)
        expected = pk.delta_r * math.sqrt(1 + (pk.delta_p * t_int) ** 2 / pk.delta_r**2)
        assert w == pytest.approx(expected, rel=1e-12)
        # diagonal is a normalized gaussian centered there
        val = rho_r(center, center, pk, f)
        assert abs(val) == pytest.approx(pk.norm * pk.delta_p / w, rel=1e-12)

    def test_hermiticity(self, default_params):
        pk = packet_1d(p0=0.1, r0=1.0)
        f = factors_at(default_params, 100.0)
        a, b = 4.0, -7.0
        assert cmath.isclose(rho_r(a, b, pk, f), rho_r(b, a, pk, f).conjugate(),
                             rel_tol=1e-12)

    def test_position_trace_is_one_at_late_time(self, fig3_params):
        pk = GaussianPacket.from_params(fig3_params)
        f = DecoherenceFactors.at_time(fig3_params, fig3_time(fig3_params))
        w = width_t(pk, f)
        grid = np.linspace(-8 * w / math.sqrt(3), 8 * w / math.sqrt(3), 4001)
        m = rho_r_matrix(grid, pk, f)
        assert np.trapezoid(np.real(np.diagonal(m)), grid) == pytest.approx(1.0, abs=1e-8)

    def test_matrix_matches_scalar_elements(self, fig3_params):
        pk = GaussianPacket.from_params(fig3_params)
        f = DecoherenceFactors.at_time(fig3_params, fig3_time(fig3_params))
        grid = np.linspace(-20.0, 20.0, 5)
        m = rho_r_matrix(grid, pk, f)
        for i, a in enumerate(grid):
            for j, b in enumerate(grid):
                assert m[i, j] == pytest.approx(rho_r(a, b, pk, f), rel=1e-12)


class TestFactoredGrids:
    """The grids are built in factored form; the scalar element functions of
    tests/reference.py, which evaluate the closed forms term by term, are the
    references."""

    @pytest.mark.parametrize("label", ["t=0", "t=3tau_vac"])
    def test_momentum_matrix_matches_scalar_elements(self, fig3_params, label):
        pk = GaussianPacket.from_params(fig3_params)
        t = 0.0 if label == "t=0" else fig3_time(fig3_params)
        f = DecoherenceFactors.at_time(fig3_params, t)
        grid = np.linspace(-6 * pk.delta_p, 6 * pk.delta_p, 7)
        m = rho_p_matrix(grid, pk, f)
        for i, a in enumerate(grid):
            for j, b in enumerate(grid):
                assert m[i, j] == pytest.approx(rho_p(a, b, pk, f), rel=1e-12)

    def test_drifting_packet_matches_scalar_elements(self, default_params):
        # p0 and r0 both nonzero exercise the linear phase terms of both grids
        pk = packet_1d(p0=0.1, r0=3.0)
        f = factors_at(default_params, 5.0)
        p_grid = np.linspace(0.1 - 0.5, 0.1 + 0.5, 6)
        q_grid = np.linspace(-40.0, 40.0, 6)
        m_p = rho_p_matrix(p_grid, pk, f)
        m_r = rho_r_matrix(q_grid, pk, f)
        for i in range(6):
            for j in range(6):
                assert m_p[i, j] == pytest.approx(rho_p(p_grid[i], p_grid[j], pk, f), rel=1e-12)
                assert m_r[i, j] == pytest.approx(rho_r(q_grid[i], q_grid[j], pk, f), rel=1e-12)

    def test_large_gamma_grids_finite_and_hermitian(self):
        # Gamma (12 dp)^2 = 1.4e7: far past exp overflow if the kernel were
        # ever split into exp(2 Gamma p p') outer products
        pk = packet_1d(p0=0.1, r0=2.0)
        gamma = 1e5 / pk.delta_p**2
        f = DecoherenceFactors(t=1e6, gamma_vac=gamma, gamma_th=0.0, gamma=gamma, phi=-3e4)
        assert gamma * (12 * pk.delta_p) ** 2 > 1e4 * 709
        f0 = DecoherenceFactors.at_time(make_params(), 0.0)
        p_grid = np.linspace(0.1 - 6 * pk.delta_p, 0.1 + 6 * pk.delta_p, 101)
        q_grid = np.linspace(-6.0, 6.0, 101) * width_t(pk, f)
        for m in (rho_p_matrix(p_grid, pk, f), rho_r_matrix(q_grid, pk, f)):
            assert np.all(np.isfinite(m))
            peak = np.max(np.abs(m))
            assert np.max(np.abs(m - m.conj().T)) <= 1e-15 * peak
            assert np.all(np.diagonal(m).imag == 0.0)
        # populations do not move; the coherences are gone
        m_p = rho_p_matrix(p_grid, pk, f)
        np.testing.assert_allclose(np.diagonal(m_p).real,
                                   np.diagonal(rho_p_matrix(p_grid, pk, f0)).real, rtol=1e-14)
        assert m_p[0, -1] == 0.0


    def test_phase_bound_is_opt_in(self):
        # |Phi| p^2 ~ 1e18 rad: the phases carry no digits, |rho| = N M_ij still does
        pk = packet_1d(p0=0.1)
        gamma = 50.0
        f = DecoherenceFactors(t=1e20, gamma_vac=gamma, gamma_th=0.0, gamma=gamma, phi=-1e20)
        f_no_phase = DecoherenceFactors(t=1e20, gamma_vac=gamma, gamma_th=0.0, gamma=gamma,
                                        phi=0.0)
        grid = np.linspace(0.1 - 4 * pk.delta_p, 0.1 + 4 * pk.delta_p, 9)
        np.testing.assert_allclose(np.abs(rho_p_matrix(grid, pk, f)),
                                   np.abs(rho_p_matrix(grid, pk, f_no_phase)), rtol=1e-14)
        with pytest.raises(DomainError, match="phase of rho"):
            rho_p_matrix(grid, pk, f, MAX_PHASE)
        with pytest.raises(DomainError, match="phase of rho"):
            rho_r_matrix(np.linspace(-1.0, 1.0, 5), pk, f, MAX_PHASE)


def _unblocked_grid(x, norm, a, c, g, phase2, phase1, max_phase):
    """The whole-matrix build of _factored_grid: all of M as one (N, N) float
    array, then the complex outer product of v times it."""
    u = x - c
    env = a * u**2
    m = np.subtract.outer(x, x)
    np.square(m, out=m)
    m *= g
    np.subtract(-env[:, None], m, out=m)
    m -= env[None, :]
    np.exp(m, out=m)
    theta = u * (phase2 * u + (2.0 * phase2 * c + phase1))
    assert np.max(np.abs(theta)) <= max_phase
    w = math.sqrt(norm) * np.exp(1j * theta)
    out = np.multiply.outer(w, w.conj())
    out *= m
    np.fill_diagonal(out.imag, 0.0)
    return out


# the largest N whose grid is built as one block of rows; BLOCK + 1 takes two
BLOCK = math.isqrt(densmat._BLOCK_BYTES // 24)


class TestBlockedGrid:
    """The grids are built a block of rows at a time; every element must carry
    the bits of the whole-matrix build."""

    def test_block_boundary(self):
        assert densmat._block_rows(BLOCK) >= BLOCK > densmat._block_rows(BLOCK + 1)
        assert densmat._block_rows(1024) < 1024

    @staticmethod
    def _cases():
        stationary = packet_1d(p0=0.0, dp=0.1)
        drifting = packet_1d(p0=0.05, dp=0.1, r0=3.0)
        gamma = 1e7 / (12 * 0.1) ** 2     # Gamma (12 dp)^2 = 1e7
        params = make_params()
        return {
            "stationary t=0": (stationary, factors_at(params, 0.0)),
            "drifting t=5": (drifting, factors_at(params, 5.0)),
            "drifting large gamma": (drifting, DecoherenceFactors(
                t=1e6, gamma_vac=gamma, gamma_th=0.0, gamma=gamma, phi=-3e4)),
        }

    @pytest.mark.parametrize("n", [2, BLOCK - 1, BLOCK, BLOCK + 1, 201, 1024])
    @pytest.mark.parametrize("case", ["stationary t=0", "drifting t=5", "drifting large gamma"])
    def test_bits_equal_whole_matrix_build(self, monkeypatch, n, case):
        pk, f = self._cases()[case]
        calls = []
        build = densmat._factored_grid

        def recording(*args):
            calls.append(args[:8])  # the grid arguments, not each_block
            return build(*args)

        monkeypatch.setattr(densmat, "_factored_grid", recording)
        p_grid = np.linspace(pk.p0 - 6 * pk.delta_p, pk.p0 + 6 * pk.delta_p, n)
        q_grid = mean_displacement(pk, f) + np.linspace(-6.0, 6.0, n) * width_t(pk, f)
        got = [rho_p_matrix(p_grid, pk, f, MAX_PHASE), rho_r_matrix(q_grid, pk, f)]
        for m, args in zip(got, calls, strict=True):
            assert np.array_equal(m.view(np.uint64), _unblocked_grid(*args).view(np.uint64))

    @pytest.mark.parametrize("n", [2, BLOCK - 1, BLOCK, BLOCK + 1, 201, 1024])
    @pytest.mark.parametrize("case", ["stationary t=0", "drifting t=5", "drifting large gamma"])
    def test_each_block_is_its_rows_of_the_matrix(self, n, case):
        pk, f = self._cases()[case]
        p_grid = np.linspace(pk.p0 - 6 * pk.delta_p, pk.p0 + 6 * pk.delta_p, n)
        whole = rho_p_matrix(p_grid, pk, f, MAX_PHASE)
        blocks = []
        # rows are one reused buffer: keep a copy of each block as it is passed
        assert rho_p_matrix(p_grid, pk, f, MAX_PHASE, each_block=lambda lo, hi, rows:
                            blocks.append((lo, hi, rows.copy()))) is None
        covered = 0
        for lo, hi, rows in blocks:
            assert lo == covered and rows.shape == (hi - lo, n)
            assert np.array_equal(rows.view(np.uint64), whole[lo:hi].view(np.uint64))
            assert np.all(np.diagonal(rows[:, lo:hi]).imag == 0.0)
            covered = hi
        assert covered == n

    def test_peak_memory_is_the_result(self):
        pk = packet_1d(p0=0.05, r0=3.0)
        f = factors_at(make_params(), 5.0)
        grid = np.linspace(pk.p0 - 6 * pk.delta_p, pk.p0 + 6 * pk.delta_p, 1024)
        tracemalloc.start()
        try:
            m = rho_p_matrix(grid, pk, f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * m.nbytes

    def test_phase_bound_fails_before_the_grid_is_allocated(self):
        pk = packet_1d(p0=0.1)
        f = DecoherenceFactors(t=1e20, gamma_vac=50.0, gamma_th=0.0, gamma=50.0, phi=-1e20)
        grid = np.linspace(0.1 - 4 * pk.delta_p, 0.1 + 4 * pk.delta_p, 1024)
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match="phase of rho"):
                rho_p_matrix(grid, pk, f, MAX_PHASE)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1024 * 1024 * 8

    def test_phase_bound_fails_on_the_block_path_before_a_buffer_is_allocated(self):
        # the bound is checked before the first block; one block's buffers are
        # about _BLOCK_BYTES (1 MiB) at N = 1024
        pk = packet_1d(p0=0.1)
        f = DecoherenceFactors(t=1e20, gamma_vac=50.0, gamma_th=0.0, gamma=50.0, phi=-1e20)
        grid = np.linspace(0.1 - 4 * pk.delta_p, 0.1 + 4 * pk.delta_p, 1024)
        blocks = []
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match="phase of rho"):
                rho_p_matrix(grid, pk, f, MAX_PHASE, each_block=blocks.append)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < densmat._BLOCK_BYTES // 4 and not blocks


class TestFigureThreeProperty:
    def test_off_diagonal_suppression_at_3tau_vac(self, fig3_params):
        # normalized |rho| at (dp, -dp) must drop strictly below its t=0 value
        pk = GaussianPacket.from_params(fig3_params)
        dp = pk.delta_p
        f0 = DecoherenceFactors.at_time(fig3_params, 0.0)
        f1 = DecoherenceFactors.at_time(fig3_params, fig3_time(fig3_params))
        r0 = abs(rho_p(dp, -dp, pk, f0)) / abs(rho_p(0.0, 0.0, pk, f0))
        r1 = abs(rho_p(dp, -dp, pk, f1)) / abs(rho_p(0.0, 0.0, pk, f1))
        assert r1 < r0
        # and the suppression is the decoherence exponent exactly
        assert r1 / r0 == pytest.approx(math.exp(-f1.gamma * (2 * dp) ** 2), rel=1e-12)

    def test_anti_diagonal_width_below_diagonal_width(self, fig3_params):
        from qed_decoherence.observables import snapshot

        s = snapshot(fig3_params, fig3_time(fig3_params))
        assert s.l_p < s.delta_p_t
