import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from qed_decoherence import cli
from qed_decoherence.config import (
    CONFIG_KEYS,
    DEFAULTS,
    build_params,
    parse_config_file,
    resolve,
)
from qed_decoherence.params import DomainError


def run_cli(*argv):
    return cli.main(list(argv))


def read_csv(path):
    comments, header, rows = [], None, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            comments.append(line)
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return comments, header, rows


class TestConfig:
    def test_defaults_mirror_worked_numbers(self):
        assert DEFAULTS["omega_cut_rad_s"] == 1e19
        assert DEFAULTS["temperature_K"] == 1.0
        assert DEFAULTS["delta_p_over_m0c"] == 0.1

    def test_parse_file(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text("# a comment\nalpha = 0.5\ntemperature_K = 300  # kelvin\n")
        vals = parse_config_file(f)
        assert vals == {"alpha": 0.5, "temperature_K": 300.0}

    def test_v0_auto(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text("v0_over_c = auto\n")
        assert parse_config_file(f) == {"v0_over_c": None}
        f.write_text("alpha = auto\n")
        with pytest.raises(DomainError, match="bad number 'auto'"):
            parse_config_file(f)

    @pytest.mark.parametrize("v0", [[], ["--v0-over-c", "0.05"]], ids=["auto", "set"])
    def test_provenance_header_is_a_config_file(self, v0, tmp_path):
        first, again, f = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "run.cfg"
        assert run_cli("scan", "--out", str(first), "--t-points", "3", "--alpha", "0.01",
                       "--temperature-K", "300", *v0) == 0
        provenance = [c[2:] for c in read_csv(first)[0] if c[2:].split(" = ")[0] in CONFIG_KEYS]
        assert len(provenance) == len(CONFIG_KEYS)
        f.write_text("\n".join(provenance) + "\n")
        assert run_cli("scan", "--config", str(f), "--out", str(again), "--t-points", "3") == 0
        assert again.read_text() == first.read_text()

    def test_unknown_key_rejected(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text("alhpa = 0.5\n")
        with pytest.raises(DomainError, match="unknown config key"):
            parse_config_file(f)

    def test_cli_overrides_beat_file(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text("alpha = 0.5\n")
        resolved = resolve(f, {"alpha": 2.0})
        assert resolved["alpha"] == 2.0

    def test_build_params_roundtrip(self):
        resolved = resolve(None, {"p0_over_m0c": 0.2, "temperature_K": 7.0})
        p = build_params(resolved)
        assert p.p0 == (0.2, 0.0, 0.0)
        assert p.temperature == 7.0


class TestScan:
    def test_columns_and_validity_flag(self, tmp_path):
        out = tmp_path / "scan.csv"
        assert run_cli("scan", "--out", str(out), "--t-points", "7") == 0
        comments, header, rows = read_csv(out)
        assert header == cli.SCAN_COLUMNS
        assert len(rows) == 7
        assert any(c.startswith("# alpha") for c in comments)
        # default grid reaches far past tau_d = 10/Omega: late rows flagged
        flags = [int(r[-1]) for r in rows]
        assert flags[0] == 1 and flags[-1] == 0

    def test_row_identities(self, tmp_path):
        out = tmp_path / "scan.csv"
        assert run_cli("scan", "--out", str(out), "--t-points", "9") == 0
        _, header, rows = read_csv(out)
        col = {name: i for i, name in enumerate(header)}
        for r in rows:
            gamma = float(r[col["gamma"]])
            assert gamma == pytest.approx(
                float(r[col["gamma_vac"]]) + float(r[col["gamma_th"]]), rel=1e-10)
            s_lin = float(r[col["s_lin"]])
            lp_over_dp = float(r[col["l_p"]]) / float(r[col["delta_p"]])
            assert s_lin == pytest.approx(1.0 - lp_over_dp, abs=1e-12)
        s_vals = [float(r[col["s_lin"]]) for r in rows]
        assert all(b >= a - 1e-15 for a, b in zip(s_vals, s_vals[1:]))

    def test_t0_like_first_row(self, tmp_path):
        out = tmp_path / "scan.csv"
        assert run_cli("scan", "--out", str(out), "--t-points", "3",
                       "--t-min-s", "1e-30", "--t-max-s", "1e-20") == 0
        _, header, rows = read_csv(out)
        col = {name: i for i, name in enumerate(header)}
        first = rows[0]
        assert abs(float(first[col["gamma"]])) < 1e-15
        assert float(first[col["s_lin"]]) < 1e-15
        assert float(first[col["l_p"]]) == pytest.approx(0.1, rel=1e-9)

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli("scan", "--out", str(a), "--t-points", "5")
        run_cli("scan", "--out", str(b), "--t-points", "5")
        assert a.read_text() == b.read_text()

    def test_config_file_flows_through(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text("temperature_K = 300\n")
        out = tmp_path / "scan.csv"
        assert run_cli("scan", "--config", str(f), "--out", str(out),
                       "--t-points", "3") == 0
        comments, _, _ = read_csv(out)
        assert any("temperature_K = 300.0" in c for c in comments)


class TestFigures:
    def test_fig1_grid(self, tmp_path):
        out = tmp_path / "fig1.csv"
        assert run_cli("figure", "fig1", "--out", str(out)) == 0
        _, header, rows = read_csv(out)
        assert header == ["t_s", "t_omega", "zeta", "gamma_vac_pp", "gamma_th_pp"]
        zetas = {r[2] for r in rows}
        assert len(zetas) == 5

    def test_fig2_monotone_decreasing_in_alpha_and_time(self, tmp_path):
        out = tmp_path / "fig2.csv"
        assert run_cli("figure", "fig2", "--out", str(out)) == 0
        _, header, rows = read_csv(out)
        data = {}
        for r in rows:
            data.setdefault(float(r[1]), []).append((float(r[0]), float(r[2])))
        alphas = sorted(data)
        for a in alphas:
            series = [v for _, v in sorted(data[a])]
            assert all(b <= a2 + 1e-15 for a2, b in zip(series, series[1:]))
        # larger alpha decays faster at fixed time
        t_fixed = sorted(data[alphas[0]])[90][0]
        vals = [dict(data[a])[t_fixed] for a in alphas]
        assert all(b < a2 for a2, b in zip(vals, vals[1:]))

    def test_fig3_peak_normalized_and_suppressed(self, tmp_path):
        out = tmp_path / "fig3.csv"
        assert run_cli("figure", "fig3", "--out", str(out)) == 0
        _, header, rows = read_csv(out)
        initial = {}
        late = {}
        for r in rows:
            key = (r[2], r[3])
            if r[0] == "initial":
                initial[key] = float(r[4])
            else:
                late[key] = float(r[4])
        assert max(initial.values()) == pytest.approx(1.0, rel=1e-9)
        # off-diagonal corner decays, diagonal does not
        center = min(initial, key=lambda k: abs(float(k[0])) + abs(float(k[1])))
        corner = min(initial, key=lambda k: abs(float(k[0]) - 0.1) + abs(float(k[1]) + 0.1))
        assert late[corner] < initial[corner]
        assert late[center] == pytest.approx(initial[center], rel=1e-9)

    def test_fig4_entropy_grid(self, tmp_path):
        out = tmp_path / "fig4.csv"
        assert run_cli("figure", "fig4", "--out", str(out)) == 0
        _, header, rows = read_csv(out)
        assert header == ["t_s", "t_omega", "alpha", "s_lin"]
        by_alpha = {}
        for r in rows:
            by_alpha.setdefault(float(r[2]), []).append(float(r[3]))
        for series in by_alpha.values():
            assert all(0.0 <= s < 1.0 for s in series)
            assert all(b >= a - 1e-15 for a, b in zip(series, series[1:]))

    def test_figure_defaults_yield_to_explicit_settings(self, tmp_path):
        # fig3's standard alpha applies only when the user did not set one
        out = tmp_path / "fig3.csv"
        assert run_cli("figure", "fig3", "--alpha", "200", "--out", str(out)) == 0
        comments, _, _ = read_csv(out)
        assert any("alpha = 200.0" in c for c in comments[:2])
        out1 = tmp_path / "fig1.csv"
        assert run_cli("figure", "fig1", "--temperature-K", "5", "--out", str(out1)) == 0
        comments, _, _ = read_csv(out1)
        assert any("temperature_K = 5.0" in c for c in comments[:2])

    @pytest.mark.parametrize("how", ["flag", "file", "neither"])
    def test_fig1_setting_equal_to_the_default_is_honoured(self, how, tmp_path):
        # temperature_K = 1.0 is the config default; set explicitly, it must
        # still beat fig1's standard 300 K
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("temperature_K = 1.0\n")
        extra = {"flag": ["--temperature-K", "1.0"], "file": ["--config", str(cfg_file)],
                 "neither": []}[how]
        out = tmp_path / "fig1.csv"
        assert run_cli("figure", "fig1", *extra, "--out", str(out)) == 0
        comments, _, _ = read_csv(out)
        expected = "temperature_K = 300.0," if how == "neither" else "temperature_K = 1.0,"
        assert expected in comments[1]

    def test_fig3_alpha_equal_to_the_default_is_honoured(self, tmp_path):
        # at the default alpha, 3 tau_vac overflows unless delta_p is large
        out = tmp_path / "fig3.csv"
        assert run_cli("figure", "fig3", "--alpha", repr(DEFAULTS["alpha"]),
                       "--delta-p-over-m0c", "1.0", "--out", str(out)) == 0
        comments, _, _ = read_csv(out)
        assert f"alpha = {DEFAULTS['alpha']!r}," in comments[1]

    def test_plot_script_sidecar(self, tmp_path):
        out = tmp_path / "fig4.csv"
        script = tmp_path / "plot.py"
        assert run_cli("figure", "fig4", "--out", str(out),
                       "--plot-script", str(script)) == 0
        assert "matplotlib" in script.read_text()

    def test_unknown_figure_is_usage_error(self):
        assert run_cli("figure", "fig9") == cli.EXIT_USAGE


class TestTimescales:
    def test_prints_table(self, capsys):
        assert run_cli("timescales") == 0
        text = capsys.readouterr().out
        assert "tau_F" in text and "tau_p" in text and "tau_vac" in text

    def test_csv_out(self, tmp_path):
        out = tmp_path / "ts.csv"
        assert run_cli("timescales", "--out", str(out)) == 0
        _, header, rows = read_csv(out)
        assert header == ["quantity", "seconds", "t_omega"]
        names = {r[0] for r in rows}
        assert any("tau_F" in n for n in names)


class TestVerify:
    def test_exit_zero_and_pass_lines(self, capsys):
        assert run_cli("verify") == 0
        text = capsys.readouterr().out
        assert text.count("PASS") >= 10
        assert "FAIL" not in text

    def test_exit_three_on_failure(self, capsys, monkeypatch):
        from qed_decoherence import decoherence as dec
        real = dec.log_sqrt_one_plus_sq
        monkeypatch.setattr(dec, "log_sqrt_one_plus_sq",
                            lambda tau: real(tau) * (1.0 + 1e-5))
        assert run_cli("verify") == cli.EXIT_VERIFY
        assert "FAIL" in capsys.readouterr().out

    def test_report_csv(self, tmp_path):
        out = tmp_path / "verify.csv"
        assert run_cli("verify", "--out", str(out)) == 0
        _, header, rows = read_csv(out)
        assert "passed" in header
        assert all(r[header.index("passed")] == "1" for r in rows)


class TestValidityWarning:
    @pytest.mark.parametrize("argv, count", [
        (("verify", "--delta-p-over-m0c", "0.5"), 0),   # delta_r ~ 0.04 c/Omega
        (("verify",), 1),
        (("figure", "fig1"), 1),
        (("figure", "fig3"), 1),
        (("figure", "fig4"), 1),
        (("scan",), 1),
    ])
    def test_warned_once_for_the_run_and_never_for_a_reference_set(self, argv, count, tmp_path):
        # the defaults sit in the DipoleValidityWarning band; the figure and
        # verify reference sets derived from them add no warning of their own
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli(*argv, "--out", str(tmp_path / "out.csv")) == 0
        assert len(caught) == count, [str(w.message) for w in caught]


class TestRho:
    def test_momentum_grid(self, tmp_path):
        out = tmp_path / "rho.csv"
        assert run_cli("rho", "--t-s", "1e-19", "--points", "7",
                       "--out", str(out)) == 0
        _, header, rows = read_csv(out)
        assert header[-3:] == ["re", "im", "abs"]
        assert len(rows) == 49

    @pytest.mark.parametrize("rep, t_s", [("p", "4.8e-5"), ("r", "1.1e-4")])
    def test_just_inside_the_phase_bound(self, rep, t_s, tmp_path):
        # at the defaults the grid phase reaches 1/eps rad (densmat.MAX_PHASE) at
        # t = 4.83e-5 s for --rep p and 1.17e-4 s for --rep r
        out = tmp_path / "rho.csv"
        assert run_cli("rho", "--rep", rep, "--t-s", t_s, "--points", "3",
                       "--out", str(out)) == 0
        _, _, rows = read_csv(out)
        assert len(rows) == 9

    def test_position_grid_hermitian(self, tmp_path):
        out = tmp_path / "rho.csv"
        assert run_cli("rho", "--rep", "r", "--t-s", "1e-19", "--points", "5",
                       "--out", str(out)) == 0
        _, header, rows = read_csv(out)
        vals = {(r[1], r[2]): complex(float(r[3]), float(r[4])) for r in rows}
        for (a, b), v in vals.items():
            assert v == pytest.approx(vals[(b, a)].conjugate(), rel=1e-9)


class TestExitCodes:
    def test_usage(self):
        assert run_cli("not-a-command") == cli.EXIT_USAGE

    def test_domain(self):
        assert run_cli("scan", "--temperature-K", "-3") == cli.EXIT_DOMAIN

    def test_fig3_overflowing_tau_vac_is_domain_error(self, tmp_path, capsys):
        # ln(tau_vac / s) = 1158: the decohered panel cannot be placed
        out = tmp_path / "fig3.csv"
        assert run_cli("figure", "fig3", "--alpha", "0.2", "--p0-over-m0c", "0.05",
                       "--delta-p-over-m0c", "0.14", "--out", str(out)) == cli.EXIT_DOMAIN
        assert "3 tau_vac overflows" in capsys.readouterr().err
        assert not out.exists()

    def test_fig3_overflowing_factors_are_domain_error(self, tmp_path, capsys):
        # 3 tau_vac = 5.9e298 s is finite, but Omega t = 5.9e317 overflows, and
        # with it Gamma and Phi
        out = tmp_path / "fig3.csv"
        with np.errstate(all="ignore"):
            assert run_cli("figure", "fig3", "--alpha", "0.645",
                           "--out", str(out)) == cli.EXIT_DOMAIN
        assert "the factors at 3 tau_vac" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("alpha", ["5", "1"])
    def test_fig3_at_weak_coupling_is_finite(self, alpha, tmp_path):
        # 3 tau_vac = 2e22 s (alpha 5) and 1e186 s (alpha 1): |Phi| dp^2 is far past
        # what the phases resolve, but fig3 writes |rho|, which does not depend on them
        out = tmp_path / "fig3.csv"
        assert run_cli("figure", "fig3", "--alpha", alpha, "--out", str(out)) == 0
        _, _, rows = read_csv(out)
        values = np.array([[float(v) for v in r[1:]] for r in rows])
        assert values.shape == (2 * 81**2, 4) and np.all(np.isfinite(values))
        assert values[-1, 0] > 1e22

    @pytest.mark.parametrize("argv", [
        ("scan", "--alpha", "nan", "--t-points", "3"),
        ("scan", "--temperature-K", "inf"),
        ("rho", "--t-s", "nan"),
    ])
    def test_non_finite_inputs(self, argv, tmp_path):
        out = tmp_path / "x.csv"
        assert run_cli(*argv, "--out", str(out)) == cli.EXIT_DOMAIN
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (("scan", "--t-min-s", "1e-20", "--t-max-s", "1e300", "--t-points", "3"),
         "column t_omega is not finite"),
        (("rho", "--rep", "r", "--t-s", "1e140", "--points", "3"),
         "column q_mc_over_hbar is not finite"),
        (("rho", "--t-s", "1e140", "--points", "3"), "phase of rho"),
        (("rho", "--t-s", "4.9e-5", "--points", "3"), "phase of rho"),
        (("rho", "--rep", "r", "--t-s", "1.2e-4", "--points", "3"), "phase of rho"),
    ])
    def test_late_time_overflow(self, argv, message, tmp_path, capsys):
        out = tmp_path / "x.csv"
        with np.errstate(all="ignore"):
            assert run_cli(*argv, "--out", str(out)) == cli.EXIT_DOMAIN
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_late_time_widths_are_finite(self, tmp_path):
        # the drift term of delta_r(t) squared overflows past t ~ 2e135 s at the
        # defaults; delta_r itself (~3e157 m at 1e150 s) does not
        out = tmp_path / "scan.csv"
        assert run_cli("scan", "--t-min-s", "1e-20", "--t-max-s", "1e150", "--t-points", "3",
                       "--out", str(out)) == 0
        _, header, rows = read_csv(out)
        widths = np.array([[float(r[header.index(c)]) for c in ("delta_r", "delta_r_free")]
                           for r in rows])
        assert np.all(np.isfinite(widths))
        assert widths[-1, 0] == pytest.approx(2.9978e157, rel=1e-4)

    @pytest.mark.parametrize("argv", [
        ("rho", "--rep", "r", "--t-s", "1e140", "--points", "3"),
        ("scan", "--t-max-s", "1e300"),
    ])
    def test_overflow_ends_in_the_domain_error_alone(self, argv):
        # a fresh interpreter, so numpy's floating-point warnings reach stderr
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        proc = subprocess.run([sys.executable, "-m", "qed_decoherence.cli", *argv],
                              capture_output=True, text=True, env=env, check=False)
        assert proc.returncode == cli.EXIT_DOMAIN
        assert "RuntimeWarning" not in proc.stderr
        assert proc.stderr.splitlines()[-1].startswith("domain error:")

    @pytest.mark.parametrize("flag, value", [
        ("--points", "0"), ("--points", "1"), ("--points", "-1"),
        ("--points", str(cli.RHO_MAX_POINTS + 1)),
        ("--span", "0"), ("--span", "-2"), ("--span", "nan"), ("--span", "inf"),
    ])
    def test_rho_grid_arguments(self, flag, value, monkeypatch, capsys):
        def no_grid(*args, **kwargs):
            raise AssertionError("a grid was built")
        monkeypatch.setattr(cli.np, "linspace", no_grid)
        assert run_cli("rho", "--t-s", "1e-19", flag, value) == cli.EXIT_DOMAIN
        err = capsys.readouterr().err
        assert flag.lstrip("-") in err
        if value == str(cli.RHO_MAX_POINTS + 1):
            assert f"[2, {cli.RHO_MAX_POINTS}]" in err

    def test_io(self):
        assert run_cli("scan", "--out", "/nonexistent-dir/x.csv",
                       "--t-points", "2") == cli.EXIT_IO
