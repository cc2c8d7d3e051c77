import csv
import math
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
from qed_decoherence.constants import ELECTRON_MASS, FINE_STRUCTURE
from qed_decoherence.params import DipoleValidityWarning, DomainError, ModelParams


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


def csv_records(path):
    """Header and rows of a written CSV, parsed by csv.reader past its # comments."""
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(line for line in fh if not line.startswith("#")))


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
        f, out = tmp_path / "run.cfg", tmp_path / "scan.csv"
        f.write_text("alpha = 0.5\ntemperature_K = 7.0\n")
        assert run_cli("scan", "--config", str(f), "--alpha", "2.0", "--t-points", "3",
                       "--out", str(out)) == 0
        comments, _, _ = read_csv(out)
        assert "# alpha = 2.0" in comments and "# temperature_K = 7.0" in comments

    def test_layers_preset_beats_defaults_and_overrides_beat_preset(self):
        preset = {"alpha": 150.0, "p0_over_m0c": 0.0}
        assert resolve(preset) == DEFAULTS | preset
        assert resolve(preset, {"alpha": 2.0}) == DEFAULTS | preset | {"alpha": 2.0}
        assert resolve(None, {"temperature_K": 0}) == DEFAULTS | {"temperature_K": 0.0}

    @pytest.mark.parametrize("preset, overrides", [
        (None, None), ({}, {}), (None, {"alpha": None}), ({"v0_over_c": None}, None)],
        ids=["none", "empty", "none_override", "none_preset"])
    def test_a_none_layer_or_value_sets_nothing(self, preset, overrides):
        assert resolve(preset, overrides) == DEFAULTS

    @pytest.mark.parametrize("preset, overrides", [({"alhpa": 1.0}, None),
                                                   (None, {"alhpa": 1.0})],
                             ids=["preset", "override"])
    def test_unknown_key_in_a_layer_rejected(self, preset, overrides):
        with pytest.raises(DomainError, match="unknown config key 'alhpa'"):
            resolve(preset, overrides)

    def test_defaults_are_the_field_defaults(self):
        assert DEFAULTS["alpha"] == FINE_STRUCTURE and DEFAULTS["mass0_kg"] == ELECTRON_MASS
        assert DEFAULTS["v0_over_c"] is None
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DipoleValidityWarning)
            assert build_params(DEFAULTS) == ModelParams()

    def test_build_params_roundtrip(self):
        resolved = resolve(None, {"p0_over_m0c": 0.2, "temperature_K": 7.0})
        p = build_params(resolved)
        assert p.p0 == 0.2
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

    def test_negative_p0_moves_the_other_way(self, tmp_path):
        # the packet axis carries the sign of p0; |p0| sets v0 and the photon number
        cols = {}
        for p0 in ("-0.15", "0.15"):
            out = tmp_path / f"scan{p0}.csv"
            assert run_cli("scan", "--out", str(out), "--t-points", "9",
                           "--p0-over-m0c", p0) == 0
            _, header, rows = read_csv(out)
            cols[p0] = {name: [float(r[i]) for r in rows] for i, name in enumerate(header)}
        assert build_params(resolve(None, {"p0_over_m0c": -0.15})).v0 == 0.15
        neg, pos = cols["-0.15"], cols["0.15"]
        assert all(v < 0.0 for v in neg["mean_v"])
        assert neg["mean_v"] == [-v for v in pos["mean_v"]]
        assert neg["mean_q"] == [-q for q in pos["mean_q"]]
        assert neg["n_photons"] == pos["n_photons"]
        assert neg["valid"] == pos["valid"]

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

    @pytest.mark.parametrize("extra, alpha", [
        ([], 150.0), (["--alpha", "60"], 60.0), (["--config", "{cfg}"], 40.0),
        (["--config", "{cfg}", "--alpha", "60"], 60.0)],
        ids=["preset", "flag", "file", "flag_over_file"])
    def test_fig3_layers(self, extra, alpha, tmp_path):
        # defaults < fig3 preset < config file < flags
        f, out = tmp_path / "run.cfg", tmp_path / "fig3.csv"
        f.write_text("alpha = 40\n")
        argv = [a.format(cfg=f) for a in extra]
        assert run_cli("figure", "fig3", *argv, "--out", str(out)) == 0
        comments, _, _ = read_csv(out)
        assert comments[1].startswith(f"# alpha = {alpha!r}, ")

    def test_fig3_v0_changes_no_value(self, tmp_path):
        # the user's v0 reaches the fig3 set, and no fig3 column depends on it
        plain, moving = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli("figure", "fig3", "--out", str(plain)) == 0
        assert run_cli("figure", "fig3", "--v0-over-c", "0.05", "--out", str(moving)) == 0
        a, b = plain.read_text().splitlines(), moving.read_text().splitlines()
        assert len(a) == len(b) == 3 + len(CONFIG_KEYS) + 2 * 81 * 81
        assert [(x, y) for x, y in zip(a, b) if x != y] == [
            ("# v0_over_c = auto", "# v0_over_c = 0.05")]

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

    def test_t_omega_is_seconds_times_omega_even_where_nan(self, tmp_path, capsys):
        # at 1e7 K both tau_p are nan: Omega t is nan in the CSV as on stdout, and an
        # infinite time (tau_vac) stays inf
        out = tmp_path / "ts.csv"
        assert run_cli("timescales", "--temperature-K", "1e7", "--out", str(out)) == 0
        printed = capsys.readouterr().out.splitlines()
        header, *rows = csv_records(out)
        assert header == ["quantity", "seconds", "t_omega"]
        omega = DEFAULTS["omega_cut_rad_s"]
        for name, seconds, t_omega in rows:
            want = float(seconds) * omega
            got = float(t_omega)
            assert got == pytest.approx(want, rel=1e-11) or (math.isnan(got) and math.isnan(want))
        tau_p = [r for r in rows if r[0].startswith("tau_p")]
        assert [r[1:] for r in tau_p] == [["nan", "nan"]] * 2
        assert sum(line.startswith("tau_p") and line.split()[-2:] == ["nan", "nan"]
                   for line in printed) == 2


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

    def test_scan_warnings_name_config_and_cli(self, tmp_path):
        # DipoleValidityWarning where main builds the params, the thermal warning
        # (k_B T / hbar Omega = 0.13) where scan asks for the factors
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli("scan", "--temperature-K", "1e7", "--t-points", "3",
                           "--out", str(tmp_path / "out.csv")) == 0
        assert [(w.category, Path(w.filename).name) for w in caught] == [
            (DipoleValidityWarning, "config.py"), (UserWarning, "cli.py")]


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

    @pytest.mark.parametrize("command", [
        ("scan",), ("figure", "fig1"), ("figure", "fig2"), ("figure", "fig3"), ("figure", "fig4"),
        ("rho", "--t-s", "1e-19"), ("timescales",), ("verify",),
    ], ids=["scan", "fig1", "fig2", "fig3", "fig4", "rho", "timescales", "verify"])
    @pytest.mark.parametrize("inputs, name", [
        (("--omega-cut-rad-s", "1e-300"), "omega_cut"),     # epsilon underflows
        (("--mass0-kg", "1e300"), "mass0"),                 # m0 c^2 overflows, epsilon underflows
        (("--omega-cut-rad-s", "1e-30", "--temperature-K", "1e300"), "temperature"),  # theta
        (("--temperature-K", "5e-324"), "temperature"),     # k_B T underflows
        (("--delta-p-over-m0c", "1e160"), "delta_p"),       # delta_p^2 overflows
    ], ids=["omega_cut", "mass0", "theta", "k_B_T", "delta_p"])
    def test_inputs_the_float_arithmetic_cannot_carry(self, command, inputs, name, tmp_path,
                                                       capsys):
        out = tmp_path / "x.csv"
        assert run_cli(*command, *inputs, "--out", str(out)) == cli.EXIT_DOMAIN
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.startswith("domain error:") and name in last, last
        assert not out.exists()

    def test_p0_squared_overflow_fails_verify_before_any_oracle(self, monkeypatch, tmp_path,
                                                                 capsys):
        # |p0| >= 1 is accepted once v0 is set; the identity checks square p0
        huge = ("--p0-over-m0c", "1e160", "--v0-over-c", "0.1")
        out = tmp_path / "x.csv"
        for other in (("rho", "--t-s", "1e-19", "--points", "3"), ("timescales",),
                      ("figure", "fig1"), ("figure", "fig4")):
            assert run_cli(*other, *huge, "--out", str(out)) == 0
        out.unlink()

        def no_oracle(*args, **kwargs):
            raise AssertionError("an oracle ran")

        monkeypatch.setattr(cli.oracle, "_frequency_integral", no_oracle)
        monkeypatch.setattr(cli.oracle, "fourier_rho_r", no_oracle)
        capsys.readouterr()
        assert run_cli("verify", *huge, "--out", str(out)) == cli.EXIT_DOMAIN
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.startswith("domain error: p0 = 1e+160"), last
        assert not out.exists()

    @pytest.mark.parametrize("command", [("figure", "fig3"), ("timescales",)],
                             ids=["fig3", "timescales"])
    def test_alpha_dp_squared_underflow_is_a_domain_error(self, command, tmp_path, capsys):
        # alpha = 5e-324 is accepted (scan runs it), but tau_vac needs alpha delta_p^2 > 0
        out = tmp_path / "x.csv"
        assert run_cli(*command, "--alpha", "5e-324", "--out", str(out)) == cli.EXIT_DOMAIN
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.startswith("domain error:") and "alpha" in last, last
        assert not out.exists()
        assert run_cli("scan", "--alpha", "5e-324", "--t-points", "3", "--out", str(out)) == 0

    @pytest.mark.parametrize("argv", [
        ("rho", "--rep", "r", "--t-s", "1e140", "--points", "3"),
        ("scan", "--t-max-s", "1e300"),
        ("scan", "--omega-cut-rad-s", "1e-300"),
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

    def test_one_parser_per_process_forgets_each_call(self, monkeypatch, capsys):
        # main reuses its parser: a usage error, then two commands and a repeat
        # that leaves the previous call's options at their defaults, must each
        # print what a fresh interpreter prints
        built = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
        cli._parser.cache_clear()
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        for argv in (("rho", "--points"),
                     ("rho", "--rep", "r", "--t-s", "1e-19", "--points", "3", "--sigfigs", "6"),
                     ("scan", "--t-points", "4", "--t-scale", "linear"),
                     ("rho", "--t-s", "1e-19", "--points", "2")):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                code = cli.main(list(argv))
            got = capsys.readouterr()
            fresh = subprocess.run(
                [sys.executable, "-W", "ignore", "-m", "qed_decoherence.cli", *argv],
                capture_output=True, text=True, env=env, check=False)
            assert (code, got.out, got.err) == (fresh.returncode, fresh.stdout, fresh.stderr)
        assert code == cli.EXIT_OK and len(got.out.splitlines()) > 4
        assert len(built) == 1
        cli._parser.cache_clear()

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


def _row_formatted(comments, header, table, sigfigs):
    """The CSV of a _Table formatted one flattened row at a time, each value by
    the printf format of its column's dtype kind."""
    cols = [np.broadcast_to(c, table.shape).ravel() for c in table.columns]
    line = ",".join({"U": "%s", "i": "%d"}.get(c.dtype.kind, f"%.{sigfigs - 1}e")
                    for c in cols) + "\n"
    return ("".join(f"# {c}\n" for c in comments) + ",".join(header) + "\n"
            + "".join(line % row for row in zip(*(c.tolist() for c in cols))))


class TestCsvWriter:
    """write_csv formats each key value once; the bytes are those of row formatting."""

    @pytest.fixture
    def calls(self, monkeypatch):
        seen, real = [], cli.write_csv

        def spy(out, comments, header, rows, sigfigs):
            seen.append((out, comments, header, rows, sigfigs))
            real(out, comments, header, rows, sigfigs)

        monkeypatch.setattr(cli, "write_csv", spy)
        return seen

    @pytest.mark.parametrize("to", ["file", "stdout"])
    @pytest.mark.parametrize("sigfigs", ["2", "6", "12", "17"])
    @pytest.mark.parametrize("argv", [
        ("rho", "--rep", "p", "--t-s", "1e-19"),
        ("rho", "--rep", "r", "--t-s", "1e-16"),
        ("rho", "--rep", "p", "--t-s", "0"),   # t = 0: every im is zero
        ("figure", "fig1"), ("figure", "fig2"), ("figure", "fig3"), ("figure", "fig4"),
        ("scan", "--t-points", "9"),
    ])
    def test_same_bytes_as_row_formatting(self, argv, sigfigs, to, calls, tmp_path, capsys):
        out = tmp_path / "x.csv"
        dest = ("--out", str(out)) if to == "file" else ()
        assert run_cli(*argv, "--sigfigs", sigfigs, *dest) == 0
        [(_, comments, header, table, _)] = calls
        text = out.read_text(encoding="utf-8") if to == "file" else capsys.readouterr().out
        assert text == _row_formatted(comments, header, table, int(sigfigs))

    @pytest.mark.parametrize("argv", [
        ("scan", "--t-points", "9"), ("figure", "fig1"), ("rho", "--rep", "p", "--t-s", "1e-19")])
    def test_blocks_that_split_an_outer_row(self, argv, calls, monkeypatch, tmp_path):
        monkeypatch.setattr(cli, "_BLOCK_ROWS", 4)
        out = tmp_path / "x.csv"
        assert run_cli(*argv, "--out", str(out)) == 0
        [(_, comments, header, table, sigfigs)] = calls
        assert out.read_text(encoding="utf-8") == _row_formatted(comments, header, table, sigfigs)

    def test_signed_zeros_text_keys_and_a_late_outer_key(self, capsys):
        # -0.0 in keys and cells, a key with a '%' in it, and an outer key after a
        # cell (written as a cell), across more outer rows than one
        z = np.array([-0.0, 0.0, -1.5])
        header = ["label", "a", "b", "re", "k", "im"]
        table = cli._table(header, [np.array(["x%s", "50%"])[:, None], z[:2, None], z,
                                    np.outer([1.0, -1.0], z), np.array([[3.0], [-0.0]]),
                                    np.outer([-0.0, 2.0], z)])
        cli.write_csv(None, ["c"], header, table, 3)
        text = capsys.readouterr().out
        assert text == _row_formatted(["c"], header, table, 3)
        assert "x%s,-0.00e+00,-0.00e+00,-0.00e+00,3.00e+00,0.00e+00\n" in text

    @pytest.mark.parametrize("argv", [
        ("scan", "--t-points", "7"), ("figure", "fig1"), ("figure", "fig2"),
        ("figure", "fig3"), ("figure", "fig4"), ("rho", "--rep", "p", "--t-s", "1e-19"),
        ("rho", "--rep", "r", "--t-s", "1e-19", "--points", "5"), ("timescales",), ("verify",),
    ])
    def test_len_rows_is_the_data_line_count(self, argv, calls, tmp_path):
        # perfbench's tracer binds write_csv's `out` and `rows` by name and
        # counts len(rows) as the rows written
        out = tmp_path / "x.csv"
        assert run_cli(*argv, "--out", str(out)) == 0
        [(path, _, _, rows, _)] = calls
        assert path == str(out)
        data = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")][1:]
        assert len(rows) == len(data)

    @pytest.mark.parametrize("argv", [
        ("scan", "--t-points", "5"), ("figure", "fig1"), ("figure", "fig2"), ("figure", "fig3"),
        ("figure", "fig4"), ("rho", "--rep", "p", "--t-s", "1e-19", "--points", "5"),
        ("rho", "--rep", "r", "--t-s", "1e-19", "--points", "5"), ("timescales",),
        ("timescales", "--temperature-K", "1e7"), ("verify",),
    ])
    def test_every_out_file_has_rows_as_wide_as_its_header(self, argv, tmp_path):
        # verify's photon_continuum detail and timescales' tau_p label hold commas
        out = tmp_path / "x.csv"
        assert run_cli(*argv, "--out", str(out)) == 0
        header, *rows = csv_records(out)
        assert rows and {len(row) for row in rows} == {len(header)}

    def test_text_with_a_comma_quote_or_line_break_is_quoted(self, tmp_path):
        texts = ["plain", "a, b", 'say "hi"', "two\nlines", "5%, %s", ""]
        out = tmp_path / "x.csv"
        cli.write_csv(str(out), ["c"], ["text", "x"], [[t, 1.0] for t in texts], 3)
        assert csv_records(out) == [["text", "x"], *([t, "1.00e+00"] for t in texts)]
        assert '"a, b",' in out.read_text(encoding="utf-8")
        # the same text as an outer key, formatted once per value
        table = cli._table(["label", "x"], [np.array(texts)[:, None], np.array([1.0, 2.0])])
        cli.write_csv(str(out), [], ["label", "x"], table, 2)
        assert csv_records(out)[1:] == [[t, x] for t in texts for x in ("1.0e+00", "2.0e+00")]

    def test_domain_error_writes_nothing(self, calls, tmp_path, capsys):
        out = tmp_path / "x.csv"
        with np.errstate(all="ignore"):
            assert run_cli("rho", "--rep", "r", "--t-s", "1e140", "--points", "3",
                           "--out", str(out)) == cli.EXIT_DOMAIN
        assert ("column q_mc_over_hbar is not finite in 9 of 9 rows (first: row 0"
                in capsys.readouterr().err)
        assert calls == [] and not out.exists()

    def test_non_finite_inner_key_counts_rows_in_written_order(self):
        with pytest.raises(DomainError, match=r"column b is not finite in 4 of 6 rows "
                                              r"\(first: row 1, value inf\)"):
            cli._table(["a", "b", "c"], [np.arange(2.0)[:, None], [0.0, np.inf, np.inf],
                                         np.ones((2, 3))])


class TestByteWriter:
    """write_csv's blocks: Python-formatted rows, wide exponents, non-finite cells and
    every output stream give the bytes of row formatting."""

    def test_python_rows_and_wide_exponents_across_blocks(self, monkeypatch, capsys):
        # ties (Python-formatted at 2 digits), zeros and 3-digit exponents in every
        # column, in rows that later blocks reuse for ordinary values
        monkeypatch.setattr(cli, "_BLOCK_ROWS", 3)
        cells = np.array([[0.125, 1.25, -0.0, 2.5], [1e-150, -3.7, 0.0, 9.5],
                          [4.1, 5.2, 6.3, 7.4], [-1e200, 0.15, 8.25, 1.0]])
        header = ["k", "a", "b", "c", "d"]
        table = cli._table(header, [np.array([0.35, -1e-120, 2.0, 0.0])[:, None],
                                    *cells.T])
        for sigfigs in (2, 3, 12):
            cli.write_csv(None, ["c"], header, table, sigfigs)
            assert capsys.readouterr().out == _row_formatted(["c"], header, table, sigfigs)

    def test_non_finite_cells_across_blocks(self, monkeypatch, tmp_path):
        monkeypatch.setattr(cli, "_BLOCK_ROWS", 2)
        rows = [["a", 1.0, 3], ["b", math.nan, -4], ["c", math.inf, 5], ["d", -math.inf, 6],
                ["e", 2.5e-300, 7]]
        out = tmp_path / "x.csv"
        cli.write_csv(str(out), [], ["name", "x", "n"], rows, 3)
        assert out.read_text(encoding="utf-8") == "name,x,n\n" + "".join(
            "%s,%.2e,%d\n" % tuple(r) for r in rows)

    def test_stdout_without_a_binary_buffer(self, monkeypatch):
        import io
        text = io.StringIO()
        monkeypatch.setattr(sys, "stdout", text)
        table = cli._table(["a", "b"], [np.array(["x%s", "z"])[:, None], np.array([1.5, -2.0])])
        cli.write_csv(None, ["c"], ["a", "b"], table, 4)
        assert text.getvalue() == _row_formatted(["c"], ["a", "b"], table, 4)

    def test_peak_memory_on_a_rho_grid(self, tmp_path):
        # a 201 x 201 rho table: the writer's own allocations stay near one block's
        # line buffer, its mask and their temporaries (about 0.6 MiB), never a column
        import tracemalloc
        grid = np.linspace(-0.3, 0.3, 201)
        matrix = np.exp(1j * np.outer(grid, grid)) * np.exp(-np.add.outer(grid, grid) ** 2)
        header = ["t_s", "p", "p_prime", "re", "im", "abs"]
        table = cli._table(header, [1e-19, grid[:, None], grid, matrix.real, matrix.imag,
                                    np.abs(matrix)])
        cli.write_csv(str(tmp_path / "warm.csv"), [], header, table, 12)
        tracemalloc.start()
        try:
            cli.write_csv(str(tmp_path / "x.csv"), [], header, table, 12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak
