"""Command-line front end.

    qed-decoherence <command> [--config FILE] [--key value ...] [--out PATH]

Commands: scan (time series of every observable), figure (data grids behind
the four standard plots), timescales (characteristic-time table), verify
(oracle suite; exit code is the acceptance authority), rho (density-matrix
grid at one time).

CSV output is deterministic: UTF-8, comma separated, one header row, `#`
comment lines carrying the fully resolved configuration, scientific notation
with a configurable number of significant figures. Exit codes: 0 ok, 1 usage,
2 domain error, 3 verification failure, 4 I/O.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import math
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import config as cfg
from . import densmat, field, observables, oracle
from .decoherence import DecoherenceFactors, coupling_scale, log_sinhc, log_sqrt_one_plus_sq
from .densmat import GaussianPacket
from .params import (DipoleValidityWarning, DomainError, ModelParams, validity_bound,
                     validity_window)

__all__ = ["EXIT_DOMAIN", "EXIT_IO", "EXIT_OK", "EXIT_USAGE", "EXIT_VERIFY", "RHO_MAX_POINTS",
           "SCAN_COLUMNS", "build_parser", "main", "write_csv"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_VERIFY = 3
EXIT_IO = 4

FIG3_ALPHA = 150.0   # coupling for the fig3 parameter set: tau_vac = e^pi / Omega
RHO_MAX_POINTS = 1001   # rho writes points^2 rows: ~1e6 rows, ~110 MB of CSV at the cap


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _check_args(args) -> None:
    """Range checks of the numeric options, each where its command has it."""
    if args.sigfigs < 2:
        raise DomainError("sigfigs must be >= 2")
    if "t_points" in args:   # scan
        if args.t_points < 2:
            raise DomainError("t-points must be >= 2")
        for bound in (args.t_min_s, args.t_max_s):
            if bound is not None and bound <= 0.0:
                raise DomainError("t-grid bounds must be positive")
    if "points" in args:   # rho
        if not 2 <= args.points <= RHO_MAX_POINTS:
            raise DomainError(f"points = {args.points} outside [2, {RHO_MAX_POINTS}]")
        if not 0.0 < args.span < math.inf:
            raise DomainError(f"span = {args.span} must be positive and finite")


def _fmt(value: float, sigfigs: int) -> str:
    return f"{value:.{sigfigs - 1}e}"


# printf format of a column by dtype kind; any other kind is a float
_COLUMN_FORMATS = {"U": "%s", "i": "%d"}
_BLOCK_ROWS = 1 << 14


def write_csv(out, comments: list[str], header: list[str], rows, sigfigs: int) -> None:
    """Write a CSV to the path `out`, or to stdout when it is None. rows is a
    structured array (see _table) or a list of rows. Each column has one printf
    format: %s for text, %d for integers, %.{sigfigs-1}e for floats (which
    writes nan and inf as such), applied a block of rows at a time."""
    table = rows if isinstance(rows, np.ndarray) else np.rec.fromrecords(rows, names=header)
    line = ",".join(_COLUMN_FORMATS.get(table.dtype[k].kind, f"%.{sigfigs - 1}e")
                    for k in range(len(table.dtype))) + "\n"
    head = "".join(f"# {c}\n" for c in comments) + ",".join(header) + "\n"
    with (contextlib.nullcontext(sys.stdout) if out is None
          else open(out, "w", encoding="utf-8")) as fh:
        fh.write(head)
        for start in range(0, len(table), _BLOCK_ROWS):
            block = table[start:start + _BLOCK_ROWS].tolist()
            fh.write((line * len(block)) % tuple(itertools.chain.from_iterable(block)))


def _table(header: list[str], columns) -> np.ndarray:
    """The columns (arrays, or scalars that repeat) as a structured array of
    rows for write_csv. scan, figure and rho write only finite numbers: a
    non-finite value is a DomainError that names its column."""
    cols = np.broadcast_arrays(*(np.asarray(c) for c in columns))
    for name, col in zip(header, cols):
        if col.dtype.kind == "f" and not np.all(np.isfinite(col)):
            bad = np.flatnonzero(~np.isfinite(col))
            raise DomainError(
                f"column {name} is not finite in {bad.size} of {col.size} rows "
                f"(first: row {bad[0]}, value {col[bad[0]]}); the inputs overflow "
                "double precision there")
    return np.rec.fromarrays(cols, names=header)


def _time_grid(args) -> np.ndarray:
    params = args.params
    t_min = args.t_min_s if args.t_min_s is not None else params.seconds(1e-3)
    t_max = args.t_max_s if args.t_max_s is not None else params.seconds(1e6)
    if not t_max > t_min:
        raise DomainError("need 0 < t-min-s < t-max-s")
    if args.t_scale == "log":
        return np.geomspace(t_min, t_max, args.t_points)
    return np.linspace(t_min, t_max, args.t_points)


# ---------------------------------------------------------------------------
# commands: each takes the parsed arguments, with params, resolved and user_set set by main
# ---------------------------------------------------------------------------

SCAN_COLUMNS = [
    "t_s", "t_omega", "gamma_vac", "gamma_th", "gamma", "phi", "delta_p", "l_p",
    "s_lin", "mean_q", "mean_v", "delta_m_over_m0", "delta_r", "delta_r_free",
    "l_r", "n_photons", "e_field", "valid",
]

SCAN_UNITS = (
    "units: t_s [s]; t_omega [Omega t]; gamma_*, phi [1/(m0 c)^2]; delta_p, l_p "
    "[m0 c]; mean_q [m]; mean_v [m/s]; delta_r*, l_r [m]; n_photons at p_bar = "
    "|p0|; e_field (mean cloud energy) [J]; valid = t <= min(tau_d, tau_0)"
)


def cmd_scan(args) -> int:
    params = args.params
    t = _time_grid(args)
    s = observables.snapshot(params, t)
    f = s.factors
    p_bar = params.p0_mag
    columns = [
        t, f.t, f.gamma_vac, f.gamma_th, f.gamma, f.phi,
        s.delta_p_t, s.l_p, s.s_lin, s.mean_q[:, 0], s.mean_v[:, 0],
        s.delta_m / params.mass0, s.delta_r_t, s.delta_r_free, s.l_r,
        field.mean_photon_number(params, p_bar, t),
        field.mean_field_energy(params, p_bar, t),
        (t <= validity_bound(params)).astype(int),
    ]
    comments = ["qed-decoherence scan", SCAN_UNITS,
                *cfg.provenance_lines(args.resolved)]
    write_csv(args.out, comments, SCAN_COLUMNS, _table(SCAN_COLUMNS, columns), args.sigfigs)
    return EXIT_OK


def _fig3_params(params: ModelParams, user_set: frozenset[str] = frozenset()) -> ModelParams:
    """The fig3 reference set (alpha = FIG3_ALPHA, a stationary packet with v0
    auto, delta_p = 0.1) over params, except for the keys in user_set."""
    overrides = {}
    if "alpha" not in user_set:
        overrides["alpha"] = FIG3_ALPHA
    if "p0_over_m0c" not in user_set:
        overrides["p0"] = (0.0, 0.0, 0.0)
        overrides["v0"] = None
    if "delta_p_over_m0c" not in user_set:
        overrides["delta_p"] = 0.1
    return replace(params, **overrides)


_FIG_ALPHAS = (1.0, 10.0, 30.0, 100.0, 300.0, 1000.0)
_FIG_ZETAS = (1e-4, 1e-3, 1e-2, 1e-1, 1.0)


def _figure_rows(which: str, params: ModelParams, user_set: frozenset[str]):
    """Figure data as (header, columns, parameters used); each figure's
    standard parameters act as defaults that explicit config/CLI settings
    override. fig1, fig2 and fig4 are outer grids: every Omega t for each
    zeta or alpha in turn."""
    taus = np.geomspace(1e-3, 1e6, 181)
    if which == "fig1":
        # vacuum vs thermal decoherence exponents as a function of zeta, T = 300 K
        p1 = params if "temperature_K" in user_set else replace(params, temperature=300.0)
        header = ["t_s", "t_omega", "zeta", "gamma_vac_pp", "gamma_th_pp"]
        zeta, tau = (g.ravel() for g in np.meshgrid(_FIG_ZETAS, taus, indexing="ij"))
        t = p1.seconds(tau)
        return header, [t, tau, zeta, zeta * log_sqrt_one_plus_sq(tau),
                        zeta * log_sinhc(p1.thermal_x(t))], p1
    if which == "fig2":
        # vacuum suppression vs time and coupling at |p - p'| = 0.1 m0 c
        header = ["t_omega", "alpha", "exp_neg_gamma_vac_pp"]
        dp2 = (params.delta_p if "delta_p_over_m0c" in user_set else 0.1) ** 2
        alpha, tau = (g.ravel() for g in np.meshgrid(_FIG_ALPHAS, taus, indexing="ij"))
        return header, [tau, alpha, np.exp(-(coupling_scale(alpha) * dp2)
                                           * log_sqrt_one_plus_sq(tau))], params
    if which == "fig3":
        p3 = _fig3_params(params, user_set)
        packet = GaussianPacket.from_params(p3)
        times = np.array([0.0, oracle.fig3_time(p3)])
        grid = np.linspace(packet.p0 - 4.0 * packet.delta_p,
                           packet.p0 + 4.0 * packet.delta_p, 81)
        n2 = grid.size ** 2
        header = ["t_label", "t_s", "p_over_m0c", "p_prime_over_m0c", "rho_abs_normalized"]
        panels = [np.abs(densmat.rho_p_matrix(grid, packet, DecoherenceFactors.at_time(p3, t)))
                  / packet.norm for t in times]
        return header, [np.repeat(["initial", "3tau_vac"], n2), np.repeat(times, n2),
                        np.tile(np.repeat(grid, grid.size), 2), np.tile(grid, 2 * grid.size),
                        np.concatenate([m.ravel() for m in panels])], p3
    if which == "fig4":
        header = ["t_s", "t_omega", "alpha", "s_lin"]
        alpha, tau = (g.ravel() for g in np.meshgrid(_FIG_ALPHAS, taus, indexing="ij"))
        s_lin = [observables.linear_entropy(replace(params, alpha=a), params.seconds(taus))
                 for a in _FIG_ALPHAS]
        return header, [params.seconds(tau), tau, alpha, np.concatenate(s_lin)], params
    raise DomainError(f"unknown figure id {which!r} (expected fig1|fig2|fig3|fig4)")


_PLOT_SCRIPT = """\
#!/usr/bin/env python3
# Generic plotting sidecar: reads only the CSV written next to it.
import sys
import matplotlib.pyplot as plt
import numpy as np

path = sys.argv[1] if len(sys.argv) > 1 else {csv!r}
rows = np.genfromtxt(path, delimiter=",", names=True, comments="#", dtype=None,
                     encoding="utf-8")
names = rows.dtype.names
x = rows[names[1]] if names[0].endswith("label") or names[0] == "t_s" else rows[names[0]]
y = rows[names[-1]]
plt.figure()
try:
    plt.xscale("log")
except Exception:
    pass
plt.plot(np.asarray(x, dtype=float), np.asarray(y, dtype=float), ".", ms=2)
plt.xlabel(names[1])
plt.ylabel(names[-1])
plt.title(path)
plt.tight_layout()
plt.show()
"""


def cmd_figure(args) -> int:
    # the figure sets change alpha, T and p0, and delta_p only where the run left it at
    # its default: their delta_r / (c/Omega) is that of params, which main warned about
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DipoleValidityWarning)
        header, columns, used = _figure_rows(args.which, args.params, args.user_set)
    comments = [f"qed-decoherence figure {args.which}",
                f"alpha = {used.alpha!r}, omega_cut_rad_s = {used.omega_cut!r}, "
                f"temperature_K = {used.temperature!r}, delta_p_over_m0c = {used.delta_p!r}",
                *cfg.provenance_lines(args.resolved)]
    write_csv(args.out, comments, header, _table(header, columns), args.sigfigs)
    if args.plot_script is not None:
        csv_name = str(args.out) if args.out else "figure.csv"
        Path(args.plot_script).write_text(_PLOT_SCRIPT.format(csv=csv_name), encoding="utf-8")
    return EXIT_OK


def cmd_timescales(args) -> int:
    params = args.params
    ts = validity_window(params)
    rows = [
        ("tau_F (thermal time)", ts.tau_F),
        ("tau_0 (dipole bound)", ts.tau_0),
        ("tau_d (spreading bound)", ts.tau_d),
        ("tau_p (vac->thermal crossover, exact)", ts.tau_p),
        ("tau_p (root of ln(Omega t) = t/tau_F)", ts.tau_p_log_eq),
        ("tau_vac (at dp = delta_p)", ts.tau_vac),
        ("tau_th (at dp = delta_p)", ts.tau_th),
    ]
    lines = [f"{'quantity':44s} {'seconds':>16s} {'Omega t':>16s}"]
    for name, val in rows:
        tau = val * params.omega_cut if math.isfinite(val) else val
        lines.append(f"{name:44s} {_fmt(val, 8):>16s} {_fmt(tau, 8):>16s}")
    if math.isinf(ts.tau_vac) and math.isfinite(ts.tau_vac_log):
        lines.append(f"{'  ln(tau_vac / s) (overflow-safe)':44s} "
                     f"{_fmt(ts.tau_vac_log, 8):>16s} {'':>16s}")
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if args.out:
        write_csv(args.out,
                  ["qed-decoherence timescales", *cfg.provenance_lines(args.resolved)],
                  ["quantity", "seconds", "t_omega"],
                  [[n, v, v * params.omega_cut if math.isfinite(v) else math.inf]
                   for n, v in rows], args.sigfigs)
    return EXIT_OK


def verification_reports(params: ModelParams, n_points: int = 25):
    """The standard verification sweep: log grid Omega t in [1e-3, 1e6] at the
    caller's parameters, plus the transform oracle at the fixed fig3 reference
    set (the transform grid resolution is tuned to that set; the frequency
    oracles are what track the caller's configuration)."""
    t_grid = params.seconds(np.geomspace(1e-3, 1e6, n_points))
    # the fixed set is not the run's packet: its DipoleValidityWarning says nothing of the run
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DipoleValidityWarning)
        reference = _fig3_params(cfg.build_params(dict(cfg.DEFAULTS)))
    return oracle.run_all(params, t_grid, include_transform=True, transform_params=reference)


def cmd_verify(args) -> int:
    reports = verification_reports(args.params)
    width = max(len(r.quantity) for r in reports)
    sys.stdout.write(f"{'quantity':{width}s}  {'closed':>14s}  {'oracle':>14s}  "
                     f"{'rel_err':>10s}  {'tol':>8s}  result\n")
    for r in reports:
        sys.stdout.write(
            f"{r.quantity:{width}s}  {_fmt(r.closed_form, 7):>14s}  "
            f"{_fmt(r.oracle, 7):>14s}  {_fmt(r.rel_err, 3):>10s}  "
            f"{_fmt(r.tolerance, 2):>8s}  {'PASS' if r.passed else 'FAIL'}"
            + (f"  [{r.detail}]" if r.detail and not r.passed else "") + "\n"
        )
    failed = [r.quantity for r in reports if not r.passed]
    if args.out:
        write_csv(args.out,
                  ["qed-decoherence verify", *cfg.provenance_lines(args.resolved)],
                  ["quantity", "closed_form", "oracle", "abs_err", "rel_err",
                   "tolerance", "panels", "passed", "detail"],
                  [[r.quantity, r.closed_form, r.oracle, r.abs_err, r.rel_err,
                    r.tolerance, r.panels, int(r.passed), r.detail] for r in reports],
                  args.sigfigs)
    if failed:
        sys.stdout.write(f"FAILED: {', '.join(failed)}\n")
        return EXIT_VERIFY
    sys.stdout.write("all oracle checks passed\n")
    return EXIT_OK


def cmd_rho(args) -> int:
    packet = GaussianPacket.from_params(args.params)
    factors = DecoherenceFactors.at_time(args.params, args.t_s)
    n = args.points
    if args.rep == "p":
        half = args.span * packet.delta_p
        grid = np.linspace(packet.p0 - half, packet.p0 + half, n)
        matrix = densmat.rho_p_matrix(grid, packet, factors, densmat.MAX_PHASE)
        a_name, b_name = "p_over_m0c", "p_prime_over_m0c"
    else:
        w = densmat.width_t(packet, factors)
        center = densmat.mean_displacement(packet, factors)
        half = args.span * w / math.sqrt(3.0)
        grid = np.linspace(center - half, center + half, n)
        matrix = densmat.rho_r_matrix(grid, packet, factors, densmat.MAX_PHASE)
        a_name, b_name = "q_mc_over_hbar", "q_prime_mc_over_hbar"
    header = ["t_s", a_name, b_name, "re", "im", "abs"]
    table = _table(header, [args.t_s, np.repeat(grid, n), np.tile(grid, n),
                            matrix.real.ravel(), matrix.imag.ravel(), np.abs(matrix).ravel()])
    comments = [f"qed-decoherence rho --rep {args.rep} --t-s {args.t_s!r}",
                "momentum in m0 c, displacement in hbar/(m0 c)",
                *cfg.provenance_lines(args.resolved)]
    write_csv(args.out, comments, header, table, args.sigfigs)
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="qed-decoherence",
                     description="Decoherence dynamics of a charged Gaussian wave "
                                 "packet in the thermal electromagnetic field.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", type=str, default=None, help="key=value config file")
        p.add_argument("--out", type=str, default=None, help="output CSV path")
        p.add_argument("--sigfigs", type=int, default=12,
                       help="significant figures in CSV output")
        for key in cfg.CONFIG_KEYS:
            p.add_argument(f"--{key.replace('_', '-')}", dest=key, type=float,
                           default=None, help=f"override {key}")

    p_scan = sub.add_parser("scan", help="time series of all closed-form quantities")
    add_common(p_scan)
    p_scan.add_argument("--t-min-s", type=float, default=None)
    p_scan.add_argument("--t-max-s", type=float, default=None)
    p_scan.add_argument("--t-points", type=int, default=61)
    p_scan.add_argument("--t-scale", choices=("log", "linear"), default="log")

    p_fig = sub.add_parser("figure", help="data grid behind a standard figure")
    p_fig.add_argument("which", choices=("fig1", "fig2", "fig3", "fig4"))
    add_common(p_fig)
    p_fig.add_argument("--plot-script", type=str, default=None,
                       help="optionally write a matplotlib sidecar script here")

    p_ts = sub.add_parser("timescales", help="characteristic-time table")
    add_common(p_ts)

    p_ver = sub.add_parser("verify", help="run every oracle against its closed form")
    add_common(p_ver)

    p_rho = sub.add_parser("rho", help="density-matrix grid at one time")
    add_common(p_rho)
    p_rho.add_argument("--rep", choices=("p", "r"), default="p")
    p_rho.add_argument("--t-s", type=float, required=True, help="time in seconds")
    p_rho.add_argument("--points", type=int, default=41)
    p_rho.add_argument("--span", type=float, default=4.0,
                       help="half-width in packet widths")

    return parser


_COMMANDS = {
    "scan": cmd_scan,
    "figure": cmd_figure,
    "timescales": cmd_timescales,
    "verify": cmd_verify,
    "rho": cmd_rho,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return EXIT_USAGE
    try:
        # the keys the config file or a flag set, whatever their values
        user = {key: getattr(args, key) for key in cfg.CONFIG_KEYS
                if getattr(args, key) is not None}
        if args.config is not None:
            user = cfg.parse_config_file(args.config) | user
        args.resolved = cfg.resolve(None, user)
        args.params = cfg.build_params(args.resolved)
        args.user_set = frozenset(user)
        _check_args(args)
        # _table refuses every non-finite value scan, figure and rho would write, and
        # verify and timescales write nan/inf on purpose: numpy's warnings add nothing
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return _COMMANDS[args.command](args)
    except DomainError as exc:
        sys.stderr.write(f"domain error: {exc}\n")
        return EXIT_DOMAIN
    except OSError as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
