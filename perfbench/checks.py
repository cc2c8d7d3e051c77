"""Output checks for every benchmark op.

Each check reads what the CLI wrote and raises ``CheckError`` at the first
output that is wrong. The closed forms are recomputed here with ``math`` from the formulas in
PAPER.md (and the constants below), never by calling the package, so a
change that speeds the package up by computing something else fails here.

Tolerances follow from the CSV precision: the CLI writes 12 significant
figures, so written numbers carry a relative rounding of at most 5e-12.
"""

from __future__ import annotations

import math
import random

import numpy as np

# CODATA 2018, SI
HBAR = 1.054_571_817e-34
C = 299_792_458.0
K_B = 1.380_649e-23
M_E = 9.109_383_7015e-31
FINE_STRUCTURE = 7.297_352_5693e-3

# Values the CLI uses for config keys an op leaves unset
CLI_DEFAULTS = {
    "alpha": FINE_STRUCTURE,
    "omega_cut_rad_s": 1e19,
    "temperature_K": 1.0,
    "p0_over_m0c": 0.1,
    "delta_p_over_m0c": 0.1,
}

SCAN_COLUMNS = [
    "t_s", "t_omega", "gamma_vac", "gamma_th", "gamma", "phi", "delta_p", "l_p",
    "s_lin", "mean_q", "mean_v", "delta_m_over_m0", "delta_r", "delta_r_free",
    "l_r", "n_photons", "e_field", "valid",
]
VERIFY_COLUMNS = ["quantity", "closed_form", "oracle", "abs_err", "rel_err",
                  "tolerance", "panels", "passed", "detail"]
FIG_COLUMNS = {
    "fig1": ["t_s", "t_omega", "zeta", "gamma_vac_pp", "gamma_th_pp"],
    "fig2": ["t_omega", "alpha", "exp_neg_gamma_vac_pp"],
    "fig3": ["t_label", "t_s", "p_over_m0c", "p_prime_over_m0c", "rho_abs_normalized"],
    "fig4": ["t_s", "t_omega", "alpha", "s_lin"],
}
FIG_ALPHAS = (1.0, 10.0, 30.0, 100.0, 300.0, 1000.0)
FIG_ZETAS = (1e-4, 1e-3, 1e-2, 1e-1, 1.0)
FIG_TAUS = 181          # log grid Omega t in [1e-3, 1e6]
FIG3_POINTS = 81
FIG3_ALPHA = 150.0

# Tolerances of the verify table as declared at the seed commit. A written
# tolerance may be tighter, never looser: speed must not come from them.
VERIFY_TOLERANCES = {
    "gamma_vac": 1e-8,
    "phase_xi": 1e-8,
    "photon_number": 1e-8,
    "field_energy": 1e-8,
    "photon_continuum": 1e-6,
    "factor2_identity": 1e-12,
    "field_mass_identity": 1e-12,
    "rho_r_transform": 1e-6,
}
VERIFY_ROWS_T0 = sorted([*VERIFY_TOLERANCES, "gamma_total_spectral", "rho_r_transform"])
VERIFY_ROWS_T = sorted([*VERIFY_ROWS_T0, "gamma_th"])

# Recomputed closed forms vs written numbers. The package's ln[sinh(x)/x]
# takes the log of a number near 1 just above its x = 1e-3 series branch and
# keeps only ~1e-9 relative accuracy there; the references below are exact
# to rounding, so this bound leaves room for that and nothing more.
REL = 1e-8
IDENTITY_REL = 1e-10    # identities between written columns
SAMPLE_ROWS = 16


class CheckError(Exception):
    pass


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def _close(got: float, want: float, rel: float = REL, abs_tol: float = 0.0) -> bool:
    return abs(got - want) <= rel * max(abs(got), abs(want)) + abs_tol


def _expect(name: str, row: int, got: float, want: float, rel: float = REL,
            abs_tol: float = 0.0) -> None:
    _require(_close(got, want, rel, abs_tol),
             f"row {row}: {name} = {got!r}, recomputed {want!r}")


def read_csv(path: str, n_cols: int) -> tuple[list[str], list[list[str]]]:
    """(header, rows); the last column keeps any commas it contains."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if not ln.startswith("#")]
    _require(bool(lines), "empty CSV")
    header = lines[0].split(",")
    rows = [ln.split(",", n_cols - 1) for ln in lines[1:]]
    return header, rows


def load_table(path: str, columns: list[str], rows: int, dtype=float,
               usecols=None) -> np.ndarray:
    """The (rows, columns) table after its ``#`` comments and header, parsed by
    numpy; a ragged row or a bad number raises ValueError."""
    with open(path, encoding="utf-8") as fh:
        comments = 0
        header = ""
        for header in fh:
            if not header.startswith("#"):
                break
            comments += 1
    got = header.rstrip("\n").split(",")
    _require(got == columns, f"header {got}, expected {columns}")
    data = np.loadtxt(path, delimiter=",", skiprows=comments + 1, ndmin=2, dtype=dtype,
                      usecols=usecols)
    _require(data.shape[0] == rows, f"{data.shape[0]} rows, expected {rows}")
    if dtype is float:
        _require(bool(np.all(np.isfinite(data))), "non-finite values")
    return data


# -- closed forms from PAPER.md ------------------------------------------------

def _coupling(alpha: float) -> float:
    return 2.0 * alpha / (3.0 * math.pi)


def _log_sqrt_one_plus_sq(tau: float) -> float:
    return 0.5 * math.log1p(tau * tau)


def _log_sinhc(x: float) -> float:
    """ln[sinh(x)/x]: Taylor series below 0.1 (next term < 1e-16 relative),
    x + ln(1 - e^-2x) - ln(2x) above 20, where sinh overflows."""
    if x < 0.1:
        x2 = x * x
        return x2 * (1 / 6 - x2 * (1 / 180 - x2 * (1 / 2835 - x2 / 37800)))
    if x < 20.0:
        return math.log(math.sinh(x) / x)
    return x + math.log1p(-math.exp(-2.0 * x)) - math.log(2.0 * x)


def _tau_minus_atan(tau: float) -> float:
    if tau < 1e-2:
        t2 = tau * tau
        return tau * t2 * (1 / 3 - t2 / 5 + t2 * t2 / 7 - t2**3 / 9)
    return tau - math.atan(tau)


def _one_minus_inv_sqrt(y: float) -> float:
    """1 - 1/sqrt(1 + y) without cancellation."""
    return -math.expm1(-0.5 * math.log1p(y))


class Model:
    """The physical model at one configuration, in the package's internal units."""

    def __init__(self, cfg: dict[str, float]):
        cfg = {**CLI_DEFAULTS, **cfg}
        self.alpha = cfg["alpha"]
        self.omega = cfg["omega_cut_rad_s"]
        self.temperature = cfg["temperature_K"]
        self.p0 = cfg["p0_over_m0c"]
        self.dp = cfg["delta_p_over_m0c"]
        self.eps = HBAR * self.omega / (M_E * C * C)
        self.theta = (math.inf if self.temperature == 0.0
                      else HBAR * self.omega / (K_B * self.temperature))

    def gamma_vac(self, tau: float, alpha: float | None = None) -> float:
        return _coupling(self.alpha if alpha is None else alpha) * _log_sqrt_one_plus_sq(tau)

    def gamma_th(self, tau: float, alpha: float | None = None) -> float:
        if self.temperature == 0.0:
            return 0.0
        return (_coupling(self.alpha if alpha is None else alpha)
                * _log_sinhc(math.pi * tau / self.theta))

    def phi_parts(self, tau: float) -> tuple[float, float]:
        """(interaction, free) parts of Phi(t)."""
        return _coupling(self.alpha) * _tau_minus_atan(tau), -0.5 * tau / self.eps

    def s_lin(self, gamma: float) -> float:
        return _one_minus_inv_sqrt(8.0 * self.dp**2 * gamma / 3.0)

    def mass_ratio(self, tau: float) -> float:
        return 2.0 * _coupling(self.alpha) * self.eps * tau * tau / (1.0 + tau * tau)


# -- verify --------------------------------------------------------------------

def check_verify(cfg: dict[str, float], rc: int, path: str, stdout: str) -> dict:
    _require(rc == 0, f"exit code {rc}")
    _require(stdout.rstrip().endswith("all oracle checks passed"), "no pass line on stdout")
    header, rows = read_csv(path, len(VERIFY_COLUMNS))
    _require(header == VERIFY_COLUMNS, f"header {header}")
    names = sorted(r[0] for r in rows)
    theta = Model(cfg).theta
    want = VERIFY_ROWS_T0 if math.isinf(theta) else VERIFY_ROWS_T
    _require(names == want, f"checks {names}, expected {want}")
    max_rel: dict[str, float] = {}
    for r in rows:
        q = r[0]
        _require(len(r) == len(VERIFY_COLUMNS) and r[7] == "1", f"{q} did not pass: {r}")
        if q in VERIFY_TOLERANCES:
            tol = VERIFY_TOLERANCES[q]
        elif math.isinf(theta):
            tol = 1e-6      # gamma_total_spectral on the T = 0 branch
        else:               # k_B T << hbar Omega forms, thermal_tolerance at seed
            tol = min(0.5, max(1e-7 if q == "gamma_th" else 1e-6, 10.0 / theta))
        _require(float(r[5]) <= tol * (1.0 + 1e-9),
                 f"{q}: tolerance {r[5]} looser than {tol:g}")
        max_rel[q] = max(max_rel.get(q, 0.0), float(r[4]))
    return {"max_rel_err": max_rel}


# -- scan ----------------------------------------------------------------------

def check_scan(cfg: dict[str, float], rc: int, path: str, points: int, scale: str,
               rng: random.Random) -> None:
    _require(rc == 0, f"exit code {rc}")
    data = load_table(path, SCAN_COLUMNS, points)
    col = {name: data[:, j] for j, name in enumerate(SCAN_COLUMNS)}
    m = Model(cfg)
    t = col["t_s"]
    _expect("t_s", 0, t[0], 1e-3 / m.omega, 1e-11)
    _expect("t_s", points - 1, t[-1], 1e6 / m.omega, 1e-11)
    _require(bool(np.all(np.diff(t) > 0.0)), "time grid not increasing")
    if scale == "linear":
        step = (t[-1] - t[0]) / (points - 1)
        mid = points // 2
        _expect("t_s", mid, t[mid], t[0] + mid * step, 1e-9)
    p_bar = abs(m.p0)

    def identity(name: str, got: np.ndarray, want: np.ndarray, abs_tol: float) -> None:
        bad = np.abs(got - want) > IDENTITY_REL * np.maximum(np.abs(got), np.abs(want)) + abs_tol
        _require(not bool(np.any(bad)), f"row {int(np.argmax(bad))}: {name} fails")

    identity("s_lin = 1 - l_p/delta_p", col["s_lin"], 1.0 - col["l_p"] / m.dp, IDENTITY_REL)
    identity("n_photons = 2 gamma_vac p^2", col["n_photons"],
             2.0 * col["gamma_vac"] * p_bar**2, 1e-300)
    identity("gamma = gamma_vac + gamma_th", col["gamma"],
             col["gamma_vac"] + col["gamma_th"], 0.0)
    _require(bool(np.all((col["valid"] == 0.0) | (col["valid"] == 1.0))), "valid not 0/1")
    tau_d = 1.0 / (m.omega * m.dp)
    tau_0 = math.inf if p_bar == 0.0 else 1.0 / (p_bar * m.omega)
    bound = min(tau_d, tau_0)
    length = HBAR / (M_E * C)
    dr = 1.5 / m.dp
    picks = {0, points - 1, *rng.sample(range(points), min(SAMPLE_ROWS, points))}
    for i in sorted(picks):
        c = dict(zip(SCAN_COLUMNS, data[i].tolist()))
        tau = c["t_s"] * m.omega
        _expect("t_omega", i, c["t_omega"], tau, 1e-11)
        gv, gt = m.gamma_vac(tau), m.gamma_th(tau)
        _expect("gamma_vac", i, c["gamma_vac"], gv)
        _expect("gamma_th", i, c["gamma_th"], gt, REL, 1e-300)
        inter, free = m.phi_parts(tau)
        phi_scale = abs(inter) + abs(free)      # no cancellation floor below this
        _expect("phi", i, c["phi"], inter + free, 0.0, REL * phi_scale)
        _expect("mean_q", i, c["mean_q"], -2.0 * m.p0 * (inter + free) * length, 0.0,
                REL * 2.0 * m.p0 * phi_scale * length)
        _expect("delta_p", i, c["delta_p"], m.dp)
        s = m.s_lin(gv + gt)
        _expect("s_lin", i, c["s_lin"], s, REL, 1e-14)
        _expect("l_p", i, c["l_p"], m.dp * (1.0 - s))
        dm = m.mass_ratio(tau)
        _expect("delta_m_over_m0", i, c["delta_m_over_m0"], dm)
        _expect("mean_v", i, c["mean_v"], m.p0 * (1.0 - dm) * C)
        t_int = tau / m.eps
        _expect("delta_r_free", i, c["delta_r_free"],
                dr * math.sqrt(1.0 + (m.dp * t_int / dr) ** 2) * length)
        inv_mass = 1.0 - 2.0 * _coupling(m.alpha) * m.eps * _tau_minus_atan(tau) / tau
        width = dr * math.sqrt(1.0 + (m.dp * t_int * inv_mass / dr) ** 2
                               + 6.0 * (gv + gt) / dr**2)
        _expect("delta_r", i, c["delta_r"], width * length)
        _expect("l_r", i, c["l_r"], width * length * (1.0 - s))
        _expect("n_photons", i, c["n_photons"],
                _coupling(m.alpha) * p_bar**2 * math.log1p(tau * tau), REL, 1e-300)
        _expect("e_field", i, c["e_field"],
                4.0 * _coupling(m.alpha) * m.eps * tau * tau / (1.0 + tau * tau)
                * 0.5 * p_bar**2 * M_E * C * C, REL, 1e-300)
        if abs(c["t_s"] / bound - 1.0) > 1e-9:
            _require(c["valid"] == float(c["t_s"] <= bound), f"row {i}: valid flag")


# -- figures -------------------------------------------------------------------

def _fig_taus() -> list[float]:
    return [10.0 ** (-3.0 + 9.0 * k / (FIG_TAUS - 1)) for k in range(FIG_TAUS)]


def check_figure(cfg: dict[str, float], rc: int, path: str, which: str,
                 rng: random.Random) -> None:
    _require(rc == 0, f"exit code {rc}")
    if which == "fig3":
        return _check_fig3(cfg, path, rng)
    cols = FIG_COLUMNS[which]
    outer = FIG_ZETAS if which == "fig1" else FIG_ALPHAS
    data = load_table(path, cols, len(outer) * FIG_TAUS)
    m = Model(cfg)
    if which == "fig1" and "temperature_K" not in cfg:
        m = Model({**cfg, "temperature_K": 300.0})
    taus = _fig_taus()
    for i in sorted(rng.sample(range(len(data)), SAMPLE_ROWS)):
        c = dict(zip(cols, data[i].tolist()))
        a_or_z, tau = outer[i // FIG_TAUS], taus[i % FIG_TAUS]
        _expect("t_omega", i, c["t_omega"], tau, 1e-11)
        if "t_s" in c:
            _expect("t_s", i, c["t_s"], tau / m.omega, 1e-11)
        if which == "fig1":
            _expect("zeta", i, c["zeta"], a_or_z, 0.0)
            _expect("gamma_vac_pp", i, c["gamma_vac_pp"], a_or_z * _log_sqrt_one_plus_sq(tau))
            x = 0.0 if math.isinf(m.theta) else math.pi * tau / m.theta
            _expect("gamma_th_pp", i, c["gamma_th_pp"], a_or_z * _log_sinhc(x), REL, 1e-300)
        elif which == "fig2":
            _expect("alpha", i, c["alpha"], a_or_z, 0.0)
            want = math.exp(-m.gamma_vac(tau, a_or_z) * m.dp**2)
            _expect("exp_neg_gamma_vac_pp", i, c["exp_neg_gamma_vac_pp"], want, REL, 1e-300)
        else:
            _expect("alpha", i, c["alpha"], a_or_z, 0.0)
            gamma = m.gamma_vac(tau, a_or_z) + m.gamma_th(tau, a_or_z)
            _expect("s_lin", i, c["s_lin"], m.s_lin(gamma), REL, 1e-14)


def _check_fig3(cfg: dict[str, float], path: str, rng: random.Random) -> None:
    n = FIG3_POINTS
    cols = FIG_COLUMNS["fig3"]
    labels = load_table(path, cols, 2 * n * n, dtype=str, usecols=0)[:, 0]
    _require(bool(np.all(labels[: n * n] == "initial"))
             and bool(np.all(labels[n * n:] == "3tau_vac")), "fig3 labels")
    data = load_table(path, cols, 2 * n * n, usecols=(1, 2, 3, 4))
    m = Model({"alpha": FIG3_ALPHA, "p0_over_m0c": 0.0, **cfg})
    p0 = m.p0
    t_dec = data[n * n, 0]
    _require(t_dec > 0.0 and bool(np.all(data[: n * n, 0] == 0.0))
             and bool(np.all(data[n * n:, 0] == t_dec)), "fig3 times")
    centre = (n // 2) * (n + 1)
    _expect("initial peak", centre, data[centre, 3], 1.0, 1e-10)
    for i in sorted({*rng.sample(range(len(data)), SAMPLE_ROWS), centre}):
        t_s, p, pp, val = data[i].tolist()
        _expect("p", i, p, p0 + m.dp * (-4.0 + 8.0 * ((i % (n * n)) // n) / (n - 1)),
                1e-10, 1e-11 * m.dp)
        tau = t_s * m.omega
        gamma = m.gamma_vac(tau) + m.gamma_th(tau)
        want = math.exp(-3.0 * ((p - p0) ** 2 + (pp - p0) ** 2) / (4.0 * m.dp**2)
                        - gamma * (p - pp) ** 2)
        _expect("rho_abs_normalized", i, val, want, 1e-8, 1e-300)


# -- rho -----------------------------------------------------------------------

def check_rho(cfg: dict[str, float], rc: int, path: str, rep: str, points: int,
              t_s: float) -> None:
    _require(rc == 0, f"exit code {rc}")
    names = (["p_over_m0c", "p_prime_over_m0c"] if rep == "p"
             else ["q_mc_over_hbar", "q_prime_mc_over_hbar"])
    n = points
    data = load_table(path, ["t_s", *names, "re", "im", "abs"], n * n)
    _require(bool(np.all(data[:, 0] == data[0, 0])) and _close(data[0, 0], t_s, 1e-11),
             "t_s column")
    a = data[:, 1].reshape(n, n)
    b = data[:, 2].reshape(n, n)
    grid = a[:, 0]
    _require(bool(np.all(a == grid[:, None])) and bool(np.all(b == grid[None, :])),
             "grid layout")
    _require(bool(np.all(np.diff(grid) > 0.0)), "grid not increasing")
    re = data[:, 3].reshape(n, n)
    im = data[:, 4].reshape(n, n)
    ab = data[:, 5].reshape(n, n)
    peak = float(np.max(ab))
    tol = 1e-10 * peak
    _require(bool(np.all(np.abs(re - re.T) <= tol)) and bool(np.all(np.abs(im + im.T) <= tol)),
             "not Hermitian: rho(a, b) != conj rho(b, a)")
    _require(bool(np.all(np.abs(np.hypot(re, im) - ab) <= tol)), "abs != |re + i im|")
    diag = np.diagonal(re)
    trace = float(np.sum(0.5 * (diag[1:] + diag[:-1]) * np.diff(grid)))
    # The grid spans +-4 delta_p (p) or +-4 delta_r(t)/sqrt(3) (r) about the
    # centre; the diagonal is a Gaussian of variance delta_p^2/3 (p) or
    # delta_r(t)^2/3 (r), so the grid holds erf(4 sqrt(3/2)) or erf(4/sqrt(2))
    # of the unit trace; the trapezoid end correction at 201 points is 1.4e-7.
    inside = math.erf(4.0 * math.sqrt(1.5)) if rep == "p" else math.erf(4.0 / math.sqrt(2.0))
    _require(abs(trace - inside) <= 1e-6, f"trace {trace!r}, expected {inside!r}")


def _flag(argv: list[str], name: str) -> str:
    return argv[argv.index(name) + 1]


def check(argv: list[str], cfg: dict[str, float], rc: int, path: str, stdout: str,
          rng: random.Random) -> dict:
    """Check one op's output; raises CheckError on the first failed check.

    Returns what the record keeps: the max rel_err per check for ``verify``.
    """
    cmd = argv[0]
    if cmd == "verify":
        return check_verify(cfg, rc, path, stdout)
    if cmd == "scan":
        check_scan(cfg, rc, path, int(_flag(argv, "--t-points")), _flag(argv, "--t-scale"), rng)
    elif cmd == "figure":
        check_figure(cfg, rc, path, argv[1], rng)
    elif cmd == "rho":
        check_rho(cfg, rc, path, _flag(argv, "--rep"), int(_flag(argv, "--points")),
                  float(_flag(argv, "--t-s")))
    else:
        raise CheckError(f"no check for command {cmd!r}")
    return {}
