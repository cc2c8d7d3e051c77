"""Golden CSVs: the CLI's output must not drift past the last written digit.

Each file under tests/golden/ is the gzip-compressed CSV written by

    qed-decoherence <argv> --out <name>.csv

with the argv listed in GOLDEN, at commit b1feadb (before the closed forms
became array-native). A cell passes when it is string-identical to the
golden one, or when both are numbers within one unit of the 12th
significant figure (the CLI writes 12 by default). Comment lines and the
header must match exactly.
"""

import gzip
from decimal import Decimal
from pathlib import Path

import pytest

from qed_decoherence import cli

GOLDEN_DIR = Path(__file__).parent / "golden"

GOLDEN = {
    "scan_log_T1": ["scan", "--temperature-K", "1", "--t-points", "121"],
    "scan_linear_T1": ["scan", "--temperature-K", "1", "--t-points", "121",
                       "--t-scale", "linear"],
    "scan_log_T300": ["scan", "--temperature-K", "300", "--t-points", "121"],
    "scan_linear_T300": ["scan", "--temperature-K", "300", "--t-points", "121",
                         "--t-scale", "linear"],
    "scan_log_T0": ["scan", "--temperature-K", "0", "--t-points", "121"],
    "scan_linear_T0": ["scan", "--temperature-K", "0", "--t-points", "121",
                       "--t-scale", "linear"],
    "fig1": ["figure", "fig1"],
    "fig2": ["figure", "fig2"],
    "fig3": ["figure", "fig3"],
    "fig4": ["figure", "fig4"],
    "rho_p_t1e-19": ["rho", "--rep", "p", "--points", "41", "--t-s", "1e-19"],
    "rho_p_t1e-16": ["rho", "--rep", "p", "--points", "41", "--t-s", "1e-16"],
    "rho_r_t1e-19": ["rho", "--rep", "r", "--points", "41", "--t-s", "1e-19"],
    "rho_r_t1e-16": ["rho", "--rep", "r", "--points", "41", "--t-s", "1e-16"],
}

SIGFIGS = 12


def _last_digit_apart(got: str, want: str) -> bool:
    """Both numbers, and |got - want| is at most one unit in the last
    written digit of either."""
    try:
        a, b = Decimal(got), Decimal(want)
    except ArithmeticError:
        return False
    if not (a.is_finite() and b.is_finite()):
        return False
    unit = max(Decimal(1).scaleb(x.adjusted() - (SIGFIGS - 1)) for x in (a, b) if x != 0) \
        if (a != 0 or b != 0) else Decimal(0)
    return abs(a - b) <= unit


def cell_diffs(got_text: str, want_text: str) -> list[tuple[int, str, str, str]]:
    """(line, column, got, want) for every cell that is neither identical nor
    within one unit of the last digit; raises on a structural difference."""
    got_lines = got_text.splitlines()
    want_lines = want_text.splitlines()
    assert len(got_lines) == len(want_lines), (len(got_lines), len(want_lines))
    header = None
    bad = []
    for k, (g, w) in enumerate(zip(got_lines, want_lines)):
        if w.startswith("#") or header is None:
            assert g == w, f"line {k}: {g!r} != {w!r}"
            if not w.startswith("#"):
                header = w.split(",")
            continue
        gc, wc = g.split(","), w.split(",")
        assert len(gc) == len(wc) == len(header), f"line {k}: ragged row"
        for name, x, y in zip(header, gc, wc):
            if x != y and not _last_digit_apart(x, y):
                bad.append((k, name, x, y))
    return bad


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_matches_golden(name, tmp_path):
    out = tmp_path / f"{name}.csv"
    assert cli.main([*GOLDEN[name], "--out", str(out)]) == 0
    want = gzip.decompress((GOLDEN_DIR / f"{name}.csv.gz").read_bytes()).decode("utf-8")
    bad = cell_diffs(out.read_text(encoding="utf-8"), want)
    assert not bad, f"{len(bad)} cells differ, first: {bad[:3]}"


def test_last_digit_rule():
    assert _last_digit_apart("1.23456789012e-03", "1.23456789013e-03")
    assert not _last_digit_apart("1.23456789012e-03", "1.23456789014e-03")
    assert _last_digit_apart("9.99999999999e-01", "1.00000000000e+00")
    assert not _last_digit_apart("nan", "nan")
    assert not _last_digit_apart("initial", "3tau_vac")
