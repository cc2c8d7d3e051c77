"""csvbytes: the bytes of printf's %.{k-1}e for every double, and of text."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qed_decoherence import csvbytes


def _texts(chars, mask):
    """The masked bytes of each row of float_bytes' output, decoded."""
    rows = chars.reshape(-1, chars.shape[-1])
    return [bytes(r[m]).decode() for r, m in zip(rows, mask.reshape(rows.shape))]


_FLOAT_CASES = [
    0.125, 2.5, 9.5, 99.5, 0.95, 9.999999999995, 1e22, 1e23, 5e-324, 1.7976931348623157e308,
    2.2250738585072014e-308, 1e-19, 1e-100, 9.9999e99, 1e100, 123456789.5, 0.0, -0.0,
    math.nan, math.inf, -math.inf, -2.5, -1e-300,
]


class TestFloatBytes:
    """csvbytes.float_bytes writes the bytes of '%.{sigfigs-1}e' % v exactly."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(), min_size=1, max_size=30), st.integers(2, 20))
    def test_same_bytes_as_printf(self, values, sigfigs):
        chars, mask = csvbytes.float_bytes(np.array(values), sigfigs)
        assert _texts(chars, mask) == ["%.*e" % (sigfigs - 1, v) for v in values]

    @pytest.mark.parametrize("sigfigs", range(2, 21))
    def test_ties_decades_and_extremes(self, sigfigs):
        # every power of ten, its neighbours and its halfway cases, plus the listed cases
        p10 = 10.0 ** np.arange(-323, 309)
        x = np.concatenate([_FLOAT_CASES, p10, np.nextafter(p10, 0.0), np.nextafter(p10, 1e309),
                            5.0 * p10[:-1], -np.arange(1, 400) * 0.5])
        chars, mask = csvbytes.float_bytes(x, sigfigs)
        assert _texts(chars, mask) == ["%.*e" % (sigfigs - 1, v) for v in x.tolist()]

    @pytest.mark.parametrize("sigfigs", [2, 12, 14, 15, 17])
    def test_random_values_either_side_of_python_fallback(self, sigfigs):
        # sigfigs 14 is the last that numpy formats; 15 to 17 go to Python entirely
        rng = np.random.default_rng(sigfigs)
        x = np.concatenate([_FLOAT_CASES, rng.standard_normal(2000)
                            * 10.0 ** rng.integers(-300, 300, 2000)])
        chars, mask = csvbytes.float_bytes(x, sigfigs)
        assert _texts(chars, mask) == ["%.*e" % (sigfigs - 1, v) for v in x.tolist()]

    @pytest.mark.parametrize("sigfigs", range(17, 21))
    def test_exponents_either_side_of_three_digits(self, sigfigs):
        x = np.array([1e-99, 1.0, np.nextafter(1e100, 0.0), np.nextafter(1e-99, 0.0)])
        chars, mask = csvbytes.float_bytes(x, sigfigs)
        assert _texts(chars, mask) == ["%.*e" % (sigfigs - 1, v) for v in x.tolist()]

    def test_shape_width_and_template(self):
        x = np.array([[1.5, -2.5e-5], [0.0, 3.0e10]])
        chars, mask = csvbytes.float_bytes(x, 3)
        assert chars.shape == mask.shape == (2, 2, 10)   # sign, 3-digit exponent: sigfigs + 7
        assert _texts(chars, mask) == ["1.50e+00", "-2.50e-05", "0.00e+00", "3.00e+10"]
        # in place into a template, the bytes are those of a fresh call
        out = csvbytes.float_template(x.shape, 3)
        assert all(a is b for a, b in zip(csvbytes.float_bytes(x, 3, out), out))
        assert _texts(*out) == _texts(chars, mask)

    def test_powers_of_ten_are_correctly_rounded(self):
        from fractions import Fraction
        tens = csvbytes._powers_of_ten()
        for s, v in zip(range(-300, 309), tens):
            if np.isfinite(v):
                err = abs(Fraction(*v.as_integer_ratio()) - Fraction(10) ** s)
                assert err <= Fraction(*np.spacing(v).as_integer_ratio()) / 2, s

    def test_tables_are_not_built_at_import(self):
        code = ("import qed_decoherence.cli; import qed_decoherence.csvbytes as c; "
                "print(c._digit_tables.cache_info().currsize"
                " + c._powers_of_ten.cache_info().currsize)")
        env = {**os.environ, "PYTHONPATH": str(Path(csvbytes.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, check=True)
        assert done.stdout.strip() == "0"
