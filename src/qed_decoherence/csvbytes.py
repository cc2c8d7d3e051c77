"""Exact printf bytes for CSV cells, formatted in numpy.

float_bytes writes, for a float array, the bytes of '%.{k-1}e' % v as rows of a
uint8 matrix and a mask of the bytes in use; text_bytes does the same for
strings. cli.write_csv lays these rows into its line buffer. The method is
that of correctly rounded float printing (Steele & White, "How to print
floating-point numbers accurately", PLDI 1990): scale by a correctly rounded
power of ten, round, and hand every value whose rounding the arithmetic cannot
settle to Python's own formatting.
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = ["float_bytes", "float_template", "text_bytes"]


def text_bytes(texts: list[str], width: int | None = None):
    """The UTF-8 of texts as the rows of a uint8 matrix, left-justified, and the
    mask of the bytes that belong to each text."""
    encoded = [t.encode("utf-8") for t in texts]
    width = max(map(len, encoded), default=0) if width is None else width
    chars = np.frombuffer(b"".join(t.ljust(width) for t in encoded), np.uint8)
    lengths = np.array([len(t) for t in encoded], dtype=np.intp)
    return chars.reshape(len(encoded), width), np.arange(width) < lengths[:, None]


@functools.cache
def _digit_tables():
    """The ASCII of 0000 ... 9999, and of the exponent tails '+hdd' of e in
    [-400, 400), 4 bytes each read as little-endian uint32. Built on first use."""
    digits = np.frombuffer(b"0123456789", np.uint8)
    quads = np.empty((10, 10, 10, 10, 4), np.uint8)
    for i in range(4):
        quads[..., i] = digits.reshape((1,) * i + (10,) + (1,) * (3 - i))
    tails = "".join(f"{e:+04d}" for e in range(-400, 400)).encode()
    return quads.view("<u4").ravel(), np.frombuffer(tails, "<u4")


@functools.cache
def _powers_of_ten() -> np.ndarray:
    """10**s for s in [-300, 309), each parsed from "1e{s}", so correctly rounded."""
    return np.array([float(f"1e{s}") for s in range(-300, 309)])


def float_template(shape, sigfigs: int):
    """Rows of float_bytes' constant bytes, '-0.0...e+000', and a mask of ones."""
    text = "-0." + "0" * (sigfigs - 1) + "e+000"
    return (np.broadcast_to(np.frombuffer(text.encode(), np.uint8), (*shape, len(text))).copy(),
            np.ones((*shape, len(text)), bool))


def float_bytes(x, sigfigs: int, out=None):
    """The bytes of '%.{sigfigs-1}e' % v for each v of the float array x, as a uint8
    array of x.shape + (sigfigs + 7,) and the mask of the bytes that belong to the
    text. `out` is such a pair that holds float_template's bytes, written in place.

    A finite value reads '-d.ddd' 'e+hdd', the sign and the exponent's hundreds
    digit masked out where absent; nan and inf are written left-justified. The
    k = sigfigs digits are the rounded m = |v| 10**(k-1-e), e = floor(log10|v|)
    moved once where m leaves [10**(k-1), 10**k). m carries at most two roundings
    of eps/2, so where it is more than 4 eps m from a half integer, and
    eps 10**k < 0.05 keeps the decade right (k <= 14), that rounding is Python's.
    Python formats every other value, and every value at k > 14 or past 1e+-290."""
    x = np.asarray(x, dtype=float)
    k = sigfigs
    chars, mask = out if out is not None else float_template(x.shape, k)
    eps = np.finfo(float).eps
    python = np.ones(x.shape, bool)
    if eps * 10 ** k < 0.05:
        (quads, tails), tens = _digit_tables(), _powers_of_ten()
        a = np.abs(x)
        zero = a == 0.0
        python = ~((a > 1e-290) & (a < 1e290))
        a[python] = 1.0
        e = np.floor(np.log10(a)).astype(np.intp)
        lo, hi = 10 ** (k - 1), 10 ** k
        m = a * tens.take(k + 299 - e)
        digits = m.astype(np.int64)   # floor(m)
        moved = np.nonzero((digits < lo) | (digits >= hi))
        if moved[0].size:
            e[moved] += np.where(digits[moved] >= hi, 1, -1)
            m[moved] = a[moved] * tens.take(k + 299 - e[moved])
            digits[moved] = m[moved].astype(np.int64)
        half = (m - digits) - 0.5   # exact; > 0 rounds up
        python |= (np.abs(half) <= m * (4.0 * eps)) | (digits < lo) | (digits >= hi)
        digits += half > 0.0
        del a, m, half
        up = digits == hi   # rounded up into the next decade: 10**(k-1) at e + 1
        e[up] += 1
        digits[up] = lo
        e[zero], digits[zero], python[zero] = 0, 0, False
        # the k - 1 digits after the point four at a time from the right; the
        # leftmost group may spill leading zeros over the sign, lead digit and point
        lead, rest = np.divmod(digits, lo)
        for end in range(k + 2, 3, -4):
            rest, group = np.divmod(rest, 10000)
            chars[..., end - 4:end].view("<u4")[..., 0] = quads.take(group)
        np.add(lead, ord("0"), out=chars[..., 1], casting="unsafe")
        chars[..., 2] = ord(".")
        if k % 4 == 2:
            chars[..., 0] = ord("-")
        chars[..., k + 3:k + 7].view("<u4")[..., 0] = tails.take(e + 400)
        mask[..., 0] = np.signbit(x)   # not out=: numpy 2.4's signbit misses a strided out
        mask[..., k + 4] = np.abs(e) >= 100
    python = np.nonzero(python)
    if python[0].size:
        # each distinct bit pattern once; a finite value's text in the layout above
        bits = x[python].view(np.int64).tolist()
        distinct = {b: i for i, b in enumerate(dict.fromkeys(bits))}
        values = np.array(list(distinct), dtype=np.int64).view(np.float64)
        texts = []
        for v in values.tolist():
            text = "%.*e" % (k - 1, v)
            if math.isfinite(v):
                mant, exp = text.split("e")
                text = mant.rjust(k + 2, "-") + "e" + exp[0] + exp[1:].rjust(3, "0")
            texts.append(text)
        text_chars, text_mask = text_bytes(texts, chars.shape[-1])
        finite = np.isfinite(values)
        text_mask[finite, 0] = np.signbit(values[finite])
        text_mask[finite, k + 4] = text_chars[finite, k + 4] != ord("0")
        inverse = np.array([distinct[b] for b in bits], dtype=np.intp)
        chars[python], mask[python] = text_chars[inverse], text_mask[inverse]
    return chars, mask
