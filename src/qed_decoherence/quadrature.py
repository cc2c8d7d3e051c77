"""Adaptive Gauss-Kronrod panel quadrature with oscillatory-cycle acceleration.

Two building blocks, both deterministic (fixed panel ordering, sequential
accumulation) so every report is reproducible bit for bit:

* `adaptive`: global-adaptive G7/K15 bisection on a finite interval, with
  optional caller-supplied breakpoints so integrands with widely separated
  scales (thermal structure at omega ~ 1/theta under a cutoff at omega ~ 1)
  are pre-resolved instead of discovered. Panels are evaluated in batches:
  all breakpoint panels in one integrand call, then both halves of each
  bisection in one call. `kronrod_panel` gives every panel the same bits in
  a batch as alone, and the panels enter the heap and the running sums in
  the order of one-at-a-time evaluation, so the refinement path and the
  panel counts are those of that evaluation and runs stay reproducible.

* `oscillatory`: integrals of g(w) cos(w tau) or g(w) sin(w tau) with a
  smooth decaying envelope g. One K15 panel per half period; the sequence of
  partial cycle sums is extrapolated with Wynn's epsilon algorithm, which
  converges from a few hundred cycles even when the envelope extends over
  millions (Omega t reaches 1e6 on the verification grid).

Only the integrands this package needs are driven through here; this is not a
general-purpose quadrature surface.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

__all__ = ["QuadResult", "QuadratureError", "QuadratureSpec", "adaptive", "kronrod_panel",
           "oscillatory", "trapezoid_weights", "wynn_epsilon"]


class QuadratureError(RuntimeError):
    """Non-convergence, with diagnostics in the message."""


# G7/K15 nodes and weights on [-1, 1] (Kronrod extension of 7-point Gauss).
_XGK = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691,
    0.741531185599394, 0.864864423359769, 0.949107912342759,
    0.991455371120813,
])
_WGK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
    0.204432940075298, 0.190350578064785, 0.169004726639267,
    0.140653259715525, 0.104790010322250, 0.063092092629979,
    0.022935322010529,
])
# 7-point Gauss weights aligned with the odd-index Kronrod nodes
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469, 0.381830050505119, 0.279705391489277,
    0.129484966168870,
])


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and structural knobs for the oracle quadratures."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-14
    max_subdivisions: int = 4000
    cutoff_multiple: float = 50.0      # omega_max = multiple * Omega
    oscillation_threshold: float = 10.0  # switch to per-period handling above this tau
    max_cycles: int = 4000             # half-period panels before giving up


@dataclass
class QuadResult:
    """Value with an honest error estimate and panel diagnostics."""

    value: float
    error: float
    panels: int
    tail_bound: float = 0.0
    converged: bool = True

    def __add__(self, other: "QuadResult") -> "QuadResult":
        return QuadResult(
            value=self.value + other.value,
            error=self.error + other.error,
            panels=self.panels + other.panels,
            tail_bound=self.tail_bound + other.tail_bound,
            converged=self.converged and other.converged,
        )

    def __neg__(self) -> "QuadResult":
        return QuadResult(self.value * -1.0, self.error, self.panels,
                          self.tail_bound, self.converged)


def kronrod_panel(f, a: float | np.ndarray, b: float | np.ndarray
                  ) -> tuple[float, float] | tuple[np.ndarray, np.ndarray]:
    """(K15 value, error estimate) on [a, b]; f must accept a 1-D ndarray.

    a and b may also be equal-length 1-D arrays of panel ends. f is then
    called once, on the nodes of every panel in a row, and the values and
    estimates come back as arrays. Each panel's weighted sums are one dot
    product over its own 15 nodes, so a panel gives the same bits alone as in
    any batch.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    h = 0.5 * (b - a)
    x = (0.5 * (b + a))[..., None] + h[..., None] * _XGK
    y = np.asarray(f(x.ravel()), dtype=float).reshape(x.shape)
    k15 = h * np.vecdot(y, _WGK)
    g7 = h * np.vecdot(y[..., 1::2], _WG)
    err = np.abs(k15 - g7)
    if k15.ndim == 0:
        return float(k15), float(err)
    return k15, err


def adaptive(f, a: float, b: float, spec: QuadratureSpec,
             breakpoints: tuple[float, ...] = ()) -> QuadResult:
    """Global-adaptive G7/K15 on [a, b]: repeatedly bisect the panel with the
    largest error estimate until the summed estimate meets the tolerance.

    The heap is keyed (error, position), so the refinement order, and with it
    the floating-point accumulation, is reproducible run to run.
    """
    if not b > a:
        return QuadResult(0.0, 0.0, 0)
    pts = sorted({a, b, *(p for p in breakpoints if a < p < b)})

    heap: list[tuple[float, float, float, float]] = []   # (-err, lo, hi, value)
    panels = 0
    live_val = 0.0
    live_err = 0.0
    settled_val = 0.0     # panels at the round-off floor, kept out of the heap
    settled_err = 0.0

    def push(lo: list[float], hi: list[float]) -> None:
        """Evaluate the panels [lo[k], hi[k]] in one call, then file them in order."""
        nonlocal panels, live_val, live_err
        vals, errs = kronrod_panel(f, lo, hi)
        for lo_k, hi_k, v, e in zip(lo, hi, vals.tolist(), errs.tolist()):
            panels += 1
            heapq.heappush(heap, (-e, lo_k, hi_k, v))
            live_val += v
            live_err += e

    push(pts[:-1], pts[1:])

    while heap:
        value = live_val + settled_val
        if live_err + settled_err <= max(spec.abs_tol, spec.rel_tol * abs(value)):
            break
        if panels >= spec.max_subdivisions:
            raise QuadratureError(
                f"adaptive quadrature exceeded {spec.max_subdivisions} panels on "
                f"[{a:g}, {b:g}] (error estimate {live_err + settled_err:.3g})"
            )
        neg_e, lo, hi, v = heapq.heappop(heap)
        e = -neg_e
        live_val -= v
        live_err -= e
        mid = 0.5 * (lo + hi)
        at_floor = (
            e <= 4.0 * 2.2e-16 * abs(v)
            or (hi - lo) <= 1e-15 * max(abs(lo), abs(hi))
            or not (lo < mid < hi)
        )
        if at_floor:
            settled_val += v
            settled_err += e
            continue
        push([lo, mid], [mid, hi])
    return QuadResult(value=live_val + settled_val, error=live_err + settled_err,
                      panels=panels)


def wynn_epsilon(partial_sums) -> tuple[float, float]:
    """Wynn epsilon extrapolation of a sequence of partial sums.

    Returns (limit estimate, error estimate from the last stable column).
    Standard guarded implementation: near-zero denominators terminate the
    table instead of amplifying noise.
    """
    s = [float(x) for x in partial_sums]
    n = len(s)
    if n == 0:
        raise QuadratureError("wynn_epsilon needs at least one partial sum")
    if n < 3:
        return s[-1], abs(s[-1] - s[0]) if n > 1 else abs(s[-1])
    prev2 = [0.0] * (n + 1)            # epsilon_{-1}
    prev1 = s[:]                       # epsilon_0
    best = s[-1]
    best_err = abs(s[-1] - s[-2])
    for col in range(1, n):
        cur = []
        for j in range(len(prev1) - 1):
            diff = prev1[j + 1] - prev1[j]
            if abs(diff) < 1e-305:
                cur = []
                break
            cur.append(prev2[j + 1] + 1.0 / diff)
        if not cur:
            break
        # only even columns approximate the limit; odd ones are auxiliary
        if col % 2 == 0 and len(cur) >= 2:
            err = abs(cur[-1] - cur[-2])
            if err < best_err:
                best, best_err = cur[-1], err
        prev2, prev1 = prev1, cur
        if len(prev1) < 2:
            break
    return best, best_err


def oscillatory(g, tau: float, a: float, b: float, kind: str,
                spec: QuadratureSpec) -> QuadResult:
    """integral_a^b g(w) * {cos|sin}(w tau) dw for smooth decaying g, tau > 0.

    K15 per half period pi/tau plus epsilon acceleration of the cycle sums.
    Falls back to the plain accumulated sum if the interval is exhausted
    first (the envelope then bounds the remainder).
    """
    if kind == "cos":
        trig = np.cos
    elif kind == "sin":
        trig = np.sin
    else:
        raise QuadratureError(f"unknown oscillation kind {kind!r}")
    f = lambda w: g(w) * trig(w * tau)
    h = math.pi / tau
    if (b - a) <= 2.0 * h:
        return adaptive(f, a, b, spec)

    sums = []
    total = 0.0
    panels = 0
    err_last = math.inf
    extrapolated = None
    prev_extrap = None
    stable = 0
    lo = a
    for k in range(spec.max_cycles):
        hi = min(lo + h, b)
        v, e = kronrod_panel(f, lo, hi)
        total += v
        panels += 1
        sums.append(total)
        lo = hi
        if len(sums) >= 8 and k % 2 == 1:
            window = sums[-64:]
            est, err = wynn_epsilon(window)
            if prev_extrap is not None:
                drift = abs(est - prev_extrap)
                scale = max(abs(est), spec.abs_tol)
                if drift <= max(spec.abs_tol, 0.1 * spec.rel_tol * scale) and err <= max(
                    spec.abs_tol, spec.rel_tol * scale
                ):
                    stable += 1
                    if stable >= 2:
                        return QuadResult(value=est, error=err + drift, panels=panels)
                else:
                    stable = 0
            prev_extrap = est
            extrapolated, err_last = est, err
        if lo >= b:
            # interval exhausted; the direct sum is already complete
            tail = abs(v)
            return QuadResult(value=total, error=tail + e, panels=panels)
    if extrapolated is not None and err_last < 1e-6 * max(abs(extrapolated), 1.0):
        return QuadResult(value=extrapolated, error=err_last, panels=panels,
                          converged=False)
    raise QuadratureError(
        f"oscillatory quadrature did not stabilize after {spec.max_cycles} cycles "
        f"(tau = {tau:g}, last epsilon error {err_last:.3g})"
    )


def trapezoid_weights(grid: np.ndarray) -> np.ndarray:
    """Composite-trapezoid weights for an arbitrary 1-D grid."""
    x = np.asarray(grid, dtype=float)
    w = np.zeros_like(x)
    dx = np.diff(x)
    w[:-1] += 0.5 * dx
    w[1:] += 0.5 * dx
    return w
