"""Span tracing for the traced run, installed from outside the package.

``Tracer.install`` wraps the public functions of each layer module, and the
class and static methods of its public classes, then rebinds every name in
the package that refers to an original. That covers names a caller imported
into its own namespace (``oracle.adaptive`` as well as
``quadrature.adaptive``) and class methods such as
``DecoherenceFactors.at_time``. In ``cli`` only ``main`` and ``write_csv``
are wrapped, so the command bodies' own loops count as ``cli.main`` self
time. Nothing under ``src/`` changes; ``uninstall`` restores every name.

Each span records its name, start, end, parent span and op id. Spans stay in
memory until the run ends; per-name call counts, total time and self time
(span time minus the time covered by wrapped children) are kept as they go.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
import sys
import types
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("cli", "decoherence", "observables", "field", "densmat", "oracle", "quadrature")
CLI_NAMES = ("main", "write_csv")

# Spans a traced run of each workload must see; zero calls means a patch
# missed the name its caller looks up.
REQUIRED = {
    "verify": (
        "cli.main", "oracle.run_all", "oracle.transform_consistency", "oracle.fourier_rho_r",
        "densmat.rho_p_matrix", "oracle.quad_gamma_vac", "oracle.quad_photon",
        "oracle.quad_phase", "oracle.quad_field_energy", "oracle.quad_gamma_th",
        "oracle.quad_gamma_total", "oracle.quad_photon_continuum",
        "quadrature.kronrod_panel", "quadrature.adaptive", "quadrature.oscillatory",
        "quadrature.wynn_epsilon",
    ),
    "scan": (
        "cli.main", "cli.write_csv", "decoherence.DecoherenceFactors.at_time",
        "observables.snapshot", "observables.linear_entropy",
        "field.mean_photon_number", "field.mean_field_energy",
    ),
    "rho": (
        "cli.main", "cli.write_csv", "densmat.rho_p_matrix", "densmat.rho_r_matrix",
        "decoherence.DecoherenceFactors.at_time",
    ),
}

ORACLE_QUADS = ("quad_gamma_vac", "quad_photon", "quad_phase", "quad_field_energy",
                "quad_gamma_th", "quad_gamma_total", "quad_photon_continuum")


# -- counters recorded from a wrapped call's arguments and result -------------

def _on_write_csv(counters, args, result):
    counters["cli.write_csv.rows"] += len(args["rows"])
    if args["out"] is not None:
        counters["cli.write_csv.bytes"] += os.path.getsize(args["out"])


def _on_rho_p_matrix(counters, args, result):
    counters["densmat.rho_p_matrix.elements"] += len(args["p_grid"]) ** 2


def _on_rho_r_matrix(counters, args, result):
    counters["densmat.rho_r_matrix.elements"] += len(args["q_grid"]) ** 2


def _on_fourier_rho_r(counters, args, result):
    n_p, n_q = len(args["p_grid"]), len(args["q_grid"])
    # two complex matrix products, 8 real flops per complex multiply-add
    counters["oracle.fourier_rho_r.gflop"] += 8.0 * (n_q * n_p**2 + n_q**2 * n_p) * 1e-9


def _on_oscillatory(counters, args, result):
    counters["quadrature.oscillatory.converged"] += bool(result.converged)


def _on_run_all(counters, args, result):
    worst = max(r.rel_err / r.tolerance for r in result)
    key = "oracle.worst_err_over_tol"
    counters[key] = max(counters.get(key, 0.0), worst)


HOOKS = {
    "cli.write_csv": _on_write_csv,
    "densmat.rho_p_matrix": _on_rho_p_matrix,
    "densmat.rho_r_matrix": _on_rho_r_matrix,
    "oracle.fourier_rho_r": _on_fourier_rho_r,
    "quadrature.oscillatory": _on_oscillatory,
    "oracle.run_all": _on_run_all,
}


class Tracer:
    """Wraps the layer functions of one package and records spans."""

    def __init__(self):
        self.names: list[str] = []
        self.stats: dict[str, list[float]] = {}  # name -> [calls, total_s, self_s]
        self.spans = array("d")                 # id, name, start, end, parent, op
        self.counters: dict[str, float] = defaultdict(float)
        self.op = -1
        self._stack: list[list[float]] = []     # [child_s, span id] per open span
        self._next_id = 0
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        idx = len(self.names)
        self.names.append(name)
        st = self.stats[name] = [0, 0.0, 0.0]
        stack, spans, tracer = self._stack, self.spans, self
        hook = HOOKS.get(name)
        sig = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id = sid + 1
            parent = stack[-1][1] if stack else -1
            frame = [0.0, sid]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                d = t1 - t0
                if stack:
                    stack[-1][0] += d
                st[0] += 1
                st[1] += d
                st[2] += d - frame[0]
                spans.extend((sid, idx, t0, t1, parent, tracer.op))
            if hook is not None:
                hook(tracer.counters, sig.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self, package: str = "qed_decoherence") -> None:
        originals: dict[int, tuple[object, object]] = {}
        for short in LAYERS:
            mod = importlib.import_module(f"{package}.{short}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if short == "cli" and attr not in CLI_NAMES:
                    continue
                if isinstance(obj, types.FunctionType):
                    originals[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
                elif isinstance(obj, type):
                    for mname, member in list(vars(obj).items()):
                        if not mname.startswith("_") and isinstance(
                                member, (classmethod, staticmethod)):
                            wrapped = self._wrap(f"{short}.{attr}.{mname}", member.__func__)
                            self._set(obj, mname, type(member)(wrapped))
        for mname, mod in list(sys.modules.items()):
            if mod is None or not (mname == package or mname.startswith(package + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, attr, hit[1])

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results ---------------------------------------------------------------

    def stat(self, name: str) -> tuple[int, float, float]:
        """(calls, total_s, self_s) of one wrapped name; zeros if it was never wrapped."""
        return tuple(self.stats.get(name, (0, 0.0, 0.0)))

    def missing(self, workload: str) -> list[str]:
        """Required spans that saw no call, including ones no wrapper exists for."""
        return [n for n in REQUIRED[workload] if self.stat(n)[0] == 0]

    def write_spans(self, path: str) -> int:
        """Write every span as a compressed numpy archive; returns the span count."""
        rec = np.frombuffer(self.spans, dtype=float).reshape(-1, 6)
        start0 = rec[:, 2].min() if len(rec) else 0.0
        np.savez_compressed(
            path,
            id=rec[:, 0].astype(np.int64),
            name=rec[:, 1].astype(np.int32),
            start_s=rec[:, 2] - start0,
            end_s=rec[:, 3] - start0,
            parent=rec[:, 4].astype(np.int64),
            op=rec[:, 5].astype(np.int32),
            names=np.array(self.names),
        )
        return len(rec)

    def layer_metrics(self, traced_p50: float,
                      untraced_p50: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as {name: (value, unit)}; ratios with a zero base read 0."""
        m: dict[str, tuple[float, str]] = {}
        c = self.counters

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        def put(name: str, *, calls: bool = True, self_s: bool = True) -> tuple:
            st = self.stat(name)
            if calls:
                m[f"{name}.calls"] = (st[0], "count")
            if self_s:
                m[f"{name}.self_s"] = (st[2], "s")
            return st

        m["cli.main.self_s"] = (self.stat("cli.main")[2], "s")
        wc = put("cli.write_csv")
        m["cli.write_csv.rows"] = (c["cli.write_csv.rows"], "count")
        m["cli.write_csv.bytes"] = (c["cli.write_csv.bytes"], "B")
        m["cli.write_csv.mb_per_s"] = (ratio(c["cli.write_csv.bytes"] * 1e-6, wc[1]), "MB/s")
        at = put("decoherence.DecoherenceFactors.at_time")
        m["decoherence.at_time_per_row"] = (ratio(at[0], c["cli.write_csv.rows"]), "1")
        put("observables.snapshot")
        put("observables.linear_entropy")
        put("field.mean_photon_number", calls=False)
        put("field.mean_field_energy", calls=False)
        rp = put("densmat.rho_p_matrix")
        m["densmat.rho_p_matrix.elements"] = (c["densmat.rho_p_matrix.elements"], "count")
        m["densmat.rho_p_matrix.ns_per_element"] = (
            ratio(rp[2] * 1e9, c["densmat.rho_p_matrix.elements"]), "ns")
        put("densmat.rho_r_matrix")
        m["densmat.rho_r_matrix.elements"] = (c["densmat.rho_r_matrix.elements"], "count")
        fr = put("oracle.fourier_rho_r")
        m["oracle.fourier_rho_r.gflop"] = (c["oracle.fourier_rho_r.gflop"], "GFLOP")
        m["oracle.fourier_rho_r.gflop_per_s"] = (
            ratio(c["oracle.fourier_rho_r.gflop"], fr[2]), "GFLOP/s")
        put("oracle.transform_consistency", calls=False)
        put("oracle.run_all", calls=False)
        quad_calls = sum(put(f"oracle.{q}", self_s=False)[0] for q in ORACLE_QUADS)
        m["oracle.worst_err_over_tol"] = (c.get("oracle.worst_err_over_tol", 0.0), "1")
        kp = put("quadrature.kronrod_panel")
        m["quadrature.kronrod_panel.us_per_call"] = (ratio(kp[2] * 1e6, kp[0]), "us")
        put("quadrature.adaptive")
        osc = put("quadrature.oscillatory")
        m["quadrature.oscillatory.converged_frac"] = (
            ratio(c["quadrature.oscillatory.converged"], osc[0]), "1")
        put("quadrature.wynn_epsilon")
        m["quadrature.panels_per_oracle_point"] = (ratio(kp[0], quad_calls), "1")
        m["trace.overhead_frac"] = (traced_p50 / untraced_p50 - 1.0, "1")
        m["trace.spans"] = (self._next_id, "count")
        for name, (value, _) in m.items():
            if not math.isfinite(value):
                raise ValueError(f"per-layer metric {name} is {value}")
        return m
