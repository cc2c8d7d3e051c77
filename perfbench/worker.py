"""One workload in one fresh process: a closed loop with one client.

    python3 perfbench/worker.py --src SRC --workload NAME --seed N --seconds S
                                --trace 0|1 --tmp DIR --result PATH
    python3 perfbench/worker.py --src SRC --import-probe

Each op is one ``cli.main(argv)`` call that starts after the previous one
returned; its output goes to DIR and is checked before the next op. Only the
calls are timed, so check time is not in any metric. Untraced (``--trace
0``): ops run until their summed wall time reaches S, after one warm-up op.
Traced (``--trace 1``): the first ``TRACE_OPS`` ops run untraced in whole
passes for S/2, then once with every layer wrapped. After either, the
default ``verify`` runs once for the record's verdict. ``--import-probe``
times the imports of a fresh interpreter.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path


TAIL_LADDER = (99, 95, 90, 80, 75, 70, 60)
MAX_FAILURE_NOTES = 5


def _import_package(src: str):
    sys.path.insert(0, src)
    import qed_decoherence.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"qed_decoherence imported from {cli.__file__}, not from {src}")
    return cli


def import_probe(src: str) -> dict:
    t0 = time.perf_counter()
    import numpy  # noqa: F401

    t1 = time.perf_counter()
    _import_package(src)
    t2 = time.perf_counter()
    return {"numpy_s": t1 - t0, "qed_decoherence_s": t2 - t1, "setup_s": t2 - t0}


def tail(times: list[float]) -> tuple[int, float]:
    """(percentile, value): the highest ladder percentile with >= 10 ops above
    it, or the median when fewer than 20 ops ran.

    Percentiles interpolate between ranks, so p50 is the median.
    """
    if len(times) < 2:
        return 50, times[0]
    cuts = statistics.quantiles(times, n=100, method="inclusive")
    for p in TAIL_LADDER:
        if sum(t > cuts[p - 1] for t in times) >= 10:
            return p, cuts[p - 1]
    return 50, cuts[49]


class Loop:
    """Runs, times and checks ops of one workload."""

    def __init__(self, cli, workload: str, seed: int, tmp: str):
        # imported here, not at the top, so --import-probe times a cold numpy
        import checks
        import workloads

        self.cli, self.checks, self.workloads = cli, checks, workloads
        self.workload, self.seed = workload, seed
        self.out = os.path.join(tmp, "op.csv")
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.check_s = 0.0
        self.max_rel_err: dict[str, float] = {}

    def run(self, index: int) -> tuple[float, bool]:
        """(wall time of the call, passed) for op ``index``."""
        argv, cfg = self.workloads.op(self.workload, self.seed, index)
        stdout = io.StringIO()
        rc, error = None, None
        if os.path.exists(self.out):
            os.remove(self.out)
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            t0 = time.perf_counter()
            try:
                rc = self.cli.main([*argv, "--out", self.out])
            except Exception:    # an escaped exception is a failed op, not a crash
                error = traceback.format_exc(limit=3)
            elapsed = time.perf_counter() - t0
        self.attempted += 1
        t_check = time.perf_counter()
        try:
            if error is not None:
                raise self.checks.CheckError(f"exception: {error}")
            info = self.checks.check(argv, cfg, rc, self.out, stdout.getvalue(),
                                     self.workloads.op_rng(self.seed, index))
        except (self.checks.CheckError, OSError, ValueError) as exc:
            self.failed += 1
            if len(self.failures) < MAX_FAILURE_NOTES:
                self.failures.append(f"op {index} {' '.join(argv)}: {exc}")
            return elapsed, False
        finally:
            self.check_s += time.perf_counter() - t_check
        for q, v in info.get("max_rel_err", {}).items():
            self.max_rel_err[q] = max(self.max_rel_err.get(q, 0.0), v)
        return elapsed, True

    def result(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "fail_frac": self.failed / self.attempted, "failures": self.failures,
                "ops_max_rel_err": self.max_rel_err, "check_s": self.check_s}


def run_untraced(loop: Loop, seconds: float) -> dict:
    loop.run(0)                                   # warm-up, checked but not timed
    times, passed = [], 0
    while sum(times) < seconds:
        elapsed, ok = loop.run(len(times))
        times.append(elapsed)
        passed += ok
    pct, tail_s = tail(times)
    loop_s = sum(times)
    return {
        **loop.result(),
        "metrics": {
            "op_s_p50": (statistics.median(times), "s"),
            "op_s_tail": (tail_s, "s"),
            "ops_per_s": (passed / loop_s, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        },
        "tail": {"percentile": pct, "n": len(times)},
        "op_times_s": [round(t, 6) for t in times],
    }


def run_traced(loop: Loop, seconds: float, spans_path: str) -> dict:
    from tracing import Tracer

    n_ops = loop.workloads.TRACE_OPS[loop.workload]
    loop.run(0)                                   # warm-up
    untraced: list[float] = []
    while not untraced or sum(untraced) < seconds / 2.0:
        untraced += [loop.run(i)[0] for i in range(n_ops)]
    tracer = Tracer()
    tracer.install()
    traced = []
    try:
        for i in range(n_ops):
            tracer.op = i
            traced.append(loop.run(i)[0])
    finally:
        tracer.uninstall()
    missing = tracer.missing(loop.workload)
    if missing:
        raise SystemExit(
            f"traced run of {loop.workload!r} saw zero calls of {', '.join(missing)}: "
            "a wrapper missed the name its caller looks up")
    n_spans = tracer.write_spans(spans_path)
    metrics = tracer.layer_metrics(statistics.median(traced), statistics.median(untraced))
    metrics["trace.ops"] = (n_ops, "count")
    return {**loop.result(), "metrics": metrics, "spans": n_spans}


def blas_info() -> dict:
    """numpy's BLAS build and the thread count OpenBLAS reports."""
    import ctypes

    import numpy as np

    info: dict = {"numpy": np.__version__}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = blas.get("name")
        info["blas_version"] = blas.get("version")
    except (TypeError, KeyError, AttributeError):
        info["blas"] = None
    info["blas_threads"] = None
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ".so" in ln}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(handle, sym):
                info["blas_threads"] = int(getattr(handle, sym)())
                return info
    return info


def verdict(loop: Loop) -> dict:
    """The default-config ``verify`` table, max rel_err per check, and versions.

    Runs after the measured phase, so it adds to no metric.
    """
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        rc = loop.cli.main(["verify", "--out", loop.out])
    try:
        info = loop.checks.check_verify({}, rc, loop.out, stdout.getvalue())
        passed, note = True, ""
    except loop.checks.CheckError as exc:
        info, passed, note = {"max_rel_err": {}}, False, str(exc)
    import qed_decoherence

    return {"verify": {"passed": passed, "note": note, **info},
            "versions": {"python": sys.version.split()[0],
                         "qed_decoherence": qed_decoherence.__version__, **blas_info()}}


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tmp")
    ap.add_argument("--result")
    ap.add_argument("--spans")
    ap.add_argument("--import-probe", action="store_true")
    args = ap.parse_args()
    if args.import_probe:
        print(json.dumps(import_probe(args.src)))
        return
    loop = Loop(_import_package(args.src), args.workload, args.seed, args.tmp)
    if args.trace:
        result = run_traced(loop, args.seconds, args.spans)
    else:
        result = run_untraced(loop, args.seconds)
    result.update(verdict(loop))
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
