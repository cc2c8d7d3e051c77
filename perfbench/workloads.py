"""Seeded argv lists for the three benchmark workloads.

Every op is one ``qed_decoherence.cli.main(argv)`` call. The physical
configuration of op ``i`` is drawn from the dipole-valid domain with a
generator seeded by (seed, i), so any op can be rebuilt on its own and the
same seed always gives the same argv lists.

Why each workload (also recorded in BENCHMARK.json):

* ``verify`` is the acceptance gate users run. Most of its time goes to the
  transform oracle (large-N ``densmat`` matrices) and the quadrature layer;
  CSV writing and the scalar closed forms barely show.
* ``scan`` is ``scan --t-points 2000`` (log and linear) plus the cheap figure
  grids fig1, fig2 and fig4. The scalar closed-form kernels and wide CSV rows
  dominate; quadrature and the transform oracle never run, so a change to
  them must leave this workload unmoved.
* ``rho`` is ``rho --points 201`` in both representations plus ``figure
  fig3``. Narrow CSV formatting dominates; it runs the same ``densmat`` grid
  functions as ``verify`` but at N <= 201, so per-call overhead shows here.

The command mix repeats with a fixed period (``CYCLES``), and T = 0 in
exactly every fourth op, so the share of each op kind never depends on the
seed and medians stay comparable between seeds.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("verify", "scan", "rho")

SCAN_POINTS = 2000
RHO_POINTS = 201

# One period of the command mix for each workload. In ``scan`` and ``rho``
# two of every three ops are the heavy command, so the median op lands
# inside that command's cluster, never in the gap between the two kinds.
CYCLES: dict[str, tuple[tuple[str, ...], ...]] = {
    "verify": (("verify",),),
    "scan": (
        ("scan", "log"), ("scan", "linear"), ("figure", "fig1"),
        ("scan", "log"), ("scan", "linear"), ("figure", "fig2"),
        ("scan", "log"), ("scan", "linear"), ("figure", "fig4"),
    ),
    "rho": (("rho", "p"), ("rho", "r"), ("figure", "fig3")),
}

# Ops in the traced run: whole periods of both the command mix and the
# T = 0 pattern, a fixed number so every count it reports repeats exactly.
TRACE_OPS = {"verify": 4, "scan": 9, "rho": 6}


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def op_rng(seed: int, index: int) -> random.Random:
    """The generator behind op ``index``; string seeding is stable across runs."""
    return random.Random(f"qed-perfbench:{seed}:{index}")


def config(seed: int, index: int) -> dict[str, float]:
    """Physical configuration of op ``index``, keyed by the CLI config keys.

    T = 0 in every fourth op, otherwise log-uniform in 0.1-1000 K; Omega
    log-uniform in 1e18-3e19 rad/s; alpha log-uniform in 1e-3-1; p0 in
    [0, 0.2] and delta_p in [0.06, 0.2] (units of m0 c). At the largest Omega
    and smallest delta_p the packet is still inside the dipole bound.
    """
    rng = op_rng(seed, index)
    temperature = _log_uniform(rng, 0.1, 1000.0)
    return {
        "alpha": _log_uniform(rng, 1e-3, 1.0),
        "omega_cut_rad_s": _log_uniform(rng, 1e18, 3e19),
        "temperature_K": 0.0 if index % 4 == 3 else temperature,
        "p0_over_m0c": rng.uniform(0.0, 0.2),
        "delta_p_over_m0c": rng.uniform(0.06, 0.2),
    }


def op(workload: str, seed: int, index: int) -> tuple[list[str], dict[str, float]]:
    """(argv without ``--out``, the config keys that argv sets) of op ``index``."""
    if workload not in CYCLES:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    cycle = CYCLES[workload]
    kind = cycle[index % len(cycle)]
    cfg = config(seed, index)
    if kind == ("figure", "fig3"):
        # fig3 is drawn at its own reference set (alpha = 150, p0 = 0,
        # delta_p = 0.1), which applies only to keys the user leaves unset.
        cfg = {k: cfg[k] for k in ("omega_cut_rad_s", "temperature_K")}
    flags = []
    for key, value in cfg.items():
        flags += [f"--{key.replace('_', '-')}", repr(value)]
    if kind[0] == "verify":
        return ["verify", *flags], cfg
    if kind[0] == "scan":
        return ["scan", "--t-points", str(SCAN_POINTS), "--t-scale", kind[1], *flags], cfg
    if kind[0] == "figure":
        return ["figure", kind[1], *flags], cfg
    # rho at Omega t log-uniform in 1e-3..1e3; its own stream keeps the
    # config draws above identical across workloads
    tau = _log_uniform(random.Random(f"qed-perfbench-rho:{seed}:{index}"), 1e-3, 1e3)
    t_s = tau / cfg["omega_cut_rad_s"]
    return ["rho", "--rep", kind[1], "--points", str(RHO_POINTS), "--t-s", repr(t_s),
            *flags], cfg


def argv_list(workload: str, seed: int, n: int) -> list[list[str]]:
    """The first ``n`` argv lists of a workload."""
    return [op(workload, seed, i)[0] for i in range(n)]
