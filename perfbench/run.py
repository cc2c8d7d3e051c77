"""Benchmark of the qed-decoherence CLI.

    python3 perfbench/run.py --workload verify|scan|rho --seed N --seconds S --trace 0|1

Run from the repository root (or a copy of it). The package is imported from
``src/`` beside this directory, never from an installed copy. One run:

1. times ``import qed_decoherence.cli`` (numpy included) in several fresh
   interpreters: ``setup_s`` is their median;
2. runs the workload in a fresh worker process (see worker.py), untraced for
   the end-to-end metrics (``--trace 0``) or traced for the per-layer ones
   (``--trace 1``), then the default ``verify`` for the record's verdict.

Every output of the CLI goes to a temporary directory under
``perfbench/out/``, which also collects one JSON record per run in
``records.jsonl`` (compare two such files with compare.py) and the spans of
the last traced run of each workload. The last line of stdout is the result,
``{"correct", "attempted", "failed", "metrics"}``, whose metrics are the ones
BENCHMARK.json lists for the mode; the lines above it and the record give
every metric measured.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

IMPORT_PROBES = 5          # setup_s is the median of these fresh imports
CHILD_TIMEOUT_S = 150


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def child_env() -> dict[str, str]:
    """BLAS threads at no more than nproc (a lower setting by the caller stays)."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        current = env.get(var, "")
        env[var] = str(min(nproc(), int(current)) if current.isdigit() else nproc())
    return env


def run_child(args: list[str], result: Path | None = None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--src", str(SRC), *args]
    if result is not None:
        cmd += ["--result", str(result)]
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker failed ({proc.returncode}): {' '.join(args)}")
    if result is None:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    return json.loads(result.read_text(encoding="utf-8"))


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_rev() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("verify", "scan", "rho"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", type=Path, default=OUT / "records.jsonl",
                    help="JSON-lines file that collects one record per run")
    args = ap.parse_args()
    if not (SRC / "qed_decoherence" / "cli.py").is_file():
        sys.stderr.write(f"no package source at {SRC}; run from a checkout of the repository\n")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    if args.seconds <= 0:
        sys.stderr.write("--seconds must be positive\n")
        return 2

    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        probes = [run_child(["--import-probe"]) for _ in range(IMPORT_PROBES + 1)][1:]
        work = ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace), "--tmp", str(tmp)]
        if args.trace:
            work += ["--spans", str(OUT / f"spans-{args.workload}.npz")]
        result = run_child(work, tmp / "result.json")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    def median(key: str) -> float:
        return statistics.median(p[key] for p in probes)

    metrics = result["metrics"]
    if args.trace:
        metrics["import.numpy_s"] = (median("numpy_s"), "s")
        metrics["import.qed_decoherence_s"] = (median("qed_decoherence_s"), "s")
    else:
        metrics = {"setup_s": (median("setup_s"), "s"), **metrics}
    correct = result["failed"] == 0 and result["verify"]["passed"]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "fail_frac": result["fail_frac"],
        "failures": result["failures"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "tail": result.get("tail"),
        "op_times_s": result.get("op_times_s"),
        "spans": result.get("spans"),
        "check_s": result["check_s"],
        "verify": {**result["verify"], "ops_max_rel_err": result["ops_max_rel_err"]},
        "provenance": {
            "nproc": nproc(),
            "blas_threads_env": child_env()["OPENBLAS_NUM_THREADS"],
            **result["versions"],
            "git_rev": git_rev(),
            "src_sha256": source_digest(),
            "import_probes": probes,
        },
    }
    args.record.parent.mkdir(parents=True, exist_ok=True)
    with open(args.record, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")

    for failure in result["failures"]:
        print(f"FAILED {failure}")
    if record["tail"]:
        print(f"op_s_tail is p{record['tail']['percentile']:g} of n = {record['tail']['n']} ops")
    print(f"fail_frac {record['fail_frac']:.6g} 1 ({record['failed']} of {record['attempted']})")
    for name, m in record["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": {name: record["metrics"][name] for name in listed}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
