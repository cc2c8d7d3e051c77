"""Tests of the benchmark itself (not part of the package's test suite).

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(HERE), str(SRC)]

import checks  # noqa: E402
import workloads  # noqa: E402
from qed_decoherence import cli  # noqa: E402
from qed_decoherence import config as cfg  # noqa: E402
from qed_decoherence.params import DomainError  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_fixes_the_argv_lists(workload):
    first = workloads.argv_list(workload, 7, 40)
    assert first == workloads.argv_list(workload, 7, 40)
    assert first != workloads.argv_list(workload, 8, 40)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_generated_config_is_in_the_domain(workload):
    parser = cli.build_parser()
    for seed in range(5):
        for index in range(200):
            argv, keys = workloads.op(workload, seed, index)
            args = parser.parse_args([*argv, "--out", "x.csv"])
            overrides = {k: getattr(args, k) for k in cfg.CONFIG_KEYS}
            assert {k: v for k, v in overrides.items() if v is not None} == keys
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                try:
                    cfg.build_params(cfg.resolve(None, overrides))
                except DomainError as exc:
                    pytest.fail(f"{workload} seed {seed} op {index}: {exc}")


def _corrupt(path: Path, column: int, row: int, value: str) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    data = [i for i, ln in enumerate(lines) if not ln.startswith("#")][1:]
    cells = lines[data[row]].split(",")
    cells[column] = value
    lines[data[row]] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_checks_reject_a_wrong_scan_value(tmp_path):
    argv, keys = workloads.op("scan", 3, 0)
    argv[argv.index("--t-points") + 1] = "50"
    out = tmp_path / "scan.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert cli.main([*argv, "--out", str(out)]) == 0
    checks.check(argv, keys, 0, str(out), "", random.Random(1))
    s_lin = checks.SCAN_COLUMNS.index("s_lin")
    _corrupt(out, s_lin, 10, "0.5")
    with pytest.raises(checks.CheckError, match="s_lin"):
        checks.check(argv, keys, 0, str(out), "", random.Random(1))


def test_checks_reject_a_non_hermitian_rho(tmp_path):
    argv, keys = workloads.op("rho", 3, 0)
    argv[argv.index("--points") + 1] = "41"
    out = tmp_path / "rho.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert cli.main([*argv, "--out", str(out)]) == 0
    checks.check(argv, keys, 0, str(out), "", random.Random(1))
    _corrupt(out, 4, 41 * 3 + 7, "1.0")
    with pytest.raises(checks.CheckError, match="Hermitian"):
        checks.check(argv, keys, 0, str(out), "", random.Random(1))


def _worker(tmp_path: Path, workload: str, trace: int) -> dict:
    result = tmp_path / f"{workload}-{trace}.json"
    subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--src", str(SRC), "--workload", workload,
         "--seed", "5", "--seconds", "0.1", "--trace", str(trace), "--tmp", str(tmp_path),
         "--result", str(result), "--spans", str(tmp_path / f"spans-{workload}.npz")],
        check=True, timeout=170)
    return json.loads(result.read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat_exactly(tmp_path, workload):
    runs = [_worker(tmp_path, workload, 1) for _ in range(2)]
    for run in runs:
        assert run["failed"] == 0, run["failures"]
        names = set(run["metrics"]) | {"import.numpy_s", "import.qed_decoherence_s"}
        assert names == {m["name"] for m in SPEC["per_layer"]}
        units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        assert all(units[k] == unit for k, (_, unit) in run["metrics"].items())
    counts = [{k: v for k, (v, unit) in run["metrics"].items() if unit in ("count", "B")}
              for run in runs]
    assert counts[0] == counts[1]
    deterministic = {
        "verify": ("quadrature.kronrod_panel.calls", "densmat.rho_p_matrix.elements"),
        "scan": ("decoherence.DecoherenceFactors.at_time.calls",),
        "rho": ("densmat.rho_p_matrix.elements",),
    }[workload]
    assert all(counts[0][name] > 0 for name in deterministic)


def test_result_line_has_every_listed_end_to_end_metric(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "scan", "--seed", "5",
         "--seconds", "0.5", "--record", str(tmp_path / "records.jsonl")],
        check=True, capture_output=True, text=True, timeout=170)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == listed
    assert all(m["value"] > 0 for m in result["metrics"].values())
    record = json.loads((tmp_path / "records.jsonl").read_text(encoding="utf-8"))
    assert {"op_s_p50", "ops_per_s"} <= set(record["metrics"])
    assert record["verify"]["passed"] and record["provenance"]["src_sha256"]
