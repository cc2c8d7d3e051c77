"""Compare two sets of benchmark records, metric by metric and workload by workload.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds the JSON records run.py appends, one per line (its default
is perfbench/out/records.jsonl; pass ``--record`` to keep sets apart).
Untraced records are grouped by workload; for every end-to-end metric the
records hold, the table shows each side's median and quartiles and, for the
metrics BENCHMARK.json lists, a verdict against the metric's bound:

* ``regressed``: NEW's median is worse than BASE's by more than the bound;
* ``unresolved``: BASE's own spread (quartile distance over median) exceeds
  the bound, and not every NEW run beats every BASE run;
* ``improved``: NEW's median is better by more than either side's spread;
* ``same``: otherwise.

Failed ops are summed per side. The exit code is 1 if any metric regressed
or any op failed, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: str) -> dict[str, list[dict]]:
    by_workload: dict[str, list[dict]] = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.strip():
            rec = json.loads(line)
            if rec["trace"] == 0:
                by_workload.setdefault(rec["workload"], []).append(rec)
    return by_workload


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: list[float], new: list[float], bound: float, higher_better: bool) -> str:
    b1, bm, b3 = quartiles(base)
    n1, nm, n3 = quartiles(new)
    sign = 1.0 if higher_better else -1.0
    gain = sign * (nm - bm) / bm          # > 0 means NEW is better
    spread = (b3 - b1) / bm
    if gain < -bound:
        return "regressed"
    all_better = min(sign * v for v in new) > max(sign * v for v in base)
    if spread > bound and not all_better:
        return "unresolved"
    if gain > max(spread, (n3 - n1) / nm):
        return "improved"
    return "same"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    base, new = load(argv[0]), load(argv[1])
    bad = False
    print(f"{'workload':8s} {'metric':12s} {'unit':5s} {'bound':>5s}  "
          f"{'base q1 / median / q3':>32s}  {'new q1 / median / q3':>32s}  "
          f"{'change':>7s}  verdict")
    gated = {m["name"]: m for m in spec["end_to_end"]}
    for workload in sorted(set(base) & set(new)):
        a, b = base[workload], new[workload]
        names = dict.fromkeys(k for r in a + b for k in r["metrics"])
        for name in names:
            va = [r["metrics"][name]["value"] for r in a if name in r["metrics"]]
            vb = [r["metrics"][name]["value"] for r in b if name in r["metrics"]]
            if not va or not vb:
                continue
            qa, qb = quartiles(va), quartiles(vb)
            unit = next(r["metrics"][name]["unit"] for r in a + b if name in r["metrics"])
            m = gated.get(name)
            if m is None:
                v, bound = "(not gated)", ""
            else:
                v = verdict(va, vb, m["bound"], m["better"] == "higher")
                bound = f"{m['bound']:5.2f}"
            bad |= v == "regressed"
            print(f"{workload:8s} {name:12s} {unit:5s} {bound:>5s}  "
                  f"{qa[0]:10.4g} {qa[1]:10.4g} {qa[2]:10.4g}  "
                  f"{qb[0]:10.4g} {qb[1]:10.4g} {qb[2]:10.4g}  "
                  f"{(qb[1] - qa[1]) / qa[1]:+7.1%}  {v}")
        fa = sum(r["failed"] for r in a), sum(r["attempted"] for r in a)
        fb = sum(r["failed"] for r in b), sum(r["attempted"] for r in b)
        bad |= fb[0] > 0
        print(f"{workload:8s} {'fail_frac':12s} {'1':5s} {'':5s}  "
              f"{fa[0]:>21d} of {fa[1]:<7d}  {fb[0]:>21d} of {fb[1]:<7d}  "
              f"{len(a)} vs {len(b)} runs")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
