"""Compare two sets of benchmark results, parent and change.

    python3 perfbench/compare.py PARENT CHANGE

PARENT and CHANGE are each a directory of result files (or one file) as
``run.py`` saves them under ``perfbench/results/``.  For every workload and
metric it prints each side's median, quartiles and number of runs, and a
verdict against the bound in ``BENCHMARK.json``:

- ``worse``: the change's median is worse than the parent's by more than the bound;
- ``unresolved``: the parent's own spread (quartile distance over median)
  exceeds the bound, and not every change run beats every parent run;
- ``gain``: runs paired by seed, the change wins at least nine tenths of the
  pairs (ties count for neither) and the medians differ by more than the
  distance between the parent's quartiles;
- ``same``: none of these.

Per-layer metrics (traced runs) have no bound; they get medians and a gain
test only.  The exit code is 1 when any metric is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: Path) -> list[dict]:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    records = []
    for f in files:
        try:
            record = json.loads(f.read_text(encoding="utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError):
            continue
        if isinstance(record, dict) and {"workload", "seed", "trace", "result"} <= record.keys():
            records.append(record)
    return records


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def by_metric(records: list[dict]) -> dict:
    """(workload, trace, metric) -> {seed: [values]}."""
    out: dict = {}
    for r in records:
        for name, m in r["result"]["metrics"].items():
            out.setdefault((r["workload"], r["trace"], name), {}).setdefault(r["seed"], []).append(m["value"])
    return out


def verdict(parent: dict, change: dict, better: str, bound: float | None) -> str:
    p_vals = [v for vs in parent.values() for v in vs]
    c_vals = [v for vs in change.values() for v in vs]
    p1, pm, p3 = quartiles(p_vals)
    _, cm, _ = quartiles(c_vals)
    sign = 1 if better == "higher" else -1
    gain = sign * (cm - pm)  # positive when the change is better
    if bound is not None and pm != 0 and -gain > bound * abs(pm):
        return "worse"
    pairs = [
        (statistics.median(parent[s]), statistics.median(change[s])) for s in parent if s in change
    ]
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    if pairs and wins >= 0.9 * len(pairs) and abs(cm - pm) > (p3 - p1):
        if gain > 0:
            return "gain"
    if bound is not None and pm != 0 and (p3 - p1) / abs(pm) > bound:
        every = min(sign * c for c in c_vals) > max(sign * p for p in p_vals)
        if not every:
            return "unresolved"
    return "same"


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    meta = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    parent_records, change_records = (load(Path(a)) for a in args)
    parent, change = by_metric(parent_records), by_metric(change_records)
    worse = False
    print(f"{'workload':<13} {'metric':<26} {'parent median [q1, q3] n':>36} {'change median [q1, q3] n':>36} {'change':>8}  verdict")
    for key in sorted(set(parent) & set(change)):
        workload, trace, name = key
        m = meta.get(name, {"better": "lower"})
        cells = []
        for side in (parent[key], change[key]):
            vals = [v for vs in side.values() for v in vs]
            q1, med, q3 = quartiles(vals)
            cells.append((med, f"{med:.5g} [{q1:.5g}, {q3:.5g}] {len(vals)}"))
        delta = (cells[1][0] - cells[0][0]) / abs(cells[0][0]) if cells[0][0] else 0.0
        v = verdict(parent[key], change[key], m["better"], m.get("bound"))
        worse |= v == "worse"
        print(f"{workload:<13} {name:<26} {cells[0][1]:>36} {cells[1][1]:>36} {delta:>+8.1%}  {v}")
    for key in sorted(set(parent) ^ set(change)):
        print(f"{key[0]:<13} {key[2]:<26} only in {'parent' if key in parent else 'change'}")
    for label, records in (("parent", parent_records), ("change", change_records)):
        for workload in sorted({r["workload"] for r in records}):
            rs = [r["result"] for r in records if r["workload"] == workload]
            failed, attempted = sum(r["failed"] for r in rs), sum(r["attempted"] for r in rs)
            correct = all(r["correct"] for r in rs)
            print(f"{label}: {workload}: {failed} of {attempted} operations failed; outputs {'correct' if correct else 'WRONG'}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
