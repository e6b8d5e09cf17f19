"""CLI bytes pinned against golden files: stdout, exit code and every file written.

Each case runs one command in a fresh directory holding the input files
below and compares its transcript with ``tests/data/cli_golden/<case>.txt``.
The directory's path is written as ``<tmp>``.  To rewrite the golden files
after an intended output change, run ``PYTHONPATH=src python
tests/test_cli_golden.py`` from the repository root and review the diff.
"""

from __future__ import annotations

import io
import os
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from multiway.cli import BUDGET_ENV_VAR, main

GOLDEN = Path(__file__).parent / "data" / "cli_golden"

INPUTS = {
    "fig1.rules": "init: AA\nrule: A -> AB\n",
    "exp3.rules": "init: Q\nrule: Q -> Qa\nrule: Q -> Qb\nrule: Q -> Qc\n",
    "xy.rules": "init: XY\nrule: X -> XY\n",
    # shares B with fig1.rules, so their product is not rule independent
    "shared.rules": "init: B\nrule: B -> A\n",
    "inc.machine": (
        "states: 3 halting: {3}\nblank: 0\n"
        "delta: (1, 1) -> (1, R, 1)\ndelta: (1, 0) -> (1, L, 2)\n"
        "delta: (2, 1) -> (1, L, 2)\ndelta: (2, 0) -> (0, R, 3)\n"
    ),
}

CASES = {
    "simulate-csv": "simulate {tmp}/fig1.rules --horizon 5",
    "simulate-json": "simulate {tmp}/fig1.rules --horizon 6 --format json",
    "simulate-dot": "simulate {tmp}/fig1.rules --horizon 3 --format dot --out {tmp}/g.dot",
    "simulate-csv-truncated": "simulate {tmp}/exp3.rules --horizon 9 --budget 100",
    "classify": "classify {tmp}/exp3.rules --horizon 10",
    "zoo-list-text": "zoo list",
    "zoo-list-json": "zoo list --format json",
    "zoo-emit": "zoo emit polynomial 4 --out {tmp}/poly.rules",
    "compile-tm-enchain": "compile-tm {tmp}/inc.machine --enchain --input 1",
    "combine-sum": "combine {tmp}/fig1.rules {tmp}/xy.rules --op sum --out {tmp}/sum.rules",
    "combine-product": (
        "combine {tmp}/fig1.rules {tmp}/shared.rules --op product --out {tmp}/prod.rules"
    ),
    "combine-reduce": "combine {tmp}/fig1.rules --op reduce --out {tmp}/red.rules",
}


def transcript(case: str, tmp: Path) -> str:
    """Run one case in the empty directory ``tmp`` and render what it printed and wrote."""
    for name, text in INPUTS.items():
        (tmp / name).write_text(text, encoding="utf-8")
    argv = CASES[case].format(tmp=tmp).split()
    budget = os.environ.pop(BUDGET_ENV_VAR, None)
    out = io.StringIO()
    try:
        with redirect_stdout(out):
            code = main(argv)
    finally:
        if budget is not None:
            os.environ[BUDGET_ENV_VAR] = budget
    parts = [f"$ multiway {' '.join(argv)}", f"exit {code}", "--- stdout ---", out.getvalue()]
    for path in sorted(p for p in tmp.iterdir() if p.name not in INPUTS):
        parts += [f"--- {path} ---", path.read_text(encoding="utf-8")]
    return "\n".join(parts).replace(str(tmp), "<tmp>")


@pytest.mark.parametrize("case", CASES)
def test_cli_output_matches_golden(case, tmp_path):
    expected = (GOLDEN / f"{case}.txt").read_text(encoding="utf-8")
    assert transcript(case, tmp_path) == expected


if __name__ == "__main__":
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            text = transcript(case, Path(tmp))
        (GOLDEN / f"{case}.txt").write_text(text, encoding="utf-8")
        print(f"wrote {GOLDEN / case}.txt", file=sys.stderr)
